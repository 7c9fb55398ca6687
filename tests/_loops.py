"""Entry-by-entry field-arithmetic vector sums, the references that the
integer kernels of `hopfcyclic.linalg` are tested against.  They were
package functions until no package module called them."""


def vec_add(field, u, v):
    w = dict(u)
    for i, x in v.items():
        y = field.add(w.get(i, field.zero), x)
        if field.is_zero(y):
            w.pop(i, None)
        else:
            w[i] = y
    return w


def vec_scale(field, c, u):
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in u.items()}


def vec_sub(field, u, v):
    return vec_add(field, u, vec_scale(field, field.neg(field.one), v))
