"""Entry-by-entry loop forms, the references that the package's Matrix
forms are tested against.

The package reads every structure map (m, Delta, eps, S, an action) as a
Matrix and its vector sums as integer kernels of `hopfcyclic.linalg`.
The functions below evaluate the same maps on dict-vectors {index:
scalar}, one table entry at a time in field arithmetic, as independent
definitions.  They were package functions and methods until no package
module called them: `multiply` was `AlgebraData.multiply` (and, through
`hopf.algebra`, `HopfAlgebraData.multiply`), `comul_vec`, `counit_vec`
and `iterated` were `CoalgebraData`'s methods (`counit_vec` and
`iterated` of `hopf.coalgebra` were `HopfAlgebraData.counit` and
`sweedler`), and `act` was the `act` method of `ModuleAlgebra` and
`ModuleCoalgebra`.
"""


def add_into(field, d, key, v):
    """d[key] += v, dropping the key when the sum is zero."""
    s = field.add(d.get(key, field.zero), v)
    if field.is_zero(s):
        d.pop(key, None)
    else:
        d[key] = s


def vec_add(field, u, v):
    w = dict(u)
    for i, x in v.items():
        add_into(field, w, i, x)
    return w


def vec_scale(field, c, u):
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in u.items()}


def vec_sub(field, u, v):
    return vec_add(field, u, vec_scale(field, field.neg(field.one), v))


def vec_eq(field, u, v):
    return all(field.is_zero(field.sub(u.get(k, field.zero), v.get(k, field.zero)))
               for k in set(u) | set(v))


def bilinear(field, table, u, v):
    """sum x_i y_j table[(i, j)] for a table of vectors keyed by index pairs;
    a missing key is the zero vector, as table_matrix reads it."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            c = field.mul(x, y)
            for k, z in table.get((i, j), {}).items():
                add_into(field, out, k, field.mul(c, z))
    return out


def linear(field, table, u):
    """sum x_i table[i] for a table of vectors keyed by one index; a missing
    key is the zero vector."""
    out = {}
    for i, x in u.items():
        for k, v in table.get(i, {}).items():
            add_into(field, out, k, field.mul(x, v))
    return out


def multiply(alg, u, v):
    """u v in the algebra alg (an AlgebraData)."""
    return bilinear(alg.field, alg.mul, u, v)


def comul_vec(co, u):
    """Delta(u) in the coalgebra co, keyed by index pairs."""
    return linear(co.field, co.comul, u)


def counit_vec(co, u):
    """eps(u) in the coalgebra co."""
    f = co.field
    out = f.zero
    for i, x in u.items():
        out = f.add(out, f.mul(x, co.counit.get(i, f.zero)))
    return out


def iterated(co, u, parts):
    """Delta^(parts-1): vector -> dict {tuple of length parts: scalar}."""
    f = co.field
    cur = {(i,): x for i, x in u.items()}
    for _ in range(parts - 1):
        nxt = {}
        for key, x in cur.items():
            for (j, k), v in co.comul[key[-1]].items():
                add_into(f, nxt, key[:-1] + (j, k), f.mul(x, v))
        cur = nxt
    return cur


def apply_antipode(hopf, u, inverse=False):
    """S(u), or S^-1(u) when inverse."""
    return (hopf.antipode_inv if inverse else hopf.antipode).apply(u)


def act(x, h_vec, v_vec):
    """h.v for x with an action table: a module algebra, a module
    coalgebra or a mod-comodule."""
    return bilinear(x.field, x.action, h_vec, v_vec)
