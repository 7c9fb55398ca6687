"""Multi-index bookkeeping for tensor product spaces.

Vectors in V_1 (x) ... (x) V_k are dicts keyed by flat indices; the flat
index is row-major (first factor slowest).  Operators on tensor spaces
are assembled basis element by basis element via build_matrix.
"""

from .linalg import Matrix, add_into


def flatten(idx, dims):
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


def unflatten(flat, dims):
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def prod(dims):
    out = 1
    for d in dims:
        out *= d
    return out


def tensor_step(field, terms, piece):
    """Extend {tuple: coeff} by one tensor slot drawn from dict-vector piece."""
    out = {}
    for key, v in terms.items():
        for idx, w in piece.items():
            add_into(field, out, key + (idx,), field.mul(v, w))
    return out


def build_matrix(field, src_dims, tgt_dims, image):
    """Matrix of the linear map sending basis multi-index t to image(t).

    image(t) returns a dict mapping target multi-index tuples to scalars.
    """
    src_total = prod(src_dims)
    tgt_total = prod(tgt_dims)
    ent = {}
    for col in range(src_total):
        t = unflatten(col, src_dims)
        for tt, v in image(t).items():
            add_into(field, ent, (flatten(tt, tgt_dims), col), v)
    return Matrix(field, tgt_total, src_total, ent)

