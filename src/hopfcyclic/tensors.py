"""Multi-index bookkeeping for tensor product spaces.

Vectors in V_1 (x) ... (x) V_k are dicts keyed by flat indices; the flat
index is row-major (first factor slowest).  Operators on tensor spaces
are assembled basis element by basis element via build_matrix, or read
off a structure table with table_matrix; permute reorders the tensor
slots of a matrix's rows or columns.
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


def _flat(key, dims):
    return flatten(key, dims) if isinstance(key, tuple) else key


def table_matrix(field, table, src_dims, tgt_dims):
    """Matrix of the map e_s -> table[s] between two tensor spaces.

    table maps a source key to a dict-vector keyed by target keys; a key
    over one slot is a bare index, over several a tuple of indices.
    """
    ent = {(_flat(t, tgt_dims), _flat(s, src_dims)): v
           for s, vec in table.items() for t, v in vec.items()}
    return Matrix(field, prod(tgt_dims), prod(src_dims), ent)


def matrix_table(mat, src_dims, tgt_dims):
    """The table of mat keyed as table_matrix reads it, every source key present."""
    def key(i, dims):
        return unflatten(i, dims) if len(dims) > 1 else i
    return {key(c, src_dims): {key(r, tgt_dims): v for r, v in col.items()}
            for c, col in enumerate(mat.columns())}


def permute(mat, dims, order, cols=False):
    """mat with the slots of its row (or column) index reordered.

    The index runs over V_0 (x) ... (x) V_k with dimensions dims; slot j of
    the new index is slot order[j] of the old one.  One pass over the
    entries: no permutation matrix is built.
    """
    new_dims = [dims[o] for o in order]

    def move(i):
        idx = unflatten(i, dims)
        return flatten([idx[o] for o in order], new_dims)
    if cols:
        ent = {(r, move(c)): v for (r, c), v in mat.entries.items()}
    else:
        ent = {(move(r), c): v for (r, c), v in mat.entries.items()}
    return Matrix._owning(mat.field, mat.rows, mat.cols, ent)
