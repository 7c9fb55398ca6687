"""Multi-index bookkeeping for tensor product spaces.

Vectors in V_1 (x) ... (x) V_k are dicts keyed by flat indices; the flat
index is row-major (first factor slowest).  Operators on tensor spaces
are read off a structure table with table_matrix and assembled from such
matrices: slot places an operator on one slot, permute reorders the
tensor slots of a matrix's rows or columns, reshape moves tensor slots
between rows and columns, and column_blocks splits a map out of
K (x) D into one map per basis element of K.  Each moves the ints of a
lift without arithmetic; column_blocks then normalises each block.
"""

from .linalg import Matrix


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
    the new index is slot order[j] of the old one.  One table gives the new
    index of every old one, built slot by slot with each slot weighted by
    its stride in the new index, and one pass maps the entries through it:
    no permutation matrix is built.
    """
    stride = [0] * len(dims)
    step = 1
    for o in reversed(order):
        stride[o] = step
        step *= dims[o]
    move = [0]
    for dim, w in zip(dims, stride):
        move = [t + i * w for t in move for i in range(dim)]
    a, d = mat.lift
    if cols:
        ent = {(r, move[c]): v for (r, c), v in a.items()}
    else:
        ent = {(move[r], c): v for (r, c), v in a.items()}
    return Matrix(mat.field, mat.rows, mat.cols, lift=(ent, d))


def reshape(mat, rows):
    """mat regrouped into `rows` rows, its entries kept in row-major order:
    a map W (x) U -> V becomes U -> V (x) W* for rows = dim V dim W, and
    back for rows = dim V."""
    cols = mat.rows * mat.cols // rows
    a, d = mat.lift
    ent = {divmod(i * mat.cols + j, cols): v for (i, j), v in a.items()}
    return Matrix(mat.field, rows, cols, lift=(ent, d))


def slot(op, before, after):
    """I (x) op (x) I: op on one slot, with identities of dimensions before
    and after on either side.  The ints of op's lift are copied, not
    multiplied; an empty result has the zero matrix's lift ({}, 1)."""
    r, c = op.rows, op.cols
    ints, d = op.lift
    ent = {((b * r + i) * after + a, (b * c + j) * after + a): v
           for b in range(before) for (i, j), v in ints.items()
           for a in range(after)}
    return Matrix(op.field, before * r * after, before * c * after,
                  lift=(ent, d) if ent else ({}, 1))


def column_blocks(mat, k):
    """mat: K (x) D -> W split along K, dim K = k: block h is d |-> mat(e_h (x) d)."""
    f, d = mat.field, mat.cols // k
    ints, den = mat.lift
    ent = [{} for _ in range(k)]
    for (i, j), v in ints.items():
        h, x = divmod(j, d)
        ent[h][(i, x)] = v
    return [Matrix(f, mat.rows, d, lift=f.normalize(e, den)) for e in ent]
