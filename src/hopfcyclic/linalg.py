"""Exact sparse linear algebra over Q and F_p.

Matrices are sparse maps (row, col) -> nonzero scalar.  Products,
Kronecker products, linear combinations (every sum, difference and
scaling, through Matrix.lincomb), matrix-vector products and subspace
reductions run on Python ints: the field lifts each operand to ints over
one common denominator (over F_p, the residues themselves), sums of
products accumulate with no zero test, and the sums are lowered in one
pass into a new dict that keeps only the nonzero field elements, each
sum divided by the denominator over Q or reduced mod p over F_p
(fraction-free accumulation and delayed modular reduction).  A matrix
is lifted at most once: the first kernel that reads it caches the lift
and freezes the matrix.  Subspace is the one elimination engine: it
keeps a fully reduced echelon basis, each vector also held lifted to
ints, and a column index of the basis vectors nonzero in each non-pivot
column.  Each basis vector is 1 at its pivot and 0 at every other
pivot, so reducing a vector is one pass over the pivots in its support,
inserting one clears its pivot from just the vectors the index lists
there, and a quotient projection is read off the basis without reducing
anything.  Matrix.rref is the reduced basis of the row space, and rank,
kernels and inverses are read off it.  operator_closure grows graded
subspaces to the smallest one closed under a list of operators and then
certifies that fixpoint; a failed certificate raises CertificateFailure,
an AssertionError that names what failed and, unlike an assert
statement, still runs under python -O.
"""

from bisect import bisect_left
from collections import deque
from math import lcm
from types import MappingProxyType


class ShapeMismatch(Exception):
    pass


class SingularMatrix(ValueError):
    """Matrix.inverse was given a singular matrix."""


class CertificateFailure(AssertionError):
    """An exact certificate failed; the message names the identity."""


def add_into(field, d, key, v):
    """d[key] += v, dropping the key when the sum is zero."""
    s = field.add(d.get(key, field.zero), v)
    if field.is_zero(s):
        d.pop(key, None)
    else:
        d[key] = s


class Matrix:
    """Sparse exact matrix.  Stored entries are nonzero.

    Build the entries dict first and pass it to the constructor.  The
    first product, Kronecker product, linear combination or apply that
    reads the matrix caches its entries lifted to ints and turns `entries`
    into a read-only view, so a later write raises TypeError instead of
    going unseen by the cached lift.
    """

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        self._lift = None       # (ints, d), set by _ints
        self._by_col = None     # (column -> [(row, int)], d), set by apply
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch("entry (%d,%d) out of %dx%d" % (i, j, rows, cols))
                if not field.is_zero(v):
                    self.entries[(i, j)] = v

    @classmethod
    def _owning(cls, field, rows, cols, entries):
        """Matrix that keeps `entries` as is: in range and zero-free."""
        m = cls(field, rows, cols)
        m.entries = entries
        return m

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def from_columns(cls, field, rows, columns):
        """columns: list of dict-vectors of length `rows`."""
        return cls(field, rows, len(columns),
                   {(i, j): v for j, col in enumerate(columns)
                    for i, v in col.items()})

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def is_zero(self):
        return not self.entries

    @staticmethod
    def lincomb(terms):
        """sum c M over a nonempty list of (c, M): scalars c (field elements
        or ints) and matrices of one shape.  Summed in ints over the lcm D
        of the lifted terms' denominators, each entry divided by D once."""
        m0 = terms[0][1]
        f = m0.field
        lifted = []
        for c, m in terms:
            if (m.rows, m.cols) != (m0.rows, m0.cols):
                raise ShapeMismatch("add %dx%d with %dx%d"
                                    % (m0.rows, m0.cols, m.rows, m.cols))
            s, dc = f.integral({0: c})
            lifted.append((s[0], dc, *m._ints()))
        d = lcm(*[dc * dm for _, dc, _, dm in lifted])
        acc = {}
        get = acc.get
        for s, dc, a, dm in lifted:
            s *= d // (dc * dm)
            if s:
                for k, v in a.items():
                    acc[k] = get(k, 0) + s * v
        return Matrix._owning(f, m0.rows, m0.cols, f.from_integral(acc, d))

    def __add__(self, other):
        return Matrix.lincomb([(1, self), (1, other)])

    def __sub__(self, other):
        return Matrix.lincomb([(1, self), (-1, other)])

    def scale(self, c):
        return Matrix.lincomb([(c, self)])

    def _ints(self):
        """(ints, d) with entries == ints / d, lifted and frozen once.  The
        lift is shared and never written to: kernels accumulate into dicts
        of their own, and from_integral lowers those into new dicts."""
        if self._lift is None:
            self.entries = MappingProxyType(self.entries)
            self._lift = self.field.integral(self.entries)
        return self._lift

    def __mul__(self, other):
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ShapeMismatch("mul %dx%d with %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        a, da = self._ints()
        b, db = other._ints()
        by_row = {}
        for (i, j), w in b.items():
            by_row.setdefault(i, []).append((j, w))
        acc = {}
        get = acc.get
        for (i, k), v in a.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = get(key, 0) + v * w
        return Matrix._owning(f, self.rows, other.cols,
                              f.from_integral(acc, da * db))

    def apply(self, vec):
        """Apply to a dict-vector (length self.cols), returns dict-vector.

        The first call indexes the matrix's lift by column.  Each call
        lifts vec, sums the products in ints and turns each sum into a
        field element once.
        """
        f = self.field
        if self._by_col is None:
            a, da = self._ints()
            by_col = {}
            for (i, j), v in a.items():
                by_col.setdefault(j, []).append((i, v))
            self._by_col = by_col, da
        by_col, da = self._by_col
        x, dx = f.integral(vec)
        out = {}
        get = out.get
        for j, c in x.items():
            for i, v in by_col.get(j, ()):
                out[i] = get(i, 0) + v * c
        return f.from_integral(out, da * dx)

    def transpose(self):
        return Matrix._owning(self.field, self.cols, self.rows,
                              {(j, i): v for (i, j), v in self.entries.items()})

    def kron(self, other):
        """Kronecker product, row-major flattening (self slowest)."""
        f = self.field
        a, da = self._ints()
        b, db = other._ints()
        r, c = other.rows, other.cols
        return Matrix._owning(
            f, self.rows * r, self.cols * c,
            f.from_integral({(i * r + k, j * c + l): v * w
                             for (i, j), v in a.items()
                             for (k, l), w in b.items()}, da * db))

    def rank(self):
        return len(self.rref()[0])

    def rref(self):
        """Reduced row echelon form as (pivot columns, sparse rows).

        rows[k] is the dict of the row whose leading 1 is in column
        pivots[k].  The reduced form is unique: it is the reduced basis of
        the row space, read off a Subspace that the rows are inserted into.
        """
        rows = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        s = Subspace.from_vectors(self.field, self.cols, rows.values())
        return s.pivots, s.basis

    def kernel_basis(self):
        """Kernel as a Subspace of the column space (ambient dim = cols)."""
        f = self.field
        pivots, rows = self.rref()
        pivot_set = set(pivots)
        basis = {c: {c: f.one} for c in range(self.cols) if c not in pivot_set}
        for pc, row in zip(pivots, rows):
            for c, v in row.items():
                if c != pc:
                    basis[c][pc] = f.neg(v)
        return Subspace.from_vectors(f, self.cols, list(basis.values()))

    def inverse(self):
        """Exact inverse; raises SingularMatrix when there is none."""
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of non-square matrix")
        f = self.field
        n = self.rows
        aug = dict(self.entries)
        for i in range(n):
            aug[(i, n + i)] = f.one
        pivots, rows = Matrix._owning(f, n, 2 * n, aug).rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix._owning(f, n, n, {(i, j - n): v
                                        for i, row in enumerate(rows)
                                        for j, v in row.items() if j >= n})

    def pow_int(self, k):
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = Matrix.identity(self.field, self.rows)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


class Subspace:
    """Subspace of k^n kept as a fully reduced echelon basis.

    Basis vectors are dict-vectors; pivot columns strictly increase, each
    basis vector b_p is 1 at its own pivot p, 0 at every other pivot, and
    has no entry left of p.  `_by_pivot` maps p to b_p, `_lifted` maps
    p to b_p lifted to ints, (ints, d) with b_p = ints / d, and the column
    index `_holders` maps each non-pivot column j to the pivots p with
    b_p[j] != 0.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = []      # list of dict-vectors
        self.pivots = []     # pivot index per basis vector, sorted
        self._by_pivot = {}  # pivot -> basis vector
        self._lifted = {}    # pivot -> basis vector lifted to ints
        self._holders = {}   # non-pivot column -> pivots nonzero there

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        s = cls(field, ambient_dim)
        for v in vectors:
            s.add_vector(v)
        return s

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residual of vec modulo the subspace.

        The basis is fully reduced, so the residual is vec - sum vec[p] b_p
        over the pivots p in the support of vec.  With vec = x / dx and
        b_p = B_p / d_p lifted to ints, it is summed in ints over
        D = lcm of the d_p, as (D x - sum x[p] (D / d_p) B_p) / (D dx), and
        each entry becomes a field element once.
        """
        f = self.field
        lifted = self._lifted
        x, dx = f.integral(vec)
        hits = [(c, lifted[p]) for p, c in x.items() if p in lifted]
        d = lcm(*[db for _, (_, db) in hits])
        out = {k: c * d for k, c in x.items()} if d != 1 else dict(x)
        get = out.get
        for c, (b, db) in hits:
            s = c * (d // db)
            for j, w in b.items():
                out[j] = get(j, 0) - s * w
        return f.from_integral(out, d * dx)

    def contains(self, vec):
        return not self.reduce(vec)

    def coordinates(self, vec):
        """Coordinates of vec in the basis (b_p is 1 at p and 0 at the
        other pivots, so they are vec's pivot entries), or None if outside."""
        if self.reduce(vec):
            return None
        return {i: vec[p] for i, p in enumerate(self.pivots) if p in vec}

    def add_vector(self, vec):
        """Insert vec if independent; returns True when the subspace grew.

        The reduced vec, scaled to 1 at its pivot, is cleared from the basis
        vectors the column index lists at that pivot.  Each of them changes
        only on the support of the new vector, so the index is updated there.
        """
        f = self.field
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        v, _ = f.integral(v)
        v = f.from_integral(v, v[piv])              # 1 at piv
        lv, dv = self._lifted[piv] = f.integral(v)
        holders = self._holders
        cleared = holders.pop(piv, ())
        for j in v:
            holders.setdefault(j, set()).add(piv)
        # b - b[piv] v = (lb dv - lb[piv] lv) / (db dv)
        for p in cleared:
            lb, db = self._lifted[p]
            c = lb[piv]
            acc = {k: w * dv for k, w in lb.items()} if dv != 1 else dict(lb)
            get = acc.get
            for j, w in lv.items():
                acc[j] = get(j, 0) - c * w
            b = self._by_pivot[p] = f.from_integral(acc, db * dv)
            self.basis[bisect_left(self.pivots, p)] = b
            self._lifted[p] = f.integral(b)
            for j in lv:
                (holders[j].add if j in b else holders[j].discard)(p)
        del holders[piv]                            # now a pivot column
        pos = bisect_left(self.pivots, piv)
        self.pivots.insert(pos, piv)
        self.basis.insert(pos, v)
        self._by_pivot[piv] = v
        return True

    def copy(self):
        s = Subspace(self.field, self.ambient_dim)
        s.basis = [dict(b) for b in self.basis]
        s.pivots = list(self.pivots)
        s._by_pivot = dict(zip(s.pivots, s.basis))
        s._lifted = dict(self._lifted)   # shared: no lift is ever written
        s._holders = {j: set(ps) for j, ps in self._holders.items()}
        return s

    def basis_matrix(self):
        """Columns are the basis vectors."""
        return Matrix.from_columns(self.field, self.ambient_dim, self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self.basis == other.basis)


def quotient_space(ambient_dim, sub):
    """Quotient of k^n by a subspace.

    Returns (dim, projection, section) with projection*section = id on the
    quotient and kernel(projection) = sub.  Quotient coordinates are the
    non-pivot coordinates of the ambient space.  The projection is read off
    the reduced basis: a non-pivot e_i maps to its own coordinate and a
    pivot e_p to -b_p restricted to the non-pivots.
    """
    if sub.ambient_dim != ambient_dim:
        raise ShapeMismatch("subspace of dim-%d space inside dim-%d quotient"
                            % (sub.ambient_dim, ambient_dim))
    f = sub.field
    by_pivot = sub._by_pivot
    nonpivots = [i for i in range(ambient_dim) if i not in by_pivot]
    dim = len(nonpivots)
    pos = {i: q for q, i in enumerate(nonpivots)}
    proj = {}
    for i in range(ambient_dim):
        b = by_pivot.get(i)
        if b is None:
            proj[(pos[i], i)] = f.one
            continue
        for j, v in b.items():
            if j != i:
                proj[(pos[j], i)] = f.neg(v)
    sect = {(i, q): f.one for q, i in enumerate(nonpivots)}
    return dim, Matrix(f, dim, ambient_dim, proj), Matrix(f, ambient_dim, dim, sect)


def operator_closure(field, seeds, ops, max_degree, buffer=1):
    """Smallest graded subspace containing seeds, closed under the operators.

    seeds: degree -> iterable of dict-vectors.  ops: (source degree, target
    degree, Matrix) triples; the matrix shapes give the space dimensions.
    Operators whose source or target exceed max_degree + buffer are
    ignored.  A worklist pushes each new vector through every operator.
    Then a certified pass applies every operator to every final basis
    vector and raises CertificateFailure on an image outside the span.
    Dimensions are finite and grow, so the worklist ends.
    """
    if buffer < 1:
        raise ValueError("buffer must be >= 1")
    top = max_degree + buffer
    dims = {}
    for src, tgt, m in ops:
        for n, d in ((src, m.cols), (tgt, m.rows)):
            if dims.setdefault(n, d) != d:
                raise ShapeMismatch("operator dim %d, space %d has dim %d"
                                    % (d, n, dims[n]))
    spaces = {n: Subspace(field, d) for n, d in dims.items() if n <= top}
    active = [(src, tgt, m) for src, tgt, m in ops
              if src in spaces and tgt in spaces]
    by_src = {}
    for src, tgt, m in active:
        by_src.setdefault(src, []).append((tgt, m))
    work = deque()
    for n, vecs in seeds.items():
        if n not in spaces:
            continue
        for v in vecs:
            if spaces[n].add_vector(v):
                work.append((n, dict(v)))
    # first in first out: a stack made inserts three times as costly on
    # large covers
    while work:
        n, v = work.popleft()
        for tgt, m in by_src.get(n, ()):
            img = m.apply(v)
            if spaces[tgt].add_vector(img):
                work.append((tgt, img))
    for src, tgt, m in active:
        for b in spaces[src].basis:
            if not spaces[tgt].contains(m.apply(b)):
                raise CertificateFailure("closure fixpoint violated")
    return spaces
