"""Exact sparse linear algebra over Q and F_p.

Matrices and vectors are held as lifts: a lift (ints, d) is a dict of
Python ints over one nonzero int d, standing for the values ints[k] / d.
Stored lifts are canonical (see fields), so equal matrices have equal
lifts.  Every kernel sums products of ints with no zero test and
normalises its accumulator once: one gcd over Q, one pass mod p over F_p
(fraction-free accumulation, delayed modular reduction).  Over Q an
accumulator that is already canonical becomes the result's lift itself,
uncopied, so each kernel normalises a dict of its own and writes nothing
to it afterwards.  `Matrix.lincomb` sums scaled matrices and scaled
products c A B in one such table, so that
`lincomb([(1, A, B), (-1, C, D)]).is_zero()` decides A B = C D without
forming either product alone; one sum carries the terms of one identity
only, never two identities whose terms could cancel.  `Matrix.__mul__`
and lincomb's product terms share one inner loop.  No kernel
builds a field element: the Matrix constructor takes them,
`Matrix.entries` and `Subspace.basis` lower lifts on each read.
`Matrix.apply` answers in the form its vector was given, a dict of field
elements or a lift; `Subspace.contains` and `Subspace.add_vector` take
either; `Matrix.rref`, `Subspace.reduce` and `Subspace.coordinates` take
and give lifts only.  A Matrix is immutable from construction;
LazyMatrices holds Matrices by key, each built on its first read.

Subspace is the one elimination engine: a fully reduced echelon basis of
lifts plus a column index of the basis vectors nonzero in each non-pivot
column, so reducing a vector is one pass over the pivots in its support,
inserting one clears its pivot from just the vectors the index lists
there, and a quotient projection is read off the basis.  Matrix.rref is
the reduced basis of the row space; kernels and inverses are read off
it, and so is the rank, except where the nonzeros lie in distinct rows
and columns: then each is a pivot and the rank is their number.
operator_closure grows graded subspaces to the smallest one closed under
a list of operators and then certifies that fixpoint; given a start, a
graded subspace already closed in some degrees, it grows that in place
and pushes it only into the other degrees.  A failed certificate raises
CertificateFailure, an AssertionError that names what failed and, unlike
an assert statement, runs under python -O.
"""

from bisect import bisect_left
from collections import deque
from collections.abc import MutableMapping
from math import lcm
from types import MappingProxyType


class ShapeMismatch(Exception):
    pass


class SingularMatrix(ValueError):
    """Matrix.inverse was given a singular matrix."""


class CertificateFailure(AssertionError):
    """An exact certificate failed; the message names the identity."""


def _product_into(acc, a, b, s=1):
    """acc[i, j] += s sum_k a[i, k] b[k, j] for tables of ints a and b:
    the inner loop of every product, b indexed by row once; returns acc."""
    by_row = {}
    for (i, j), w in b.items():
        by_row.setdefault(i, []).append((j, w))
    get = acc.get
    for (i, k), v in a.items():
        row = by_row.get(k)
        if row:
            if s != 1:
                v *= s
            for j, w in row:
                key = (i, j)
                acc[key] = get(key, 0) + v * w
    return acc


def _lift(field, vec):
    """vec as a lift: a lift (a tuple) as it is, a dict of field elements lifted."""
    return vec if type(vec) is tuple else field.normalize(*field.integral(vec))


class Matrix:
    """Sparse exact matrix, immutable, held as one canonical lift.

    `lift` is (ints, d): entry (i, j) is ints[(i, j)] / d, and absent keys
    are zeros.  Give entries, a dict of field elements (ints too over Q):
    residues are reduced mod p and any other value raises TypeError.
    Kernels give lift, a canonical lift in range, which is kept as it is.
    """

    __slots__ = ("field", "rows", "cols", "lift", "_by_col")

    def __init__(self, field, rows, cols, entries=None, lift=None):
        if lift is None:
            entries = entries or {}
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch("entry (%d,%d) out of %dx%d" % (i, j, rows, cols))
                if not isinstance(v, field.types):
                    raise TypeError("entry (%d,%d) is %r, not an element of %r"
                                    % (i, j, v, field))
            lift = field.normalize(*field.integral(entries))
        self.field, self.rows, self.cols, self.lift = field, rows, cols, lift
        self._by_col = None     # column -> [(row, int)], set by apply

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, lift=({(i, i): 1 for i in range(n)}, 1))

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def from_columns(cls, field, rows, columns):
        """columns: vectors of length `rows`, dicts of field elements or lifts."""
        lifts = [_lift(field, c) for c in columns]
        d = lcm(*[dc for _, dc in lifts])
        ent = {(i, j): x * (d // dc) for j, (c, dc) in enumerate(lifts)
               for i, x in c.items()}
        return cls(field, rows, len(lifts), lift=field.normalize(ent, d))

    @classmethod
    def from_blocks(cls, field, rows, cols, blocks):
        """The matrix with the disjoint blocks (row offset, column offset, M):
        canonical lifts over the lcm of their denominators stay canonical."""
        d = lcm(*[m.lift[1] for _, _, m in blocks])
        ent = {}
        for r0, c0, m in blocks:
            a, dm = m.lift
            s = d // dm
            ent.update({(r0 + i, c0 + j): x * s for (i, j), x in a.items()})
        return cls(field, rows, cols, lift=(ent, d))

    @property
    def entries(self):
        """The nonzero entries as field elements: a read-only view, lowered
        from the lift on each read."""
        return MappingProxyType(self.field.from_integral(*self.lift))

    def columns(self, lifted=False):
        """The columns as dicts of field elements or, when lifted, as lifts
        over the matrix's denominator."""
        a, d = self.lift
        cols = [{} for _ in range(self.cols)]
        for (i, j), x in a.items():
            cols[j][i] = x
        if lifted:
            return [(c, d) for c in cols]
        return [self.field.from_integral(c, d) for c in cols]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field and
                (self.rows, self.cols, self.lift) == (other.rows, other.cols, other.lift))

    def __hash__(self):
        a, d = self.lift
        return hash((self.field, self.rows, self.cols, d, frozenset(a.items())))

    def is_zero(self):
        return not self.lift[0]

    @staticmethod
    def lincomb(terms):
        """sum c M + sum c A B over a nonempty list of terms (c, M) and
        (c, A, B): scalars c (field elements or ints) and matrices M and
        products A B of one shape, summed in one table of ints over the lcm
        of the lifted terms' denominators and normalised once.  A product
        is accumulated entry by entry, never formed alone, so
        `lincomb([(1, A, B), (-1, C, D)]).is_zero()` decides A B = C D.
        One sum carries the terms of one identity only."""
        m0 = terms[0][1]
        f = m0.field
        rows, cols = m0.rows, terms[0][-1].cols
        d, scaled = 1, []   # d: the lcm; scaled: (c as an int, its denominator)
        for term in terms:
            c, a, b = term[0], term[1], term[-1]
            if len(term) == 3:
                if a.cols != b.rows:
                    raise ShapeMismatch("mul %dx%d with %dx%d"
                                        % (a.rows, a.cols, b.rows, b.cols))
                dt = a.lift[1] * b.lift[1]
            else:
                dt = a.lift[1]
            if a.rows != rows or b.cols != cols:
                raise ShapeMismatch("add %dx%d with %dx%d"
                                    % (rows, cols, a.rows, b.cols))
            if type(c) is not int:
                ints, dc = f.integral({0: c})
                c, dt = ints[0], dt * dc
            if dt != 1:
                d = lcm(d, dt)
            scaled.append((c, dt))
        acc = {}
        get = acc.get
        for term, (c, dt) in zip(terms, scaled):
            s = c * (d // dt)
            if not s:
                continue
            if len(term) == 3:
                _product_into(acc, term[1].lift[0], term[2].lift[0], s)
                continue
            for k, v in term[1].lift[0].items():
                acc[k] = get(k, 0) + s * v
        # an identity that holds leaves a table of zeros: its lift is ({}, 1)
        lift = f.normalize(acc, d) if any(acc.values()) else ({}, 1)
        return Matrix(f, rows, cols, lift=lift)

    def __add__(self, other):
        return Matrix.lincomb([(1, self), (1, other)])

    def __sub__(self, other):
        return Matrix.lincomb([(1, self), (-1, other)])

    def scale(self, c):
        return Matrix.lincomb([(c, self)])

    def __mul__(self, other):
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ShapeMismatch("mul %dx%d with %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        a, da = self.lift
        b, db = other.lift
        return Matrix(f, self.rows, other.cols,
                      lift=f.normalize(_product_into({}, a, b), da * db))

    def apply(self, vec):
        """self applied to a vector of length self.cols, in the vector's
        form; the first call indexes the lift by column."""
        f = self.field
        by_col = self._by_col
        if by_col is None:
            by_col = self._by_col = {}
            for (i, j), v in self.lift[0].items():
                by_col.setdefault(j, []).append((i, v))
        x, dx = _lift(f, vec)
        out = {}
        get = out.get
        for j, c in x.items():
            for i, v in by_col.get(j, ()):
                out[i] = get(i, 0) + v * c
        out = f.normalize(out, self.lift[1] * dx)
        return out if type(vec) is tuple else f.from_integral(*out)

    def transpose(self):
        a, d = self.lift
        return Matrix(self.field, self.cols, self.rows,
                      lift=({(j, i): x for (i, j), x in a.items()}, d))

    def kron(self, other):
        """Kronecker product, row-major flattening (self slowest)."""
        f = self.field
        a, da = self.lift
        b, db = other.lift
        r, c = other.rows, other.cols
        return Matrix(f, self.rows * r, self.cols * c, lift=f.normalize(
            {(i * r + k, j * c + l): v * w for (i, j), v in a.items()
             for (k, l), w in b.items()}, da * db))

    def rank(self):
        """Rank, read off rref; a matrix whose nonzeros lie in distinct rows
        and columns (a scaled partial permutation) has one per nonzero."""
        rows, cols = set(), set()
        for i, j in self.lift[0]:
            if i in rows or j in cols:
                return len(self.rref()[0])
            rows.add(i)
            cols.add(j)
        return len(rows)

    def rref(self):
        """Reduced row echelon form as (pivot columns, rows): rows[k], a
        canonical lift, has its leading 1 in column pivots[k].  The form is
        unique: it is the reduced basis of the row space, read off a
        Subspace the rows of ints are inserted into.
        """
        rows = {}
        for (i, j), x in self.lift[0].items():
            rows.setdefault(i, {})[j] = x
        s = Subspace.from_vectors(self.field, self.cols,
                                  [(r, 1) for r in rows.values()])
        return s.pivots, s.lifts()

    def kernel_basis(self):
        """Kernel as a Subspace of the column space (ambient dim = cols)."""
        pivots, rows = self.rref()
        d = lcm(*[dr for _, dr in rows])            # the vectors' denominator
        pivot_set = set(pivots)
        basis = {c: {c: d} for c in range(self.cols) if c not in pivot_set}
        for pc, (row, dr) in zip(pivots, rows):
            for c, x in row.items():
                if c != pc:
                    basis[c][pc] = -x * (d // dr)
        return Subspace.from_vectors(self.field, self.cols,
                                     [(v, d) for v in basis.values()])

    def inverse(self):
        """Exact inverse; raises SingularMatrix when there is none."""
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of non-square matrix")
        n = self.rows
        a, d = self.lift
        aug = dict(a)
        for i in range(n):
            aug[(i, n + i)] = d                     # [A | I], still canonical
        pivots, rows = Matrix(self.field, n, 2 * n, lift=(aug, d)).rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix.from_columns(self.field, n, [
            ({j - n: x for j, x in row.items() if j >= n}, dr)
            for row, dr in rows]).transpose()

    def pow_int(self, k):
        if self.rows != self.cols:
            raise ShapeMismatch("power of non-square matrix")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Matrix.identity(self.field, self.rows) if out is None else out


class LazyMatrices(MutableMapping):
    """Matrices by key, each built on its first read: an entry is a Matrix
    or a zero-argument builder, which that read runs and replaces by the
    Matrix it returns.  Setting a key replaces its entry.  `in`, len and
    iteration build nothing; values, items and get read, so they build."""

    __slots__ = ("_entries", "__weakref__")

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, key):
        m = self._entries[key]
        if not isinstance(m, Matrix):
            m = self._entries[key] = m()
        return m

    def __setitem__(self, key, m):
        self._entries[key] = m

    def __delitem__(self, key):
        del self._entries[key]

    def __contains__(self, key):
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


class Subspace:
    """Subspace of k^n kept as a fully reduced echelon basis of lifts.

    Pivot columns strictly increase; each basis vector b_p is 1 at its own
    pivot p, 0 at every other pivot, and has no entry left of p.  `_vecs`
    maps p to the canonical lift (B_p, d_p) of b_p, so B_p[p] = d_p, and
    the column index `_holders` maps each non-pivot column j to the pivots
    p with b_p[j] != 0.  `basis` lowers the vectors on each read and
    `lifts()` gives them as they are stored, both in pivot order.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = []     # sorted
        self._vecs = {}      # pivot -> basis vector as a canonical lift
        self._holders = {}   # non-pivot column -> pivots nonzero there

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        s = cls(field, ambient_dim)
        for v in vectors:
            s.add_vector(v)
        return s

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The basis vectors as dicts of field elements, lowered on each read."""
        return [self.field.from_integral(*self._vecs[p]) for p in self.pivots]

    def lifts(self):
        return [self._vecs[p] for p in self.pivots]

    def reduce(self, vec):
        """Residual of the lift vec modulo the subspace, a canonical lift:
        the basis is fully reduced, so with vec = x / dx and b_p = B_p / d_p
        it is (D x - sum x[p] (D / d_p) B_p) / (D dx) over the pivots p in
        the support of x, D the lcm of their d_p, summed in ints."""
        f = self.field
        vecs = self._vecs
        x, dx = vec
        hits = [(c, vecs[p]) for p, c in x.items() if p in vecs]
        d = lcm(*[db for _, (_, db) in hits])
        out = {k: c * d for k, c in x.items()} if d != 1 else dict(x)
        get = out.get
        for c, (b, db) in hits:
            s = c * (d // db)
            for j, w in b.items():
                out[j] = get(j, 0) - s * w
        return f.normalize(out, d * dx)

    def contains(self, vec):
        return not self.reduce(_lift(self.field, vec))[0]

    def coordinates(self, vec):
        """Coordinates of the lift vec in the basis as a canonical lift (its
        entries at the pivots), or None if vec is outside."""
        if self.reduce(vec)[0]:
            return None
        x, dx = vec
        return self.field.normalize(
            {i: x[p] for i, p in enumerate(self.pivots) if p in x}, dx)

    def add_vector(self, vec):
        """Insert vec if independent; returns True when the subspace grew.

        The residual of vec, scaled to 1 at its pivot, is cleared from the
        basis vectors the column index lists at that pivot; each changes
        only on the support of the new vector, so the index is updated there.
        """
        f = self.field
        v, _ = self.reduce(_lift(f, vec))
        if not v:
            return False
        piv = min(v)
        lv, dv = f.normalize(v, v[piv])             # 1 at piv
        vecs = self._vecs
        holders = self._holders
        cleared = holders.pop(piv, ())
        for j in lv:
            holders.setdefault(j, set()).add(piv)
        # b - b[piv] v = (lb dv - lb[piv] lv) / (db dv)
        for p in cleared:
            lb, db = vecs[p]
            c = lb[piv]
            acc = {k: w * dv for k, w in lb.items()} if dv != 1 else dict(lb)
            get = acc.get
            for j, w in lv.items():
                acc[j] = get(j, 0) - c * w
            b = vecs[p] = f.normalize(acc, db * dv)
            for j in lv:
                (holders[j].add if j in b[0] else holders[j].discard)(p)
        del holders[piv]                            # now a pivot column
        self.pivots.insert(bisect_left(self.pivots, piv), piv)
        vecs[piv] = lv, dv
        return True

    def copy(self):
        s = Subspace(self.field, self.ambient_dim)
        s.pivots = list(self.pivots)
        s._vecs = dict(self._vecs)   # shared: add_vector replaces lifts, never writes one
        s._holders = {j: set(ps) for j, ps in self._holders.items()}
        return s

    def basis_matrix(self):
        """Columns are the basis vectors."""
        return Matrix.from_columns(self.field, self.ambient_dim, self.lifts())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self._vecs == other._vecs)


def quotient_space(ambient_dim, sub):
    """Quotient of k^n by a subspace.

    Returns (dim, projection, section) with projection*section = id on the
    quotient and kernel(projection) = sub.  Quotient coordinates are the
    non-pivot coordinates of the ambient space.  The projection is read off
    the reduced basis: a non-pivot e_i maps to its own coordinate and a
    pivot e_p to -b_p restricted to the non-pivots, all over the lcm of the
    basis denominators.
    """
    if sub.ambient_dim != ambient_dim:
        raise ShapeMismatch("subspace of dim-%d space inside dim-%d quotient"
                            % (sub.ambient_dim, ambient_dim))
    f = sub.field
    vecs = sub._vecs
    nonpivots = [i for i in range(ambient_dim) if i not in vecs]
    dim = len(nonpivots)
    pos = {i: q for q, i in enumerate(nonpivots)}
    d = lcm(*[db for _, db in vecs.values()])
    proj = {}
    for i in range(ambient_dim):
        if i not in vecs:
            proj[(pos[i], i)] = d
            continue
        b, db = vecs[i]
        s = d // db
        for j, x in b.items():
            if j != i:
                proj[(pos[j], i)] = -x * s
    sect = {(i, q): 1 for q, i in enumerate(nonpivots)}
    return (dim, Matrix(f, dim, ambient_dim, lift=f.normalize(proj, d)),
            Matrix(f, ambient_dim, dim, lift=(sect, 1)))


def operator_closure(field, seeds, ops, start=None):
    """Smallest graded subspace containing seeds, closed under the operators.

    seeds: degree -> iterable of vectors, in degrees the operators touch.
    ops: (source degree, target degree, Matrix) triples; the matrix shapes
    give the space dimensions.  start: degree -> Subspace, already closed
    under the operators among its degrees; these grow in place, and their
    basis vectors are pushed only through the operators into the other
    degrees.  A worklist pushes each new vector, as a lift, through every
    operator.  Then a certified pass applies every operator to every final
    basis vector and raises CertificateFailure on an image outside the
    span, a start that was not closed included.  Dimensions are finite and
    grow, so the worklist ends.
    """
    start = start or {}
    dims = {n: s.ambient_dim for n, s in start.items()}
    for src, tgt, m in ops:
        for n, d in ((src, m.cols), (tgt, m.rows)):
            if dims.setdefault(n, d) != d:
                raise ShapeMismatch("operator dim %d, space %d has dim %d"
                                    % (d, n, dims[n]))
    spaces = {n: start.get(n) or Subspace(field, d) for n, d in dims.items()}
    by_src = {}
    for src, tgt, m in ops:
        by_src.setdefault(src, []).append((tgt, m))
    work = deque()

    def add(n, v):
        if spaces[n].add_vector(v):
            work.append((n, v))
    for src, tgt, m in ops:
        if src in start and tgt not in start:
            for b in start[src].lifts():
                add(tgt, m.apply(b))
    for n, vecs in seeds.items():
        for v in vecs:
            add(n, _lift(field, v))
    # first in first out: a stack made inserts three times as costly on
    # large covers
    while work:
        n, v = work.popleft()
        for tgt, m in by_src.get(n, ()):
            add(tgt, m.apply(v))
    for src, tgt, m in ops:
        for b in spaces[src].lifts():
            if not spaces[tgt].contains(m.apply(b)):
                raise CertificateFailure("closure fixpoint violated")
    return spaces
