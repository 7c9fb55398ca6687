"""Hochschild and cyclic cohomology through two independent models.

Cohomology is computed on cochain-oriented complexes: a chain module is
dualized degreewise (transposed) once, which is exact in finite dimensions.
The two models are the (b,B) mixed complex and Connes' cyclic bicomplex
CC, whose columns alternate b / -b' and repeat with period 2, so it is kept
by rows.  Both are verified at construction time and compared degree by
degree.  `CyclicOperators` forms the operators both models are made of
(b, b', 1 - lambda, N) and the cyclicity verdict, each once, on first
read.  `Total` is the total complex of one module in one model: it
dualizes a chain module once, builds the model and its differentials on
first read from its CyclicOperators, which the two models of one table
share, and alone knows the block layout (which blocks make up Tot^n,
their keys and offsets).  Tables, `cohomology` and the cochain classes of
`pairings` all read a Total.  A table through degree nmax reads
X_0..X_{nmax+1} only, so its models and total complexes span those degrees
alone.  Dimensions come from one rank per differential; kernels and
representative cocycles are formed only where they are returned.

Stable range: with truncation N, cohomology in degree n is certified only
for n <= N - 2 (one degree is consumed by each neighboring differential).
"""

from .linalg import Matrix, Subspace
from .cyclic import CHAIN, transpose_module, truncate
from .hopf import raise_failures


class NotCyclic(Exception):
    pass


class IdentityFailure(Exception):
    pass


class OutOfStableRange(Exception):
    pass


class MixedComplex:
    """Cochain graded space with differentials b (raising the degree) and B
    (lowering it); b2 = B2 = bB + Bb = 0.

    All three identities are checked at construction and a violation
    raises IdentityFailure naming the degree.
    """

    def __init__(self, field, spaces, b, B, name=None):
        self.field = field
        self.spaces = dict(spaces)
        self.b = dict(b)
        self.B = dict(B)
        self.name = name
        raise_failures(IdentityFailure, self.violations())

    def violations(self):
        bad = []
        bot = min(self.spaces)
        for n in self.spaces:
            if n + 1 in self.b and n in self.b and n + 2 in self.spaces:
                if not (self.b[n + 1] * self.b[n]).is_zero():
                    bad.append("b^2 != 0 at degree %d" % n)
            if n - 1 in self.B and n in self.B and n - 2 in self.spaces:
                if not (self.B[n - 1] * self.B[n]).is_zero():
                    bad.append("B^2 != 0 at degree %d" % n)
            # bB + Bb = 0 as an endomorphism of degree n.  Near the
            # truncation boundary one of the two terms is cut off; the
            # single term Bb is checked alone only at the bottom degree,
            # where bB vanishes because there is no degree below, not
            # because of truncation.
            have_bB = n in self.B and n - 1 in self.b
            have_Bb = n in self.b and n + 1 in self.B
            terms = []
            if have_bB:
                terms.append((1, self.b[n - 1], self.B[n]))
            if have_Bb:
                terms.append((1, self.B[n + 1], self.b[n]))
            checkable = have_Bb and (have_bB or n == bot)
            if checkable and not Matrix.lincomb(terms).is_zero():
                bad.append("bB + Bb != 0 at degree %d" % n)
        return bad


class Bicomplex:
    """Connes' cyclic bicomplex CC of a cocyclic module, kept by rows.

    CC^{p,q} = X_q in every column p >= 0, and the columns repeat with
    period 2, so row q holds two pairs, each indexed by the parity of p:
    vert[q] = (b_q, -b'_q) into row q + 1 and horiz[q] = (1 - lambda_q, N_q)
    into the next column.  The six identities that make CC a bicomplex with
    anticommuting squares are checked once per row at construction.
    """

    def __init__(self, field, spaces, vert, horiz, name=None):
        self.field = field
        self.spaces = dict(spaces)          # q -> dim X_q
        self.vert = dict(vert)              # q -> (b_q, -b'_q), q < N
        self.horiz = dict(horiz)            # q -> (1 - lambda_q, N_q)
        self.name = name
        raise_failures(IdentityFailure, self.violations())

    def violations(self):
        bad = []
        for q, (one_minus, norm) in self.horiz.items():
            if not (norm * one_minus).is_zero():
                bad.append("N(1 - lambda) != 0 in row %d" % q)
            if not (one_minus * norm).is_zero():
                bad.append("(1 - lambda)N != 0 in row %d" % q)
        for q, (b, neg_bp) in self.vert.items():
            if q + 1 in self.vert:
                b_up, neg_bp_up = self.vert[q + 1]
                if not (b_up * b).is_zero():
                    bad.append("b b != 0 from row %d" % q)
                if not (neg_bp_up * neg_bp).is_zero():
                    bad.append("b' b' != 0 from row %d" % q)
            (one_minus, norm), (one_minus_up, norm_up) = \
                self.horiz[q], self.horiz[q + 1]
            if not Matrix.lincomb([(1, neg_bp, one_minus),
                                   (1, one_minus_up, b)]).is_zero():
                bad.append("-b'(1 - lambda) + (1 - lambda)b != 0 from row %d" % q)
            if not Matrix.lincomb([(1, b, norm), (1, norm_up, neg_bp)]).is_zero():
                bad.append("bN - Nb' != 0 from row %d" % q)
        return bad


class CohomologyTable:
    def __init__(self, model, degrees, stable_range, name=None):
        self.model = model
        self.degrees = dict(degrees)
        self.stable_range = stable_range
        self.name = name

    def as_dict(self):
        return {"model": self.model, "name": self.name,
                "stable_range": self.stable_range,
                "degrees": {str(n): d for n, d in sorted(self.degrees.items())}}

    def text(self):
        lines = ["%-10s %s" % ("degree", "dim  (%s model)" % self.model)]
        for n in sorted(self.degrees):
            flag = "" if n <= self.stable_range else "  [truncation-affected]"
            lines.append("%-10d %d%s" % (n, self.degrees[n], flag))
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        common = set(self.degrees) & set(other.degrees)
        rng = min(self.stable_range, other.stable_range)
        return all(self.degrees[n] == other.degrees[n]
                   for n in common if n <= rng)


# ---------------------------------------------------------------------------
# module-level helpers


def _as_cochain(x):
    return transpose_module(x) if x.orientation == CHAIN else x


def _one_minus_lambda(x, n):
    return Matrix.lincomb([(1, Matrix.identity(x.field, x.spaces[n])),
                           ((-1) ** (n + 1), x.tau(n))])


def _norm(x, n):
    """N = sum_k lambda^k for k = 0..n, with lambda^k = (-1)^(nk) tau^k."""
    powers = [Matrix.identity(x.field, x.spaces[n])]
    for _ in range(n):
        powers.append(x.tau(n) * powers[-1])
    return Matrix.lincomb([((-1) ** (n * k), t) for k, t in enumerate(powers)])


def _alternating_faces(x, n, idxs):
    """sum_j (-1)^j d_j over the face indices idxs at degree n; None if none."""
    if not idxs:
        return None
    return Matrix.lincomb([((-1) ** j, x.faces[(n, j)]) for j in idxs])


def hochschild_b(x, n):
    """Alternating face sum at degree n (all faces, wrap-around included)."""
    return _alternating_faces(x, n, x.face_indices(n))


def hochschild_b_prime(x, n):
    """Alternating face sum omitting the last (wrap-around) face."""
    return _alternating_faces(x, n, x.face_indices(n)[:-1])


class CyclicOperators:
    """The operators both models of one cocyclic module are made of: b, b',
    1 - lambda and N by degree, each formed on its first read, and the
    verdict of `is_cyclic`, decided on its first read.

    A Total owns one set, and the two Totals of one table share one, so
    each operator and the verdict are formed once per table; nothing is
    kept on the module, whose maps a caller may still replace.
    """

    def __init__(self, x):
        self.module = x
        self._formed = {}
        self._cyclic = None

    def _read(self, build, n):
        if (build, n) not in self._formed:
            self._formed[build, n] = build(self.module, n)
        return self._formed[build, n]

    def b(self, n):
        """The Hochschild coboundary out of degree n; None at the top."""
        return self._read(hochschild_b, n)

    def b_prime(self, n):
        return self._read(hochschild_b_prime, n)

    def one_minus_lambda(self, n):
        return self._read(_one_minus_lambda, n)

    def norm(self, n):
        return self._read(_norm, n)

    def is_cyclic(self):
        if self._cyclic is None:
            self._cyclic = self.module.is_cyclic()
        return self._cyclic


def _operators(x):
    """x's CyclicOperators: x itself, or a new set on x dualized if a chain
    module."""
    return x if isinstance(x, CyclicOperators) else CyclicOperators(_as_cochain(x))


def mixed_of_cyclic(x):
    """The (b,B) mixed complex of a cocyclic module, or of the module of a
    CyclicOperators, whose operators it reads.

    b is the alternating face sum; B = N s (1 - lambda) with the extra
    codegeneracy s built from tau.  A chain module is transposed.  The
    three mixed identities are verified before returning.
    """
    ops = _operators(x)
    x = ops.module
    if not ops.is_cyclic():
        raise NotCyclic("tau^{n+1} != id; pass the quotient/coinvariant module")
    b = {}
    B = {}
    for n in sorted(x.spaces):
        m = ops.b(n)
        if m is not None:
            b[n] = m
        if n >= 1:
            s_ext = x.degeneracies[(n, n - 1)] * x.tau(n)
            B[n] = ops.norm(n - 1) * s_ext * ops.one_minus_lambda(n)
    return MixedComplex(x.field, x.spaces, b, B,
                        name="mixed(%s)" % (x.name or "X"))


def cyclic_bicomplex(x):
    """Connes' cyclic bicomplex of a cocyclic module, or of the module of a
    CyclicOperators, whose operators it reads; one entry per row.

    Even columns carry b and 1 - lambda, odd columns -b' and the norm N.
    Chain modules are transposed.
    """
    ops = _operators(x)
    x = ops.module
    if not ops.is_cyclic():
        raise NotCyclic("tau^{n+1} != id")
    vert = {q: (ops.b(q), ops.b_prime(q).scale(-1)) for q in range(x.N)}
    horiz = {q: (ops.one_minus_lambda(q), ops.norm(q)) for q in range(x.N + 1)}
    return Bicomplex(x.field, x.spaces, vert, horiz,
                     name="CC(%s)" % (x.name or "X"))


# ---------------------------------------------------------------------------
# cohomology of total complexes


def _ranks_to_dims(dims, diffs, nmax):
    """dim H^n = dim C^n - rank d_n - rank d_{n-1} for n = 0..nmax, from one
    rank per differential; ValueError if nmax is past the top degree N."""
    if nmax > max(dims):
        raise ValueError("degree %d is past the top degree N = %d"
                         % (nmax, max(dims)))
    rank = {n: d.rank() for n, d in diffs.items() if n <= nmax}
    return {n: dims.get(n, 0) - rank.get(n, 0) - rank.get(n - 1, 0)
            for n in range(nmax + 1)}


class Total:
    """The total complex of a (co)cyclic module in one model, degrees 0..N.

    Mixed model: Tot^n = (+)_i X_{n-2i} with differential b + B, its blocks
    keyed by their degree.  Bicomplex: Tot^n = (+)_{p+q=n} X_q with
    differential horizontal + vertical (the squares anticommute), its
    blocks keyed by (p, q) in ascending p.  offsets[n] maps each block of
    Tot^n, in order, to its offset.  x is a module, which a chain module is
    dualized once for, here, or a CyclicOperators, which the Total then
    shares.  `ops` forms b, b', 1 - lambda and N on their first read; the
    model, identity checks included, and the differentials are built on
    the first read of `diffs`, and nothing else is cached.
    """

    def __init__(self, x, model="mixed"):
        if model not in ("mixed", "bicomplex"):
            raise ValueError("model must be 'mixed' or 'bicomplex'")
        self.ops = _operators(x)
        self.module = self.ops.module
        self.model = model
        self.field = self.module.field
        self.offsets, self.dims = {}, {}
        for n in sorted(self.module.spaces):
            off = self.offsets[n] = {}
            run = 0
            for key in (range(n, -1, -2) if model == "mixed"
                        else [(n - q, q) for q in range(n, -1, -1)]):
                off[key] = run
                run += self.size(key)
            self.dims[n] = run
        self._diffs = None

    def block(self, n):
        """The key of the block of Tot^n that is X_n itself."""
        return n if self.model == "mixed" else (0, n)

    def space(self, key):
        """The degree q of the space X_q a block lives on."""
        return key if self.model == "mixed" else key[1]

    def size(self, key):
        return self.module.spaces[self.space(key)]

    @property
    def diffs(self):
        """n -> d_n: Tot^n -> Tot^{n+1}, for n = 0..N-1."""
        if self._diffs is None:
            if self.model == "mixed":
                c = mixed_of_cyclic(self.ops)

                def blocks(m):
                    if m in c.b:
                        yield m + 1, c.b[m]
                    if m in c.B:
                        yield m - 1, c.B[m]
            else:
                c = cyclic_bicomplex(self.ops)

                def blocks(key):
                    p, q = key
                    yield (p + 1, q), c.horiz[q][p % 2]
                    if q in c.vert:
                        yield (p, q + 1), c.vert[q][p % 2]
            offs = self.offsets
            self._diffs = {n: Matrix.from_blocks(
                self.field, self.dims[n + 1], self.dims[n], [
                    (offs[n + 1][tgt], off, m)
                    for key, off in offs[n].items()
                    for tgt, m in blocks(key) if tgt in offs[n + 1]])
                for n in offs if n + 1 in offs}
        return self._diffs

    def split(self, n, vec):
        """A vector of Tot^n as its nonzero blocks."""
        parts = {}
        for key, off in self.offsets[n].items():
            end = off + self.size(key)
            part = {i - off: v for i, v in vec.items() if off <= i < end}
            if part:
                parts[key] = part
        return parts

    def join(self, n, parts):
        """Blocks of Tot^n assembled into one vector."""
        offs = self.offsets[n]
        return {offs[key] + i: v for key, vec in parts.items()
                for i, v in vec.items()}

    def representatives(self, n):
        """Cocycles of degree n whose classes are a basis of H^n: the kernel
        vectors of d_n that are independent modulo the image of d_{n-1}."""
        f, diffs, dim_n = self.field, self.diffs, self.dims.get(n, 0)
        image = Subspace.from_vectors(
            f, dim_n, diffs[n - 1].columns(lifted=True) if n - 1 in diffs else [])
        # the kernel of a map with no rows is everything
        d_out = diffs.get(n) or Matrix.zero(f, 0, dim_n)
        return [f.from_integral(*v) for v in d_out.kernel_basis().lifts()
                if image.add_vector(v)]

    def cohomology_dims(self, nmax):
        """dim H^n for n = 0..nmax, one rank per differential."""
        return _ranks_to_dims(self.dims, self.diffs, nmax)


def cohomology(total, n, stable_range=None):
    """Cohomology dimension and representative cocycles of a Total at degree n."""
    if stable_range is not None and n > stable_range:
        raise OutOfStableRange("degree %d beyond certified range %d"
                               % (n, stable_range))
    reps = total.representatives(n)
    return len(reps), reps


def _tables(x, models, nmax):
    """The cyclic cohomology tables of a (co)cyclic module, one per model.

    A table through degree top = nmax (default N - 2) reads d_0..d_top,
    which touch X_0..X_{top+1} only, so the module is truncated there and
    then dualized once for every model.  The models share one
    CyclicOperators, so b, b', 1 - lambda, N and the cyclicity verdict are
    formed once, and each model still checks every identity of its own.
    """
    stable = x.N - 2
    top = stable if nmax is None else nmax
    ops = CyclicOperators(_as_cochain(truncate(x, max(top + 1, 0))))
    return [CohomologyTable(model, Total(ops, model).cohomology_dims(top),
                            stable, name=x.name) for model in models]


def cohomology_table(x, model="mixed", nmax=None):
    """Cyclic cohomology dimensions of a (co)cyclic module, one model."""
    return _tables(x, [model], nmax)[0]


def hochschild_table(x, nmax=None):
    """Hochschild cohomology of a (co)cyclic module (the b-complex alone)."""
    xc = _as_cochain(x)
    stable = xc.N - 1
    if nmax is None:
        nmax = stable
    # the cochain b leaves degree n < N; there is none out of degree N
    diffs = {n: hochschild_b(xc, n) for n in range(min(nmax + 1, xc.N))}
    return CohomologyTable("hochschild", _ranks_to_dims(xc.spaces, diffs, nmax),
                           stable, name=x.name)


def compare_models(x, nmax=None):
    """Bicomplex vs (b,B) cohomology tables plus an equality verdict; a chain
    module is dualized once, for both tables."""
    t1, t2 = _tables(x, ("bicomplex", "mixed"), nmax)
    return {"bicomplex": t1, "mixed": t2, "agree": t1 == t2,
            "stable_range": t1.stable_range}
