"""(Para)(co)cyclic modules as truncated families of explicit matrices.

A chain-oriented module has faces X_n -> X_{n-1} (j = 0..n), degeneracies
X_n -> X_{n+1} (j = 0..n) and invertible cyclic operators tau_n.  A
cochain-oriented module has cofaces X_n -> X_{n+1} (j = 0..n+1) and
codegeneracies X_n -> X_{n-1} (i = 0..n-1).  Each map of index j >= 1 is
the tau-conjugate of the one of index j - 1:

    chain:    d_j = tau d_{j-1} tau^-1     s_j = tau s_{j-1} tau^-1
    cochain:  d_j = tau^-1 d_{j-1} tau     s_i = tau^-1 s_{i-1} tau

Every module built from a (co)algebra here (Cyc, the covers and the
colinear-Hom complexes) gets its faces and degeneracies one way, from
_fill_from_slots: slot maps of m, u, Delta and eps on the cyclic modules
and covers X^{(x)n+1} (x) V, precomposition with those slot maps on the
colinear-Hom complexes, and one wrap-around face through tau.  So the
conjugation is a checked identity, not a construction, and tau^-1 is
formed only by tau_inv, tau_power and cyclic_dual; check_axioms and
compute_J certify tau_n invertible by its rank.  All structure maps are
Matrix composites of m, u, Delta, eps, S, S^-1, the actions and the
coactions, tensored with tensors.slot and reordered with tensors.permute.
Everything is verified after the fact by check_axioms; nothing relies on
the conventions being right silently.

Those faces and degeneracies, the tau of Cyc, of the covers and of the
colinear-Hom complexes, the covers' L_h, every map of diag_hom and
diag_tensor, and every map of the quotients Q and C, L_h included, are
built on their first read (linalg.LazyMatrices), and truncate and
transpose_module build nothing, so a table through degree nmax builds
none of them of X_{nmax+2} or above.  cyclic_dual forms every map at
construction.  A quotient map is checked to descend when it is first
read, against the subspaces the quotient was formed from.  check_axioms
reads every map; compute_J's seeds read every L_h of the cover, and
coinvariants reads only the algebra generators' L_g of the module it
descends, since h -> L_h is an algebra map (see _cover).

compute_J records one proved fact per map it checked on that very
Matrix: tau, the faces, the degeneracies and the generators' L_g, each
with J at its source and target, and their dimensions.  _descend trusts
an entry only while the map and both subspaces are those very objects
with those dimensions, and checks any other map vector by vector.
"""

import warnings
from functools import partial
from weakref import proxy

from .linalg import (Matrix, LazyMatrices, Subspace, ShapeMismatch, SingularMatrix,
                     CertificateFailure, quotient_space, operator_closure)
from .tensors import permute, slot, column_blocks
from .hopf import (ModuleCoalgebra, CompatibilityFailure, check_sayd,
                   check_comodule_coalgebra, require_same_hopf,
                   algebra_generators, raise_failures, _action, _coaction,
                   _codiagonals)
from .fixtures import trivial_hopf

CHAIN = "chain"
COCHAIN = "cochain"


class InvertibilityFailure(Exception):
    pass


class NotSAYD(Exception):
    pass


class DescentFailure(Exception):
    pass


class UnstableTruncation(UserWarning):
    pass


class ParaCyclicModule:
    """Truncated graded module with explicit structure matrices.

    spaces: degree -> dimension, degrees 0..N contiguous.
    faces/degeneracies keyed by (source_degree, index); cyclic by degree;
    each a LazyMatrices of Matrix or builder entries, built on first read.
    h_action, when present, is a LazyMatrices keyed by (degree,
    hopf_basis_index).
    tau_inv forms tau_n^-1 on each call: nothing is cached.
    """

    def __init__(self, field, orientation, spaces, faces, degeneracies,
                 cyclic_ops, h_action=None, hopf=None, name=None, meta=None):
        if orientation not in (CHAIN, COCHAIN):
            raise ValueError("orientation must be chain or cochain")
        self.field = field
        self.orientation = orientation
        self.spaces = dict(spaces)
        self.N = max(self.spaces)
        self.faces = LazyMatrices(faces)
        self.degeneracies = LazyMatrices(degeneracies)
        self.cyclic = LazyMatrices(cyclic_ops)
        self.h_action = LazyMatrices(h_action) if h_action else None
        self.hopf = hopf
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._certified = {}   # see compute_J and _certify_symmetries

    @property
    def step(self):
        """Degree shift of a face: -1 for chain, +1 for cochain.

        A degeneracy shifts the degree by -step.
        """
        return -1 if self.orientation == CHAIN else 1

    def face_indices(self, n):
        """Valid face indices with source degree n (empty if out of range)."""
        if self.orientation == CHAIN:
            return range(n + 1) if n >= 1 else range(0)
        return range(n + 2) if n + 1 <= self.N else range(0)

    def degeneracy_indices(self, n):
        if self.orientation == CHAIN:
            return range(n + 1) if n + 1 <= self.N else range(0)
        return range(n) if n >= 1 else range(0)

    def tau(self, n):
        return self.cyclic[n]

    def tau_inv(self, n):
        try:
            return self.cyclic[n].inverse()
        except SingularMatrix:
            raise InvertibilityFailure("tau_%d is not invertible" % n)

    def tau_power(self, n, k):
        if k >= 0:
            return self.cyclic[n].pow_int(k)
        return self.tau_inv(n).pow_int(-k)

    def T(self, n):
        """The para-cyclic twist tau_n^{n+1}."""
        return self.tau_power(n, n + 1)

    def is_cyclic(self):
        f = self.field
        for n in sorted(self.spaces):
            if self.T(n) != Matrix.identity(f, self.spaces[n]):
                return False
        return True

    def act_h(self, n, h):
        return self.h_action[(n, h)]

    def dims(self):
        return {n: self.spaces[n] for n in sorted(self.spaces)}

    def __repr__(self):
        return "<%s %s N=%d dims=%s>" % (
            self.orientation, self.name or "module", self.N,
            [self.spaces[n] for n in sorted(self.spaces)])


def _equal_products(a, b, c, d):
    """Whether a b = c d, decided in one accumulation of both products."""
    return Matrix.lincomb([(1, a, b), (-1, c, d)]).is_zero()


class ModuleMorphism:
    """Degreewise linear map between two modules of the same orientation."""

    def __init__(self, source, target, maps, name=None):
        if source.orientation != target.orientation:
            raise ShapeMismatch("morphism between different orientations")
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self.name = name

    def verify(self):
        """Exact commutation with every shared structure operator."""
        bad = []
        x, y = self.source, self.target
        degs = sorted(set(self.maps) & set(x.spaces) & set(y.spaces))
        for n in degs:
            fn = self.maps[n]
            up, down = self.maps.get(n + x.step), self.maps.get(n - x.step)
            for j in x.face_indices(n) if up is not None else ():
                if not _equal_products(up, x.faces[(n, j)], y.faces[(n, j)], fn):
                    bad.append("face (%d,%d)" % (n, j))
            for i in x.degeneracy_indices(n) if down is not None else ():
                if not _equal_products(down, x.degeneracies[(n, i)],
                                       y.degeneracies[(n, i)], fn):
                    bad.append("degeneracy (%d,%d)" % (n, i))
            if not _equal_products(fn, x.cyclic[n], y.cyclic[n], fn):
                bad.append("cyclic %d" % n)
        return bad


def transpose_module(x):
    """Degreewise linear dual: transposes every structure matrix.

    Exchanges the chain and cochain orientations with identical indexing.
    """
    orient = COCHAIN if x.orientation == CHAIN else CHAIN

    def dual(maps, key):
        return lambda: maps[key].transpose()
    # d_j: X_n -> X_{n+step} transposes to a map X*_{n+step} -> X*_n
    faces = {(n + x.step, j): dual(x.faces, (n, j)) for n, j in x.faces}
    degs = {(n - x.step, i): dual(x.degeneracies, (n, i))
            for n, i in x.degeneracies}
    taus = {n: dual(x.cyclic, n) for n in x.cyclic}
    return ParaCyclicModule(x.field, orient, dict(x.spaces), faces, degs, taus,
                            name="dual*(%s)" % (x.name or "X"))


# ---------------------------------------------------------------------------
# axiom checking


def check_axioms(x):
    """Every violated simplicial/para-cyclic identity, as strings.

    A chain module is checked through its degreewise dual: each chain
    identity is the transpose of a cochain identity of transpose_module(x),
    and its failures are reported as those, prefixed "dual: ".
    """
    if x.orientation == CHAIN:
        return ["dual: " + b for b in _cochain_violations(transpose_module(x))]
    return _cochain_violations(x)


def _cochain_violations(x):
    f = x.field
    degs = sorted(x.spaces)
    # full rank certifies each tau_n invertible; its inverse is not read here
    bad = ["InvertibilityFailure: tau_%d" % n for n in degs
           if x.tau(n).rank() != x.spaces[n]]
    if bad:
        return bad

    def face(n, j):
        return x.faces[(n, j)]

    def degen(n, i):
        return x.degeneracies[(n, i)]

    twist = {n: x.T(n) for n in degs}   # each a power of tau: form it once

    for n in degs:
        # d^j d^i = d^i d^{j-1}  (i < j), X_n -> X_{n+2}
        if n + 2 <= x.N:
            for j in range(n + 3):
                for i in range(min(j, n + 2)):
                    if not _equal_products(face(n + 1, j), face(n, i),
                                           face(n + 1, i), face(n, j - 1)):
                        bad.append("d^%d d^%d != d^%d d^%d at n=%d" % (j, i, i, j - 1, n))
        # s^j s^i = s^i s^{j+1}  (i <= j), X_n -> X_{n-2}
        if n >= 2:
            for j in range(n - 1):
                for i in range(j + 1):
                    if not _equal_products(degen(n - 1, j), degen(n, i),
                                           degen(n - 1, i), degen(n, j + 1)):
                        bad.append("s^%d s^%d != s^%d s^%d at n=%d" % (j, i, i, j + 1, n))
        # s^j d^i relations (both X_n -> X_n)
        if n + 1 <= x.N:
            ident = Matrix.identity(f, x.spaces[n])
            for i in range(n + 2):
                for j in range(n + 1):
                    s, d = degen(n + 1, j), face(n, i)
                    if i == j or i == j + 1:
                        if s * d != ident:
                            bad.append("s^%d d^%d != id at n=%d" % (j, i, n))
                    elif i < j:
                        if n >= 1 and not _equal_products(
                                s, d, face(n - 1, i), degen(n, j - 1)):
                            bad.append("s^%d d^%d != d^%d s^%d at n=%d" % (j, i, i, j - 1, n))
                    else:
                        if n >= 1 and not _equal_products(
                                s, d, face(n - 1, i - 1), degen(n, j)):
                            bad.append("s^%d d^%d != d^%d s^%d at n=%d" % (j, i, i - 1, j, n))
        # tau relations: tau d^{j+1} = d^j tau, tau s^{i+1} = s^i tau
        if n + 1 <= x.N:
            for j in range(n + 1):
                if not _equal_products(x.tau(n + 1), face(n, j + 1), face(n, j), x.tau(n)):
                    bad.append("tau d^%d != d^%d tau at n=%d" % (j + 1, j, n))
        if n >= 1:
            for i in range(n - 1):
                if not _equal_products(x.tau(n - 1), degen(n, i + 1), degen(n, i), x.tau(n)):
                    bad.append("tau s^%d != s^%d tau at n=%d" % (i + 1, i, n))
        # the twist T = tau^{n+1} commutes with everything
        if n + 1 <= x.N:
            for j in range(n + 2):
                if not _equal_products(face(n, j), twist[n], twist[n + 1], face(n, j)):
                    bad.append("T does not commute with d^%d at n=%d" % (j, n))
        if n >= 1:
            for i in range(n):
                if not _equal_products(degen(n, i), twist[n], twist[n - 1], degen(n, i)):
                    bad.append("T does not commute with s^%d at n=%d" % (i, n))
    return bad


# ---------------------------------------------------------------------------
# constructors from raw (co)algebras


def constant_modules(field, N):
    """The 1-dimensional cocyclic and cyclic modules of the ground field:
    Cyc of k as a coalgebra and as an algebra."""
    k = trivial_hopf(field)
    return (_classical(k.coalgebra, N, COCHAIN, "k_constant_cocyclic"),
            _classical(k.algebra, N, CHAIN, "k_constant_cyclic"))


def _slot_maps(base, spaces):
    """Face j and degeneracy j at degree n, on base^{(x)n+1} (x) V of
    dimension spaces[n], as functions of (n, j): for an algebra, face j
    multiplies slots j and j + 1 and degeneracy j inserts the unit after
    slot j; for a coalgebra, face j comultiplies slot j and degeneracy j
    applies the counit to slot j + 1."""
    d, (face, degen) = base.dim, base.matrices()
    return (lambda n, j: slot(face, d ** j, spaces[n] // (d ** j * face.cols)),
            lambda n, j: slot(degen, d ** (j + 1),
                              spaces[n] // (d ** (j + 1) * degen.cols)))


def _fill_from_slots(x, face, degen):
    """Register every face and degeneracy of x, each built on its first
    read: face(n, j) and degen(n, j), except the wrap-around face, which
    reads d_0 and tau (d_n = d_0 tau_n, d^{n+1} = tau_{n+1} d^0; no tau^-1)
    from x.faces held weakly, so an unread one makes no reference cycle."""
    faces, taus, chain = proxy(x.faces), x.cyclic, x.orientation == CHAIN

    def wrap(n):
        return faces[n, 0] * taus[n] if chain else taus[n + 1] * faces[n, 0]

    for n in x.spaces:
        js = x.face_indices(n)
        x.faces.update({(n, j): partial(face, n, j) for j in js[:-1]})
        if js:
            x.faces[n, js[-1]] = partial(wrap, n)
        x.degeneracies.update({(n, j): partial(degen, n, j)
                               for j in x.degeneracy_indices(n)})


def _classical(base, N, orientation, name):
    """Cyc of an algebra (chain) or a coalgebra (cochain) on base^{(x)n+1};
    tau moves the last slot to the front (chain) or the first to the end."""
    f, d, chain = base.field, base.dim, orientation == CHAIN
    spaces = {n: d ** (n + 1) for n in range(N + 1)}

    def tau(n):
        order = (n,) + tuple(range(n)) if chain else tuple(range(1, n + 1)) + (0,)
        return permute(Matrix.identity(f, spaces[n]), [d] * (n + 1), order)
    x = ParaCyclicModule(f, orientation, spaces, {}, {},
                         {n: partial(tau, n) for n in spaces}, name=name)
    _fill_from_slots(x, *_slot_maps(base, spaces))
    return x


def cyc_algebra(a, N):
    """Classical cyclic module of a unital associative algebra."""
    return _classical(a, N, CHAIN, "Cyc(%s)" % getattr(a, "labels", ["A"])[0])


def cyc_coalgebra(c, N):
    """Classical cocyclic module of a counital coassociative coalgebra."""
    return _classical(c, N, COCHAIN, "Cyc(coalgebra)")


# ---------------------------------------------------------------------------
# cover complexes with coefficients


def _cover(x, base, m, N, orientation):
    """Para-(co)cyclic cover X^{(x)n+1} (x) M with diagonal H-action.

    x is a module algebra (chain) or module coalgebra (cochain) over the
    (co)algebra base.  Every map is built on its first read: each face and
    degeneracy is a slot map of base, by _fill_from_slots, so no tau^-1 is
    formed; tau_n and each L_h are Matrix composites of the structure maps.
    Degree n is X (x) V with V of degree n - 1 (V = M below degree 0), and
    L_h there is the diagonal action

        L^n_h = sum over Delta(h) of c L^X_{h1} (x) L^{n-1}_{h2},

    read from the degree n - 1 actions as this cover built them, held
    weakly: an entry of h_action replaced later changes only that entry,
    and an unread cover makes no reference cycle.  An L_h that nothing
    reads, directly or through the coproduct of one that is read, is
    never formed.  Nothing here checks that h -> L_h is an algebra map:
    by induction over n it is one, since M and X are H-modules
    (check_structure) and Delta is multiplicative (check_hopf), so
    L^n_h L^n_k = sum L^X_{(hk)1} (x) L^{n-1}_{(hk)2} = L^n_hk and
    L^n_1 = id (x) id.  compute_J checks L_1 = id and the generator
    products on the matrices it reads.
    """
    chain = orientation == CHAIN
    what = "algebra" if chain else "coalgebra"
    require_same_hopf(x.hopf, m.hopf, what + " and coefficients")
    f = x.field
    hopf = x.hopf
    dh, dx, dm = hopf.dim, base.dim, m.dim
    spaces = {n: dx ** (n + 1) * dm for n in range(N + 1)}
    act = _action(x, dx)
    rho = _coaction(m, dm)
    if chain:
        rho = slot(hopf.antipode_inv, 1, dm) * rho        # m -> S^-1(m(-1)) (x) m(0)
    lx, comul = column_blocks(act, dh), hopf.coalgebra.comul
    built = LazyMatrices({(-1, h): lm
                          for h, lm in enumerate(column_blocks(_action(m, dm), dh))})
    below = proxy(built)

    def diagonal(n, h):
        return Matrix.lincomb([(c, lx[h1].kron(below[n - 1, h2]))
                               for (h1, h2), c in comul[h].items()])

    def tau(n):
        legs = slot(rho, dx ** (n + 1), 1)                 # x_0..x_n (x) h (x) m
        dims = [dx] * (n + 1) + [dh, dm]
        if chain:
            # S^-1(m(-1)) x_n (x) x_0..x_{n-1} (x) m(0)
            order = (n + 1, n) + tuple(range(n)) + (n + 2,)
            return slot(act, 1, dx ** n * dm) * permute(legs, dims, order)
        # x_1..x_n (x) m(-1) x_0 (x) m(0)
        order = tuple(range(1, n + 2)) + (0, n + 2)
        return slot(act, dx ** n, dm) * permute(legs, dims, order)

    keys = [(n, h) for n in spaces for h in range(dh)]
    built.update({k: partial(diagonal, *k) for k in keys})
    t = ParaCyclicModule(f, orientation, spaces, {}, {},
                         {n: partial(tau, n) for n in spaces},
                         h_action={k: partial(built.__getitem__, k) for k in keys},
                         hopf=hopf, name="T(%s,%s)" % (x.name or what[0].upper(),
                                                       m.name or "M"))
    _fill_from_slots(t, *_slot_maps(base, spaces))
    return t


def cover_coalgebra(c, m, N):
    """Para-cocyclic cover T(C,M) = C^{(x)n+1} (x) M with diagonal H-action."""
    return _cover(c, c.coalgebra, m, N, COCHAIN)


def cover_algebra(a, m, N):
    """Para-cyclic cover T(A,M) = A^{(x)n+1} (x) M with diagonal H-action."""
    return _cover(a, a.algebra, m, N, CHAIN)


# ---------------------------------------------------------------------------
# J ideal, quotient, coinvariants


def truncate(x, N):
    """Restriction of a module to degrees 0..N.  Each map is read from x on
    its first read, so the two share one Matrix per entry."""
    def read(maps, shift):   # the maps with source and target in 0..N
        return {k: partial(maps.__getitem__, k) for k in maps
                if max(k[0], k[0] + shift) <= N}
    spaces = {n: d for n, d in x.spaces.items() if n <= N}
    faces, degs = read(x.faces, x.step), read(x.degeneracies, -x.step)
    taus = {n: partial(x.cyclic.__getitem__, n) for n in x.cyclic if n <= N}
    ha = read(x.h_action, 0) if x.h_action else None
    out = ParaCyclicModule(x.field, x.orientation, spaces, faces, degs, taus,
                           h_action=ha, hopf=x.hopf, name=x.name, meta=x.meta)
    out._certified = {k: v for k, v in x._certified.items() if k[1] <= N}
    return out


def compute_J(t, buffer=2):
    """The saturation ideal J of a para-(co)cyclic cover t with an H-action.

    By definition J is the closure of the columns of T - id and of every
    [L_h, tau^i] (h in a basis of H, i = 1..n+1) under the faces, the
    degeneracies, tau, tau^-1 and every L_h.  Here the closure starts from
    T - id and [L_g, tau] for g in algebra_generators(H) and runs over
    d_0, s_0 and tau.  That is the same J, hence the same reduced basis:

      [L, tau^i] = [L, tau] tau^{i-1} + tau [L, tau^{i-1}];
      tau is injective and J finite-dimensional, so tau(J) = J;
      each other face or degeneracy is the tau-conjugate of index j - 1;
      h -> L_h is an algebra map, so each L_h is a combination of
        products of the L_g; the L_g commute with d_0 and s_0 and each
        [L_h, tau] maps into J, so by induction over words in d_0, s_0
        and tau every L_g, hence every L_h, preserves J.

    In each degree n with J_n != 0, _certify_symmetries checks on the
    matrices: tau_n injective by its rank (InvertibilityFailure if not);
    d_j tau = tau d_{j-1} and s_j tau = tau s_{j-1} (cochain: d^{j-1} tau
    = tau d^j, likewise for s); L_1 = id; L_g L_k = L_gk for each pair of
    generators g, k; and L_g d_0 = d_0 L_g, L_g s_0 = s_0 L_g.
    DescentFailure names the first that fails.  That h -> L_h is an
    algebra map in every degree, not just on generator pairs, is proved
    in _cover: by induction over degrees from Delta multiplicative
    (check_hopf) and X and M modules (check_structure).  The closure
    fixpoints and [L_h, tau] mapping into J, for every basis h, raise
    CertificateFailure.  Once all pass, t._certified records each map
    whose J-preservation was checked on that very Matrix: tau, the faces,
    the degeneracies and the generators' L_g, with J at its two ends and
    their dimensions, so that _descend need not check it on J again; any
    other L_h gets _descend's per-vector check if it is read.  The seeds
    are formed by _seeds, which accumulates each [L_h, tau] as one sum of
    two product terms: L_1 = id, checked there degree by degree, makes
    [L_1, tau] zero, so it is not summed.

    Degrees above t.N - buffer are truncation-affected; buffer must be at
    least 1.  The closure runs in two phases, each certified at its
    fixpoint.  Phase 1 closes the seeds below degree t.N under the
    operators among those degrees: the closure of t truncated to t.N - 1.
    Phase 2 grows those very subspaces to J, pushing them only into degree
    t.N and adding its seeds; as cl(S) = cl(cl_{<N}(S_{<N}) + S_N) and
    reduced bases are unique, J is the one closure of all the seeds.  A
    dimension in the certified range that phase 2 changed raises the
    UnstableTruncation warning.
    """
    if not t.h_action:
        raise ValueError("compute_J needs a module with an H-action")
    if buffer < 1:
        raise ValueError("buffer must be at least 1")
    f = t.field
    gens = algebra_generators(t.hopf)
    twists, comms = {}, {}
    for n in t.spaces:
        twists[n], comms[n] = _seeds(t, n)
    ops = [(n, n + shift, maps[n, j])
           for maps, shift in ((t.faces, t.step), (t.degeneracies, -t.step))
           for n, j in maps if j == 0]
    ops += [(n, n, t.tau(n)) for n in t.spaces]

    def closure(degrees, ops, start=None):
        seeds = {n: twists[n] + [c for g in gens for c in comms[n][g]]
                 for n in degrees}
        return operator_closure(f, seeds, ops, start)

    start = {}
    if t.N >= 1:   # phase 1
        start = closure(range(t.N), [op for op in ops if max(op[:2]) < t.N])
    below = {n: s.dim for n, s in start.items()}
    full = closure([n for n in t.spaces if n not in start], ops, start)
    record = _certify_symmetries(t, full, gens)
    for n in comms:
        for h, cols in comms[n].items():
            if not all(full[n].contains(c) for c in cols):
                raise CertificateFailure("seed [L_%d, tau] leaves J at degree %d"
                                         % (h, n))
    t._certified = record   # its L_g entries rest on the seeds: checked first
    if t.N >= 1:
        for n in range(max(t.N - buffer, 0) + 1):
            if full[n].dim != below[n]:
                warnings.warn("J dimensions not yet stable at degree %d "
                              "(%d vs %d)" % (n, full[n].dim, below[n]),
                              UnstableTruncation)
    return full


def _seeds(t, n):
    """The nonzero columns of T_n - id and of [L_h, tau_n] for each basis h
    of H, as lifts: (twist columns, {h: commutator columns}).  Each
    commutator L_h tau - tau L_h is one lincomb of two product terms, so
    neither product is formed alone, and none is accumulated for the unit
    once L_1 = id is checked at degree n; T_n - id is not formed when
    T_n = id."""
    f, dim, hopf = t.field, t.spaces[n], t.hopf
    ident, tau, twist = Matrix.identity(f, dim), t.tau(n), t.T(n)

    def columns(m):   # the nonzero columns of m
        return [] if m.is_zero() else [c for c in m.columns(lifted=True) if c[0]]

    unit = hopf.unit()
    skip = {h for h in unit if unit == {h: f.one} and t.act_h(n, h) == ident}
    comms = {h: [] if h in skip else columns(Matrix.lincomb(
        [(1, t.act_h(n, h), tau), (-1, tau, t.act_h(n, h))]))
             for h in range(hopf.dim)}
    return ([] if twist == ident else columns(twist - ident)), comms


def _certify_symmetries(t, ideal, gens):
    """Check compute_J's identities at each degree n with ideal[n] != 0.

    tau_n has full rank at each such n (InvertibilityFailure if not), so
    tau(J_n) = J_n; L_1 = id, L_g L_k = L_gk for the generator pairs, the
    tau-conjugations of the faces and degeneracies and the L_g commuting
    with d_0 and s_0 are checked on the matrices, and DescentFailure names
    the first that fails.  The rest of the algebra-map property is proved
    by induction over degrees (see _cover), not checked.  Returns, for
    tau_n, the generators' L_g and every face and degeneracy out of each
    such n, keyed as _descend keys it: (the map, ideal at its source and
    target, their dimensions).
    """
    f, hopf, chain = t.field, t.hopf, t.orientation == CHAIN
    record = {}

    def keep(key, m, tgt):
        subs = ideal[key[1]], ideal[tgt]
        record[key] = (m, *subs, (subs[0].dim, subs[1].dim))

    def check(ok, identity, n):
        if not ok:
            raise DescentFailure("%s fails at degree %d" % (identity, n))

    mul = hopf.algebra.matrices()[0].columns()     # e_g e_k is column g d + k
    for n in [n for n in sorted(t.spaces) if ideal[n].dim]:
        tau = t.tau(n)
        if tau.rank() != t.spaces[n]:   # injective, so tau(J_n) = J_n
            raise InvertibilityFailure("tau_%d is not invertible" % n)
        keep(("tau", n, 0), tau, n)
        check(Matrix.lincomb([(-1, Matrix.identity(f, t.spaces[n]))] +
                             [(c, t.act_h(n, h)) for h, c in hopf.unit().items()]
                             ).is_zero(), "L_1 = id", n)
        lg = {g: t.act_h(n, g) for g in gens}
        for g in gens:
            for k in gens:
                check(Matrix.lincomb([(1, lg[g], lg[k])] + [
                    (-c, t.act_h(n, h)) for h, c in mul[g * hopf.dim + k].items()]
                    ).is_zero(), "L_g L_h = L_gh (g=%d, h=%d)" % (g, k), n)
        for g, m in lg.items():
            keep(("L_h", n, g), m, n)
        for kind, sym, maps, tgt, indices in (
                ("face", "d", t.faces, n + t.step, t.face_indices(n)),
                ("degeneracy", "s", t.degeneracies, n - t.step,
                 t.degeneracy_indices(n))):
            ms = [maps[n, j] for j in indices]
            if not ms:
                continue
            for g in gens:
                check(_equal_products(t.act_h(tgt, g), ms[0], ms[0], lg[g]),
                      "L_g %s_0 = %s_0 L_g (g=%d)" % (sym, sym, g), n)
            m = sym + ("_" if chain else "^")
            for j in range(1, len(ms)):
                a, b = (j, j - 1) if chain else (j - 1, j)
                check(_equal_products(ms[a], tau, t.tau(tgt), ms[b]),
                      "%s%d tau = tau %s%d" % (m, a, m, b), n)
            for j, mj in enumerate(ms):
                keep((kind, n, j), mj, tgt)
    return record


def _descend(t, sub, keep_h=True, name=None):
    """Quotient of t by a degreewise subspace closed under the structure maps.

    The spaces, projections and sections are formed here; each face,
    degeneracy, tau and L_h is induced on its first read, which first
    proves that t's map at that read descends.  The proof is against the
    subspaces as they were here: each degree's Subspace object, its basis
    and its dimension are captured now, so a subspace grown later changes
    nothing a later read checks.  A map is checked on every basis vector
    of its source's subspace, unless compute_J certified it on t: its
    record entry holds that very Matrix and the very subspaces at its
    source and target, with the dimensions captured here.  A Matrix is
    immutable and a Subspace only grows, so the map still sends the one
    into the other, whatever became of the other maps.  The builders hold
    t and the captured data, never the quotient itself.
    """
    f = t.field
    proj, sect, qdims, whole, held = {}, {}, {}, set(), {}
    for n in sorted(t.spaces):
        s = sub.get(n) or Subspace(f, t.spaces[n])
        qdims[n], proj[n], sect[n] = quotient_space(t.spaces[n], s)
        held[n] = s, s.lifts(), s.dim
        if not s.dim:
            whole.add(n)

    def induce(maps, kind, k, shift):
        m = maps[k]
        key = (kind, k, 0) if kind == "tau" else (kind, *k)
        src, tgt = key[1], key[1] + shift
        (s, lifts, dim), (s_tgt, _, dim_tgt) = held[src], held[tgt]
        proved = t._certified.get(key, ())
        if not (proved and all(a is b for a, b in zip(proved, (m, s, s_tgt)))
                and proved[3] == (dim, dim_tgt)):
            tag = "tau_%d" % src if kind == "tau" else "%s (%d,%d)" % key
            for b in lifts:
                if proj[tgt].apply(m.apply(b))[0]:
                    raise DescentFailure("%s does not preserve the subspace "
                                         "(degree %d)" % (tag, src))
        # m * sect only picks columns of m, so form it before the projection;
        # both are identities where the subspace is zero
        if src not in whole:
            m = m * sect[src]
        return m if tgt in whole else proj[tgt] * m

    def lazy(maps, kind, shift):
        return {k: partial(induce, maps, kind, k, shift) for k in maps}

    ha = lazy(t.h_action, "L_h", 0) if keep_h and t.h_action else None
    meta = {"parent": t, "proj": proj, "sect": sect}
    return ParaCyclicModule(f, t.orientation, qdims,
                            lazy(t.faces, "face", t.step),
                            lazy(t.degeneracies, "degeneracy", -t.step),
                            lazy(t.cyclic, "tau", 0),
                            h_action=ha, hopf=t.hopf,
                            name=name or ("Q(%s)" % (t.name or "T")), meta=meta)


def quotient_module(t, j):
    """Q = T/J with each structure map proved to descend when it is first
    read: by compute_J's record where it covers j and the map, by a
    per-vector check elsewhere."""
    return _descend(t, j, keep_h=True)


def coinvariants(q, name=None):
    """C = k (x)_H Q: the quotient by H+Q = span{h.x - eps(h) x}.

    H+Q is spanned from the algebra generators g alone, as the sum of the
    images of L_g - eps(g).  h -> L_h is an algebra map (proved by _cover's
    induction over degrees, and inherited by each quotient), so

        L_gk - eps(gk) = (L_g - eps(g)) L_k + eps(g) (L_k - eps(k))

    puts the image of L_h - eps(h) for every product h of generators in
    that sum: it is H+Q itself, with the same reduced basis.  Only the L_g
    of q are read.  Each map of C is checked on that subspace, vector by
    vector, when it is first read."""
    if not q.h_action:
        raise ValueError("coinvariants needs a module with an H-action")
    f = q.field
    hopf = q.hopf
    gens = algebra_generators(hopf)
    sub = {}
    for n in sorted(q.spaces):
        s = Subspace(f, q.spaces[n])
        for g in gens:
            eps = hopf.coalgebra.counit.get(g, f.zero)
            m = Matrix.lincomb([(1, q.act_h(n, g)),
                                (-eps, Matrix.identity(f, q.spaces[n]))])
            for col in m.columns(lifted=True):
                if col[0]:
                    s.add_vector(col)
        sub[n] = s
    return _descend(q, sub, keep_h=False, name=name or "C(%s)" % (q.name or "Q"))


def hopf_cyclic_complex(c_or_a, m, N, *, buffer=2, level="C"):
    """The Q = T/J or C = k (x)_H Q stage of the pipeline, up to degree N.

    c_or_a is a ModuleCoalgebra or ModuleAlgebra.  For C with SAYD m
    (check_sayd(m) empty), T/H+T is already (co)cyclic (Hajac-Khalkhali-
    Rangipour-Sommerhaeuser), so J lies in H+T and C = T/H+T: the cover is
    built to degree N only, C is its coinvariants, each map certified by
    _descend's per-vector check on its first read, named C(Q(T(...))) as
    on the paper route, and buffer is not read.  On the paper route, for Q
    and for C with any other m, the cover is built to degree N + buffer
    and J is computed on all of it, with every certificate of compute_J;
    then only degrees 0..N are descended, since Q and C there depend only
    on T_0..T_N, J_0..J_N and the maps among them.  truncate keeps compute_J's certificate
    record, so quotient_module checks vector by vector only what that
    record does not prove; coinvariants checks every map on its subspace.
    Each check runs when its map of Q or C is first read, so a table
    that reads no map of degree N checks none there.  The cover T itself
    is cover_coalgebra or cover_algebra.
    """
    if buffer < 1:
        raise ValueError("buffer must be at least 1")
    if level not in ("Q", "C"):
        raise ValueError("level must be Q or C")
    build = cover_coalgebra if isinstance(c_or_a, ModuleCoalgebra) else cover_algebra
    if level == "C" and not check_sayd(m):
        t = build(c_or_a, m, N)
        return coinvariants(t, name="C(Q(%s))" % t.name)
    t = build(c_or_a, m, N + buffer)
    j = compute_J(t, buffer=buffer)
    q = quotient_module(truncate(t, N), {n: j[n] for n in range(N + 1)})
    return q if level == "Q" else coinvariants(q)


# ---------------------------------------------------------------------------
# colinear-map complexes C(B,M) and C(Z,M)


def _colinear_subspace(field, hopf, mod, rho_x):
    """Kernel of the colinearity operator on Hom(X, M), rho_x: X -> H (x) X.

    The operator sends f to rho_M o f - (id_H (x) f) o rho_X.  Hom vectors
    are flattened with the M index slowest: flat = m*dimX + x.
    """
    dh, dm = hopf.dim, mod.dim
    terms = [(1, _coaction(mod, dm).kron(Matrix.identity(field, rho_x.cols)))]
    for h, block in enumerate(column_blocks(rho_x.transpose(), dh)):
        e_h = slot(Matrix(field, dh, 1, {(h, 0): field.one}), 1, dm)
        terms.append((-1, e_h.kron(block)))
    return Matrix.lincomb(terms).kernel_basis()


def _restrict(image, sub, basis, tag):
    """The columns of image, a matrix into sub's ambient space, in sub's
    basis (basis, its basis matrix): the rows of image at sub's pivots.
    The basis is reduced (1 at its own pivot, 0 at the others), so a
    column lies in sub iff it is the basis combination of its entries
    there; one product certifies every column, and DescentFailure names
    tag if one lies outside."""
    a, d = image.lift
    rows = {p: i for i, p in enumerate(sub.pivots)}
    coords = Matrix(sub.field, sub.dim, image.cols, lift=sub.field.normalize(
        {(rows[i], j): x for (i, j), x in a.items() if i in rows}, d))
    if basis * coords != image:
        raise DescentFailure("%s leaves the colinear subspace" % tag)
    return coords


def _hom_module(field, hopf, mod, base, N, orientation, name):
    """Shared construction for C(B,M) (cochain) and C(Z,M) (chain).

    tau is a twisted rotation, and the face and degeneracy of index j
    precompose with the slot map j of the base; each is restricted to the
    colinear maps.  _fill_from_slots forms the wrap-around face through
    tau, the cyclic relation d_n = d_0 tau (Loday, Cyclic Homology 6.1).
    Every map is built on its first read, and _restrict's DescentFailure
    is raised there; the public constructors refuse a non-SAYD M first.
    """
    # chain: (tau f)(z^0..z^n) = z^0_{[-1]} f(z^1..z^n, z^0_{[0]}), and
    # d_j, s_j precompose with the comultiplication and counit maps;
    # cochain: (tau f)(b^0..b^n) = S(b^n_{(-1)}) f(b^n_{(0)}, b^0..b^{n-1}),
    # and d_j, s_j precompose with the multiplication and unit maps
    slots = base.coalgebra if orientation == CHAIN else base.algebra
    db, dh, dm = slots.dim, hopf.dim, mod.dim
    rho_b = _coaction(base, db)
    rhos = _codiagonals(hopf.algebra.matrices()[0], rho_b, N + 1)
    lm = column_blocks(_action(mod, dm), dh)
    subs = {n: _colinear_subspace(field, hopf, mod, rhos[n])   # on B^{(x)n+1}
            for n in range(N + 1)}
    bases = {n: sub.basis_matrix() for n, sub in subs.items()}

    def twisted_rotation(n):
        if orientation == CHAIN:
            order = (0,) + tuple(range(2, n + 2)) + (1,)
            g = permute(slot(rho_b, 1, db ** n), [dh, db] + [db] * n, order)
        else:
            order = (n, n + 1) + tuple(range(n))
            g = slot(hopf.antipode, 1, db ** (n + 1)) * permute(
                slot(rho_b, db ** n, 1), [db] * n + [dh, db], order)
        # G(x) = sum_h h (x) u_h(x); tau f = sum_h L_h o f o u_h
        tau = Matrix.lincomb([(1, lh.kron(uh))
                              for lh, uh in zip(lm, column_blocks(g.transpose(), dh))])
        return _restrict(tau * bases[n], subs[n], bases[n], "tau_%d" % n)
    x = ParaCyclicModule(field, orientation, {n: subs[n].dim for n in subs}, {},
                         {}, {n: partial(twisted_rotation, n) for n in subs},
                         hopf=hopf, name=name, meta={"sub": subs})

    def precompose(slot_map, shift, sym):
        def build(n, j):
            # f |-> f o p with p = slot_map(tgt, j): B^{(x)tgt+1} -> B^{(x)n+1}
            tgt = n + shift
            op = Matrix.identity(field, dm).kron(slot_map(tgt, j).transpose())
            return _restrict(op * bases[n], subs[tgt], bases[tgt],
                             "%s_%d at %d" % (sym, j, n))
        return build

    face, degen = _slot_maps(slots, {n: db ** (n + 1) for n in subs})
    _fill_from_slots(x, precompose(face, x.step, "d"),
                     precompose(degen, -x.step, "s"))
    return x


def hopf_cocyclic_comodule_algebra(b, m, N):
    """C(B,M): colinear maps B^{(x)n+1} -> M with the cocyclic structure."""
    require_same_hopf(b.hopf, m.hopf, "comodule algebra and coefficients")
    raise_failures(NotSAYD, check_sayd(m))
    return _hom_module(b.field, b.hopf, m, b, N, COCHAIN,
                       "C(%s,%s)" % (b.name or "B", m.name or "M"))


def hopf_cyclic_comodule_coalgebra(z, m, N):
    """C(Z,M): colinear maps Z^{(x)n+1} -> M with the cyclic structure."""
    require_same_hopf(z.hopf, m.hopf, "comodule coalgebra and coefficients")
    raise_failures(NotSAYD, check_sayd(m))
    raise_failures(CompatibilityFailure, check_comodule_coalgebra(z))
    return _hom_module(z.field, z.hopf, m, z, N, CHAIN,
                       "C(%s,%s)" % (z.name or "Z", m.name or "M"))


# ---------------------------------------------------------------------------
# Connes duality, diag Hom, diag tensor


def cyclic_dual(x):
    """Connes' duality: cyclic <-> cocyclic on the same spaces.

    Dual faces are the original degeneracies reindexed, and the one missing
    face is a single product with a tau: d_n = s^0 tau'_n with the dual's
    tau' (chain dual), d^0 = tau_{n+1} s_n with x's own tau (cocyclic dual;
    Loday's s_0 t = t^2 s_n).  Dual tau is the inverse, formed once per
    degree.  Applying the functor twice gives back the input.
    """
    f = x.field
    if not x.is_cyclic():
        raise InvertibilityFailure("cyclic dual of a non-cyclic module")
    spaces = dict(x.spaces)
    taus = {n: x.tau_inv(n) for n in spaces}
    if x.orientation == COCHAIN:
        # cocyclic -> cyclic: d_i := s^i (i < n), s_j := d^{j+1};
        # the last face is the chain wrap-around d_n = d_0 tau_n
        degs = {(n, j): x.faces[(n, j + 1)]
                for n in spaces if n + 1 <= x.N for j in range(n + 1)}
        faces = {}
        for n in spaces:
            if n >= 1:
                for i in range(n):
                    faces[(n, i)] = x.degeneracies[(n, i)]
                faces[(n, n)] = x.degeneracies[(n, 0)] * taus[n]
        return ParaCyclicModule(f, CHAIN, spaces, faces, degs, taus,
                                hopf=x.hopf, name="dual(%s)" % (x.name or "X"))
    # cyclic -> cocyclic: d^j := s_{j-1} (j >= 1), s^i := d_i;
    # the missing coface d^0 = tau_{n+1} s_n
    faces = {(n, j): x.degeneracies[(n, j - 1)]
             for n in spaces if n + 1 <= x.N for j in range(1, n + 2)}
    degs = {}
    for n in spaces:
        if n + 1 <= x.N:
            faces[(n, 0)] = x.tau(n + 1) * x.degeneracies[(n, n)]
        if n >= 1:
            for i in range(n):
                degs[(n, i)] = x.faces[(n, i)]
    return ParaCyclicModule(f, COCHAIN, spaces, faces, degs, taus,
                            hopf=x.hopf, name="dual(%s)" % (x.name or "X"))


def _kron_of(a, ka, b, kb, dual=False):
    """a[ka] (x) b[kb], with b[kb] transposed when dual: a builder's body."""
    m = b[kb]
    return a[ka].kron(m.transpose() if dual else m)


def diag_hom(x, y, N):
    """Degreewise Hom(X_n, Y_n), n = 0..N, with the conjugation structure.

    X and Y must have opposite orientations; the result follows Y.  Hom
    elements are matrices Y_n x X_n flattened row-major (Y index slowest).
    Each map is the Kronecker product of y's and x's transposed, formed
    on its first read.
    """
    if x.orientation == y.orientation:
        raise ShapeMismatch("diag_hom needs opposite orientations")
    spaces = {n: x.spaces[n] * y.spaces[n] for n in range(N + 1)}
    s = y.step
    # x runs the other way: its map pairing with y's lands where y's starts
    faces = {(n, j): partial(_kron_of, y.faces, (n, j), x.faces, (n + s, j), True)
             for n, j in y.faces if n <= N and n + s <= N}
    degs = {(n, i): partial(_kron_of, y.degeneracies, (n, i),
                            x.degeneracies, (n - s, i), True)
            for n, i in y.degeneracies if n <= N and n - s <= N}
    taus = {n: partial(_kron_of, y.cyclic, n, x.cyclic, n, True)
            for n in range(N + 1)}
    return ParaCyclicModule(x.field, y.orientation, spaces, faces, degs, taus,
                            name="diagHom(%s,%s)" % (x.name or "X", y.name or "Y"),
                            meta={"x": x, "y": y})


def diag_tensor(u, v):
    """Degreewise tensor product with componentwise operators, each formed
    on its first read."""
    if u.orientation != v.orientation:
        raise ShapeMismatch("diag_tensor needs matching orientations")
    N = min(u.N, v.N)
    spaces = {n: u.spaces[n] * v.spaces[n] for n in range(N + 1)}
    taus = {n: partial(_kron_of, u.cyclic, n, v.cyclic, n) for n in range(N + 1)}
    faces = {k: partial(_kron_of, u.faces, k, v.faces, k) for k in u.faces
             if k in v.faces and k[0] <= N and 0 <= k[0] + u.step <= N}
    degs = {k: partial(_kron_of, u.degeneracies, k, v.degeneracies, k)
            for k in u.degeneracies
            if k in v.degeneracies and k[0] <= N and 0 <= k[0] - u.step <= N}
    return ParaCyclicModule(u.field, u.orientation, spaces, faces, degs, taus,
                            name="diag(%s (x) %s)" % (u.name or "U", v.name or "V"),
                            meta={"u": u, "v": v})
