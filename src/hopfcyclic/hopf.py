"""Finite-dimensional Hopf algebras and their actors, as structure constants.

Every structure is a bundle of sparse structure-constant tables over an
exact field.  Tables are what is stored and serialized; every
computation reads them as Matrices.  Axioms are never assumed.  Each
structure map (m, u, Delta, eps, S, an action, a coaction, a pairing) is
read as a Matrix, and each defining identity, a commutative diagram, is
one exact Matrix equation lhs == rhs between composites built with
products and Kronecker products.  check_structure reports every basis
tuple at which the two sides differ.  The tensor and crossed-product
constructions are built from the same matrices and read back into
tables.  The tests keep an entry-by-entry loop form of the same maps as
the reference these Matrix forms are compared against.

Conventions.  A vector is a dict {basis index: scalar}.  Multiplication
tables map (i, j) to the vector e_i * e_j.  Comultiplications map i to
a dict {(j, k): scalar} meaning Delta(e_i) = sum e_j (x) e_k.  Coactions
on an object V map a V-index to {(h, v): scalar} inside H (x) V.  Tensor
spaces are flattened row-major, as in tensors.flatten.
"""

from .linalg import (Matrix, Subspace, ShapeMismatch, quotient_space,
                     operator_closure)
from .tensors import (unflatten, prod, permute, table_matrix, matrix_table,
                      column_blocks)

# slot order (0, 2, 1, 3): (a (x) b) (x) (c (x) d) -> a (x) c (x) b (x) d
MIDDLE = (0, 2, 1, 3)


class HopfMismatch(Exception):
    pass


class CompatibilityFailure(Exception):
    pass


def raise_failures(exc, bad):
    """Raise exc naming every failure in the list bad, if it has any."""
    if bad:
        raise exc("; ".join(bad))


def _eye(field, *dims):
    """The identity of V_1 (x) ... (x) V_k."""
    return Matrix.identity(field, prod(dims))


def _kron(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


def _vec(mat):
    """A one-row or one-column matrix as a dict-vector."""
    return {i + j: v for (i, j), v in sorted(mat.entries.items())}


def _action(x, dim):
    """The action H (x) V -> V of x, V of dimension dim."""
    return table_matrix(x.field, x.action, [x.hopf.dim, dim], [dim])


def _coaction(x, dim):
    """The coaction V -> H (x) V of x, V of dimension dim."""
    return table_matrix(x.field, x.coaction, [dim], [x.hopf.dim, dim])


def _diagonal(dl, act1, act2):
    """x (x) v (x) w -> x1.v (x) x2.w for Delta(x) = x1 (x) x2 and actions
    act_i: X (x) V_i -> V_i."""
    dx, d1, d2 = dl.cols, act1.rows, act2.rows
    split = permute(dl.kron(_eye(dl.field, d1, d2)), [dx, dx, d1, d2], MIDDLE)
    return act1.kron(act2) * split


def _codiagonal(m, rho1, rho2):
    """v (x) w -> v(-1)w(-1) (x) v(0) (x) w(0) for coactions rho_i: V_i -> H (x) V_i
    and the product m of H."""
    dh, d1, d2 = m.rows, rho1.cols, rho2.cols
    legs = permute(rho1.kron(rho2), [dh, d1, dh, d2], MIDDLE)
    return m.kron(_eye(m.field, d1, d2)) * legs


def _codiagonals(m, rho, k):
    """[rho_1, ..., rho_k] for a coaction rho on V: rho_j is the diagonal
    coaction v^1..v^j -> v^1(-1)..v^j(-1) (x) v^1(0)..v^j(0) on V^{(x)j}."""
    out = [rho]
    while len(out) < k:
        out.append(_codiagonal(m, out[-1], rho))
    return out


def require_same_hopf(x, y, what):
    """Raise HopfMismatch unless x and y have the same structure constants."""
    if x is y:
        return
    same = (x.algebra.matrices() == y.algebra.matrices()     # fields and shapes too
            and x.coalgebra.matrices() == y.coalgebra.matrices()
            and x.antipode == y.antipode)
    if not same:
        raise HopfMismatch("%s across different Hopf algebras" % what)


class AlgebraData:
    def __init__(self, field, dim, mul, unit, labels=None):
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = dict(unit)
        self.labels = labels or ["e%d" % i for i in range(dim)]

    def matrices(self):
        """(m, u): the product A (x) A -> A and the unit k -> A."""
        d = self.dim
        return (table_matrix(self.field, self.mul, [d, d], [d]),
                table_matrix(self.field, {0: self.unit}, [1], [d]))


class CoalgebraData:
    def __init__(self, field, dim, comul, counit, labels=None):
        self.field = field
        self.dim = dim
        self.comul = comul
        self.counit = dict(counit)
        self.labels = labels or ["e%d" % i for i in range(dim)]

    def matrices(self):
        """(Delta, eps): the coproduct C -> C (x) C and the counit C -> k."""
        d = self.dim
        counit = {i: {0: x} for i, x in self.counit.items()}
        return (table_matrix(self.field, self.comul, [d], [d, d]),
                table_matrix(self.field, counit, [d], [1]))


class HopfAlgebraData:
    def __init__(self, algebra, coalgebra, antipode, antipode_inv=None, name=None):
        if algebra.dim != coalgebra.dim:
            raise ShapeMismatch("algebra dim %d != coalgebra dim %d"
                                % (algebra.dim, coalgebra.dim))
        self.field = algebra.field
        self.dim = algebra.dim
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode
        self.antipode_inv = antipode_inv if antipode_inv is not None else antipode.inverse()
        self.name = name
        self.labels = algebra.labels

    def unit(self):
        return dict(self.algebra.unit)


class ModuleAlgebra:
    """Unital algebra with a left H-action compatible with its product."""

    def __init__(self, hopf, algebra, action, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.algebra = algebra
        self.action = action
        self.name = name


class ModuleCoalgebra:
    """Counital coalgebra with a left H-action compatible with its coproduct."""

    def __init__(self, hopf, coalgebra, action, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.coalgebra = coalgebra
        self.action = action
        self.name = name


class ComoduleAlgebra:
    """Unital algebra with a left H-coaction; multiplicative and counital."""

    def __init__(self, hopf, algebra, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.algebra = algebra
        self.coaction = coaction
        self.name = name


class ComoduleCoalgebra:
    """Coalgebra with a left H-coaction satisfying the mixed compatibility."""

    def __init__(self, hopf, coalgebra, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.coalgebra = coalgebra
        self.coaction = coaction
        self.name = name


class ModComodule:
    """H-module and H-comodule with no compatibility assumed."""

    def __init__(self, hopf, dim, action, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self.name = name


class ModularPair:
    """Group-like sigma and character delta of a Hopf algebra."""

    def __init__(self, sigma, delta):
        self.sigma = dict(sigma)   # vector in H
        self.delta = dict(delta)   # covector on H


class EquivariantPairing:
    """Pairing phi: C (x) A -> A between a module coalgebra and algebra."""

    def __init__(self, coalg, alg, phi, name=None):
        require_same_hopf(coalg.hopf, alg.hopf, "pairing")
        self.coalg = coalg
        self.alg = alg
        self.hopf = alg.hopf
        self.field = alg.field
        self.phi = phi
        self.name = name


# ---------------------------------------------------------------------------
# axiom checkers: each identity is an equation between Matrix composites


def _fails(dims, *identities):
    """msg.format(*t) for each identity (lhs, rhs, msg) and each basis tuple
    t of the source V_1 (x) ... (x) V_k (dimensions dims) at which the maps
    lhs and rhs differ; identity by identity, tuples in increasing order."""
    out = []
    for lhs, rhs, msg in identities:
        if lhs != rhs:
            cols = sorted({c for _, c in (lhs - rhs).lift[0]})
            out += [msg.format(*unflatten(c, dims)) for c in cols]
    return out


def check_algebra(a, tag="algebra"):
    d = a.dim
    m, u = a.matrices()
    i = _eye(a.field, d)
    return (_fails([d], (m * i.kron(u), i, tag + ": e{0} * 1 != e{0}"),
                   (m * u.kron(i), i, tag + ": 1 * e{0} != e{0}"))
            + _fails([d] * 3, (m * m.kron(i), m * i.kron(m),
                               tag + ": associativity fails at ({0},{1},{2})")))


def check_coalgebra(c, tag="coalgebra"):
    d = c.dim
    dl, e = c.matrices()
    i = _eye(c.field, d)
    return _fails([d], (dl.kron(i) * dl, i.kron(dl) * dl,
                        tag + ": coassociativity fails at e{0}"),
                  (e.kron(i) * dl, i, tag + ": left counit fails at e{0}"),
                  (i.kron(e) * dl, i, tag + ": right counit fails at e{0}"))


def check_hopf(h):
    f, d = h.field, h.dim
    m, u = h.algebra.matrices()
    dl, e = h.coalgebra.matrices()
    i, s = _eye(f, d), h.antipode
    bad = (check_algebra(h.algebra, "hopf algebra part")
           + check_coalgebra(h.coalgebra, "hopf coalgebra part")
           + _fails([1], (dl * u, u.kron(u), "bialgebra: Delta(1) != 1 (x) 1"),
                    (e * u, _eye(f, 1), "bialgebra: eps(1) != 1"))
           + _fails([d, d], (dl * m, m.kron(m) * permute(dl.kron(dl), [d] * 4, MIDDLE),
                             "bialgebra: Delta not multiplicative at ({0},{1})"),
                    (e * m, e.kron(e),
                     "bialgebra: eps not multiplicative at ({0},{1})"))
           + _fails([d], (m * s.kron(i) * dl, u * e,
                          "antipode: S(h1)h2 != eps(h)1 at e{0}"),
                    (m * i.kron(s) * dl, u * e,
                     "antipode: h1S(h2) != eps(h)1 at e{0}")))
    if s * h.antipode_inv != i:
        bad.append("antipode: S o S^-1 != id")
    if h.antipode_inv * s != i:
        bad.append("antipode: S^-1 o S != id")
    return bad


def _action_fails(hopf, dim, act, tag):
    """1.v = v and (gh).v = g.(h.v) for an action act: H (x) V -> V."""
    m, u = hopf.algebra.matrices()
    i = _eye(hopf.field, dim)
    return (_fails([dim], (act * u.kron(i), i,
                           tag + ": unit does not act as identity at e{0}"))
            + _fails([hopf.dim, hopf.dim, dim],
                     (act * m.kron(i), act * _eye(hopf.field, hopf.dim).kron(act),
                      tag + ": action not associative at (h{0},h{1},e{2})")))


def _coaction_fails(hopf, dim, rho, tag):
    """The counit law and coassociativity of a coaction rho: V -> H (x) V."""
    dl, e = hopf.coalgebra.matrices()
    i = _eye(hopf.field, dim)
    return _fails([dim], (e.kron(i) * rho, i, tag + ": counit law fails at e{0}"),
                  (dl.kron(i) * rho, _eye(hopf.field, hopf.dim).kron(rho) * rho,
                   tag + ": coassociativity of coaction fails at e{0}"))


def check_module_algebra(ma):
    h, a = ma.hopf, ma.algebra
    dh, da, ih = h.dim, a.dim, _eye(h.field, h.dim)
    act, (m, u), (dl, e) = _action(ma, da), a.matrices(), h.coalgebra.matrices()
    return (check_algebra(a, "module algebra base")
            + _action_fails(h, da, act, "module algebra action")
            + _fails([dh], (act * ih.kron(u), u * e,
                            "module algebra: h(1_A) != eps(h)1_A at h{0}"))
            + _fails([dh, da, da], (act * ih.kron(m), m * _diagonal(dl, act, act),
                                    "module algebra: h(ab) law fails at (h{0},e{1},e{2})")))


def check_module_coalgebra(mc):
    h, c = mc.hopf, mc.coalgebra
    dh, dc, ih = h.dim, c.dim, _eye(h.field, h.dim)
    act, (dl, e), (dlh, eh) = _action(mc, dc), c.matrices(), h.coalgebra.matrices()
    return (check_coalgebra(c, "module coalgebra base")
            + _action_fails(h, dc, act, "module coalgebra action")
            + _fails([dh, dc], (dl * act, _diagonal(dlh, act, act) * ih.kron(dl),
                                "module coalgebra: Delta(hc) law fails at (h{0},e{1})"),
                     (e * act, eh.kron(e),
                      "module coalgebra: eps(hc) law fails at (h{0},e{1})")))


def check_comodule_algebra(ca):
    h, a = ca.hopf, ca.algebra
    da, ih = a.dim, _eye(h.field, h.dim)
    rho, (m, u), (mh, uh) = _coaction(ca, da), a.matrices(), h.algebra.matrices()
    return (check_algebra(a, "comodule algebra base")
            + _coaction_fails(h, da, rho, "comodule algebra coaction")
            + _fails([da, da], (rho * m, ih.kron(m) * _codiagonal(mh, rho, rho),
                                "comodule algebra: coaction not multiplicative at "
                                "({0},{1})"))
            + _fails([1], (rho * u, uh.kron(u), "comodule algebra: unit not coinvariant")))


def check_comodule_coalgebra(cc):
    # mixed compatibility: z[-1] (x) z[0](1) (x) z[0](2)
    #   = z(1)[-1] z(2)[-1] (x) z(1)[0] (x) z(2)[0]
    h, c = cc.hopf, cc.coalgebra
    dz, ih = c.dim, _eye(h.field, h.dim)
    rho, (dl, _), (mh, _) = _coaction(cc, dz), c.matrices(), h.algebra.matrices()
    return (check_coalgebra(c, "comodule coalgebra base")
            + _coaction_fails(h, dz, rho, "comodule coalgebra coaction")
            + _fails([dz], (ih.kron(dl) * rho, _codiagonal(mh, rho, rho) * dl,
                            "comodule coalgebra: mixed compatibility fails at e{0}")))


def check_modcomodule(m):
    h = m.hopf
    return (_action_fails(h, m.dim, _action(m, m.dim), "module/comodule action")
            + _coaction_fails(h, m.dim, _coaction(m, m.dim), "module/comodule coaction"))


def check_modular_pair(hopf, pair):
    f, d = hopf.field, hopf.dim
    sigma = table_matrix(f, {0: pair.sigma}, [1], [d])
    delta = table_matrix(f, {i: {0: x} for i, x in pair.delta.items()}, [d], [1])
    (m, u), (dl, e) = hopf.algebra.matrices(), hopf.coalgebra.matrices()
    one = _eye(f, 1)
    return (_fails([1], (dl * sigma, sigma.kron(sigma), "modular pair: sigma not group-like"),
                   (e * sigma, one, "modular pair: eps(sigma) != 1"),
                   (delta * u, one, "modular pair: delta(1) != 1"))
            + _fails([d, d], (delta * m, delta.kron(delta),
                              "modular pair: delta not multiplicative at ({0},{1})")))


def check_equivariant(p):
    f, h, a, c = p.field, p.hopf, p.alg.algebra, p.coalg.coalgebra
    dh, da, dc = h.dim, a.dim, c.dim
    phi = table_matrix(f, p.phi, [dc, da], [da])
    (m, u), (dl, e) = a.matrices(), c.matrices()
    return (_fails([dc], (phi * _eye(f, dc).kron(u), u * e,
                          "pairing: phi(c,1) != eps(c)1 at c{0}"))
            + _fails([dc, da, da], (phi * _eye(f, dc).kron(m), m * _diagonal(dl, phi, phi),
                                    "pairing: multiplicativity fails at (c{0},a{1},a{2})"))
            + _fails([dh, dc, da], (_action(p.alg, da) * _eye(f, dh).kron(phi),
                                    phi * _action(p.coalg, dc).kron(_eye(f, da)),
                                    "pairing: equivariance fails at (h{0},c{1},a{2})")))


def check_sayd(m):
    """Stability m(-1)m(0) = m and the anti-Yetter-Drinfeld condition
    (hm)(-1) (x) (hm)(0) = h1 m(-1) S^-1(h3) (x) h2 m(0)."""
    f, h = m.field, m.hopf
    dh, dm = h.dim, m.dim
    act, rho = _action(m, dm), _coaction(m, dm)
    (mh, _), (dl, _) = h.algebra.matrices(), h.coalgebra.matrices()
    legs = _eye(f, dh).kron(dl) * dl                                 # h1 (x) h2 (x) h3
    left = mh * mh.kron(_eye(f, dh)) * _eye(f, dh, dh).kron(h.antipode_inv)
    # h1 (x) h2 (x) h3 (x) m(-1) (x) m(0) -> h1 (x) m(-1) (x) h3 (x) h2 (x) m(0)
    rhs = left.kron(act) * permute(legs.kron(rho), [dh] * 4 + [dm], (0, 3, 2, 1, 4))
    return (_fails([dm], (act * rho, _eye(f, dm), "sayd: stability fails at e{0}"))
            + _fails([dh, dm], (rho * act, rhs,
                                "sayd: AYD condition fails at (h{0},e{1})")))


_CHECKS = ((HopfAlgebraData, check_hopf), (AlgebraData, check_algebra),
           (CoalgebraData, check_coalgebra), (ModuleAlgebra, check_module_algebra),
           (ModuleCoalgebra, check_module_coalgebra),
           (ComoduleAlgebra, check_comodule_algebra),
           (ComoduleCoalgebra, check_comodule_coalgebra),
           (ModComodule, check_modcomodule), (EquivariantPairing, check_equivariant))


def check_structure(x):
    """Dispatch on type; empty report iff every defining identity holds.

    The reports of nested structures come first, prefixed: "hopf: " for
    the Hopf algebra of an actor, "coalgebra side: " and "algebra side: "
    for the two sides of a pairing.
    """
    check = next((c for cls, c in _CHECKS if isinstance(x, cls)), None)
    if check is None:
        raise TypeError("no structure checks for %r" % type(x).__name__)
    if isinstance(x, EquivariantPairing):
        nested = (("coalgebra side: ", x.coalg), ("algebra side: ", x.alg))
    else:
        nested = (("hopf: ", x.hopf),) if hasattr(x, "hopf") else ()
    return [p + line for p, y in nested for line in check_structure(y)] + check(x)


def modular_pair_module(hopf, pair):
    """The 1-dimensional coefficient module k_(sigma,delta).

    Convention: h . 1 = delta(h) 1 and the coaction sends 1 to sigma (x) 1.
    A pair that is not modular raises CompatibilityFailure naming the failed
    identities; check_sayd decides afterwards whether it is in involution.
    """
    raise_failures(CompatibilityFailure, check_modular_pair(hopf, pair))
    f = hopf.field
    action = {}
    for h in range(hopf.dim):
        d = pair.delta.get(h, f.zero)
        action[(h, 0)] = {0: d} if not f.is_zero(d) else {}
    coaction = {0: {(h, 0): v for h, v in pair.sigma.items()}}
    name = "k_(sigma,delta)"
    return ModComodule(hopf, 1, action, coaction, name=name)


def trivial_modcomodule(hopf):
    """k with action via the counit and coaction via the unit."""
    f = hopf.field
    action = {}
    for h in range(hopf.dim):
        e = hopf.coalgebra.counit.get(h, f.zero)
        action[(h, 0)] = {0: e} if not f.is_zero(e) else {}
    coaction = {0: {(i, 0): v for i, v in hopf.unit().items()}}
    return ModComodule(hopf, 1, action, coaction, name="k_triv")


def crossed_product_algebra(ma, ca):
    """A x| B with product (a,b)(a',b') = (a (b(-1) a'), b(0) b')."""
    require_same_hopf(ma.hopf, ca.hopf, "crossed product")
    f, A, B = ma.field, ma.algebra, ca.algebra
    dh, da, db = ma.hopf.dim, A.dim, B.dim
    (m_a, u_a), (m_b, u_b) = A.matrices(), B.matrices()
    # a (x) b (x) a' (x) b' -> a (x) b(-1) (x) a' (x) b(0) (x) b'
    split = permute(_kron(_eye(f, da), _coaction(ca, db), _eye(f, da, db)),
                    [da, dh, db, da, db], (0, 1, 3, 2, 4))
    mul = m_a.kron(m_b) * _kron(_eye(f, da), _action(ma, da), _eye(f, db, db)) * split
    labels = ["(%s,%s)" % (la, lb) for la in A.labels for lb in B.labels]
    return AlgebraData(f, da * db, matrix_table(mul, [da * db] * 2, [da * db]),
                       _vec(u_a.kron(u_b)), labels=labels)


def crossed_product_coalgebra(zc, mc):
    """Z |x C with Delta(z,c) = (z1, z2[-1]c1) (x) (z2[0], c2)."""
    require_same_hopf(zc.hopf, mc.hopf, "crossed product")
    raise_failures(CompatibilityFailure, check_comodule_coalgebra(zc))
    f, Z, C = zc.field, zc.coalgebra, mc.coalgebra
    dh, dz, dc = zc.hopf.dim, Z.dim, C.dim
    (dl_z, e_z), (dl_c, e_c) = Z.matrices(), C.matrices()
    # z1 (x) z2 (x) c1 (x) c2 -> z1 (x) z2[-1] (x) c1 (x) z2[0] (x) c2
    coact = _kron(_eye(f, dz), _coaction(zc, dz), _eye(f, dc, dc))
    split = permute(coact * dl_z.kron(dl_c), [dz, dh, dz, dc, dc], (0, 1, 3, 2, 4))
    comul = _kron(_eye(f, dz), _action(mc, dc), _eye(f, dz, dc)) * split
    labels = ["(%s,%s)" % (lz, lc) for lz in Z.labels for lc in C.labels]
    return CoalgebraData(f, dz * dc, matrix_table(comul, [dz * dc], [dz * dc] * 2),
                         _vec(e_z.kron(e_c)), labels=labels)


def cotensor(m, m2):
    """M box^H M' inside M (x) M' as the kernel of the two coactions' difference."""
    require_same_hopf(m.hopf, m2.hopf, "cotensor")
    f, hd = m.field, m.hopf.dim
    # M (x) M' -> H (x) M (x) M':  rho_M (x) id  minus  (flip to front) id (x) rho_M'
    other = permute(_eye(f, m.dim).kron(_coaction(m2, m2.dim)), [m.dim, hd, m2.dim],
                    (1, 0, 2))
    return (_coaction(m, m.dim).kron(_eye(f, m2.dim)) - other).kernel_basis()


def algebra_generators(hopf):
    """Basis indices that generate H as a unital algebra, picked greedily.

    A basis element joins when it lies outside the subalgebra that the
    earlier ones generate: the closure of the unit under their left
    multiplications.  Raises unless the generated subalgebra is all of H.
    """
    f, d = hopf.field, hopf.dim
    unit = hopf.unit()
    left = column_blocks(hopf.algebra.matrices()[0], d)     # left multiplications
    gens, ops = [], []
    sub = Subspace.from_vectors(f, d, [unit])
    for h in range(d):
        if sub.contains({h: f.one}):
            continue
        gens.append(h)
        ops.append((0, 0, left[h]))
        sub = operator_closure(f, {0: [unit]}, ops)[0]
    if sub.dim != d:
        raise CompatibilityFailure("the generators %s span a subalgebra of "
                                   "dimension %d < %d" % (gens, sub.dim, d))
    return gens


def is_cocommutative(hopf):
    dl, _ = hopf.coalgebra.matrices()
    return dl == permute(dl, [hopf.dim] * 2, (1, 0))


def is_commutative(hopf):
    m, _ = hopf.algebra.matrices()
    return m == permute(m, [hopf.dim] * 2, (1, 0), cols=True)


def is_symmetric_module(m):
    """Whether the action makes M a symmetric bimodule via m.h := h.m.

    Operationally: the operators of any two basis elements commute, so the
    left action can be read as a right action on the other side of a
    balanced tensor product.
    """
    act = _action(m, m.dim)
    twice = act * _eye(m.field, m.hopf.dim).kron(act)        # g (x) h (x) v -> g.(h.v)
    return twice == permute(twice, [m.hopf.dim, m.hopf.dim, m.dim], (1, 0, 2), cols=True)


def cotensor_is_submodule(m, m2):
    """Whether M box^H M' is stable under the diagonal H-action."""
    sub = cotensor(m, m2)
    dl, _ = m.hopf.coalgebra.matrices()
    acted = (_diagonal(dl, _action(m, m.dim), _action(m2, m2.dim))
             * _eye(m.field, m.hopf.dim).kron(sub.basis_matrix()))
    return all(sub.contains(col) for col in acted.columns(lifted=True))


def check_hypotheses(hopf, modules=()):
    """Flags used by the external-product theorems."""
    report = {
        "cocommutative": is_cocommutative(hopf),
        "commutative": is_commutative(hopf),
    }
    if len(modules) >= 1:
        report["module_symmetric"] = all(is_symmetric_module(m) for m in modules)
    if len(modules) == 2:
        report["cotensor_submodule"] = cotensor_is_submodule(modules[0], modules[1])
    return report


# ---------------------------------------------------------------------------
# tensor constructions


def tensor_algebra(a1, a2):
    """A (x) A' with componentwise product, indices flattened a*dim2 + a'."""
    d1, d2 = a1.dim, a2.dim
    (m1, u1), (m2, u2) = a1.matrices(), a2.matrices()
    mul = permute(m1.kron(m2), [d1, d1, d2, d2], MIDDLE, cols=True)
    labels = ["%s(x)%s" % (la, lb) for la in a1.labels for lb in a2.labels]
    return AlgebraData(a1.field, d1 * d2, matrix_table(mul, [d1 * d2] * 2, [d1 * d2]),
                       _vec(u1.kron(u2)), labels=labels)


def tensor_coalgebra(c1, c2):
    """C (x) C' with componentwise coproduct, indices flattened c*dim2 + c'."""
    d1, d2 = c1.dim, c2.dim
    (dl1, e1), (dl2, e2) = c1.matrices(), c2.matrices()
    comul = permute(dl1.kron(dl2), [d1, d1, d2, d2], MIDDLE)
    labels = ["%s(x)%s" % (la, lb) for la in c1.labels for lb in c2.labels]
    return CoalgebraData(c1.field, d1 * d2, matrix_table(comul, [d1 * d2], [d1 * d2] * 2),
                         _vec(e1.kron(e2)), labels=labels)


def tensor_hopf(h1, h2):
    """H (x) H' with componentwise structure and antipode S (x) S'."""
    alg = tensor_algebra(h1.algebra, h2.algebra)
    co = tensor_coalgebra(h1.coalgebra, h2.coalgebra)
    s = h1.antipode.kron(h2.antipode)
    si = h1.antipode_inv.kron(h2.antipode_inv)
    return HopfAlgebraData(alg, co, s, si,
                           name="%s (x) %s" % (h1.name or "H", h2.name or "H'"))


def _tensor_action(x1, d1, x2, d2):
    """The componentwise action of H (x) H' on V (x) V', as a table."""
    h1, h2 = x1.hopf.dim, x2.hopf.dim
    act = permute(_action(x1, d1).kron(_action(x2, d2)), [h1, d1, h2, d2], MIDDLE,
                  cols=True)
    return matrix_table(act, [h1 * h2, d1 * d2], [d1 * d2])


def tensor_module_algebra(ma1, ma2, hh):
    """A (x) A' as a module algebra over hh = H (x) H', acting componentwise."""
    action = _tensor_action(ma1, ma1.algebra.dim, ma2, ma2.algebra.dim)
    return ModuleAlgebra(hh, tensor_algebra(ma1.algebra, ma2.algebra), action,
                         name="%s (x) %s" % (ma1.name or "A", ma2.name or "A'"))


def tensor_modcomodule(m1, m2, hh):
    """M (x) M' over hh = H (x) H' with componentwise action and coaction."""
    h1, h2, d1, d2 = m1.hopf.dim, m2.hopf.dim, m1.dim, m2.dim
    rho = permute(_coaction(m1, d1).kron(_coaction(m2, d2)), [h1, d1, h2, d2], MIDDLE)
    return ModComodule(hh, d1 * d2, _tensor_action(m1, d1, m2, d2),
                       matrix_table(rho, [d1 * d2], [h1 * h2, d1 * d2]),
                       name="%s (x) %s" % (m1.name or "M", m2.name or "M'"))


def tensor_comodule_coalgebra(z1, z2):
    """Z (x) Z' over the shared H, coacting by the product of the two legs."""
    require_same_hopf(z1.hopf, z2.hopf, "tensor comodule coalgebra")
    d1, d2 = z1.coalgebra.dim, z2.coalgebra.dim
    rho = _codiagonal(z1.hopf.algebra.matrices()[0], _coaction(z1, d1), _coaction(z2, d2))
    return ComoduleCoalgebra(z1.hopf, tensor_coalgebra(z1.coalgebra, z2.coalgebra),
                             matrix_table(rho, [d1 * d2], [z1.hopf.dim, d1 * d2]),
                             name="%s (x) %s" % (z1.name or "Z", z2.name or "Z'"))


def balanced_tensor_modcomodule(m1, m2):
    """M (x)_H M': quotient of M (x) M' by span{hm (x) m' - m (x) hm'}.

    The H-action is induced through the first factor and the coaction is
    the product of the two legs; both are verified to descend.  Returns
    (module, projection, section) so callers can map ambient tensors down.
    """
    require_same_hopf(m1.hopf, m2.hopf, "balanced tensor")
    f, h = m1.field, m1.hopf
    dh, d1, d2 = h.dim, m1.dim, m2.dim
    left = _action(m1, d1).kron(_eye(f, d2))          # h (x) m (x) m' -> hm (x) m'
    right = permute(_eye(f, d1).kron(_action(m2, d2)), [d1, dh, d2], (1, 0, 2), cols=True)
    sub = Subspace.from_vectors(f, d1 * d2, (left - right).columns(lifted=True))
    dim, proj, sect = quotient_space(d1 * d2, sub)
    if not all(sub.contains(c) for c in
               (left * _eye(f, dh).kron(sub.basis_matrix())).columns(lifted=True)):
        raise CompatibilityFailure(
            "H-action does not descend to the balanced tensor product")
    action = matrix_table(proj * left * _eye(f, dh).kron(sect), [dh, dim], [dim])
    # product-leg coaction, built on the ambient space then pushed down
    rho = (_eye(f, dh).kron(proj)
           * _codiagonal(h.algebra.matrices()[0], _coaction(m1, d1), _coaction(m2, d2)))
    if not (rho * sub.basis_matrix()).is_zero():
        raise CompatibilityFailure(
            "coaction does not descend to the balanced tensor product")
    mod = ModComodule(h, dim, action, matrix_table(rho * sect, [dim], [dh, dim]),
                      name="%s (x)_H %s" % (m1.name or "M", m2.name or "M'"))
    return mod, proj, sect
