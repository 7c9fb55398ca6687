"""Finite-dimensional Hopf algebras and their actors, as structure constants.

Every structure is a bundle of dense structure-constant tensors over an
exact field.  Axioms are never assumed: check_structure evaluates each
defining identity on all basis tuples and returns the list of failures.

Conventions.  A vector is a dict {basis index: scalar}.  Multiplication
tables map (i, j) to the vector e_i * e_j.  Comultiplications map i to
a dict {(j, k): scalar} meaning Delta(e_i) = sum e_j (x) e_k.  Coactions
on an object V map a V-index to {(h, v): scalar} inside H (x) V.
"""

from .linalg import (Matrix, Subspace, vec_add, vec_scale, ShapeMismatch, add_into,
                     quotient_space, operator_closure)
from .tensors import build_matrix


class HopfMismatch(Exception):
    pass


class CompatibilityFailure(Exception):
    pass


def _unit_vec(field, i):
    return {i: field.one}


def _vec_eq(field, u, v):
    for k in set(u) | set(v):
        if not field.is_zero(field.sub(u.get(k, field.zero), v.get(k, field.zero))):
            return False
    return True


def _bilinear(field, table, u, v):
    """sum x_i y_j table[(i, j)] for a table of vectors keyed by index pairs."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            c = field.mul(x, y)
            for k, z in table[(i, j)].items():
                add_into(field, out, k, field.mul(c, z))
    return out


def _linear(field, table, u):
    """sum x_i table[i] for a table of vectors keyed by one index."""
    out = {}
    for i, x in u.items():
        for k, v in table[i].items():
            add_into(field, out, k, field.mul(x, v))
    return out


def _table_eq(field, t, u):
    return all(_vec_eq(field, t.get(k, {}), u.get(k, {})) for k in set(t) | set(u))


def require_same_hopf(x, y, what):
    """Raise HopfMismatch unless x and y have the same structure constants."""
    if x is y:
        return
    f = x.field
    same = (f == y.field and x.dim == y.dim
            and _table_eq(f, x.algebra.mul, y.algebra.mul)
            and _vec_eq(f, x.algebra.unit, y.algebra.unit)
            and _table_eq(f, x.coalgebra.comul, y.coalgebra.comul)
            and _vec_eq(f, x.coalgebra.counit, y.coalgebra.counit)
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

    def multiply(self, u, v):
        return _bilinear(self.field, self.mul, u, v)


class CoalgebraData:
    def __init__(self, field, dim, comul, counit, labels=None):
        self.field = field
        self.dim = dim
        self.comul = comul
        self.counit = dict(counit)
        self.labels = labels or ["e%d" % i for i in range(dim)]

    def comul_vec(self, u):
        return _linear(self.field, self.comul, u)

    def counit_vec(self, u):
        f = self.field
        out = f.zero
        for i, x in u.items():
            out = f.add(out, f.mul(x, self.counit.get(i, f.zero)))
        return out

    def iterated(self, u, parts):
        """Delta^(parts-1): vector -> dict {tuple of length parts: scalar}."""
        f = self.field
        cur = {(i,): x for i, x in u.items()}
        for _ in range(parts - 1):
            nxt = {}
            for key, x in cur.items():
                last = key[-1]
                for (j, k), v in self.comul[last].items():
                    add_into(f, nxt, key[:-1] + (j, k), f.mul(x, v))
            cur = nxt
        return cur


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

    def apply_antipode(self, u, inverse=False):
        m = self.antipode_inv if inverse else self.antipode
        return m.apply(u)

    def sweedler(self, u, parts):
        return self.coalgebra.iterated(u, parts)

    def counit(self, u):
        return self.coalgebra.counit_vec(u)

    def unit(self):
        return dict(self.algebra.unit)

    def multiply(self, u, v):
        return self.algebra.multiply(u, v)


class ModuleAlgebra:
    """Unital algebra with a left H-action compatible with its product."""

    def __init__(self, hopf, algebra, action, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.algebra = algebra
        self.action = action
        self.name = name

    def act(self, h_vec, a_vec):
        return _bilinear(self.field, self.action, h_vec, a_vec)


class ModuleCoalgebra:
    """Counital coalgebra with a left H-action compatible with its coproduct."""

    def __init__(self, hopf, coalgebra, action, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.coalgebra = coalgebra
        self.action = action
        self.name = name

    def act(self, h_vec, c_vec):
        return _bilinear(self.field, self.action, h_vec, c_vec)


class ComoduleAlgebra:
    """Unital algebra with a left H-coaction; multiplicative and counital."""

    def __init__(self, hopf, algebra, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.algebra = algebra
        self.coaction = coaction
        self.name = name

    def coact(self, b_vec):
        return _linear(self.field, self.coaction, b_vec)


class ComoduleCoalgebra:
    """Coalgebra with a left H-coaction satisfying the mixed compatibility."""

    def __init__(self, hopf, coalgebra, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.coalgebra = coalgebra
        self.coaction = coaction
        self.name = name

    def coact(self, z_vec):
        return _linear(self.field, self.coaction, z_vec)


class ModComodule:
    """H-module and H-comodule with no compatibility assumed."""

    def __init__(self, hopf, dim, action, coaction, name=None):
        self.hopf = hopf
        self.field = hopf.field
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self.name = name

    def act(self, h_vec, m_vec):
        return _bilinear(self.field, self.action, h_vec, m_vec)

    def coact(self, m_vec):
        return _linear(self.field, self.coaction, m_vec)


class ModularPair:
    """Group-like sigma and character delta of a Hopf algebra."""

    def __init__(self, sigma, delta):
        self.sigma = dict(sigma)   # vector in H
        self.delta = dict(delta)   # covector on H

    def delta_of(self, field, h_vec):
        out = field.zero
        for h, x in h_vec.items():
            out = field.add(out, field.mul(x, self.delta.get(h, field.zero)))
        return out


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

    def pair(self, c_vec, a_vec):
        return _bilinear(self.field, self.phi, c_vec, a_vec)


# ---------------------------------------------------------------------------
# axiom checkers


def check_algebra(a, tag="algebra"):
    f = a.field
    bad = []
    for i in range(a.dim):
        ei = _unit_vec(f, i)
        if not _vec_eq(f, a.multiply(ei, a.unit), ei):
            bad.append("%s: e%d * 1 != e%d" % (tag, i, i))
        if not _vec_eq(f, a.multiply(a.unit, ei), ei):
            bad.append("%s: 1 * e%d != e%d" % (tag, i, i))
        for j in range(a.dim):
            ej = _unit_vec(f, j)
            for k in range(a.dim):
                ek = _unit_vec(f, k)
                lhs = a.multiply(a.multiply(ei, ej), ek)
                rhs = a.multiply(ei, a.multiply(ej, ek))
                if not _vec_eq(f, lhs, rhs):
                    bad.append("%s: associativity fails at (%d,%d,%d)" % (tag, i, j, k))
    return bad


def check_coalgebra(c, tag="coalgebra"):
    f = c.field
    bad = []
    for i in range(c.dim):
        ei = _unit_vec(f, i)
        # coassociativity via the two readings of the 3-fold coproduct
        left = {}
        for (j, k), v in c.comul_vec(ei).items():
            for (a, b), w in c.comul[j].items():
                add_into(f, left, (a, b, k), f.mul(v, w))
        right = {}
        for (j, k), v in c.comul_vec(ei).items():
            for (a, b), w in c.comul[k].items():
                add_into(f, right, (j, a, b), f.mul(v, w))
        if not _vec_eq(f, left, right):
            bad.append("%s: coassociativity fails at e%d" % (tag, i))
        lcounit = {}
        rcounit = {}
        for (j, k), v in c.comul_vec(ei).items():
            add_into(f, lcounit, k, f.mul(v, c.counit.get(j, f.zero)))
            add_into(f, rcounit, j, f.mul(v, c.counit.get(k, f.zero)))
        if not _vec_eq(f, lcounit, ei):
            bad.append("%s: left counit fails at e%d" % (tag, i))
        if not _vec_eq(f, rcounit, ei):
            bad.append("%s: right counit fails at e%d" % (tag, i))
    return bad


def _tensor2_mul(hopf, u2, v2):
    """Multiply two elements of H (x) H given as {(i,j): scalar}."""
    f = hopf.field
    out = {}
    for (a, b), x in u2.items():
        for (c, d), y in v2.items():
            coef = f.mul(x, y)
            left = hopf.multiply(_unit_vec(f, a), _unit_vec(f, c))
            right = hopf.multiply(_unit_vec(f, b), _unit_vec(f, d))
            for i, xi in left.items():
                for j, yj in right.items():
                    add_into(f, out, (i, j), f.mul(coef, f.mul(xi, yj)))
    return out


def check_hopf(h):
    f = h.field
    bad = []
    bad += check_algebra(h.algebra, "hopf algebra part")
    bad += check_coalgebra(h.coalgebra, "hopf coalgebra part")
    co = h.coalgebra
    # Delta and epsilon are algebra maps; Delta(1) = 1 (x) 1, eps(1) = 1
    unit2 = {}
    for i, x in h.unit().items():
        for j, y in h.unit().items():
            unit2[(i, j)] = f.mul(x, y)
    if not _vec_eq(f, co.comul_vec(h.unit()), unit2):
        bad.append("bialgebra: Delta(1) != 1 (x) 1")
    if not f.is_zero(f.sub(co.counit_vec(h.unit()), f.one)):
        bad.append("bialgebra: eps(1) != 1")
    for i in range(h.dim):
        for j in range(h.dim):
            prod = h.multiply(_unit_vec(f, i), _unit_vec(f, j))
            lhs = co.comul_vec(prod)
            rhs = _tensor2_mul(h, co.comul[i], co.comul[j])
            if not _vec_eq(f, lhs, rhs):
                bad.append("bialgebra: Delta not multiplicative at (%d,%d)" % (i, j))
            eps_prod = co.counit_vec(prod)
            eps_sep = f.mul(co.counit.get(i, f.zero), co.counit.get(j, f.zero))
            if not f.is_zero(f.sub(eps_prod, eps_sep)):
                bad.append("bialgebra: eps not multiplicative at (%d,%d)" % (i, j))
    # antipode axioms
    for i in range(h.dim):
        ei = _unit_vec(f, i)
        left = {}
        right = {}
        for (j, k), v in co.comul_vec(ei).items():
            sj = h.apply_antipode(_unit_vec(f, j))
            sk = h.apply_antipode(_unit_vec(f, k))
            left = vec_add(f, left, vec_scale(f, v, h.multiply(sj, _unit_vec(f, k))))
            right = vec_add(f, right, vec_scale(f, v, h.multiply(_unit_vec(f, j), sk)))
        target = vec_scale(f, co.counit.get(i, f.zero), h.unit())
        if not _vec_eq(f, left, target):
            bad.append("antipode: S(h1)h2 != eps(h)1 at e%d" % i)
        if not _vec_eq(f, right, target):
            bad.append("antipode: h1S(h2) != eps(h)1 at e%d" % i)
    if h.antipode * h.antipode_inv != Matrix.identity(f, h.dim):
        bad.append("antipode: S o S^-1 != id")
    if h.antipode_inv * h.antipode != Matrix.identity(f, h.dim):
        bad.append("antipode: S^-1 o S != id")
    return bad


def _check_action(hopf, dim, act, tag):
    """act(h_vec, v_vec); checks 1.v = v and (gh).v = g.(h.v)."""
    f = hopf.field
    bad = []
    for m in range(dim):
        em = _unit_vec(f, m)
        if not _vec_eq(f, act(hopf.unit(), em), em):
            bad.append("%s: unit does not act as identity at e%d" % (tag, m))
        for g in range(hopf.dim):
            for h in range(hopf.dim):
                gh = hopf.multiply(_unit_vec(f, g), _unit_vec(f, h))
                lhs = act(gh, em)
                rhs = act(_unit_vec(f, g), act(_unit_vec(f, h), em))
                if not _vec_eq(f, lhs, rhs):
                    bad.append("%s: action not associative at (h%d,h%d,e%d)" % (tag, g, h, m))
    return bad


def _check_coaction(hopf, dim, coact_one, tag):
    """coact_one(idx) -> {(h, v): scalar}; checks counit and coassociativity."""
    f = hopf.field
    bad = []
    for m in range(dim):
        rho = coact_one(m)
        # counit leg
        cu = {}
        for (h, v), x in rho.items():
            add_into(f, cu, v, f.mul(x, hopf.coalgebra.counit.get(h, f.zero)))
        if not _vec_eq(f, cu, _unit_vec(f, m)):
            bad.append("%s: counit law fails at e%d" % (tag, m))
        # (Delta (x) id) rho = (id (x) rho) rho
        lhs = {}
        for (h, v), x in rho.items():
            for (a, b), w in hopf.coalgebra.comul[h].items():
                add_into(f, lhs, (a, b, v), f.mul(x, w))
        rhs = {}
        for (h, v), x in rho.items():
            for (h2, v2), w in coact_one(v).items():
                add_into(f, rhs, (h, h2, v2), f.mul(x, w))
        if not _vec_eq(f, lhs, rhs):
            bad.append("%s: coassociativity of coaction fails at e%d" % (tag, m))
    return bad


def check_module_algebra(ma):
    f = ma.field
    h = ma.hopf
    a = ma.algebra
    bad = check_algebra(a, "module algebra base")
    bad += _check_action(h, a.dim, ma.act, "module algebra action")
    for i in range(h.dim):
        hi = _unit_vec(f, i)
        target = vec_scale(f, h.counit(hi), a.unit)
        if not _vec_eq(f, ma.act(hi, a.unit), target):
            bad.append("module algebra: h(1_A) != eps(h)1_A at h%d" % i)
        for p in range(a.dim):
            for q in range(a.dim):
                prod = a.multiply(_unit_vec(f, p), _unit_vec(f, q))
                lhs = ma.act(hi, prod)
                rhs = {}
                for (j, k), v in h.sweedler(hi, 2).items():
                    term = a.multiply(ma.act(_unit_vec(f, j), _unit_vec(f, p)),
                                      ma.act(_unit_vec(f, k), _unit_vec(f, q)))
                    rhs = vec_add(f, rhs, vec_scale(f, v, term))
                if not _vec_eq(f, lhs, rhs):
                    bad.append("module algebra: h(ab) law fails at (h%d,e%d,e%d)" % (i, p, q))
    return bad


def check_module_coalgebra(mc):
    f = mc.field
    h = mc.hopf
    c = mc.coalgebra
    bad = check_coalgebra(c, "module coalgebra base")
    bad += _check_action(h, c.dim, mc.act, "module coalgebra action")
    for i in range(h.dim):
        hi = _unit_vec(f, i)
        for p in range(c.dim):
            cp = _unit_vec(f, p)
            acted = mc.act(hi, cp)
            lhs = c.comul_vec(acted)
            rhs = {}
            for (j, k), v in h.sweedler(hi, 2).items():
                for (c1, c2), w in c.comul_vec(cp).items():
                    t1 = mc.act(_unit_vec(f, j), _unit_vec(f, c1))
                    t2 = mc.act(_unit_vec(f, k), _unit_vec(f, c2))
                    for x1, y1 in t1.items():
                        for x2, y2 in t2.items():
                            add_into(f, rhs, (x1, x2),
                                     f.mul(f.mul(v, w), f.mul(y1, y2)))
            if not _vec_eq(f, lhs, rhs):
                bad.append("module coalgebra: Delta(hc) law fails at (h%d,e%d)" % (i, p))
            eps_l = c.counit_vec(acted)
            eps_r = f.mul(h.counit(hi), c.counit_vec(cp))
            if not f.is_zero(f.sub(eps_l, eps_r)):
                bad.append("module coalgebra: eps(hc) law fails at (h%d,e%d)" % (i, p))
    return bad


def check_comodule_algebra(ca):
    f = ca.field
    h = ca.hopf
    a = ca.algebra
    bad = check_algebra(a, "comodule algebra base")
    bad += _check_coaction(h, a.dim, lambda m: ca.coaction[m], "comodule algebra coaction")
    # multiplicative
    for p in range(a.dim):
        for q in range(a.dim):
            prod = a.multiply(_unit_vec(f, p), _unit_vec(f, q))
            lhs = ca.coact(prod)
            rhs = {}
            for (h1, b1), x in ca.coaction[p].items():
                for (h2, b2), y in ca.coaction[q].items():
                    hh = h.multiply(_unit_vec(f, h1), _unit_vec(f, h2))
                    bb = a.multiply(_unit_vec(f, b1), _unit_vec(f, b2))
                    coef = f.mul(x, y)
                    for hk, hv in hh.items():
                        for bk, bv in bb.items():
                            add_into(f, rhs, (hk, bk), f.mul(coef, f.mul(hv, bv)))
            if not _vec_eq(f, lhs, rhs):
                bad.append("comodule algebra: coaction not multiplicative at (%d,%d)" % (p, q))
    # unit coinvariant
    unit_img = ca.coact(a.unit)
    expect = {}
    for i, x in h.unit().items():
        for j, y in a.unit.items():
            expect[(i, j)] = f.mul(x, y)
    if not _vec_eq(f, unit_img, expect):
        bad.append("comodule algebra: unit not coinvariant")
    return bad


def check_comodule_coalgebra(cc):
    f = cc.field
    h = cc.hopf
    c = cc.coalgebra
    bad = check_coalgebra(c, "comodule coalgebra base")
    bad += _check_coaction(h, c.dim, lambda m: cc.coaction[m], "comodule coalgebra coaction")
    # mixed compatibility: z[-1] (x) z[0](1) (x) z[0](2)
    #   = z(1)[-1] z(2)[-1] (x) z(1)[0] (x) z(2)[0]
    for z in range(c.dim):
        lhs = {}
        for (hh, z0), x in cc.coaction[z].items():
            for (u, v), w in c.comul[z0].items():
                add_into(f, lhs, (hh, u, v), f.mul(x, w))
        rhs = {}
        for (z1, z2), w in c.comul[z].items():
            for (h1, z10), x in cc.coaction[z1].items():
                for (h2, z20), y in cc.coaction[z2].items():
                    hh = h.multiply(_unit_vec(f, h1), _unit_vec(f, h2))
                    coef = f.mul(w, f.mul(x, y))
                    for hk, hv in hh.items():
                        add_into(f, rhs, (hk, z10, z20), f.mul(coef, hv))
        if not _vec_eq(f, lhs, rhs):
            bad.append("comodule coalgebra: mixed compatibility fails at e%d" % z)
    return bad


def check_modcomodule(m):
    h = m.hopf
    bad = _check_action(h, m.dim, m.act, "module/comodule action")
    bad += _check_coaction(h, m.dim, lambda i: m.coaction[i], "module/comodule coaction")
    return bad


def check_modular_pair(hopf, pair):
    f = hopf.field
    bad = []
    sig2 = {}
    for i, x in pair.sigma.items():
        for j, y in pair.sigma.items():
            sig2[(i, j)] = f.mul(x, y)
    if not _vec_eq(f, hopf.coalgebra.comul_vec(pair.sigma), sig2):
        bad.append("modular pair: sigma not group-like")
    if not f.is_zero(f.sub(hopf.counit(pair.sigma), f.one)):
        bad.append("modular pair: eps(sigma) != 1")
    if not f.is_zero(f.sub(pair.delta_of(f, hopf.unit()), f.one)):
        bad.append("modular pair: delta(1) != 1")
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            prod = hopf.multiply(_unit_vec(f, i), _unit_vec(f, j))
            lhs = pair.delta_of(f, prod)
            rhs = f.mul(pair.delta.get(i, f.zero), pair.delta.get(j, f.zero))
            if not f.is_zero(f.sub(lhs, rhs)):
                bad.append("modular pair: delta not multiplicative at (%d,%d)" % (i, j))
    return bad


def check_equivariant(p):
    f = p.field
    h = p.hopf
    a = p.alg.algebra
    c = p.coalg.coalgebra
    bad = []
    for ci in range(c.dim):
        cv = _unit_vec(f, ci)
        # phi(c, 1) = eps(c) 1
        target = vec_scale(f, c.counit.get(ci, f.zero), a.unit)
        if not _vec_eq(f, p.pair(cv, a.unit), target):
            bad.append("pairing: phi(c,1) != eps(c)1 at c%d" % ci)
        for a1 in range(a.dim):
            for a2 in range(a.dim):
                prod = a.multiply(_unit_vec(f, a1), _unit_vec(f, a2))
                lhs = p.pair(cv, prod)
                rhs = {}
                for (c1, c2), v in c.comul_vec(cv).items():
                    term = a.multiply(p.pair(_unit_vec(f, c1), _unit_vec(f, a1)),
                                      p.pair(_unit_vec(f, c2), _unit_vec(f, a2)))
                    rhs = vec_add(f, rhs, vec_scale(f, v, term))
                if not _vec_eq(f, lhs, rhs):
                    bad.append("pairing: multiplicativity fails at (c%d,a%d,a%d)" % (ci, a1, a2))
        for hi in range(h.dim):
            hv = _unit_vec(f, hi)
            for ai in range(a.dim):
                av = _unit_vec(f, ai)
                lhs = p.alg.act(hv, p.pair(cv, av))
                rhs = p.pair(p.coalg.act(hv, cv), av)
                if not _vec_eq(f, lhs, rhs):
                    bad.append("pairing: equivariance fails at (h%d,c%d,a%d)" % (hi, ci, ai))
    return bad


def check_structure(x):
    """Dispatch on type; empty report iff every defining identity holds."""
    if isinstance(x, HopfAlgebraData):
        return check_hopf(x)
    if isinstance(x, AlgebraData):
        return check_algebra(x)
    if isinstance(x, CoalgebraData):
        return check_coalgebra(x)
    if isinstance(x, ModuleAlgebra):
        return check_module_algebra(x)
    if isinstance(x, ModuleCoalgebra):
        return check_module_coalgebra(x)
    if isinstance(x, ComoduleAlgebra):
        return check_comodule_algebra(x)
    if isinstance(x, ComoduleCoalgebra):
        return check_comodule_coalgebra(x)
    if isinstance(x, ModComodule):
        return check_modcomodule(x)
    if isinstance(x, EquivariantPairing):
        return check_equivariant(x)
    raise TypeError("no structure checks for %r" % type(x).__name__)


def check_sayd(m):
    """Stability m(-1)m(0) = m and the anti-Yetter-Drinfeld condition."""
    f = m.field
    h = m.hopf
    bad = []
    for i in range(m.dim):
        # stability
        out = {}
        for (hh, mm), x in m.coaction[i].items():
            out = vec_add(f, out, vec_scale(f, x, m.act(_unit_vec(f, hh), _unit_vec(f, mm))))
        if not _vec_eq(f, out, _unit_vec(f, i)):
            bad.append("sayd: stability fails at e%d" % i)
    for hi in range(h.dim):
        hv = _unit_vec(f, hi)
        for i in range(m.dim):
            lhs = m.coact(m.act(hv, _unit_vec(f, i)))
            rhs = {}
            for (h1, h2, h3), v in h.sweedler(hv, 3).items():
                s_inv_h3 = h.apply_antipode(_unit_vec(f, h3), inverse=True)
                for (mm1, mi), x in m.coaction[i].items():
                    hleft = h.multiply(h.multiply(_unit_vec(f, h1), _unit_vec(f, mm1)), s_inv_h3)
                    macted = m.act(_unit_vec(f, h2), _unit_vec(f, mi))
                    coef = f.mul(v, x)
                    for hk, hx in hleft.items():
                        for mk, mx in macted.items():
                            add_into(f, rhs, (hk, mk), f.mul(coef, f.mul(hx, mx)))
            if not _vec_eq(f, lhs, rhs):
                bad.append("sayd: AYD condition fails at (h%d,e%d)" % (hi, i))
    return bad


def modular_pair_module(hopf, pair):
    """The 1-dimensional coefficient module k_(sigma,delta).

    Convention: h . 1 = delta(h) 1 and the coaction sends 1 to sigma (x) 1.
    check_sayd decides afterwards whether the pair is in involution.
    """
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
    f = ma.field
    A, B = ma.algebra, ca.algebra
    dim = A.dim * B.dim
    mul = {}
    for a in range(A.dim):
        for b in range(B.dim):
            for a2 in range(A.dim):
                for b2 in range(B.dim):
                    out = {}
                    for (hh, b0), x in ca.coaction[b].items():
                        left = A.multiply(_unit_vec(f, a),
                                          ma.act(_unit_vec(f, hh), _unit_vec(f, a2)))
                        right = B.multiply(_unit_vec(f, b0), _unit_vec(f, b2))
                        for i, xi in left.items():
                            for j, yj in right.items():
                                add_into(f, out, i * B.dim + j, f.mul(x, f.mul(xi, yj)))
                    mul[(a * B.dim + b, a2 * B.dim + b2)] = out
    unit = {}
    for i, x in A.unit.items():
        for j, y in B.unit.items():
            unit[i * B.dim + j] = f.mul(x, y)
    labels = ["(%s,%s)" % (la, lb) for la in A.labels for lb in B.labels]
    return AlgebraData(f, dim, mul, unit, labels=labels)


def crossed_product_coalgebra(zc, mc):
    """Z |x C with Delta(z,c) = (z1, z2[-1]c1) (x) (z2[0], c2)."""
    require_same_hopf(zc.hopf, mc.hopf, "crossed product")
    bad = check_comodule_coalgebra(zc)
    if bad:
        raise CompatibilityFailure("; ".join(bad))
    f = zc.field
    Z, C = zc.coalgebra, mc.coalgebra
    dim = Z.dim * C.dim
    comul = {}
    counit = {}
    for z in range(Z.dim):
        for c in range(C.dim):
            out = {}
            for (z1, z2), w in Z.comul[z].items():
                for (c1, c2), v in C.comul[c].items():
                    for (hh, z20), x in zc.coaction[z2].items():
                        acted = mc.act(_unit_vec(f, hh), _unit_vec(f, c1))
                        coef = f.mul(w, f.mul(v, x))
                        for ck, cv in acted.items():
                            add_into(f, out, (z1 * C.dim + ck, z20 * C.dim + c2),
                                     f.mul(coef, cv))
            comul[z * C.dim + c] = out
            eps = f.mul(Z.counit.get(z, f.zero), C.counit.get(c, f.zero))
            if not f.is_zero(eps):
                counit[z * C.dim + c] = eps
    labels = ["(%s,%s)" % (lz, lc) for lz in Z.labels for lc in C.labels]
    return CoalgebraData(f, dim, comul, counit, labels=labels)


def cotensor(m, m2):
    """M box^H M' inside M (x) M' as the kernel of the two coactions' difference."""
    require_same_hopf(m.hopf, m2.hopf, "cotensor")
    f = m.field
    hd = m.hopf.dim
    # map M (x) M' -> H (x) M (x) M':  rho_M (x) id  minus  (flip to front) id (x) rho_M'
    def image(t):
        i, j = t
        out = {}
        for (hh, mi), x in m.coaction[i].items():
            add_into(f, out, (hh, mi, j), x)
        for (hh, mj), x in m2.coaction[j].items():
            add_into(f, out, (hh, i, mj), f.neg(x))
        return out
    mat = build_matrix(f, [m.dim, m2.dim], [hd, m.dim, m2.dim], image)
    return mat.kernel_basis()


def algebra_generators(hopf):
    """Basis indices that generate H as a unital algebra, picked greedily.

    A basis element joins when it lies outside the subalgebra that the
    earlier ones generate: the closure of the unit under their left
    multiplications.  Raises unless the generated subalgebra is all of H.
    """
    f, d = hopf.field, hopf.dim
    unit = hopf.unit()
    gens, ops = [], []
    sub = Subspace.from_vectors(f, d, [unit])
    for h in range(d):
        if sub.contains({h: f.one}):
            continue
        gens.append(h)
        ops.append((0, 0, Matrix(f, d, d, {(k, j): v for j in range(d) for k, v
                                           in hopf.algebra.mul[(h, j)].items()})))
        sub = operator_closure(f, {0: [unit]}, ops, max_degree=0)[0]
    if sub.dim != d:
        raise CompatibilityFailure("the generators %s span a subalgebra of "
                                   "dimension %d < %d" % (gens, sub.dim, d))
    return gens


def is_cocommutative(hopf):
    f = hopf.field
    for i in range(hopf.dim):
        flipped = {}
        for (j, k), v in hopf.coalgebra.comul[i].items():
            flipped[(k, j)] = v
        if not _vec_eq(f, flipped, hopf.coalgebra.comul[i]):
            return False
    return True


def is_commutative(hopf):
    f = hopf.field
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            if not _vec_eq(f, hopf.multiply(_unit_vec(f, i), _unit_vec(f, j)),
                           hopf.multiply(_unit_vec(f, j), _unit_vec(f, i))):
                return False
    return True


def is_symmetric_module(m):
    """Whether the action makes M a symmetric bimodule via m.h := h.m.

    Operationally: the operators of any two basis elements commute, so the
    left action can be read as a right action on the other side of a
    balanced tensor product.
    """
    f = m.field
    for h1 in range(m.hopf.dim):
        v1 = _unit_vec(f, h1)
        for h2 in range(m.hopf.dim):
            v2 = _unit_vec(f, h2)
            for i in range(m.dim):
                ei = _unit_vec(f, i)
                if not _vec_eq(f, m.act(v1, m.act(v2, ei)), m.act(v2, m.act(v1, ei))):
                    return False
    return True


def cotensor_is_submodule(m, m2):
    """Whether M box^H M' is stable under the diagonal H-action."""
    f = m.field
    sub = cotensor(m, m2)
    dims = [m.dim, m2.dim]
    for h in range(m.hopf.dim):
        hv = _unit_vec(f, h)
        # diagonal action on M (x) M'
        def image(t, hv=hv):
            out = {}
            for (h1, h2), v in m.hopf.sweedler(hv, 2).items():
                u1 = m.act(_unit_vec(f, h1), _unit_vec(f, t[0]))
                u2 = m2.act(_unit_vec(f, h2), _unit_vec(f, t[1]))
                for i, x in u1.items():
                    for j, y in u2.items():
                        add_into(f, out, (i, j), f.mul(v, f.mul(x, y)))
            return out
        mat = build_matrix(f, dims, dims, image)
        for b in sub.basis:
            if not sub.contains(mat.apply(b)):
                return False
    return True


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
    f = a1.field
    d1, d2 = a1.dim, a2.dim
    mul = {}
    for i in range(d1):
        for j in range(d2):
            for k in range(d1):
                for l in range(d2):
                    out = {}
                    for p, x in a1.mul[(i, k)].items():
                        for q, y in a2.mul[(j, l)].items():
                            out[p * d2 + q] = f.mul(x, y)
                    mul[(i * d2 + j, k * d2 + l)] = out
    unit = {}
    for i, x in a1.unit.items():
        for j, y in a2.unit.items():
            unit[i * d2 + j] = f.mul(x, y)
    labels = ["%s(x)%s" % (la, lb) for la in a1.labels for lb in a2.labels]
    return AlgebraData(f, d1 * d2, mul, unit, labels=labels)


def tensor_coalgebra(c1, c2):
    """C (x) C' with componentwise coproduct, indices flattened c*dim2 + c'."""
    f = c1.field
    d1, d2 = c1.dim, c2.dim
    comul = {}
    counit = {}
    for i in range(d1):
        for j in range(d2):
            out = {}
            for (a, b), v in c1.comul[i].items():
                for (c, d), w in c2.comul[j].items():
                    out[(a * d2 + c, b * d2 + d)] = f.mul(v, w)
            comul[i * d2 + j] = out
            e = f.mul(c1.counit.get(i, f.zero), c2.counit.get(j, f.zero))
            if not f.is_zero(e):
                counit[i * d2 + j] = e
    labels = ["%s(x)%s" % (la, lb) for la in c1.labels for lb in c2.labels]
    return CoalgebraData(f, d1 * d2, comul, counit, labels=labels)


def tensor_hopf(h1, h2):
    """H (x) H' with componentwise structure and antipode S (x) S'."""
    alg = tensor_algebra(h1.algebra, h2.algebra)
    co = tensor_coalgebra(h1.coalgebra, h2.coalgebra)
    s = h1.antipode.kron(h2.antipode)
    si = h1.antipode_inv.kron(h2.antipode_inv)
    return HopfAlgebraData(alg, co, s, si,
                           name="%s (x) %s" % (h1.name or "H", h2.name or "H'"))


def tensor_module_algebra(ma1, ma2, hh=None):
    """A (x) A' as a module algebra over H (x) H' acting componentwise."""
    if hh is None:
        hh = tensor_hopf(ma1.hopf, ma2.hopf)
    f = ma1.field
    dh2, da2 = ma2.hopf.dim, ma2.algebra.dim
    alg = tensor_algebra(ma1.algebra, ma2.algebra)
    action = {}
    for h1 in range(ma1.hopf.dim):
        for h2 in range(dh2):
            for a1 in range(ma1.algebra.dim):
                for a2 in range(da2):
                    out = {}
                    for p, x in ma1.action[(h1, a1)].items():
                        for q, y in ma2.action[(h2, a2)].items():
                            out[p * da2 + q] = f.mul(x, y)
                    action[(h1 * dh2 + h2, a1 * da2 + a2)] = out
    return ModuleAlgebra(hh, alg, action,
                         name="%s (x) %s" % (ma1.name or "A", ma2.name or "A'"))


def tensor_modcomodule(m1, m2, hh=None):
    """M (x) M' over H (x) H' with componentwise action and coaction."""
    if hh is None:
        hh = tensor_hopf(m1.hopf, m2.hopf)
    f = m1.field
    dh2, dm2 = m2.hopf.dim, m2.dim
    action = {}
    for h1 in range(m1.hopf.dim):
        for h2 in range(dh2):
            for i in range(m1.dim):
                for j in range(dm2):
                    out = {}
                    for p, x in m1.action[(h1, i)].items():
                        for q, y in m2.action[(h2, j)].items():
                            out[p * dm2 + q] = f.mul(x, y)
                    action[(h1 * dh2 + h2, i * dm2 + j)] = out
    coaction = {}
    for i in range(m1.dim):
        for j in range(dm2):
            out = {}
            for (h1, p), x in m1.coaction[i].items():
                for (h2, q), y in m2.coaction[j].items():
                    out[(h1 * dh2 + h2, p * dm2 + q)] = f.mul(x, y)
            coaction[i * dm2 + j] = out
    return ModComodule(hh, m1.dim * dm2, action, coaction,
                       name="%s (x) %s" % (m1.name or "M", m2.name or "M'"))


def tensor_comodule_coalgebra(z1, z2):
    """Z (x) Z' over the shared H, coacting by the product of the two legs."""
    require_same_hopf(z1.hopf, z2.hopf, "tensor comodule coalgebra")
    f = z1.field
    h = z1.hopf
    d2 = z2.coalgebra.dim
    co = tensor_coalgebra(z1.coalgebra, z2.coalgebra)
    coaction = {}
    for i in range(z1.coalgebra.dim):
        for j in range(d2):
            out = {}
            for (h1, p), x in z1.coaction[i].items():
                for (h2, q), y in z2.coaction[j].items():
                    for hk, hv in h.multiply(_unit_vec(f, h1), _unit_vec(f, h2)).items():
                        add_into(f, out, (hk, p * d2 + q), f.mul(f.mul(x, y), hv))
            coaction[i * d2 + j] = out
    return ComoduleCoalgebra(h, co, coaction,
                             name="%s (x) %s" % (z1.name or "Z", z2.name or "Z'"))


def balanced_tensor_modcomodule(m1, m2):
    """M (x)_H M': quotient of M (x) M' by span{hm (x) m' - m (x) hm'}.

    The H-action is induced through the first factor and the coaction is
    the product of the two legs; both are verified to descend.  Returns
    (module, projection, section) so callers can map ambient tensors down.
    """
    require_same_hopf(m1.hopf, m2.hopf, "balanced tensor")
    f = m1.field
    h = m1.hopf
    dm2 = m2.dim
    total = m1.dim * dm2
    sub = Subspace(f, total)
    for hh in range(h.dim):
        for i in range(m1.dim):
            for j in range(dm2):
                vec = {}
                for p, x in m1.action[(hh, i)].items():
                    add_into(f, vec, p * dm2 + j, x)
                for q, y in m2.action[(hh, j)].items():
                    add_into(f, vec, i * dm2 + q, f.neg(y))
                if vec:
                    sub.add_vector(vec)
    dim, proj, sect = quotient_space(total, sub)
    action = {}
    for hh in range(h.dim):
        amb = Matrix(f, total, total, {
            (p * dm2 + j, i * dm2 + j): x for i in range(m1.dim)
            for p, x in m1.action[(hh, i)].items() for j in range(dm2)})
        for b in sub.basis:
            if not sub.contains(amb.apply(b)):
                raise CompatibilityFailure(
                    "H-action does not descend to the balanced tensor product")
        q = proj * amb * sect
        for col in range(dim):
            action[(hh, col)] = q.column(col)
    # product-leg coaction, built on the ambient space then pushed down
    rho = {}
    for i in range(m1.dim):
        for j in range(dm2):
            for (h1, p), x in m1.coaction[i].items():
                for (h2, q), y in m2.coaction[j].items():
                    for hk, hv in h.multiply(_unit_vec(f, h1), _unit_vec(f, h2)).items():
                        down = proj.apply({p * dm2 + q: f.one})
                        coef = f.mul(f.mul(x, y), hv)
                        for r, w in down.items():
                            add_into(f, rho, (hk * dim + r, i * dm2 + j),
                                     f.mul(coef, w))
    rho = Matrix(f, h.dim * dim, total, rho)
    for b in sub.basis:
        if rho.apply(b):
            raise CompatibilityFailure(
                "coaction does not descend to the balanced tensor product")
    coaction = {}
    for col in range(dim):
        out = {}
        for r, w in (rho * sect).column(col).items():
            hk, mq = divmod(r, dim)
            out[(hk, mq)] = w
        coaction[col] = out
    mod = ModComodule(h, dim, action, coaction,
                      name="%s (x)_H %s" % (m1.name or "M", m2.name or "M'"))
    return mod, proj, sect
