"""The Matrix-equation axiom checks against the loop-form definitions.

hopfcyclic.hopf writes every defining identity as one equation between
Matrix composites.  The reference below is the earlier loop-form code
that evaluated each identity basis tuple by basis tuple, kept here only
as an independent definition; it evaluates the structure maps with the
loop forms of `_loops` (multiply, comul_vec, counit_vec, iterated,
apply_antipode, act), which the package no longer has.  On single-entry
corruptions of every structure kind over Q and GF(7), both must report
the same failure lines (as multisets; the Matrix form groups them by
identity), and every message template of the Matrix form must fire on
some corruption.

The fixture constructors that read their tables off Matrices (the left
regular action, action_pairing and group_likes) must give the tables the
loop forms give, every key present and no zero entry, on the trivial
Hopf algebra, kZ/2, kZ/3 and Sweedler's H4 over Q and GF(7).
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcyclic import QQ, GF, Matrix, ModularPair, modular_pair_module
from hopfcyclic import cli, hopf
from hopfcyclic import fixtures as fx
from hopfcyclic.hopf import (AlgebraData, CoalgebraData, HopfAlgebraData, ModuleAlgebra,
                             tensor_hopf, tensor_module_algebra, tensor_modcomodule,
                             tensor_comodule_coalgebra, crossed_product_algebra,
                             crossed_product_coalgebra)

from _loops import (act, add_into, apply_antipode, bilinear, comul_vec,
                    counit_vec, iterated, linear, multiply, vec_add, vec_eq,
                    vec_scale)


# ---------------------------------------------------------------------------
# reference: the loop-form checkers


def _unit_vec(field, i):
    return {i: field.one}


def _pair(p, c_vec, a_vec):
    return bilinear(p.field, p.phi, c_vec, a_vec)


def _coact(x, v_vec):
    return linear(x.field, x.coaction, v_vec)


def _delta_of(field, pair, h_vec):
    out = field.zero
    for h, x in h_vec.items():
        out = field.add(out, field.mul(x, pair.delta.get(h, field.zero)))
    return out


def check_algebra(a, tag="algebra"):
    f = a.field
    bad = []
    for i in range(a.dim):
        ei = _unit_vec(f, i)
        if not vec_eq(f, multiply(a, ei, a.unit), ei):
            bad.append("%s: e%d * 1 != e%d" % (tag, i, i))
        if not vec_eq(f, multiply(a, a.unit, ei), ei):
            bad.append("%s: 1 * e%d != e%d" % (tag, i, i))
        for j in range(a.dim):
            ej = _unit_vec(f, j)
            for k in range(a.dim):
                ek = _unit_vec(f, k)
                lhs = multiply(a, multiply(a, ei, ej), ek)
                rhs = multiply(a, ei, multiply(a, ej, ek))
                if not vec_eq(f, lhs, rhs):
                    bad.append("%s: associativity fails at (%d,%d,%d)" % (tag, i, j, k))
    return bad


def check_coalgebra(c, tag="coalgebra"):
    f = c.field
    bad = []
    for i in range(c.dim):
        ei = _unit_vec(f, i)
        # coassociativity via the two readings of the 3-fold coproduct
        left = {}
        for (j, k), v in comul_vec(c, ei).items():
            for (a, b), w in c.comul[j].items():
                add_into(f, left, (a, b, k), f.mul(v, w))
        right = {}
        for (j, k), v in comul_vec(c, ei).items():
            for (a, b), w in c.comul[k].items():
                add_into(f, right, (j, a, b), f.mul(v, w))
        if not vec_eq(f, left, right):
            bad.append("%s: coassociativity fails at e%d" % (tag, i))
        lcounit = {}
        rcounit = {}
        for (j, k), v in comul_vec(c, ei).items():
            add_into(f, lcounit, k, f.mul(v, c.counit.get(j, f.zero)))
            add_into(f, rcounit, j, f.mul(v, c.counit.get(k, f.zero)))
        if not vec_eq(f, lcounit, ei):
            bad.append("%s: left counit fails at e%d" % (tag, i))
        if not vec_eq(f, rcounit, ei):
            bad.append("%s: right counit fails at e%d" % (tag, i))
    return bad


def _tensor2_mul(hopf, u2, v2):
    """Multiply two elements of H (x) H given as {(i,j): scalar}."""
    f = hopf.field
    out = {}
    for (a, b), x in u2.items():
        for (c, d), y in v2.items():
            coef = f.mul(x, y)
            left = multiply(hopf.algebra, _unit_vec(f, a), _unit_vec(f, c))
            right = multiply(hopf.algebra, _unit_vec(f, b), _unit_vec(f, d))
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
    if not vec_eq(f, comul_vec(co, h.unit()), unit2):
        bad.append("bialgebra: Delta(1) != 1 (x) 1")
    if not f.is_zero(f.sub(counit_vec(co, h.unit()), f.one)):
        bad.append("bialgebra: eps(1) != 1")
    for i in range(h.dim):
        for j in range(h.dim):
            prod = multiply(h.algebra, _unit_vec(f, i), _unit_vec(f, j))
            lhs = comul_vec(co, prod)
            rhs = _tensor2_mul(h, co.comul[i], co.comul[j])
            if not vec_eq(f, lhs, rhs):
                bad.append("bialgebra: Delta not multiplicative at (%d,%d)" % (i, j))
            eps_prod = counit_vec(co, prod)
            eps_sep = f.mul(co.counit.get(i, f.zero), co.counit.get(j, f.zero))
            if not f.is_zero(f.sub(eps_prod, eps_sep)):
                bad.append("bialgebra: eps not multiplicative at (%d,%d)" % (i, j))
    # antipode axioms
    for i in range(h.dim):
        ei = _unit_vec(f, i)
        left = {}
        right = {}
        for (j, k), v in comul_vec(co, ei).items():
            sj = apply_antipode(h, _unit_vec(f, j))
            sk = apply_antipode(h, _unit_vec(f, k))
            left = vec_add(f, left, vec_scale(f, v, multiply(h.algebra, sj, _unit_vec(f, k))))
            right = vec_add(f, right, vec_scale(f, v, multiply(h.algebra, _unit_vec(f, j), sk)))
        target = vec_scale(f, co.counit.get(i, f.zero), h.unit())
        if not vec_eq(f, left, target):
            bad.append("antipode: S(h1)h2 != eps(h)1 at e%d" % i)
        if not vec_eq(f, right, target):
            bad.append("antipode: h1S(h2) != eps(h)1 at e%d" % i)
    if h.antipode * h.antipode_inv != Matrix.identity(f, h.dim):
        bad.append("antipode: S o S^-1 != id")
    if h.antipode_inv * h.antipode != Matrix.identity(f, h.dim):
        bad.append("antipode: S^-1 o S != id")
    return bad


def _check_action(hopf, dim, acting, tag):
    """acting(h_vec, v_vec); checks 1.v = v and (gh).v = g.(h.v)."""
    f = hopf.field
    bad = []
    for m in range(dim):
        em = _unit_vec(f, m)
        if not vec_eq(f, acting(hopf.unit(), em), em):
            bad.append("%s: unit does not act as identity at e%d" % (tag, m))
        for g in range(hopf.dim):
            for h in range(hopf.dim):
                gh = multiply(hopf.algebra, _unit_vec(f, g), _unit_vec(f, h))
                lhs = acting(gh, em)
                rhs = acting(_unit_vec(f, g), acting(_unit_vec(f, h), em))
                if not vec_eq(f, lhs, rhs):
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
        if not vec_eq(f, cu, _unit_vec(f, m)):
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
        if not vec_eq(f, lhs, rhs):
            bad.append("%s: coassociativity of coaction fails at e%d" % (tag, m))
    return bad


def check_module_algebra(ma):
    f = ma.field
    h = ma.hopf
    a = ma.algebra
    bad = check_algebra(a, "module algebra base")
    bad += _check_action(h, a.dim, lambda hv, v: act(ma, hv, v), "module algebra action")
    for i in range(h.dim):
        hi = _unit_vec(f, i)
        target = vec_scale(f, counit_vec(h.coalgebra, hi), a.unit)
        if not vec_eq(f, act(ma, hi, a.unit), target):
            bad.append("module algebra: h(1_A) != eps(h)1_A at h%d" % i)
        for p in range(a.dim):
            for q in range(a.dim):
                prod = multiply(a, _unit_vec(f, p), _unit_vec(f, q))
                lhs = act(ma, hi, prod)
                rhs = {}
                for (j, k), v in iterated(h.coalgebra, hi, 2).items():
                    term = multiply(a, act(ma, _unit_vec(f, j), _unit_vec(f, p)),
                                    act(ma, _unit_vec(f, k), _unit_vec(f, q)))
                    rhs = vec_add(f, rhs, vec_scale(f, v, term))
                if not vec_eq(f, lhs, rhs):
                    bad.append("module algebra: h(ab) law fails at (h%d,e%d,e%d)" % (i, p, q))
    return bad


def check_module_coalgebra(mc):
    f = mc.field
    h = mc.hopf
    c = mc.coalgebra
    bad = check_coalgebra(c, "module coalgebra base")
    bad += _check_action(h, c.dim, lambda hv, v: act(mc, hv, v), "module coalgebra action")
    for i in range(h.dim):
        hi = _unit_vec(f, i)
        for p in range(c.dim):
            cp = _unit_vec(f, p)
            acted = act(mc, hi, cp)
            lhs = comul_vec(c, acted)
            rhs = {}
            for (j, k), v in iterated(h.coalgebra, hi, 2).items():
                for (c1, c2), w in comul_vec(c, cp).items():
                    t1 = act(mc, _unit_vec(f, j), _unit_vec(f, c1))
                    t2 = act(mc, _unit_vec(f, k), _unit_vec(f, c2))
                    for x1, y1 in t1.items():
                        for x2, y2 in t2.items():
                            add_into(f, rhs, (x1, x2),
                                     f.mul(f.mul(v, w), f.mul(y1, y2)))
            if not vec_eq(f, lhs, rhs):
                bad.append("module coalgebra: Delta(hc) law fails at (h%d,e%d)" % (i, p))
            eps_l = counit_vec(c, acted)
            eps_r = f.mul(counit_vec(h.coalgebra, hi), counit_vec(c, cp))
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
            prod = multiply(a, _unit_vec(f, p), _unit_vec(f, q))
            lhs = _coact(ca, prod)
            rhs = {}
            for (h1, b1), x in ca.coaction[p].items():
                for (h2, b2), y in ca.coaction[q].items():
                    hh = multiply(h.algebra, _unit_vec(f, h1), _unit_vec(f, h2))
                    bb = multiply(a, _unit_vec(f, b1), _unit_vec(f, b2))
                    coef = f.mul(x, y)
                    for hk, hv in hh.items():
                        for bk, bv in bb.items():
                            add_into(f, rhs, (hk, bk), f.mul(coef, f.mul(hv, bv)))
            if not vec_eq(f, lhs, rhs):
                bad.append("comodule algebra: coaction not multiplicative at (%d,%d)" % (p, q))
    # unit coinvariant
    unit_img = _coact(ca, a.unit)
    expect = {}
    for i, x in h.unit().items():
        for j, y in a.unit.items():
            expect[(i, j)] = f.mul(x, y)
    if not vec_eq(f, unit_img, expect):
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
                    hh = multiply(h.algebra, _unit_vec(f, h1), _unit_vec(f, h2))
                    coef = f.mul(w, f.mul(x, y))
                    for hk, hv in hh.items():
                        add_into(f, rhs, (hk, z10, z20), f.mul(coef, hv))
        if not vec_eq(f, lhs, rhs):
            bad.append("comodule coalgebra: mixed compatibility fails at e%d" % z)
    return bad


def check_modcomodule(m):
    h = m.hopf
    bad = _check_action(h, m.dim, lambda hv, v: act(m, hv, v), "module/comodule action")
    bad += _check_coaction(h, m.dim, lambda i: m.coaction[i], "module/comodule coaction")
    return bad


def check_modular_pair(hopf, pair):
    f = hopf.field
    bad = []
    sig2 = {}
    for i, x in pair.sigma.items():
        for j, y in pair.sigma.items():
            sig2[(i, j)] = f.mul(x, y)
    if not vec_eq(f, comul_vec(hopf.coalgebra, pair.sigma), sig2):
        bad.append("modular pair: sigma not group-like")
    if not f.is_zero(f.sub(counit_vec(hopf.coalgebra, pair.sigma), f.one)):
        bad.append("modular pair: eps(sigma) != 1")
    if not f.is_zero(f.sub(_delta_of(f, pair, hopf.unit()), f.one)):
        bad.append("modular pair: delta(1) != 1")
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            prod = multiply(hopf.algebra, _unit_vec(f, i), _unit_vec(f, j))
            lhs = _delta_of(f, pair, prod)
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
        if not vec_eq(f, _pair(p, cv, a.unit), target):
            bad.append("pairing: phi(c,1) != eps(c)1 at c%d" % ci)
        for a1 in range(a.dim):
            for a2 in range(a.dim):
                prod = multiply(a, _unit_vec(f, a1), _unit_vec(f, a2))
                lhs = _pair(p, cv, prod)
                rhs = {}
                for (c1, c2), v in comul_vec(c, cv).items():
                    term = multiply(a, _pair(p, _unit_vec(f, c1), _unit_vec(f, a1)),
                                    _pair(p, _unit_vec(f, c2), _unit_vec(f, a2)))
                    rhs = vec_add(f, rhs, vec_scale(f, v, term))
                if not vec_eq(f, lhs, rhs):
                    bad.append("pairing: multiplicativity fails at (c%d,a%d,a%d)" % (ci, a1, a2))
        for hi in range(h.dim):
            hv = _unit_vec(f, hi)
            for ai in range(a.dim):
                av = _unit_vec(f, ai)
                lhs = act(p.alg, hv, _pair(p, cv, av))
                rhs = _pair(p, act(p.coalg, hv, cv), av)
                if not vec_eq(f, lhs, rhs):
                    bad.append("pairing: equivariance fails at (h%d,c%d,a%d)" % (hi, ci, ai))
    return bad


def check_sayd(m):
    """Stability m(-1)m(0) = m and the anti-Yetter-Drinfeld condition."""
    f = m.field
    h = m.hopf
    bad = []
    for i in range(m.dim):
        # stability
        out = {}
        for (hh, mm), x in m.coaction[i].items():
            out = vec_add(f, out, vec_scale(f, x, act(m, _unit_vec(f, hh), _unit_vec(f, mm))))
        if not vec_eq(f, out, _unit_vec(f, i)):
            bad.append("sayd: stability fails at e%d" % i)
    for hi in range(h.dim):
        hv = _unit_vec(f, hi)
        for i in range(m.dim):
            lhs = _coact(m, act(m, hv, _unit_vec(f, i)))
            rhs = {}
            for (h1, h2, h3), v in iterated(h.coalgebra, hv, 3).items():
                s_inv_h3 = apply_antipode(h, _unit_vec(f, h3), inverse=True)
                for (mm1, mi), x in m.coaction[i].items():
                    hleft = multiply(h.algebra, multiply(h.algebra, _unit_vec(f, h1),
                                                         _unit_vec(f, mm1)), s_inv_h3)
                    macted = act(m, _unit_vec(f, h2), _unit_vec(f, mi))
                    coef = f.mul(v, x)
                    for hk, hx in hleft.items():
                        for mk, mx in macted.items():
                            add_into(f, rhs, (hk, mk), f.mul(coef, f.mul(hx, mx)))
            if not vec_eq(f, lhs, rhs):
                bad.append("sayd: AYD condition fails at (h%d,e%d)" % (hi, i))
    return bad


REFERENCE = ((hopf.HopfAlgebraData, check_hopf), (hopf.AlgebraData, check_algebra),
             (hopf.CoalgebraData, check_coalgebra),
             (hopf.ModuleAlgebra, check_module_algebra),
             (hopf.ModuleCoalgebra, check_module_coalgebra),
             (hopf.ComoduleAlgebra, check_comodule_algebra),
             (hopf.ComoduleCoalgebra, check_comodule_coalgebra),
             (hopf.ModComodule, check_modcomodule),
             (hopf.EquivariantPairing, check_equivariant))


def reference_structure(x):
    """The loop-form report, nested structures first and prefixed."""
    if isinstance(x, hopf.EquivariantPairing):
        nested = (("coalgebra side: ", x.coalg), ("algebra side: ", x.alg))
    else:
        nested = (("hopf: ", x.hopf),) if hasattr(x, "hopf") else ()
    own = next(check for cls, check in REFERENCE if isinstance(x, cls))
    return [p + line for p, y in nested for line in reference_structure(y)] + own(x)


# ---------------------------------------------------------------------------
# corruptions: one entry of one structure table, index in range


def _keys(*dims):
    keys = list(itertools.product(*map(range, dims)))
    return keys if len(dims) > 1 else [k[0] for k in keys]


class _MatrixTable(dict):
    """The entries of the matrix obj.<attr> as a table: matrices are
    immutable, so each write puts a matrix built from the table there."""

    def __init__(self, obj, attr):
        super().__init__(getattr(obj, attr).entries)
        self.obj, self.attr = obj, attr

    def _rebuild(self):
        m = getattr(self.obj, self.attr)
        setattr(self.obj, self.attr, Matrix(m.field, m.rows, m.cols, self))

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._rebuild()

    def pop(self, key, *default):
        out = super().pop(key, *default)
        self._rebuild()
        return out


def _hopf_tables(h):
    d = h.dim
    return [(h.algebra.mul, _keys(d)), (h.algebra.unit, _keys(d)),
            (h.coalgebra.comul, _keys(d, d)), (h.coalgebra.counit, _keys(d)),
            (_MatrixTable(h, "antipode"), _keys(d, d)),
            (_MatrixTable(h, "antipode_inv"), _keys(d, d))]


def _algebra_tables(a):
    return [(a.mul, _keys(a.dim)), (a.unit, _keys(a.dim))]


def _coalgebra_tables(c):
    return [(c.comul, _keys(c.dim, c.dim)), (c.counit, _keys(c.dim))]


def _actor_tables(x, dim):
    out = _hopf_tables(x.hopf)
    if hasattr(x, "action"):
        out.append((x.action, _keys(dim)))
    if hasattr(x, "coaction"):
        out.append((x.coaction, _keys(x.hopf.dim, dim)))
    return out


def _pairing_tables(p):
    return (_actor_tables(p.coalg, p.coalg.coalgebra.dim)
            + _coalgebra_tables(p.coalg.coalgebra)
            + _actor_tables(p.alg, p.alg.algebra.dim) + _algebra_tables(p.alg.algebra)
            + [(p.phi, _keys(p.alg.algebra.dim))])


def _pair_g(h):
    """The modular pair (g, eps), g the basis element 1."""
    return ModularPair({1: h.field.one}, dict(h.coalgebra.counit))


def _hopf_cases(f):
    return [fx.group_algebra(f, 2), fx.group_algebra(f, 3), fx.sweedler_hopf(f)]


# kind -> field -> [(object, tables, [(check, reference)])]; built afresh
# for every corruption, since the tables are mutated in place
STRUCTURAL = [(hopf.check_structure, reference_structure)]
KINDS = {
    "hopf": lambda f: [(h, _hopf_tables(h), STRUCTURAL) for h in _hopf_cases(f)],
    "algebra": lambda f: [
        (a, _algebra_tables(a), STRUCTURAL)
        for a in (fx.dual_numbers_algebra(f), fx.product_field_algebra(f),
                  fx.sweedler_hopf(f).algebra)],
    "coalgebra": lambda f: [
        (c, _coalgebra_tables(c), STRUCTURAL)
        for c in (fx.group_algebra(f, 2).coalgebra, fx.sweedler_hopf(f).coalgebra,
                  fx.function_comodule_coalgebra(fx.group_algebra(f, 3)).coalgebra)],
    "module algebra": lambda f: [
        (ma, _actor_tables(ma, 2) + _algebra_tables(ma.algebra), STRUCTURAL)
        for ma in [fx.dual_numbers_module_algebra(fx.group_algebra(f, 2))]],
    "module coalgebra": lambda f: [
        (mc, _actor_tables(mc, 2) + _coalgebra_tables(mc.coalgebra), STRUCTURAL)
        for mc in [fx.regular_module_coalgebra(fx.group_algebra(f, 2))]],
    "comodule algebra": lambda f: [
        (ca, _actor_tables(ca, 2) + _algebra_tables(ca.algebra), STRUCTURAL)
        for ca in [fx.regular_comodule_algebra(fx.group_algebra(f, 2))]],
    "comodule coalgebra": lambda f: [
        (cc, _actor_tables(cc, 2) + _coalgebra_tables(cc.coalgebra), STRUCTURAL)
        for cc in [fx.function_comodule_coalgebra(fx.group_algebra(f, 2))]],
    "modcomodule": lambda f: [
        (m, _actor_tables(m, m.dim), STRUCTURAL + [(hopf.check_sayd, check_sayd)])
        for h in [fx.group_algebra(f, 2)]
        for m in [fx.regular_action_trivial_coaction(h),
                  modular_pair_module(h, _pair_g(h))]],
    "modular pair": lambda f: [
        (pair, _hopf_tables(h) + [(pair.sigma, _keys(h.dim)), (pair.delta, _keys(h.dim))],
         [(lambda p, h=h: hopf.check_modular_pair(h, p),
           lambda p, h=h: check_modular_pair(h, p))])
        for h in _hopf_cases(f) for pair in [_pair_g(h)]],
    "pairing": lambda f: [
        (p, _pairing_tables(p), STRUCTURAL) for h in [fx.group_algebra(f, 2)]
        for p in [fx.action_pairing(fx.regular_module_coalgebra(h),
                                    fx.dual_numbers_module_algebra(h))]],
}
FIELDS = {"Q": QQ, "GF(7)": GF(7)}


def _values(f):
    vals = [f(k) for k in range(-3, 4)]
    return vals + [f(1, 2), f(-2, 3)] if f == QQ else vals


def _set(f, table, key, value):
    if f.is_zero(value):
        table.pop(key, None)
    else:
        table[key] = value


def _corrupt(f, tables, pick):
    """Change one entry: pick(options) chooses among the in-range options."""
    table, space = pick(tables)
    if any(isinstance(v, dict) for v in table.values()):
        table = table[pick(sorted(table))]
    key = pick(space)
    old = table.get(key, f.zero)
    _set(f, table, key, pick([v for v in _values(f) if v != old]))


def _reports(obj, checks):
    return [(sorted(new(obj)), sorted(ref(obj))) for new, ref in checks]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_matrix_checks_equal_the_loop_form_on_corruptions(kind, field):
    f = FIELDS[field]
    examples = []

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        examples.append(1)
        cases = KINDS[kind](f)
        obj, tables, checks = cases[data.draw(st.integers(0, len(cases) - 1))]
        _corrupt(f, tables,
                 lambda options: options[data.draw(st.integers(0, len(options) - 1))])
        for new, ref in _reports(obj, checks):
            assert new == ref

    run()
    assert len(examples) >= 200      # the corruption space was not exhausted


def _sweep(f):
    """Every single-entry corruption (the entry plus one), kind by kind:
    yields (object, checks) on a fresh build each time."""
    for build in KINDS.values():
        for c, (_, tables, _) in enumerate(build(f)):
            for t, (table, space) in enumerate(tables):
                nested = any(isinstance(v, dict) for v in table.values())
                for outer in (sorted(table) if nested else [None]):
                    for key in space:
                        obj, fresh, checks = build(f)[c]
                        tab = fresh[t][0] if outer is None else fresh[t][0][outer]
                        _set(f, tab, key, f.add(tab.get(key, f.zero), f.one))
                        yield obj, checks


def test_every_message_template_fires_and_matches_the_loop_form(monkeypatch):
    seen, fired, lines = set(), set(), set()
    fails = hopf._fails

    def recording(dims, *identities):
        out = []
        for identity in identities:
            got = fails(dims, identity)
            seen.add(identity[2])
            fired.update([identity[2]] if got else [])
            out += got
        return out

    monkeypatch.setattr(hopf, "_fails", recording)
    for obj, checks in _sweep(GF(7)):
        for new, ref in _reports(obj, checks):
            assert new == ref
            lines.update(new)
    assert sorted(seen - fired) == []
    # every template hopf.py hands to _fails: 4 algebra and 4 coalgebra tags
    # times 3 identities, 3 action and 3 coaction tags times 2, and 22 more
    assert len(seen) == 58
    for msg in ("antipode: S o S^-1 != id", "antipode: S^-1 o S != id"):
        assert msg in lines


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_lawful_fixtures_and_their_products_check_clean(field):
    f = FIELDS[field]
    for name, obj in cli.fixture_library(f):
        assert hopf.check_structure(obj) == [], name
    for build in KINDS.values():
        for obj, _, checks in build(f):
            assert all(new(obj) == [] for new, _ in checks), obj
    hs = _hopf_cases(f)
    for h1, h2 in itertools.product(hs, hs):
        assert hopf.check_structure(tensor_hopf(h1, h2)) == [], (h1.name, h2.name)
    kz2 = fx.group_algebra(f, 2)
    ma = fx.dual_numbers_module_algebra(kz2)
    m = fx.regular_action_trivial_coaction(kz2)
    hh = tensor_hopf(kz2, kz2)
    assert hopf.check_structure(tensor_module_algebra(ma, ma, hh)) == []
    assert hopf.check_structure(tensor_modcomodule(m, m, hh)) == []
    assert hopf.check_algebra(crossed_product_algebra(
        ma, fx.regular_comodule_algebra(kz2))) == []
    for h in hs[:2]:
        z = fx.function_comodule_coalgebra(h)
        assert hopf.check_structure(tensor_comodule_coalgebra(z, z)) == []
        assert hopf.check_coalgebra(crossed_product_coalgebra(
            z, fx.regular_module_coalgebra(h))) == []


# ---------------------------------------------------------------------------
# fixture constructors that read their tables off Matrices


def _counit_action(h):
    """The dual numbers with h.a = eps(h) a, written with an explicit zero
    entry wherever eps(h) = 0."""
    f = h.field
    alg = fx.dual_numbers_algebra(f)
    action = {(g, a): {a: h.coalgebra.counit.get(g, f.zero)}
              for g in range(h.dim) for a in range(alg.dim)}
    return ModuleAlgebra(h, alg, action)


def _sparse_product(h):
    """h with the empty entries of its product table left out and an
    explicit zero written into e_0 e_0."""
    f, d = h.field, h.dim
    mul = {k: dict(v) for k, v in h.algebra.mul.items() if v}
    if d > 1:
        mul[(0, 0)] = {**mul[(0, 0)], d - 1: f.zero}
    return HopfAlgebraData(AlgebraData(f, d, mul, h.algebra.unit),
                           h.coalgebra, h.antipode, name=h.name)


def _flipped_counit(h):
    """h with eps(e_last) replaced by 1 - eps(e_last): not a Hopf algebra,
    but a group-like basis vector of Delta can now fail eps = 1 (kZ/n), or
    a basis vector with eps = 1 fail to be group-like (Sweedler's gx)."""
    f, d = h.field, h.dim
    co = h.coalgebra
    counit = {**co.counit, d - 1: f.sub(f.one, co.counit.get(d - 1, f.zero))}
    return HopfAlgebraData(h.algebra, CoalgebraData(f, d, co.comul, counit),
                           h.antipode, name=h.name)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_table_constructors_give_the_loop_form_tables(field):
    f = FIELDS[field]
    one = f.one
    for h0 in [fx.trivial_hopf(f)] + _hopf_cases(f):
        for h in (h0, _sparse_product(h0), _flipped_counit(h0)):
            units = [{i: one} for i in range(h.dim)]
            regular = {(g, c): multiply(h.algebra, units[g], units[c])
                       for g in range(h.dim) for c in range(h.dim)}
            for x in (fx.regular_module_coalgebra(h),
                      fx.regular_action_trivial_coaction(h),
                      fx.regular_action_regular_coaction(h)):
                assert x.action == regular, (h.name, x.name)
            mc = fx.regular_module_coalgebra(h)
            mas = [_counit_action(h)] + (
                [fx.dual_numbers_module_algebra(h)] if h.dim > 1 else [])
            for ma in mas:
                phi = {(c, a): act(ma, units[c], {a: one})
                       for c in range(h.dim) for a in range(ma.algebra.dim)}
                assert fx.action_pairing(mc, ma).phi == phi, h.name
            likes = [u for u in units
                     if comul_vec(h.coalgebra, u) == {(i, i): one for i in u}
                     and f.is_zero(f.sub(counit_vec(h.coalgebra, u), one))]
            assert fx.group_likes(h) == likes, h.name
