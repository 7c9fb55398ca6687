"""The characteristic morphisms against basis-tuple builders.

hopfcyclic.pairings assembles alpha, beta, xi and star as Matrix
composites of the pairing, the actions, the diagonal coaction chains and
the antipode.  The reference below is the earlier loop-form code that
built each map one basis tuple at a time, expanding iterated coactions
leg by leg, kept here only as an independent definition.  Each map
must agree with it entry for entry, over Q and GF(10007); both forms of
xi are compared on the covers, before any descent.

The evaluation covector and the contraction F -> F(g) of the crossed
cocup are checked the same way, against the dict loops they replaced,
which index a Hom vector as yi * dim X + xj.

The leg order of beta is pinned down on Sweedler's H4, which is not
commutative.  xi has no input over a noncommutative Hopf algebra here
(the regular coaction of H4 is not a comodule coalgebra), so its leg
order and S^-1 are covered on commutative H only.
"""

import pytest

from hopfcyclic import (QQ, GF, Matrix, ModularPair, modular_pair_module,
                        alpha, beta, xi, star, cyclic_cocycles,
                        crossed_cocup_with_invariant, evaluation_covector,
                        trivial_modcomodule)
from hopfcyclic import fixtures as fx
from hopfcyclic.cyclic import DescentFailure
from hopfcyclic.hopf import ModuleAlgebra, balanced_tensor_modcomodule, check_structure
from hopfcyclic.pairings import AgreementFailure, _tower, _xi_forms

from _loops import act, add_into, apply_antipode, multiply


# ---------------------------------------------------------------------------
# reference: the basis-tuple builders


def _flatten(idx, dims):
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


def _unflatten(flat, dims):
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def _prod(dims):
    out = 1
    for d in dims:
        out *= d
    return out


def _tensor_step(field, terms, piece):
    out = {}
    for key, v in terms.items():
        for idx, w in piece.items():
            add_into(field, out, key + (idx,), field.mul(v, w))
    return out


def _iter_coaction(field, coaction, idx, times):
    """[(legs, residue, coeff)], legs[0] the outermost leg x_{[-times]}."""
    cur = [((), idx, field.one)]
    for _ in range(times):
        nxt = {}
        for legs, i, c in cur:
            for (h, j), v in coaction[i].items():
                add_into(field, nxt, (legs + (h,), j), field.mul(c, v))
        cur = [(k[0], k[1], v) for k, v in nxt.items()]
    return cur


def _combos(field, expans):
    """Every choice of one term per expansion, with the product coefficient."""
    out = [((), field.one)]
    for terms in expans:
        out = [(picked + (t,), field.mul(c, t[2])) for picked, c in out for t in terms]
    return out


def _flatten_hom(mat, dim_x):
    return {yi * dim_x + xj: v for (yi, xj), v in mat.entries.items()}


def _flattened(bigs):
    """One flattened Hom matrix per column, as diag_hom keeps Hom vectors."""
    return Matrix.from_columns(bigs[0].field, bigs[0].rows * bigs[0].cols,
                               [_flatten_hom(g, g.cols) for g in bigs])


def ref_alpha(pairing, m, N, x_mod, y_mod):
    f = pairing.field
    _, px, sx = _tower(x_mod)
    _, py, _ = _tower(y_mod)
    da, dc, dm = pairing.alg.algebra.dim, pairing.coalg.coalgebra.dim, m.dim
    maps = {}
    for n in range(N + 1):
        xdims = [dc] * (n + 1) + [dm]
        ydims = [da] * (n + 1) + [dm]
        homs = []
        for col in range(da ** (n + 1)):
            avec = _unflatten(col, [da] * (n + 1))
            big = {}
            for xcol in range(_prod(xdims)):
                t = _unflatten(xcol, xdims)
                terms = {(): f.one}
                for i in range(n + 1):
                    terms = _tensor_step(f, terms, pairing.phi[(t[i], avec[i])])
                for key, v in terms.items():
                    add_into(f, big, (_flatten(key + (t[n + 1],), ydims), xcol), v)
            down = py[n] * Matrix(f, _prod(ydims), _prod(xdims), big)
            g = down * sx[n]
            if g * px[n] != down:
                raise DescentFailure("alpha does not descend at degree %d" % n)
            homs.append(g)
        maps[n] = _flattened(homs)
    return maps


def ref_beta(ma, ca, m, N, x_mod, y_mod):
    f, hopf = ma.field, ma.hopf
    _, py, _ = _tower(y_mod)
    da, db, dm = ma.algebra.dim, ca.algebra.dim, m.dim
    maps = {}
    for n in range(N + 1):
        tb = db ** (n + 1)
        ydims = [da] * (n + 1) + [dm]
        homs = []
        for col in range((da * db) ** (n + 1)):
            tup = _unflatten(col, [da * db] * (n + 1))
            avec = [t // db for t in tup]
            bvec = [t % db for t in tup]
            big = {}
            expans = [_iter_coaction(f, ca.coaction, bvec[i], n - i) for i in range(n)]
            for combo, coef in _combos(f, expans):
                xcol = _flatten(tuple(c[1] for c in combo) + (bvec[n],), [db] * (n + 1))
                terms = {(avec[0],): coef}
                for j in range(1, n + 1):
                    hv = hopf.unit()
                    for i in range(j):
                        hv = multiply(hopf.algebra, hv, {combo[i][0][j - i - 1]: f.one})
                    terms = _tensor_step(f, terms, act(ma, hv, {avec[j]: f.one}))
                for key, v in terms.items():
                    for mi in range(dm):
                        add_into(f, big, (_flatten(key + (mi,), ydims), mi * tb + xcol), v)
            g = (py[n] * Matrix(f, _prod(ydims), dm * tb, big)
                 * x_mod.meta["sub"][n].basis_matrix())
            homs.append(g)
        maps[n] = _flattened(homs)
    return maps


def ref_xi_forms(zc, mc, m, n):
    """Both forms of xi_n on the covers: two lists holding one Hom matrix
    (C^{(x)n+1} (x) M <- M (x) Z^{(x)n+1}) per source basis tuple."""
    f, hopf = zc.field, zc.hopf
    dz, dc, dm = zc.coalgebra.dim, mc.coalgebra.dim, m.dim
    tz = dz ** (n + 1)
    ydims = [dc] * (n + 1) + [dm]

    def twisted(cvec, combo, upto):
        # slot i < upto acted on by S^-1 of the legs of z^{i+1}..z^{upto-1}
        terms = {(): f.one}
        for i in range(upto):
            hv = hopf.unit()
            for j in range(i + 1, upto):
                hv = multiply(hopf.algebra, hv, {combo[j][0][j - i - 1]: f.one})
            sh = apply_antipode(hopf, hv, inverse=True)
            terms = _tensor_step(f, terms, act(mc, sh, {cvec[i]: f.one}))
        return terms

    firsts, seconds = [], []
    for col in range((dz * dc) ** (n + 1)):
        tup = _unflatten(col, [dz * dc] * (n + 1))
        zvec = [t // dc for t in tup]
        cvec = [t % dc for t in tup]
        big1, big2 = {}, {}
        expans = [_iter_coaction(f, zc.coaction, zvec[j], j) for j in range(n + 1)]
        for combo, coef in _combos(f, expans):
            xcol = _flatten(tuple(c[1] for c in combo), [dz] * (n + 1))
            for key, v in twisted(cvec, combo, n + 1).items():
                for mi in range(dm):
                    add_into(f, big1, (_flatten(key + (mi,), ydims), mi * tz + xcol),
                             f.mul(coef, v))
        expans[n] = _iter_coaction(f, zc.coaction, zvec[n], 2)
        for combo, coef in _combos(f, expans):
            xcol = _flatten(tuple(c[1] for c in combo), [dz] * (n + 1))
            terms = _tensor_step(f, twisted(cvec, combo, n),
                                 act(mc, {combo[n][0][0]: f.one}, {cvec[n]: f.one}))
            hn = combo[n][0][1]
            for key, v in terms.items():
                for mi in range(dm):
                    for mk, w in m.action[(hn, mi)].items():
                        add_into(f, big2, (_flatten(key + (mk,), ydims), mi * tz + xcol),
                                 f.mul(coef, f.mul(v, w)))
        firsts.append(Matrix(f, _prod(ydims), dm * tz, big1))
        seconds.append(Matrix(f, _prod(ydims), dm * tz, big2))
    return firsts, seconds


def ref_xi(zc, mc, m, N, x_mod, y_mod):
    _, py, _ = _tower(y_mod)
    maps = {}
    for n in range(N + 1):
        sxm = x_mod.meta["sub"][n].basis_matrix()
        first, second = ([py[n] * (big * sxm) for big in bigs]
                         for bigs in ref_xi_forms(zc, mc, m, n))
        if first != second:
            raise AgreementFailure(
                "the two displayed forms of xi disagree at degree %d" % n)
        maps[n] = _flattened(first)
    return maps


def ref_star(zc, zc2, m, m2, N, u, v, tgt, pim):
    f = zc.field
    dz, dz2 = zc.coalgebra.dim, zc2.coalgebra.dim
    dm, dm2, dmb = m.dim, m2.dim, pim.rows
    maps = {}
    for n in range(N + 1):
        tz, tz2 = dz ** (n + 1), dz2 ** (n + 1)
        tw = (dz * dz2) ** (n + 1)
        big = {}
        for x in range(tz):
            zt = _unflatten(x, [dz] * (n + 1))
            for x2 in range(tz2):
                z2t = _unflatten(x2, [dz2] * (n + 1))
                w = _flatten(tuple(zt[k] * dz2 + z2t[k] for k in range(n + 1)),
                             [dz * dz2] * (n + 1))
                for (row, colpair), val in pim.entries.items():
                    mi, mj = divmod(colpair, dm2)
                    big[(row * tw + w,
                         (mi * tz + x) * (dm2 * tz2) + (mj * tz2 + x2))] = val
        big = Matrix(f, dmb * tw, (dm * tz) * (dm2 * tz2), big)
        full = big * u.meta["sub"][n].basis_matrix().kron(v.meta["sub"][n].basis_matrix())
        cols = [tgt.meta["sub"][n].coordinates(c) for c in full.columns(lifted=True)]
        maps[n] = Matrix.from_columns(f, tgt.spaces[n], cols)
    return maps


def ref_evaluation_covector(d, n, t_cov, c_vec):
    f = d.field
    dim_x = d.meta["x"].spaces[n]
    out = {}
    for yi, tv in t_cov.items():
        for xj, cv in c_vec.items():
            w = f.mul(tv, cv)
            if not f.is_zero(w):
                out[yi * dim_x + xj] = w
    return out


def ref_cocup(cls, g0, xi_mor):
    """The representative of crossed_cocup_with_invariant(cls, g0, xi_mor)."""
    x_mod = xi_mor.target.meta["x"]
    f = x_mod.field
    p = cls.degree
    g = dict(g0)
    for k in range(p):
        g = x_mod.degeneracies[(k, 0)].apply(g)
    flat = xi_mor.maps[p].apply(cls.representative)
    dim_x = x_mod.spaces[p]
    out = {}
    for idx, v in flat.items():
        yi, xj = divmod(idx, dim_x)
        if xj in g:
            add_into(f, out, yi, f.mul(v, g[xj]))
    return out


# ---------------------------------------------------------------------------
# the grid


FIELDS = (QQ, GF(10007))


def _pairs(h):
    """The modular pairs (1, eps) and (g, eps) of kZ/n as coefficient lines."""
    return {"trivial": trivial_modcomodule(h),
            "(g, eps)": modular_pair_module(h, ModularPair({1: h.field.one},
                                                           h.coalgebra.counit))}


def _same(got, ref):
    assert got.keys() == ref.keys()
    for n in ref:
        assert got[n] == ref[n], n


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pair", ["trivial", "(g, eps)"])
def test_alpha(field, pair):
    h = fx.group_algebra(field, 2)
    m = _pairs(h)[pair]
    pairing = fx.action_pairing(fx.regular_module_coalgebra(h),
                                fx.dual_numbers_module_algebra(h))
    am = alpha(pairing, m, 3)
    _same(am.maps, ref_alpha(pairing, m, 3, am.target.meta["x"], am.target.meta["y"]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("pair", ["trivial", "(g, eps)"])
def test_beta(field, pair):
    h = fx.group_algebra(field, 2)
    m = _pairs(h)[pair]
    ma, ca = fx.dual_numbers_module_algebra(h), fx.regular_comodule_algebra(h)
    bm = beta(ma, ca, m, 3)
    _same(bm.maps, ref_beta(ma, ca, m, 3, bm.target.meta["x"], bm.target.meta["y"]))


def _xi_cases(field):
    kz2, kz3, k = (fx.group_algebra(field, 2), fx.group_algebra(field, 3),
                   fx.trivial_hopf(field))
    for name, m in _pairs(kz2).items():
        yield "kZ/2 " + name, fx.function_comodule_coalgebra(kz2), kz2, m, 3
    yield ("kZ/3 trivial", fx.function_comodule_coalgebra(kz3), kz3,
           modular_pair_module(kz3, fx.trivial_modular_pair(kz3)), 2)
    yield "k", fx.function_comodule_coalgebra(k, 1), k, trivial_modcomodule(k), 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_xi_both_forms(field):
    for name, zc, h, m, N in _xi_cases(field):
        mc = fx.regular_module_coalgebra(h)
        for n in range(N + 1):
            got, ref = _xi_forms(zc, mc, m, n), ref_xi_forms(zc, mc, m, n)
            assert got[0] == _flattened(ref[0]), (name, n, "first form")
            assert got[1] == _flattened(ref[1]), (name, n, "second form")
        xm = xi(zc, mc, m, N)
        _same(xm.maps, ref_xi(zc, mc, m, N, xm.target.meta["x"], xm.target.meta["y"]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_star(field, n):
    h = fx.group_algebra(field, n)
    zc = fx.function_comodule_coalgebra(h)
    m = modular_pair_module(h, fx.trivial_modular_pair(h))
    st = star(zc, zc, m, m, 2)
    u, v = st.source.meta["u"], st.source.meta["v"]
    _, pim, _ = balanced_tensor_modcomodule(m, m)
    _same(st.maps, ref_star(zc, zc, m, m, 2, u, v, st.target, pim))


def _h4_module_algebra(h):
    """k[t]/t^2 over Sweedler's H4: g.t = -t, x.t = gx.t = 1."""
    f = h.field
    one = f.one
    action = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {0: one},
              (1, 1): {1: f.neg(one)}, (2, 1): {0: one}, (3, 1): {0: one}}
    return ModuleAlgebra(h, fx.dual_numbers_algebra(f), action, name="k[t]/t^2 over H4")


def _h4_pairs(h):
    """The SAYD pairs (sigma=1, delta=delta_-) and (sigma=g, delta=eps)."""
    one = h.field.one
    return [modular_pair_module(h, ModularPair({0: one}, {0: one, 1: h.field.neg(one)})),
            modular_pair_module(h, ModularPair({1: one}, h.coalgebra.counit))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_alpha_and_beta_over_sweedler(field):
    h = fx.sweedler_hopf(field)
    ma = _h4_module_algebra(h)
    assert check_structure(ma) == []
    ca = fx.regular_comodule_algebra(h)
    pairing = fx.action_pairing(fx.regular_module_coalgebra(h), ma)
    for m in _h4_pairs(h):
        bm = beta(ma, ca, m, 2)
        _same(bm.maps, ref_beta(ma, ca, m, 2, bm.target.meta["x"], bm.target.meta["y"]))
        # buffer 1 keeps the J closure on the H4 cover small; only the
        # complexes depend on it, and they come out the same as at buffer 2
        am = alpha(pairing, m, 2, buffer=1)
        _same(am.maps, ref_alpha(pairing, m, 2, am.target.meta["x"], am.target.meta["y"]))


def _kz2_alpha_and_xis(field):
    """alpha and two xi over kZ/2; in the second, the functions on Z/1
    make dim X_n = 1 while dim Y_n = 2^n."""
    h = fx.group_algebra(field, 2)
    m = _pairs(h)["trivial"]
    mc = fx.regular_module_coalgebra(h)
    pairing = fx.action_pairing(mc, fx.dual_numbers_module_algebra(h))
    return alpha(pairing, m, 3), [
        xi(fx.function_comodule_coalgebra(h, k), mc, m, 3) for k in (2, 1)]


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
def test_evaluation_covector_and_cocup_contraction(field):
    f = field
    am, xms = _kz2_alpha_and_xis(field)
    for d in [am.target] + [xm.target for xm in xms]:
        for n in d.spaces:
            dx = d.meta["x"].spaces[n]
            # dense vectors with a zero entry and, over Q, denominators
            t = {i: f(i + 1, 3) for i in range(d.spaces[n] // dx)}
            c = {j: f(j - 2, 5) for j in range(dx)}
            assert (evaluation_covector(d, n, t, c)
                    == ref_evaluation_covector(d, n, t, c)), (d.name, n)
    for xm in xms:
        for p in xm.source.spaces:
            for cls in cyclic_cocycles(xm.source, p):
                got = crossed_cocup_with_invariant(cls, {0: f.one}, xm)
                assert got.representative == ref_cocup(cls, {0: f.one}, xm), p
