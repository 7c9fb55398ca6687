"""The cyclic, cover and colinear-Hom complexes against basis-tuple builders.

hopfcyclic.cyclic assembles every structure map as a Matrix composite of
m, u, Delta, eps, S, S^-1, the actions and the coactions.  The reference
below is the earlier loop-form code that built each map basis tuple by
basis tuple from the structure tables, kept here only as an independent
definition.  On every grid case both must give the same tau, faces,
degeneracies, L_h and colinear subspaces, entry for entry, or raise the
same exception with the same text.

For Cyc(A) the reference builds every face and degeneracy directly.  For
Cyc(C), the covers and the colinear-Hom complexes it builds only d_0, s_0
and tau, restricts the colinear-Hom maps vector by vector with
Subspace.coordinates, and forms the maps of index j >= 1 by
tau-conjugation (fill_by_conjugation below).  The package builds every
one of those maps directly, as a slot map or a precomposition with one,
and the one wrap-around face through tau, so the comparison is an
independent check that the tau-conjugation identities hold.
"""

import pytest

from hopfcyclic import QQ, GF, Matrix, ModularPair, modular_pair_module
from hopfcyclic import cyclic
from hopfcyclic import fixtures as fx
from hopfcyclic.hopf import (ComoduleCoalgebra, CompatibilityFailure, ModuleAlgebra,
                             check_sayd)

from _loops import act, add_into, apply_antipode, iterated, multiply


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


def build_matrix(field, src_dims, tgt_dims, image):
    """Matrix of the linear map sending basis multi-index t to image(t)."""
    ent = {}
    for col in range(_prod(src_dims)):
        for tt, v in image(_unflatten(col, src_dims)).items():
            add_into(field, ent, (_flatten(tt, tgt_dims), col), v)
    return Matrix(field, _prod(tgt_dims), _prod(src_dims), ent)


def _mul_at(alg, j):
    def im(t):
        return {t[:j] + (k,) + t[j + 2:]: v
                for k, v in alg.mul[(t[j], t[j + 1])].items()}
    return im


def _unit_after(alg, j):
    def im(t):
        return {t[:j + 1] + (u,) + t[j + 1:]: c for u, c in alg.unit.items()}
    return im


def _comul_first(co):
    def im(t):
        return {(j, k) + t[1:]: v for (j, k), v in co.comul[t[0]].items()}
    return im


def _counit_second(co):
    f = co.field

    def im(t):
        e = co.counit.get(t[1], f.zero)
        return {} if f.is_zero(e) else {(t[0],) + t[2:]: e}
    return im


def ref_cyc_algebra(a, N):
    """(taus, faces, degeneracies) of the cyclic module of a."""
    f, d = a.field, a.dim

    def rot(t):
        return {t[-1:] + t[:-1]: f.one}

    def wrap(t):
        return {(k,) + t[1:-1]: v for k, v in a.mul[(t[-1], t[0])].items()}

    def slot_map(n, m, im):
        return build_matrix(f, [d] * (n + 1), [d] * (m + 1), im)

    taus = {n: slot_map(n, n, rot) for n in range(N + 1)}
    faces = {(n, j): slot_map(n, n - 1, _mul_at(a, j) if j < n else wrap)
             for n in range(1, N + 1) for j in range(n + 1)}
    degs = {(n, j): slot_map(n, n + 1, _unit_after(a, j))
            for n in range(N) for j in range(n + 1)}
    return taus, faces, degs


def ref_cyc_coalgebra(c, N):
    """(taus, d_0, s_0) of the cocyclic module of c."""
    f, d = c.field, c.dim

    def rot(t):
        return {t[1:] + (t[0],): f.one}

    def slot_map(n, m, im):
        return build_matrix(f, [d] * (n + 1), [d] * (m + 1), im)

    taus = {n: slot_map(n, n, rot) for n in range(N + 1)}
    d0 = {n: slot_map(n, n + 1, _comul_first(c)) for n in range(N)}
    s0 = {n: slot_map(n, n - 1, _counit_second(c)) for n in range(1, N + 1)}
    return taus, d0, s0


def _diagonal_action(hopf, dims, action, mod):
    f = hopf.field
    k = len(dims) - 1
    out = {}
    for h in range(hopf.dim):
        parts = iterated(hopf.coalgebra, {h: f.one}, k + 1)

        def im(t, parts=parts):
            total = {}
            for hs, coef in parts.items():
                terms = {(): coef}
                for i in range(k + 1):
                    act = action if i < k else mod.action
                    terms = _tensor_step(f, terms, act[(hs[i], t[i])])
                for key, v in terms.items():
                    add_into(f, total, key, v)
            return total

        out[h] = build_matrix(f, dims, dims, im)
    return out


def ref_cover(x, m, N):
    """(taus, d_0, s_0, L_h) of the cover of a module (co)algebra x."""
    f = x.field
    chain = isinstance(x, ModuleAlgebra)
    base = x.algebra if chain else x.coalgebra
    dx, dm = base.dim, m.dim
    if chain:
        def tau_im(t):
            out = {}
            for (h, mm), v in m.coaction[t[-1]].items():
                sh = apply_antipode(x.hopf, {h: f.one}, inverse=True)
                for b, w in act(x, sh, {t[-2]: f.one}).items():
                    add_into(f, out, (b,) + t[:-2] + (mm,), f.mul(v, w))
            return out
        d0_im, s0_im, step = _mul_at(base, 0), _unit_after(base, 0), -1
    else:
        def tau_im(t):
            out = {}
            for (h, mm), v in m.coaction[t[-1]].items():
                for cc, w in x.action[(h, t[0])].items():
                    add_into(f, out, t[1:-1] + (cc, mm), f.mul(v, w))
            return out
        d0_im, s0_im, step = _comul_first(base), _counit_second(base), 1

    def dims(n):
        return [dx] * (n + 1) + [dm]

    taus = {n: build_matrix(f, dims(n), dims(n), tau_im) for n in range(N + 1)}
    h_action = {(n, h): mat for n in range(N + 1)
                for h, mat in _diagonal_action(x.hopf, dims(n), x.action, m).items()}
    d0 = {n: build_matrix(f, dims(n), dims(n + step), d0_im)
          for n in range(N + 1) if 0 <= n + step <= N}
    s0 = {n: build_matrix(f, dims(n), dims(n - step), s0_im)
          for n in range(N + 1) if 0 <= n - step <= N}
    return taus, d0, s0, h_action


def _diagonal_coaction_matrix(field, hopf, coaction, dims):
    k = len(dims)
    total = _prod(dims)
    ent = {}
    unit_items = tuple(hopf.unit().items())
    for col in range(total):
        t = _unflatten(col, dims)
        part = {(hu, ()): cu for hu, cu in unit_items}
        for i in range(k):
            nxt = {}
            for (h, tup), v in part.items():
                for (hh, xx), w in coaction[t[i]].items():
                    for hk, hw in multiply(hopf.algebra, {h: field.one}, {hh: field.one}).items():
                        add_into(field, nxt, (hk, tup + (xx,)),
                                 field.mul(v, field.mul(w, hw)))
            part = nxt
        for (hk, tup), v in part.items():
            add_into(field, ent, (hk * total + _flatten(tup, dims), col), v)
    return Matrix(field, hopf.dim * total, total, ent)


def _colinear_subspace(field, hopf, mod, base_coaction, dims):
    total = _prod(dims)
    dm = mod.dim
    rho_x = _diagonal_coaction_matrix(field, hopf, base_coaction, dims)
    op = {}
    for mi in range(dm):
        for (h, mm), v in mod.coaction[mi].items():
            for x in range(total):
                op[((h * dm + mm) * total + x, mi * total + x)] = v
    for (row, col), v in rho_x.entries.items():
        h, xx = divmod(row, total)
        for mi in range(dm):
            add_into(field, op, ((h * dm + mi) * total + col, mi * total + xx),
                     field.neg(v))
    return Matrix(field, hopf.dim * dm * total, dm * total, op).kernel_basis()


def _twisted_precompose(field, mod, g_blocks, src_total, tgt_total):
    dm = mod.dim
    out = Matrix(field, dm * tgt_total, dm * src_total)
    for h, g in g_blocks.items():
        act_h = Matrix(field, dm, dm, {(mm, mi): v for mi in range(dm)
                                       for mm, v in mod.action[(h, mi)].items()})
        out = out + act_h.kron(g.transpose())
    return out


def ref_hom(base, mod, N):
    """(colinear subspaces, taus, d_0, s_0) of C(B,M) or C(Z,M)."""
    field, hopf = base.field, base.hopf
    if isinstance(base, ComoduleCoalgebra):
        def twist(t):
            for (h, zz), v in base.coaction[t[0]].items():
                yield h, t[1:] + (zz,), v
        slots = base.coalgebra
        d0_pre, s0_pre, step = _comul_first(slots), _counit_second(slots), -1
    else:
        def twist(t):
            for (h0, bb), v in base.coaction[t[-1]].items():
                for h, w in apply_antipode(hopf, {h0: field.one}).items():
                    yield h, (bb,) + t[:-1], field.mul(v, w)
        slots = base.algebra
        d0_pre, s0_pre, step = _mul_at(slots, 0), _unit_after(slots, 0), 1
    db, dm = slots.dim, mod.dim
    subs = {n: _colinear_subspace(field, hopf, mod, base.coaction, [db] * (n + 1))
            for n in range(N + 1)}

    def restrict(op, n, tgt, tag):
        cols = [subs[tgt].coordinates(op.apply(b)) for b in subs[n].lifts()]
        if any(c is None for c in cols):
            raise cyclic.DescentFailure("%s leaves the colinear subspace" % tag)
        return Matrix.from_columns(field, subs[tgt].dim, cols)

    def precompose(n, tgt, im, tag):
        p = build_matrix(field, [db] * (tgt + 1), [db] * (n + 1), im)
        return restrict(Matrix.identity(field, dm).kron(p.transpose()), n, tgt, tag)

    taus = {}
    for n in range(N + 1):
        dims = [db] * (n + 1)
        total = _prod(dims)
        g_blocks = {h: {} for h in range(hopf.dim)}
        for x in range(total):
            for h, t, v in twist(_unflatten(x, dims)):
                add_into(field, g_blocks[h], (_flatten(t, dims), x), v)
        g_blocks = {h: Matrix(field, total, total, e) for h, e in g_blocks.items()}
        taus[n] = restrict(_twisted_precompose(field, mod, g_blocks, total, total),
                           n, n, "tau_%d" % n)
    d0 = {n: precompose(n, n + step, d0_pre, "d_0 at %d" % n)
          for n in subs if 0 <= n + step <= N}
    s0 = {n: precompose(n, n - step, s0_pre, "s_0 at %d" % n)
          for n in subs if 0 <= n - step <= N}
    return subs, taus, d0, s0


# ---------------------------------------------------------------------------
# the grid


def _adjoint_module_algebra(h):
    """H as a module algebra over itself: h.a = h1 a S(h2)."""
    f = h.field
    action = {}
    for g in range(h.dim):
        for a in range(h.dim):
            out = {}
            for (g1, g2), v in h.coalgebra.comul[g].items():
                prod = multiply(h.algebra, multiply(h.algebra, {g1: f.one}, {a: f.one}),
                                apply_antipode(h, {g2: f.one}))
                for k, w in prod.items():
                    add_into(f, out, k, f.mul(v, w))
            action[(g, a)] = out
    return ModuleAlgebra(h, h.algebra, action, name="H adjoint")


def _coadjoint_comodule_coalgebra(h):
    """H as a comodule coalgebra over itself: h -> h1 S(h3) (x) h2."""
    f = h.field
    coaction = {}
    for g in range(h.dim):
        out = {}
        for (g1, g2, g3), v in iterated(h.coalgebra, {g: f.one}, 3).items():
            for k, w in multiply(h.algebra, {g1: f.one}, apply_antipode(h, {g3: f.one})).items():
                add_into(f, out, (k, g2), f.mul(v, w))
        coaction[g] = out
    return ComoduleCoalgebra(h, h.coalgebra, coaction, name="H coadjoint")


HOPFS = {"kZ/2": lambda f: fx.group_algebra(f, 2),
         "kZ/3": lambda f: fx.group_algebra(f, 3),
         "H4": fx.sweedler_hopf}
COEFFICIENTS = {
    "regular/regular": fx.regular_action_regular_coaction,
    "regular/trivial": fx.regular_action_trivial_coaction,
    # (g, eps) is in involution on all three, so C(B,M) is built over H4 too
    "modular pair (g, eps)": lambda h: modular_pair_module(
        h, ModularPair({1: h.field.one}, h.coalgebra.counit))}
FIELDS = (QQ, GF(7))
GRID = [(f, h, c) for f in FIELDS for h in HOPFS for c in COEFFICIENTS]


def _top(h, m):
    """The top degree, kept low enough for the basis-tuple reference to run
    in a few seconds: 2 over Q, where every entry is a Fraction; over GF(7)
    3, or 2 where the cover space X^{(x)4} (x) M would pass 256 dimensions
    (H4 with a 4-dimensional module).  The slot bookkeeping is the same
    over both fields."""
    if h.field == QQ or h.dim ** 4 * m.dim > 256:
        return 2
    return 3


def _ids(case):
    f, h, c = case
    return "%s-%s-%s" % (f, h, c)


def _outcome(build):
    """(result, None), or (None, (type name, text)) if build raises."""
    try:
        return build(), None
    except (cyclic.DescentFailure, cyclic.NotSAYD, CompatibilityFailure) as e:
        return None, (type(e).__name__, str(e))


def _read_every_map(x):
    """x, once each tau, face and degeneracy is built, in the order the
    reference builds them: a map leaving the colinear subspace raises."""
    for maps in (x.cyclic, x.faces, x.degeneracies):
        list(maps.values())
    return x


def _same(got, ref):
    assert got.keys() == ref.keys()
    for k in ref:
        assert got[k] == ref[k], k


@pytest.mark.parametrize("field,name", [(f, h) for f in FIELDS for h in HOPFS],
                         ids=lambda v: str(v))
def test_classical_cyclic_modules(field, name):
    h = HOPFS[name](field)
    N = 3
    x = cyclic.cyc_algebra(h.algebra, N)
    taus, faces, degs = ref_cyc_algebra(h.algebra, N)
    _same(x.cyclic, taus)
    _same(x.faces, faces)
    _same(x.degeneracies, degs)
    _same_conjugated(cyclic.cyc_coalgebra(h.coalgebra, N),
                     *ref_cyc_coalgebra(h.coalgebra, N))


def fill_by_conjugation(x, d0, s0):
    """Populate all faces/degeneracies from (d_0, s_0) and tau.

    Chain: the j-th map is tau^j m tau^-j; cochain: tau^-j m tau^j.  Each
    is the previous one conjugated once more, so no power is formed.
    """
    chain = x.orientation == cyclic.CHAIN
    for out, maps, indices, shift in (
            (x.faces, d0, x.face_indices, x.step),
            (x.degeneracies, s0, x.degeneracy_indices, -x.step)):
        for n, m in maps.items():
            tgt = n + shift
            for j in indices(n):
                if j:
                    m = (x.tau(tgt) * m * x.tau_inv(n) if chain
                         else x.tau_inv(tgt) * m * x.tau(n))
                out[(n, j)] = m


def _same_conjugated(x, taus, d0, s0):
    """x has the given tau, and the faces and degeneracies that d_0 and s_0
    give under the conjugation."""
    _same(x.cyclic, taus)
    ref = cyclic.ParaCyclicModule(x.field, x.orientation, x.spaces, {}, {}, taus)
    fill_by_conjugation(ref, d0, s0)
    _same(x.faces, ref.faces)
    _same(x.degeneracies, ref.degeneracies)


@pytest.mark.parametrize("case", GRID, ids=_ids)
def test_covers(case):
    field, name, coeff = case
    h = HOPFS[name](field)
    m = COEFFICIENTS[coeff](h)
    N = _top(h, m)
    for x, build in ((fx.regular_module_coalgebra(h), cyclic.cover_coalgebra),
                     (_adjoint_module_algebra(h), cyclic.cover_algebra)):
        t = build(x, m, N)
        taus, d0, s0, h_action = ref_cover(x, m, N)
        _same(t.h_action, h_action)
        _same_conjugated(t, taus, d0, s0)


@pytest.mark.parametrize("case", GRID, ids=_ids)
def test_colinear_hom_complexes(case):
    field, name, coeff = case
    h = HOPFS[name](field)
    m = COEFFICIENTS[coeff](h)
    N = _top(h, m)
    comodule_coalgebra = (fx.function_comodule_coalgebra(h) if name != "H4"
                          else _coadjoint_comodule_coalgebra(h))
    for base, build in ((fx.regular_comodule_algebra(h),
                         cyclic.hopf_cocyclic_comodule_algebra),
                        (comodule_coalgebra, cyclic.hopf_cyclic_comodule_coalgebra)):
        # the maps are built on first read, so read them all
        got, raised = _outcome(lambda: _read_every_map(build(base, m, N)))
        if check_sayd(m):
            # C(B,M) and C(Z,M) are refused before anything is built
            assert raised == ("NotSAYD", "; ".join(check_sayd(m)))
            if build is cyclic.hopf_cocyclic_comodule_algebra:
                continue
            # the C(Z,M) construction behind the check still matches the
            # reference, descent failure included
            got, raised = _outcome(lambda: _read_every_map(cyclic._hom_module(
                field, h, m, base, N, cyclic.CHAIN, "C(Z,M)")))
        ref, ref_raised = _outcome(lambda: ref_hom(base, m, N))
        assert raised == ref_raised
        if ref_raised:
            continue
        subs, taus, d0, s0 = ref
        assert got.meta["sub"] == subs
        _same_conjugated(got, taus, d0, s0)
