"""Simplicial/cyclic axioms and the equivariant quotient tower."""

import re

import pytest

from hopfcyclic import (QQ, GF, Matrix, ModularPair, check_axioms,
                        constant_modules, cyc_algebra, cyc_coalgebra,
                        cyclic_dual, diag_hom, diag_tensor,
                        hopf_cyclic_complex, hopf_cocyclic_comodule_algebra,
                        hopf_cyclic_comodule_coalgebra, modular_pair_module,
                        trivial_modcomodule)
from hopfcyclic import cyclic
from hopfcyclic.cyclic import (cover_coalgebra, cover_algebra, compute_J,
                               quotient_module, coinvariants, truncate,
                               CHAIN, COCHAIN, DescentFailure,
                               InvertibilityFailure, ParaCyclicModule)
from hopfcyclic.hopf import ModuleCoalgebra, algebra_generators, check_sayd
from hopfcyclic.linalg import Subspace
from hopfcyclic.pairings import _tower
from hopfcyclic import fixtures as fx
from _descent import read_every_map


def test_constant_modules_axioms():
    k_co, k_cy = constant_modules(QQ, 4)
    assert check_axioms(k_co) == []
    assert check_axioms(k_cy) == []
    assert k_co.orientation == COCHAIN and k_cy.orientation == CHAIN


def test_cyc_of_algebras_axioms():
    for a in (fx.dual_numbers_algebra(), fx.product_field_algebra(),
              fx.group_algebra(QQ, 2).algebra):
        x = cyc_algebra(a, 4)
        assert check_axioms(x) == []
        assert x.is_cyclic()


def test_cyc_of_coalgebra_axioms(kz2):
    x = cyc_coalgebra(kz2.coalgebra, 4)
    assert check_axioms(x) == []
    assert x.is_cyclic()
    assert x.dims() == {n: 2 ** (n + 1) for n in range(5)}


def test_cover_is_paracyclic_but_not_cyclic(kz2_coalgebra_cover):
    t = kz2_coalgebra_cover
    assert check_axioms(t) == []
    # the quotient is doing work: tau_1^2 != id already on the cover
    assert t.tau_power(1, 2) != Matrix.identity(t.field, t.spaces[1])
    assert not t.is_cyclic()


def test_quotient_and_coinvariants_are_cyclic(kz2_coalgebra_tower):
    t, j, q, c = kz2_coalgebra_tower
    for x in (q, c):
        assert check_axioms(x) == []
        assert x.is_cyclic()


def test_hopf_cyclic_pipeline_dims(kz2_hopf_complex):
    c = kz2_hopf_complex
    assert c.dims() == {n: 2 ** n for n in range(5)}
    assert check_axioms(c) == []
    assert c.is_cyclic()


def test_algebra_side_pipeline(kz2_algebra_complex):
    c = kz2_algebra_complex
    assert c.orientation == CHAIN
    assert check_axioms(c) == []
    assert c.is_cyclic()


def test_compute_j_buffer_stability(kz2_coalgebra_cover):
    t = kz2_coalgebra_cover
    j2 = compute_J(t, buffer=2)
    j3 = compute_J(t, buffer=3)
    for n in set(j2) & set(j3):
        assert j2[n].dim == j3[n].dim


@pytest.mark.parametrize("buffer", [-3, -1, 0])
def test_buffer_below_one_is_refused(kz2_coalgebra_cover, pair_g, buffer):
    # buffer 0 would skip the stability certificate, and a negative one
    # would build a cover without degree 0
    with pytest.raises(ValueError, match="buffer must be at least 1"):
        compute_J(kz2_coalgebra_cover, buffer=buffer)
    mc = fx.regular_module_coalgebra(kz2_coalgebra_cover.hopf)
    for level in ("Q", "C"):
        with pytest.raises(ValueError, match="buffer must be at least 1"):
            hopf_cyclic_complex(mc, pair_g, 2, buffer=buffer, level=level)


def _top_twisted_module(field):
    """A cochain module over H = k on three 1-dimensional degrees whose one
    nonzero twist T_n - id sits at the top degree: tau = 1, -1, 2, so T is
    1, 1, 8.  Each face and degeneracy of index j >= 1 is scaled from the
    one of index j - 1 so that the tau-conjugation identities compute_J
    certifies hold; the degeneracies carry J_2 down to J_1 and J_0."""
    tau = {0: field(1), 1: field(-1), 2: field(2)}

    def scalar(c):
        return Matrix(field, 1, 1, {(0, 0): c} if c else {})
    faces, degs = {}, {}
    for n in (0, 1):   # d^j tau_n = tau_{n+1} d^{j+1}
        c = field.one
        for j in range(n + 2):
            faces[n, j] = scalar(c)
            c = field.mul(c, field.mul(tau[n], field.inv(tau[n + 1])))
    for n in (1, 2):   # s^j tau_n = tau_{n-1} s^{j+1}
        c = field.one
        for j in range(n):
            degs[n, j] = scalar(c)
            c = field.mul(c, field.mul(tau[n], field.inv(tau[n - 1])))
    return ParaCyclicModule(
        field, COCHAIN, {0: 1, 1: 1, 2: 1}, faces, degs,
        {n: scalar(c) for n, c in tau.items()},
        h_action={(n, 0): scalar(field.one) for n in range(3)},
        hopf=fx.trivial_hopf(field))


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "GF10007"])
def test_a_seed_only_at_the_top_degree_warns_of_an_unstable_truncation(field):
    # J is all of X, but truncated to degrees 0 and 1 the module has no
    # seed: the certified range 0..N - 1 has not settled
    t = _top_twisted_module(field)
    with pytest.warns(cyclic.UnstableTruncation) as caught:
        j = compute_J(t, buffer=1)
    assert {n: j[n].dim for n in sorted(j)} == {0: 1, 1: 1, 2: 1}
    assert [str(w.message) for w in caught] == [
        "J dimensions not yet stable at degree %d (1 vs 0)" % n for n in (0, 1)]
    # buffer 2 certifies degree 0 only
    with pytest.warns(cyclic.UnstableTruncation) as caught:
        compute_J(_top_twisted_module(field), buffer=2)
    assert [str(w.message) for w in caught] == [
        "J dimensions not yet stable at degree 0 (1 vs 0)"]


def test_coinvariants_of_quotient_match_direct_coinvariants(kz2, pair_triv,
                                                           pair_g, sayd_reg):
    """k (x)_H Q has the same dimensions as k (x)_H T on stable
    anti-Yetter-Drinfeld coefficients: the quotient changes nothing that
    the coinvariants would not also kill."""
    mc = fx.regular_module_coalgebra(kz2)
    for m in (pair_triv, pair_g, sayd_reg):
        t = cover_coalgebra(mc, m, 3)
        q = quotient_module(t, compute_J(t, buffer=2))
        assert coinvariants(q).dims() == coinvariants(t).dims()


def test_j_contains_the_paracyclic_defect(kz2, pair_g):
    mc = fx.regular_module_coalgebra(kz2)
    t = cover_coalgebra(mc, pair_g, 3)
    j = compute_J(t, buffer=2)
    f = t.field
    for n in range(4):
        defect = t.T(n) - Matrix.identity(f, t.spaces[n])
        for col in defect.columns():
            if col:
                assert j[n].contains(col)


def test_colinear_complexes_axioms(kz2, pair_g):
    b = fx.regular_comodule_algebra(kz2)
    cb = hopf_cocyclic_comodule_algebra(b, pair_g, 4)
    assert check_axioms(cb) == []
    assert cb.is_cyclic()
    z = fx.function_comodule_coalgebra(kz2)
    cz = hopf_cyclic_comodule_coalgebra(z, pair_g, 4)
    assert check_axioms(cz) == []
    assert cz.is_cyclic()


def test_diag_hom_and_tensor_axioms(kz2_hopf_complex, kz2_algebra_complex):
    d = diag_hom(kz2_hopf_complex, kz2_algebra_complex, 3)
    assert check_axioms(d) == []
    u = truncate(kz2_algebra_complex, 3)
    t = diag_tensor(u, u)
    assert check_axioms(t) == []
    assert t.dims() == {n: u.spaces[n] ** 2 for n in range(4)}


def test_cyclic_dual_is_an_involution(kz2_hopf_complex):
    x = kz2_hopf_complex
    d = cyclic_dual(x)
    assert d.orientation == CHAIN
    assert check_axioms(d) == []
    dd = cyclic_dual(d)
    assert dd.orientation == COCHAIN
    assert dd.spaces == x.spaces
    for key in x.faces:
        assert dd.faces[key] == x.faces[key]
    for key in x.degeneracies:
        assert dd.degeneracies[key] == x.degeneracies[key]
    for n in x.spaces:
        assert dd.tau(n) == x.tau(n)


def test_dual_refuses_paracyclic_input(kz2_coalgebra_cover):
    from hopfcyclic.cyclic import InvertibilityFailure
    with pytest.raises(InvertibilityFailure):
        cyclic_dual(kz2_coalgebra_cover)


def test_truncate(kz2_hopf_complex):
    t = truncate(kz2_hopf_complex, 2)
    assert t.N == 2
    assert set(t.spaces) == {0, 1, 2}
    # cochain faces raise degree, so sources stop one below the cutoff
    assert (1, 0) in t.faces and (2, 0) not in t.faces


def test_cover_algebra_orientation(kz2, pair_triv):
    ma = fx.dual_numbers_module_algebra(kz2)
    t = cover_algebra(ma, pair_triv, 3)
    assert t.orientation == CHAIN
    assert check_axioms(t) == []
    assert t.dims() == {n: 2 ** (n + 1) for n in range(4)}


def _module_with_tau(tau):
    return ParaCyclicModule(QQ, COCHAIN, {0: tau.rows}, {}, {}, {0: tau})


def test_singular_tau_is_reported_as_not_invertible():
    x = _module_with_tau(Matrix(QQ, 2, 2, {(0, 0): QQ.one, (0, 1): QQ.one}))
    with pytest.raises(InvertibilityFailure):
        x.tau_inv(0)


def test_tau_inv_lets_other_errors_through(monkeypatch):
    def broken(self):
        raise TypeError("bug inside inverse")
    monkeypatch.setattr(Matrix, "inverse", broken)
    with pytest.raises(TypeError, match="bug inside inverse"):
        _module_with_tau(Matrix.identity(QQ, 2)).tau_inv(0)


def _inverses(monkeypatch):
    """The matrices Matrix.inverse is called on from now, in call order."""
    calls, inverse = [], Matrix.inverse

    def spy(self):
        calls.append(self)
        return inverse(self)
    monkeypatch.setattr(Matrix, "inverse", spy)
    return calls


def test_covers_and_classical_modules_form_no_inverse(monkeypatch):
    # faces and degeneracies are slot maps, the wrap-around face a product
    # with tau: no tau^-1 is formed to build them
    h2, h4 = fx.group_algebra(QQ, 2), fx.sweedler_hopf(QQ)
    ma, m2 = fx.dual_numbers_module_algebra(h2), trivial_modcomodule(h2)
    mc, m4 = fx.regular_module_coalgebra(h4), trivial_modcomodule(h4)
    calls = _inverses(monkeypatch)
    cover_algebra(ma, m2, 3)
    cover_coalgebra(mc, m4, 3)
    cyc_coalgebra(h4.coalgebra, 3)
    cyc_algebra(h4.algebra, 3)
    assert calls == []


def test_colinear_hom_complexes_form_no_inverse(monkeypatch):
    # every face and degeneracy precomposes with a slot map, the
    # wrap-around face is a product with tau: no tau^-1 is formed
    h = fx.group_algebra(QQ, 2)
    m = modular_pair_module(h, ModularPair({1: QQ.one}, h.coalgebra.counit))
    calls = _inverses(monkeypatch)
    for x in (hopf_cocyclic_comodule_algebra(fx.regular_comodule_algebra(h), m, 3),
              hopf_cyclic_comodule_coalgebra(fx.function_comodule_coalgebra(h), m, 3)):
        for maps in (x.cyclic, x.faces, x.degeneracies):   # built on first read
            list(maps.values())
    assert calls == []


def test_compute_J_takes_the_rank_of_tau_exactly_where_J_is_nonzero(monkeypatch):
    t = _sweedler_cover(3)
    inverses, ranks, rank = _inverses(monkeypatch), [], Matrix.rank

    def spy(self):
        ranks.append(self)
        return rank(self)
    monkeypatch.setattr(Matrix, "rank", spy)
    j = compute_J(t)
    nonzero = [n for n in sorted(t.spaces) if j[n].dim]
    assert nonzero and nonzero != sorted(t.spaces)
    assert inverses == []
    assert [id(c) for c in ranks] == [id(t.tau(n)) for n in nonzero]


def test_the_epi_check_on_j_free_covers_forms_no_inverse(monkeypatch):
    from hopfcyclic.pairings import diag_tensor_epi_check
    h = fx.group_algebra(QQ, 2)
    ma, m = fx.dual_numbers_module_algebra(h), trivial_modcomodule(h)
    calls = _inverses(monkeypatch)
    assert diag_tensor_epi_check(ma, ma, m, m, 2)["surjective"]
    assert calls == []


def test_a_singular_tau_stops_compute_J_before_its_record():
    t = _sweedler_cover(2)
    # T_0 - id = -id seeds all of J_0, so tau_0's rank is taken first
    t.cyclic[0] = Matrix.zero(t.field, t.spaces[0], t.spaces[0])
    with pytest.raises(InvertibilityFailure, match="tau_0 is not invertible"):
        compute_J(t)
    assert t._certified == {}


def test_check_axioms_certifies_tau_by_rank(monkeypatch):
    broken = cyc_coalgebra(fx.group_algebra(QQ, 2).coalgebra, 3)
    broken.cyclic[0] = Matrix(QQ, 2, 2, {(0, 0): QQ.one, (0, 1): QQ.one})
    cover = _sweedler_cover(3)
    chain = cyc_algebra(fx.sweedler_hopf(QQ).algebra, 3)
    calls = _inverses(monkeypatch)
    # a singular tau_0 is named, and nothing else is checked
    assert check_axioms(broken) == ["InvertibilityFailure: tau_0"]
    # a valid cochain cover and a valid chain module: no inverse is formed
    assert check_axioms(cover) == [] and check_axioms(chain) == []
    assert calls == []


def _corrupt_face(x, key):
    """x with one face changed by E_00: the identities through it break."""
    m = x.faces[key]
    x.faces[key] = m + Matrix(x.field, m.rows, m.cols, {(0, 0): x.field.one})
    return x


def test_check_axioms_names_a_broken_chain_face():
    x = _corrupt_face(cyc_algebra(fx.dual_numbers_algebra(), 4), (2, 1))
    report = check_axioms(x)
    assert report
    assert any(re.search(r"\bd[_^]\d+ d[_^]\d+ !=", line) for line in report)


def test_check_axioms_names_every_identity_a_cochain_face_breaks(kz2):
    x = _corrupt_face(cyc_coalgebra(kz2.coalgebra, 3), (1, 1))
    assert check_axioms(x) == [
        "d^1 d^0 != d^0 d^0 at n=0", "d^2 d^1 != d^1 d^1 at n=0",
        "d^2 d^0 != d^0 d^1 at n=1", "d^3 d^1 != d^1 d^2 at n=1",
        "s^0 d^1 != id at n=1", "s^1 d^1 != id at n=1",
        "tau d^1 != d^0 tau at n=1", "tau d^2 != d^1 tau at n=1",
        "s^2 d^1 != d^1 s^1 at n=2", "s^0 d^2 != d^1 s^0 at n=2"]


# ---------------------------------------------------------------------------
# output-range descent against the full-tower route


def full_tower_route(t, j, N):
    """Reference: Q and C descended on every degree of the cover t, then
    truncated to 0..N, as hopf_cyclic_complex formed them before."""
    q = quotient_module(t, j)
    return {"Q": truncate(q, N), "C": truncate(coinvariants(q), N)}


def _pipeline_case(name, field):
    one = field.one
    if name == "kZ2-pair":
        h = fx.group_algebra(field, 2)
        return (fx.regular_module_coalgebra(h),
                modular_pair_module(h, ModularPair({1: one}, {0: one, 1: one})), 3)
    if name == "kZ3-pair":
        h = fx.group_algebra(field, 3)
        return (fx.regular_module_coalgebra(h),
                modular_pair_module(h, ModularPair({1: one},
                                                   {0: one, 1: one, 2: one})), 2)
    if name == "sweedler-regular-trivial":
        h = fx.sweedler_hopf(field)
        return fx.regular_module_coalgebra(h), trivial_modcomodule(h), 1
    h = fx.group_algebra(field, 2)
    return (fx.dual_numbers_module_algebra(h),
            trivial_modcomodule(h), 3)


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("name", ["kZ2-pair", "kZ3-pair",
                                  "sweedler-regular-trivial",
                                  "dual-numbers-algebra"])
def test_output_range_descent_matches_the_full_tower(name, field, monkeypatch):
    # the reference descends the very cover and J the paper route built;
    # spaces, structure maps, H-action and the tower maps must agree.  C is
    # taken on the paper route explicitly, as the coinvariants of level Q,
    # since level C of SAYD coefficients builds no J.
    seen = []
    real = cyclic.compute_J

    def recording(t, buffer=2):
        seen.append((t, real(t, buffer=buffer)))
        return seen[-1][1]

    monkeypatch.setattr(cyclic, "compute_J", recording)
    c_or_a, m, N = _pipeline_case(name, field)
    q = hopf_cyclic_complex(c_or_a, m, N, level="Q")
    got = {"Q": q, "C": coinvariants(q)}
    (t, j), = seen
    for level, want in full_tower_route(t, j, N).items():
        x = got[level]
        assert x.N == N and x.spaces == want.spaces, level
        assert x.orientation == want.orientation
        for attr in ("faces", "degeneracies", "cyclic", "h_action"):
            assert getattr(x, attr) == getattr(want, attr), (level, attr)
        _, x_proj, x_sect = _tower(x)
        _, want_proj, want_sect = _tower(want)
        assert sorted(x_proj) == sorted(x_sect) == list(range(N + 1))
        for n in range(N + 1):
            assert x_proj[n] == want_proj[n], (level, n)
            assert x_sect[n] == want_sect[n], (level, n)
    assert got["Q"].h_action and got["C"].h_action is None


# ---------------------------------------------------------------------------
# the SAYD route against the paper route

SAYD_CASES = ["kZ2-pair", "kZ3-pair", "dual-numbers-algebra", "sweedler-eg"]


def _sayd_case(name, field):
    """The module (co)algebra and SAYD coefficients of a SAYD case: the
    modular pair (eps, g) on kZ/2, kZ/3 and Sweedler's H4, the trivial
    pair on the dual numbers."""
    if name == "sweedler-eg":
        h, one = fx.sweedler_hopf(field), field.one
        return (fx.regular_module_coalgebra(h),
                modular_pair_module(h, ModularPair({1: one}, {0: one, 1: one})))
    return _pipeline_case(name, field)[:2]


def _sweedler_trivial_pair(field):
    h = fx.sweedler_hopf(field)
    return fx.regular_module_coalgebra(h), trivial_modcomodule(h)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("name", SAYD_CASES)
def test_the_sayd_route_gives_the_paper_routes_matrices(name, field):
    # for SAYD M, J lies in H+T, so the coinvariants of the degree-N cover
    # are the paper route's C = (T/J)/H+(T/J), map for map, with the same
    # projection and section: both take the non-pivots of one reduced basis
    c_or_a, m = _sayd_case(name, field)
    assert check_sayd(m) == []
    N = 3
    got = hopf_cyclic_complex(c_or_a, m, N)
    want = coinvariants(hopf_cyclic_complex(c_or_a, m, N, level="Q"))
    assert got.name == want.name and got.spaces == want.spaces
    assert "parent" not in got.meta["parent"].meta   # C of the cover itself
    assert got.meta["parent"].N == N
    for attr in ("faces", "degeneracies", "cyclic"):
        assert getattr(got, attr) == getattr(want, attr), attr
    (_, got_proj, got_sect), (_, want_proj, want_sect) = _tower(got), _tower(want)
    for n in range(N + 1):
        assert got_proj[n] == want_proj[n] and got_sect[n] == want_sect[n], n


def test_compute_J_runs_on_the_paper_route_only(monkeypatch):
    calls = []
    real = cyclic.compute_J

    def counting(t, buffer=2):
        calls.append(t.name)
        return real(t, buffer=buffer)

    monkeypatch.setattr(cyclic, "compute_J", counting)
    for name in SAYD_CASES:
        for field in (QQ, GF(3)):
            hopf_cyclic_complex(*_sayd_case(name, field), 2)
    assert calls == []
    mc, m = _sweedler_trivial_pair(QQ)
    assert check_sayd(m)   # Sweedler's trivial pair (eps, 1) is not SAYD
    hopf_cyclic_complex(mc, m, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_the_sayd_route_fails_on_coefficients_that_are_not_sayd(field):
    # negative control: on Sweedler (eps, 1) the coinvariants of the cover
    # are not cocyclic, and the descent check names the first face that
    # does not descend, read in the order the maps were formed;
    # hopf_cyclic_complex takes the paper route there
    mc, m = _sweedler_trivial_pair(field)
    with pytest.raises(DescentFailure, match=re.escape(
            "face (0,1) does not preserve the subspace (degree 0)")):
        read_every_map(coinvariants(cover_coalgebra(mc, m, 2)))


def test_a_non_generator_action_leaving_j_above_the_output_range_fails(monkeypatch):
    # Sweedler's gx (basis index 3) is not an algebra generator, so no
    # closure applies its L_h; nor is the unit (index 0).  Above N only the
    # identity certificate of compute_J reads them there.  L_h + E with
    # E = e_k e_p0^T sends the J basis vector with pivot p0 to L_h b + e_k,
    # outside J since e_k is, and breaks L_g L_h = L_gh (gx = g x) or L_1 = id.
    field, N = GF(10007), 1
    h = fx.sweedler_hopf(field)
    mc, m = fx.regular_module_coalgebra(h), trivial_modcomodule(h)
    j = compute_J(cover_coalgebra(mc, m, N + 2))
    real = cyclic.cover_coalgebra
    for x, identity in ((3, "L_g L_h = L_gh (g=1, h=2)"), (0, "L_1 = id")):
        assert x not in algebra_generators(h)

        def corrupting(c, mod, top):
            t = real(c, mod, top)
            for n in (N + 1, N + 2):
                k = next(i for i in range(t.spaces[n])
                         if not j[n].contains({i: field.one}))
                t.h_action[(n, x)] = _plus_unit(t.h_action[(n, x)], k,
                                                j[n].pivots[0])
            return t

        monkeypatch.setattr(cyclic, "cover_coalgebra", corrupting)
        msg = "%s fails at degree %d" % (identity, N + 1)
        with pytest.raises(DescentFailure, match=re.escape(msg)):
            hopf_cyclic_complex(mc, m, N, level="Q")


# ---------------------------------------------------------------------------
# the identity certificate of compute_J and the descent sweeps it replaces


def _plus_unit(m, i, j):
    """m + e_i e_j^T."""
    f = m.field
    return m + Matrix(f, m.rows, m.cols, {(i, j): f.one})


def _sweedler_cover(N):
    h = fx.sweedler_hopf(GF(10007))
    return cover_coalgebra(fx.regular_module_coalgebra(h),
                           trivial_modcomodule(h), N)


def _dual_numbers_cover(N):
    field = GF(10007)
    h = fx.group_algebra(field, 2)
    return cover_algebra(fx.dual_numbers_module_algebra(h),
                         fx.regular_action_regular_coaction(h), N)


def _break_face(t):
    t.faces[(2, 1)] = _plus_unit(t.faces[(2, 1)], 0, 0)


def _conjugate_actions(t):
    """Every L_h at degree 2 conjugated by P = id + e_0 e_1^T: h -> L_h is
    still an algebra map, but the L_g no longer commute with the maps
    into and out of degree 2."""
    f, dim = t.field, t.spaces[2]
    one, e = Matrix.identity(f, dim), Matrix(f, dim, dim, {(0, 1): f.one})
    p, p_inv = one + e, one - e
    for h in range(t.hopf.dim):
        t.h_action[(2, h)] = p * t.h_action[(2, h)] * p_inv


def _break_multiplicativity(t):
    t.h_action[(1, 3)] = t.h_action[(1, 3)].scale(2)


def _scale_unit_action(t):
    """L_1 = 2 id at degree 1: it still commutes with tau."""
    t.h_action[(1, 0)] = t.h_action[(1, 0)].scale(2)


def _shear_unit_action(t):
    """L_1 = id + e_0 e_1^T at degree 2."""
    t.h_action[(2, 0)] = _plus_unit(t.h_action[(2, 0)], 0, 1)


@pytest.mark.parametrize("cover, top, damage, message", [
    # chain: d_j tau = tau d_{j-1}; cochain: d^{j-1} tau = tau d^j
    (_sweedler_cover, 3, _break_face, "d^0 tau = tau d^1 fails at degree 2"),
    (_dual_numbers_cover, 3, _break_face, "d_1 tau = tau d_0 fails at degree 2"),
    # the cochain d_0 and the chain s_0 go from degree 1 into degree 2
    (_sweedler_cover, 3, _conjugate_actions,
     "L_g d_0 = d_0 L_g (g=1) fails at degree 1"),
    (_dual_numbers_cover, 3, _conjugate_actions,
     "L_g s_0 = s_0 L_g (g=1) fails at degree 1"),
    # L_gx doubled is no longer L_g L_x
    (_sweedler_cover, 2, _break_multiplicativity,
     "L_g L_h = L_gh (g=1, h=2) fails at degree 1"),
    # an L_1 that is not the identity has its commutator formed as a seed
    (_sweedler_cover, 2, _scale_unit_action, "L_1 = id fails at degree 1"),
    (_sweedler_cover, 3, _shear_unit_action, "L_1 = id fails at degree 2"),
    (_dual_numbers_cover, 3, _shear_unit_action, "L_1 = id fails at degree 2"),
], ids=["cochain face", "chain face", "L_g d_0", "L_g s_0", "multiplicative",
        "scaled L_1", "sheared L_1", "sheared chain L_1"])
def test_a_broken_identity_fails_compute_j_by_name(cover, top, damage, message):
    t = cover(top)
    damage(t)
    with pytest.raises(DescentFailure, match=re.escape(message)):
        compute_J(t, buffer=1)


def _leaving_j(t, j, kind, key):
    """Replace a map of t with source degree n = key[0], after compute_J,
    by one sending J_n's first basis vector outside J; tau_n has key (n,)."""
    n = key[0]
    maps, tgt = {"face": (t.faces, n + t.step), "L_h": (t.h_action, n),
                 "tau": (t.cyclic, n)}[kind]
    k = next(i for i in range(t.spaces[tgt]) if not j[tgt].contains({i: t.field.one}))
    slot = n if kind == "tau" else key
    maps[slot] = _plus_unit(maps[slot], k, j[n].pivots[0])


def _descent_paths(monkeypatch, change):
    """Run change(t, j) right after compute_J, then descend and read every
    map: on the full Sweedler cover of degree 3, and on the output range
    of hopf_cyclic_complex at N = 2.  Each must raise DescentFailure."""
    t = _sweedler_cover(3)
    j = compute_J(t)
    change(t, j)
    with pytest.raises(DescentFailure) as full:
        read_every_map(quotient_module(t, j))
    real = cyclic.compute_J

    def changing(t, buffer=2):
        j = real(t, buffer=buffer)
        change(t, j)
        return j

    monkeypatch.setattr(cyclic, "compute_J", changing)
    h = fx.sweedler_hopf(GF(10007))
    with pytest.raises(DescentFailure) as truncated:
        read_every_map(hopf_cyclic_complex(fx.regular_module_coalgebra(h),
                                           trivial_modcomodule(h), 2,
                                           level="Q"))
    return str(full.value), str(truncated.value)


@pytest.mark.parametrize("kind, key", [("L_h", (2, 3)), ("L_h", (1, 0)),
                                       ("face", (1, 1)), ("face", (1, 0)),
                                       ("L_h", (2, 1)), ("tau", (1,))],
                         ids=["L_gx", "unit L_h", "face", "d_0", "L_g", "tau"])
def test_a_map_replaced_after_compute_j_is_swept_again(kind, key, monkeypatch):
    # compute_J's record names the maps its closure and identities read; a
    # replaced map is checked vector by vector again, on the full tower and
    # on the output range hopf_cyclic_complex descends
    tag = "tau_%d" % key if kind == "tau" else "%s (%d,%d)" % (kind, *key)
    msg = "%s does not preserve the subspace (degree %d)" % (tag, key[0])
    got = _descent_paths(monkeypatch, lambda t, j: _leaving_j(t, j, kind, key))
    assert got == (msg, msg)


def test_a_j_grown_after_compute_j_is_swept_again(monkeypatch):
    # the same Subspace object, one vector larger: the record's dimension no
    # longer matches, so d_0 is checked on the grown J_1 and sends the new
    # vector outside J_2
    def grow(t, j):
        k = next(i for i in range(t.spaces[1]) if not j[1].contains({i: t.field.one}))
        assert j[1].add_vector({k: t.field.one})

    msg = "face (1,0) does not preserve the subspace (degree 1)"
    assert _descent_paths(monkeypatch, grow) == (msg, msg)


def test_d_0_into_a_replaced_j_is_swept_again(monkeypatch):
    # J_1 is the one compute_J certified, but the subspace at d_0's target
    # degree is not: d_0 is checked on J_1 and leaves the zero subspace
    def replace(t, j):
        j[2] = Subspace(t.field, t.spaces[2])

    msg = "face (1,0) does not preserve the subspace (degree 1)"
    assert _descent_paths(monkeypatch, replace) == (msg, msg)


def _maps_by_key(t):
    """Every structure map of t, keyed as _descend and compute_J's record
    key it: (kind, source degree, index) -> (the Matrix, target degree)."""
    out = {("tau", n, 0): (t.tau(n), n) for n in t.spaces}
    out.update({("L_h", *k): (m, k[0]) for k, m in t.h_action.items()})
    for kind, maps, shift in (("face", t.faces, t.step),
                              ("degeneracy", t.degeneracies, -t.step)):
        out.update({(kind, *k): (m, k[0] + shift) for k, m in maps.items()})
    return out


def test_a_tau_replaced_by_an_equal_matrix_is_the_only_map_swept_again(
        monkeypatch):
    # the record proves each map on its own: a new tau_1 equal to the old
    # one is checked on J_1 vector by vector, and no face, degeneracy or
    # L_g whose proof read tau_1 is; the L_h of the other basis elements
    # are not in the record and are checked wherever J is nonzero
    t = _sweedler_cover(3)
    j = compute_J(t)
    gens = algebra_generators(t.hopf)
    unrecorded = {("L_h", n, h) for n in t.spaces if j[n].dim
                  for h in range(t.hopf.dim) if h not in gens}
    old = t.tau(1)
    t.cyclic[1] = old.scale(1)
    assert t.tau(1) == old and t.tau(1) is not old
    keys = {id(m): key for key, (m, _) in _maps_by_key(t).items()}
    swept, apply = set(), Matrix.apply

    def spy(self, vec):
        if id(self) in keys:
            swept.add(keys[id(self)])
        return apply(self, vec)
    monkeypatch.setattr(Matrix, "apply", spy)
    read_every_map(quotient_module(t, j))
    assert unrecorded and swept == {("tau", 1, 0)} | unrecorded


def test_truncate_carries_the_certificate_record():
    t = _sweedler_cover(3)
    j = compute_J(t)
    u = truncate(t, 2)
    kept = [k for k in t._certified if k[1] <= 2]
    assert kept and sorted(u._certified) == sorted(kept)
    assert all(u._certified[k] is t._certified[k] for k in kept)
    # one entry per map out of each degree where J is nonzero, tau, the
    # faces, the degeneracies and the generators' L_g, holding that map,
    # the very J at its source and target degrees and the dimensions those
    # had; the L_h of the other basis elements are not recorded
    maps, gens = _maps_by_key(t), algebra_generators(t.hopf)
    assert sorted(t._certified) == sorted(
        k for k in maps if j[k[1]].dim and (k[0] != "L_h" or k[2] in gens))
    for key, (m, src, tgt, dims) in t._certified.items():
        n, (mine, after) = key[1], maps[key]
        assert m is mine and src is j[n] and tgt is j[after]
        assert dims == (j[n].dim, j[after].dim)
    # a module built by _descend has no record of its own
    q = quotient_module(u, {n: j[n] for n in range(3)})
    assert q._certified == {} and coinvariants(q)._certified == {}
