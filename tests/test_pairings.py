"""Characteristic morphisms, traces, cocycles and cup products."""

import pytest

from hopfcyclic import (QQ, GF, alpha, beta, xi, star, invariant_traces,
                        cyclic_cocycles, from_cyclic_cocycle,
                        classes_from_cohomology, cup_with_trace,
                        crossed_cocup_with_invariant,
                        cm_char_map, pullback, diag_tensor_epi_check,
                        modular_pair_module, trivial_modcomodule,
                        NotCocycle, HypothesisFailure, NotEquivariant,
                        ModularPair, AgreementFailure, DescentFailure)
from hopfcyclic import (cover_algebra, cover_coalgebra, cyc_algebra,
                        hopf_cyclic_complex, homology, pairings)
from hopfcyclic.pairings import CochainClass
from hopfcyclic.homology import Total
from hopfcyclic.cyclic import ModuleMorphism
from hopfcyclic import fixtures as fx


@pytest.fixture(scope="module")
def pairing(kz2):
    return fx.action_pairing(fx.regular_module_coalgebra(kz2),
                             fx.dual_numbers_module_algebra(kz2))


@pytest.fixture(scope="module")
def alpha_mor(pairing, pair_triv):
    return alpha(pairing, pair_triv, 3)


@pytest.fixture(scope="module")
def xi_mor(kz2, pair_triv):
    zc = fx.function_comodule_coalgebra(kz2)
    mc = fx.regular_module_coalgebra(kz2)
    return xi(zc, mc, pair_triv, 3)


def test_alpha_commutes_with_all_structure_maps(alpha_mor):
    assert alpha_mor.verify() == []


def test_alpha_rejects_non_equivariant_pairings(kz2, pair_triv):
    from hopfcyclic.hopf import EquivariantPairing
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    f = QQ
    # phi(c, a) = a ignores c entirely and is not multiplicative
    phi = {(c, a): {a: f.one} for c in range(2) for a in range(2)}
    bad = EquivariantPairing(mc, ma, phi)
    with pytest.raises(NotEquivariant):
        alpha(bad, pair_triv, 2)


def test_alpha_descent_failure_is_caught(pairing, pair_triv, monkeypatch):
    """Negative control: against the unquotiented cover T(A,M) the lift
    does not descend, and the certificate names the first degree."""
    real = pairings.hopf_cyclic_complex

    def cover_for_the_algebra(c_or_a, m, N, **kw):
        if c_or_a is pairing.alg:
            return cover_algebra(c_or_a, m, N)
        return real(c_or_a, m, N, **kw)
    monkeypatch.setattr(pairings, "hopf_cyclic_complex", cover_for_the_algebra)
    with pytest.raises(DescentFailure, match="alpha does not descend at degree 0"):
        alpha(pairing, pair_triv, 2)


def test_xi_forms_disagree_before_coinvariants(kz2, pair_triv, monkeypatch):
    """Negative control: the two forms of xi agree only after the
    coinvariance relations, so on Q(C,M) the certificate fires."""
    zc = fx.function_comodule_coalgebra(kz2)
    mc = fx.regular_module_coalgebra(kz2)
    real = pairings.hopf_cyclic_complex
    monkeypatch.setattr(pairings, "hopf_cyclic_complex",
                        lambda c_or_a, m, N: real(c_or_a, m, N, level="Q"))
    with pytest.raises(AgreementFailure,
                       match="the two displayed forms of xi disagree at degree 1"):
        xi(zc, mc, pair_triv, 2)


def test_sparse_structure_tables_read_missing_keys_as_zero(sweedler):
    """A table without the keys of its zero vectors, as check_structure
    accepts it, gives the same generators, pairing and beta as its io
    round trip, which lists every key."""
    from hopfcyclic.hopf import (AlgebraData, HopfAlgebraData, algebra_generators,
                                 check_structure)
    from hopfcyclic.io import parse_string, serialize
    mul = {k: v for k, v in sweedler.algebra.mul.items() if v}
    sparse = HopfAlgebraData(AlgebraData(QQ, 4, mul, sweedler.algebra.unit),
                             sweedler.coalgebra, sweedler.antipode)
    assert len(mul) < 16 and check_structure(sparse) == []
    assert algebra_generators(sparse) == algebra_generators(
        parse_string(serialize(sparse))) == [1, 2]
    ma = fx.dual_numbers_module_algebra(sweedler)
    assert (2, 0) not in ma.action and check_structure(ma) == []
    full = parse_string(serialize(ma))
    mc = fx.regular_module_coalgebra(sweedler)
    assert fx.action_pairing(mc, ma).phi == fx.action_pairing(mc, full).phi
    ca = fx.regular_comodule_algebra(sweedler)
    m = modular_pair_module(sweedler, ModularPair({1: QQ.one}, sweedler.coalgebra.counit))
    assert beta(ma, ca, m, 1).maps == beta(full, ca, m, 1).maps


def test_beta_commutes_with_all_structure_maps(kz2, pair_triv):
    ma = fx.dual_numbers_module_algebra(kz2)
    ca = fx.regular_comodule_algebra(kz2)
    bm = beta(ma, ca, pair_triv, 3)
    assert bm.verify() == []


def test_beta_and_xi_reject_invalid_module_structures(kz2, pair_triv):
    """A module algebra or module coalgebra that fails check_structure is
    refused with the failures named, not turned into a morphism."""
    from hopfcyclic.hopf import (CompatibilityFailure, ModuleAlgebra,
                                 ModuleCoalgebra, check_structure)
    f = QQ
    ma = fx.dual_numbers_module_algebra(kz2)
    bad_ma = ModuleAlgebra(kz2, ma.algebra, dict(ma.action), name="bad")
    bad_ma.action[(0, 1)] = {1: f(3)}          # the unit acts on e1 by 3
    assert "unit does not act as identity at e1" in "; ".join(check_structure(bad_ma))
    ca = fx.regular_comodule_algebra(kz2)
    with pytest.raises(CompatibilityFailure, match="unit does not act as identity at e1"):
        beta(bad_ma, ca, pair_triv, 2)
    mc = fx.regular_module_coalgebra(kz2)
    bad_mc = ModuleCoalgebra(kz2, mc.coalgebra, dict(mc.action), name="bad")
    for c in range(2):
        bad_mc.action[(0, c)] = {c: f(2)}      # the unit acts by 2
    assert check_structure(bad_mc)
    zc = fx.function_comodule_coalgebra(kz2)
    with pytest.raises(CompatibilityFailure, match="unit does not act as identity"):
        xi(zc, bad_mc, pair_triv, 2)


def test_xi_commutes_with_all_structure_maps(xi_mor):
    assert xi_mor.verify() == []


def test_verify_names_each_damaged_structure_map(kz2, pair_triv):
    """A face, a degeneracy and a tau of xi's source, each doubled after
    xi verifies, are each named once, in verify's degree order."""
    xm = xi(fx.function_comodule_coalgebra(kz2), fx.regular_module_coalgebra(kz2),
            pair_triv, 2)
    assert xm.verify() == []        # reads, so builds, every map first
    x = xm.source
    for maps, key in ((x.faces, (1, 0)), (x.degeneracies, (2, 1)), (x.cyclic, 0)):
        maps[key] = maps[key].scale(2)
    assert xm.verify() == ["cyclic 0", "face (1,0)", "degeneracy (2,1)"]


def test_xi_with_twisted_coefficients(kz2, pair_g):
    zc = fx.function_comodule_coalgebra(kz2)
    mc = fx.regular_module_coalgebra(kz2)
    xm = xi(zc, mc, pair_g, 2)
    assert xm.verify() == []


def test_xi_over_kz3(kz3):
    zc = fx.function_comodule_coalgebra(kz3)
    mc = fx.regular_module_coalgebra(kz3)
    m = modular_pair_module(kz3, fx.trivial_modular_pair(kz3))
    xm = xi(zc, mc, m, 2)
    assert xm.verify() == []


def test_xi_trivial_hopf_reduction(triv_hopf):
    """Over the trivial Hopf algebra both twisted forms collapse to the
    plain pairing map and still agree and commute."""
    zc = fx.function_comodule_coalgebra(triv_hopf, 1)
    mc = fx.regular_module_coalgebra(triv_hopf)
    m = trivial_modcomodule(triv_hopf)
    xm = xi(zc, mc, m, 3)
    assert xm.verify() == []


def test_star_commutes_and_needs_commutativity(kz2, sweedler, pair_triv):
    zc = fx.function_comodule_coalgebra(kz2)
    st = star(zc, zc, pair_triv, pair_triv, 2)
    assert st.verify() == []
    z_sw = fx.trivial_comodule_coalgebra(sweedler, sweedler.coalgebra)
    m_sw = trivial_modcomodule(sweedler)
    with pytest.raises(HypothesisFailure):
        star(z_sw, z_sw, m_sw, m_sw, 2)


def test_invariant_trace_is_unique_here(alpha_mor):
    traces = invariant_traces(alpha_mor.target.meta["y"])
    assert len(traces) == 1
    assert traces[0].t0 == {0: QQ.one}


def test_trace_is_a_degree_zero_cyclic_cocycle(alpha_mor):
    y = alpha_mor.target.meta["y"]
    tr = invariant_traces(y)[0]
    assert tr.as_class().is_cocycle()
    # the extension through the zeroth face stays nonzero and tau-shaped
    for p in (1, 2):
        ext = tr.extended(p)
        assert ext
        assert y.tau(0).transpose().apply(tr.extended(0)) == tr.extended(0)


def test_cyclic_cocycle_counts_on_crossed_coalgebra(xi_mor):
    counts = [len(cyclic_cocycles(xi_mor.source, p)) for p in (0, 1, 2)]
    assert counts == [1, 3, 4]


def test_from_cyclic_cocycle_rejects_garbage(alpha_mor):
    x = alpha_mor.target.meta["x"]
    f = x.field
    with pytest.raises(NotCocycle):
        from_cyclic_cocycle(x, 1, {0: f.one})


def test_char_map_routes_agree_and_match_cup(pairing, alpha_mor):
    x = alpha_mor.target.meta["x"]
    trace = invariant_traces(alpha_mor.target.meta["y"])[0]
    for p in (0, 1):
        for cls in cyclic_cocycles(x, p):
            gamma = cm_char_map(trace, pairing, cls, alpha_mor=alpha_mor)
            cup = cup_with_trace(cls, trace, alpha_mor)
            assert gamma == cup
            assert gamma.is_cocycle()


def test_char_map_scales_bilinearly(pairing, alpha_mor):
    x = alpha_mor.target.meta["x"]
    trace = invariant_traces(alpha_mor.target.meta["y"])[0]
    cls = next(c for p in (0, 1, 2) for c in cyclic_cocycles(x, p))
    f = x.field
    doubled = cm_char_map(trace, pairing, cls.scaled(f(2)),
                          alpha_mor=alpha_mor)
    single = cm_char_map(trace, pairing, cls, alpha_mor=alpha_mor)
    assert doubled == single.scaled(f(2))


def test_pullback_along_identity_is_identity(alpha_mor):
    y = alpha_mor.target.meta["y"]
    f = y.field
    from hopfcyclic.linalg import Matrix
    ident = ModuleMorphism(y, y, {n: Matrix.identity(f, y.spaces[n])
                                  for n in y.spaces})
    cls = cyclic_cocycles(y, 0)[0]
    assert pullback(ident, cls) == cls


def test_crossed_cup_with_trace(kz2, pair_triv):
    ma = fx.dual_numbers_module_algebra(kz2)
    ca = fx.regular_comodule_algebra(kz2)
    bm = beta(ma, ca, pair_triv, 2)
    trace = invariant_traces(bm.target.meta["y"])[0]
    cls = cyclic_cocycles(bm.source, 0)[0]
    out = cup_with_trace(cls, trace, bm)
    assert out.is_cocycle()
    assert out.degree == 0


def test_crossed_cocup_with_invariant(xi_mor):
    f = QQ
    reps = {}
    for p in (0, 2):
        cls = cyclic_cocycles(xi_mor.source, p)[0]
        out = crossed_cocup_with_invariant(cls, {0: f.one}, xi_mor)
        assert out.is_cocycle()
        reps[p] = out.representative
    assert reps[0] == {0: f(2)}
    assert reps[2] == {3: f(2)}


def test_classes_along_one_morphism_share_one_total(monkeypatch, xi_mor):
    # the cocups of every degree land in one Total of C(C,M), and each
    # class, taken or made, splits its vector once however often it is read
    splits = []
    split = Total.split

    def spy(self, n, vec):
        splits.append(n)
        return split(self, n, vec)
    monkeypatch.setattr(Total, "split", spy)
    outs = [crossed_cocup_with_invariant(cls, {0: QQ.one}, xi_mor)
            for p in (0, 1, 2) for cls in cyclic_cocycles(xi_mor.source, p)]
    assert len(outs) == 8 and len({id(out.total) for out in outs}) == 1
    assert len(splits) == 2 * len(outs)
    for out in outs:
        assert out.is_single_degree() and out.is_cocycle()
        assert set(out.components) <= {out.total.block(out.degree)}
    assert len(splits) == 2 * len(outs)


def test_cocup_rejects_non_invariant_seed(xi_mor):
    x = xi_mor.target.meta["x"]
    f = x.field
    cls = cyclic_cocycles(xi_mor.source, 0)[0]
    # a vector moved by tau_0 cannot seed the evaluation
    seed = None
    for i in range(x.spaces[0]):
        v = {i: f.one}
        if x.tau(0).apply(v) != v:
            seed = v
            break
    if seed is not None:
        with pytest.raises(NotCocycle):
            crossed_cocup_with_invariant(cls, seed, xi_mor)


def test_classes_from_cohomology_are_cocycles(kz2_hopf_complex):
    for model in ("mixed", "bicomplex"):
        classes = classes_from_cohomology(kz2_hopf_complex, 2, model=model)
        for cls in classes:
            assert cls.is_cocycle()


def _model_builds(monkeypatch):
    """The names of the model builders called from now, in call order."""
    builds = []
    for name in ("mixed_of_cyclic", "cyclic_bicomplex"):
        def spy(x, name=name, build=getattr(homology, name)):
            builds.append(name)
            return build(x)
        monkeypatch.setattr(homology, name, spy)
    return builds


@pytest.mark.parametrize("model, builder", [("mixed", "mixed_of_cyclic"),
                                            ("bicomplex", "cyclic_bicomplex")])
def test_classes_from_one_call_build_one_model(monkeypatch, kz3, model,
                                               builder):
    x = cyc_algebra(kz3.algebra, 5)
    builds = _model_builds(monkeypatch)
    classes = classes_from_cohomology(x, 2, model)
    assert len(classes) == 3
    for cls in classes:
        assert cls.is_cocycle()
        d = cls.differential()
        assert d.total is cls.total and not d.components
    assert builds == [builder]


def test_cyclic_cocycles_from_one_call_build_one_model(monkeypatch, kz3):
    x = cyc_algebra(kz3.algebra, 5)
    builds = _model_builds(monkeypatch)
    classes = cyclic_cocycles(x, 2)
    assert len(classes) == 6
    for cls in classes:
        assert cls.is_cocycle() and cls.scaled(QQ(2)).is_cocycle()
        assert not cls.differential().components
    assert builds == ["mixed_of_cyclic"]


def test_scaled_multiplies_in_the_field():
    # over GF(7), 6 * 6 is 1: a scaled class holds residues, not products
    f = GF(7)
    x = cyc_algebra(fx.group_algebra(f, 3).algebra, 3)
    cls = cyclic_cocycles(x, 0)[0]
    assert cls.representative == {0: 1}
    twice = cls.scaled(6).scaled(6)
    assert twice.representative == {0: 1}
    assert twice == cls


def test_diag_tensor_epi_check(kz2, pair_triv):
    ma = fx.dual_numbers_module_algebra(kz2)
    rep = diag_tensor_epi_check(ma, ma, pair_triv, pair_triv, 1)
    assert rep["surjective"] and rep["descends"]
    bad = diag_tensor_epi_check(ma, ma, pair_triv, pair_triv, 1,
                                drop_factor=True)
    assert not bad["surjective"]


def test_hopf_cyclic_complex_levels(kz2, pair_g):
    mc = fx.regular_module_coalgebra(kz2)
    t = cover_coalgebra(mc, pair_g, 3)
    q = hopf_cyclic_complex(mc, pair_g, 3, level="Q")
    c = hopf_cyclic_complex(mc, pair_g, 3, level="C")
    assert t.dims() == {n: 2 ** (n + 1) for n in range(4)}
    assert q.dims() == c.dims() == {n: 2 ** n for n in range(4)}


def test_cochain_class_differential_detects_non_cocycles(alpha_mor):
    x = alpha_mor.target.meta["x"]
    f = x.field
    probe = CochainClass(Total(x), 1, {1: {0: f.one}})
    if not probe.is_cocycle():
        assert probe.differential().components
