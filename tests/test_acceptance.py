"""Top-level acceptance gate: the nine contract-level guarantees.

Each test here is an end-to-end statement about the shipped fixtures,
checked in exact arithmetic with zero tolerance.  Unit-level coverage of
the same machinery lives in the per-module test files.
"""

import time

import pytest

from hopfcyclic import (QQ, Matrix, HopfAlgebraData, check_axioms,
                        constant_modules, cyc_algebra, cyc_coalgebra,
                        cyclic_dual, diag_hom, diag_tensor,
                        hopf_cyclic_complex, hopf_cocyclic_comodule_algebra,
                        hopf_cyclic_comodule_coalgebra, cohomology_table,
                        compare_models, alpha, beta, xi, star,
                        invariant_traces, cyclic_cocycles,
                        from_cyclic_cocycle, cup_with_trace, cm_char_map,
                        diag_tensor_epi_check, check_sayd)
from hopfcyclic.cyclic import (cover_coalgebra, cover_algebra, compute_J,
                               quotient_module, coinvariants, truncate)
from hopfcyclic.homology import (mixed_of_cyclic, transpose_module,
                                 hochschild_b)
from hopfcyclic.hopf import (check_hopf, check_algebra, check_coalgebra,
                             crossed_product_algebra,
                             crossed_product_coalgebra)
from hopfcyclic import fixtures as fx
from hopfcyclic.cli import main as cli_main, EXIT_FAIL


N = 4


@pytest.fixture(scope="module")
def built(kz2, pair_triv, pair_g, sayd_reg):
    """Every module family of the shipped fixtures, built once at N = 4."""
    t0 = time.monotonic()
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    b = fx.regular_comodule_algebra(kz2)
    z = fx.function_comodule_coalgebra(kz2)
    mods = {}
    mods["cyc_dual_numbers"] = cyc_algebra(fx.dual_numbers_algebra(), N)
    mods["cyc_product_field"] = cyc_algebra(fx.product_field_algebra(), N)
    mods["cyc_kz2"] = cyc_algebra(kz2.algebra, N)
    mods["cocyc_kz2"] = cyc_coalgebra(kz2.coalgebra, N)
    k_co, k_cy = constant_modules(QQ, N)
    mods["k_cocyclic"], mods["k_cyclic"] = k_co, k_cy

    t_c = cover_coalgebra(mc, pair_g, N + 2)
    j_c = compute_J(t_c, buffer=2)
    q_c = quotient_module(t_c, j_c)
    mods["cover_coalgebra"] = truncate(t_c, N)
    mods["quotient_coalgebra"] = truncate(q_c, N)
    mods["hopf_cocyclic"] = truncate(coinvariants(q_c), N)

    t_a = cover_algebra(ma, pair_triv, N + 2)
    j_a = compute_J(t_a, buffer=2)
    q_a = quotient_module(t_a, j_a)
    mods["cover_algebra"] = truncate(t_a, N)
    mods["quotient_algebra"] = truncate(q_a, N)
    mods["hopf_cyclic"] = truncate(coinvariants(q_a), N)

    mods["colinear_cochain"] = hopf_cocyclic_comodule_algebra(b, pair_g, N)
    mods["colinear_chain"] = hopf_cyclic_comodule_coalgebra(z, pair_g, N)
    mods["diag_hom"] = diag_hom(mods["hopf_cocyclic"], mods["hopf_cyclic"], N)
    mods["diag_tensor"] = diag_tensor(mods["hopf_cyclic"],
                                      mods["hopf_cyclic"])
    mods["dual_of_hopf_cyclic"] = cyclic_dual(mods["hopf_cyclic"])
    mods["dual_of_hopf_cocyclic"] = cyclic_dual(mods["hopf_cocyclic"])
    return mods, time.monotonic() - t0


def test_1_axiom_suite_every_module_every_identity(built):
    mods, elapsed = built
    t0 = time.monotonic()
    for name, x in mods.items():
        assert check_axioms(x) == [], name
    total = elapsed + (time.monotonic() - t0)
    assert total < 300, "axiom suite took %.1fs" % total


def test_2_sayd_stability_and_paracyclic_cover(built, kz2, pair_triv,
                                               pair_g, sayd_reg):
    mods, _ = built
    # tau^(n+1) = id holds exactly on every descended level ...
    for name in ("hopf_cocyclic", "hopf_cyclic", "colinear_cochain",
                 "colinear_chain"):
        x = mods[name]
        for n in range(min(4, x.N) + 1):
            assert x.T(n) == Matrix.identity(x.field, x.spaces[n]), \
                "%s degree %d" % (name, n)
    # ... for coefficients that really are stable anti-Yetter-Drinfeld
    for m in (pair_triv, pair_g, sayd_reg):
        assert check_sayd(m) == []
    # and the quotient is doing work: tau_1^2 != id on the raw cover
    t = mods["cover_coalgebra"]
    assert t.tau_power(1, 2) != Matrix.identity(t.field, t.spaces[1])


def test_3_morphism_theorems_commute_exactly(kz2, pair_triv):
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    ca = fx.regular_comodule_algebra(kz2)
    zc = fx.function_comodule_coalgebra(kz2)
    pairing = fx.action_pairing(mc, ma)
    assert alpha(pairing, pair_triv, 3).verify() == []
    assert beta(ma, ca, pair_triv, 3).verify() == []
    assert xi(zc, mc, pair_triv, 3).verify() == []
    assert star(zc, zc, pair_triv, pair_triv, 3).verify() == []


def test_4_characteristic_map_routes_agree_identically(kz2, pair_triv):
    t0 = time.monotonic()
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    pairing = fx.action_pairing(mc, ma)
    am = alpha(pairing, pair_triv, 3)
    trace = invariant_traces(am.target.meta["y"])[0]
    x = am.target.meta["x"]
    seen = 0
    for p in (0, 1, 2):
        for cls in cyclic_cocycles(x, p):
            # cm_char_map raises AgreementFailure unless the direct
            # formula and the pullback route give the same covector
            gamma = cm_char_map(trace, pairing, cls, alpha_mor=am)
            assert gamma == cup_with_trace(cls, trace, am)
            seen += 1
    assert seen > 0
    assert time.monotonic() - t0 < 60


def test_5_models_agree_and_cup_classes_embed(built, kz2, pair_triv):
    mods, _ = built
    # dimension tables of the two total complexes agree in the stable range
    for name in ("cyc_dual_numbers", "cyc_product_field", "cyc_kz2",
                 "cocyc_kz2", "hopf_cocyclic", "hopf_cyclic",
                 "colinear_cochain", "colinear_chain"):
        rep = compare_models(mods[name])
        assert rep["agree"], name
        assert rep["stable_range"] == mods[name].N - 2
    # a cup_with_trace class lands in the mixed model with the cyclic
    # cocycle as its single component; the same vector is closed in the
    # bicomplex model, and the B operator kills it, so the comparison
    # functor maps one presentation to the other with no correction term
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    pairing = fx.action_pairing(mc, ma)
    am = alpha(pairing, pair_triv, 3)
    trace = invariant_traces(am.target.meta["y"])[0]
    for p in (0, 1, 2):
        for cls in cyclic_cocycles(am.target.meta["x"], p):
            cup = cup_with_trace(cls, trace, am)
            rep_vec = cup.representative
            native = from_cyclic_cocycle(am.source, p, rep_vec,
                                         model="mixed")
            in_bic = from_cyclic_cocycle(am.source, p, rep_vec,
                                         model="bicomplex")
            assert cup == native
            assert native.is_cocycle() and in_bic.is_cocycle()
            assert native.representative == in_bic.representative
            mixed = mixed_of_cyclic(native.total.module)
            if p in mixed.B:
                assert not mixed.B[p].transpose().apply(rep_vec)


def test_6_quantitative_spot_values(kz2, built):
    mods, _ = built
    from hopfcyclic.hopf import AlgebraData
    k_alg = AlgebraData(QQ, 1, {(0, 0): {0: QQ.one}}, {0: QQ.one},
                        labels=["1"])
    t_k = cohomology_table(cyc_algebra(k_alg, N), "mixed", 2)
    assert [t_k.degrees[n] for n in (0, 1, 2)] == [1, 0, 1]
    t_g = cohomology_table(mods["cyc_kz2"], "mixed", 2)
    assert [t_g.degrees[n] for n in (0, 1, 2)] == [2, 0, 2]
    # dim C_n(H, k_(sigma,delta)) = dim(H)^n for the kZ/2 modular pair
    c = mods["hopf_cocyclic"]
    for n in range(4):
        assert c.spaces[n] == 2 ** n


def test_7_j_saturation_is_stable_and_descent_counts_match(kz2, pair_triv,
                                                           pair_g, sayd_reg):
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    covers = [cover_coalgebra(mc, m, 3)
              for m in (pair_triv, pair_g, sayd_reg)]
    covers.append(cover_algebra(ma, pair_triv, 3))
    for t in covers:
        j2 = compute_J(t, buffer=2)
        j3 = compute_J(t, buffer=3)
        for n in set(j2) & set(j3):
            assert j2[n].dim == j3[n].dim, t.name
        # the descended complex has the size of the direct coinvariants
        q = quotient_module(t, j2)
        assert coinvariants(q).dims() == coinvariants(t).dims(), t.name
    # with twisted coefficients the quotient itself realizes the
    # coinvariant count: dim(T_n/J_n) = dim(k (x)_H T_n)
    t = covers[1]
    q = quotient_module(t, compute_J(t, buffer=2))
    assert q.dims() == coinvariants(t).dims()


def test_8_crossed_product_laws_exhaustive(kz2):
    ma = fx.dual_numbers_module_algebra(kz2)
    ca = fx.regular_comodule_algebra(kz2)
    assert check_algebra(crossed_product_algebra(ma, ca)) == []
    zc = fx.function_comodule_coalgebra(kz2)
    mc = fx.regular_module_coalgebra(kz2)
    assert check_coalgebra(crossed_product_coalgebra(zc, mc)) == []


def test_9_negative_controls_fail_loudly(kz2, pair_triv):
    # corrupted antipode: named identity in the report
    bad_s = Matrix(QQ, 2, 2, {(0, 0): QQ.one, (1, 1): QQ.one, (0, 1): QQ.one})
    report = check_hopf(HopfAlgebraData(kz2.algebra, kz2.coalgebra, bad_s))
    assert any("antipode" in line for line in report)
    # corrupted B operator: named identity and nonzero CLI exit
    x = cyc_algebra(fx.dual_numbers_algebra(), N)
    mixed = mixed_of_cyclic(transpose_module(x))
    n = sorted(mixed.B)[1]
    mixed.B[n] = Matrix.zero(mixed.field, mixed.B[n].rows, mixed.B[n].cols)
    assert any("bB + Bb != 0" in line for line in mixed.violations())
    # dropped tensor factor: surjectivity certificate refuses
    ma = fx.dual_numbers_module_algebra(kz2)
    rep = diag_tensor_epi_check(ma, ma, pair_triv, pair_triv, 1,
                                drop_factor=True)
    assert rep["surjective"] is False
    # and all three surface as nonzero exits on the command line
    import json, tempfile, os
    from hopfcyclic.io import to_document
    d = tempfile.mkdtemp()
    cli_main(["fixtures", "--output", d])
    doc = to_document(kz2)
    doc["antipode"] = [[0, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]]
    bad_path = os.path.join(d, "hopf-broken-antipode.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    assert cli_main(["check", bad_path]) != 0
    assert cli_main(["compare", os.path.join(d, "hopf-kz2.json"),
                     "--degree", "4", "--corrupt-b"]) == EXIT_FAIL
    assert cli_main(["pair", "--via", "epi", "--degree", "1",
                     "--drop-factor"]) == EXIT_FAIL
