"""Structure checks for the finite-dimensional Hopf fixtures."""

import pytest

from hopfcyclic import (QQ, GF, Matrix, HopfAlgebraData, ModularPair,
                        check_structure, check_sayd, modular_pair_module,
                        trivial_modcomodule, crossed_product_algebra,
                        crossed_product_coalgebra, cotensor)
from hopfcyclic.hopf import (CompatibilityFailure, check_hopf,
                             check_modular_pair, check_equivariant,
                             is_commutative, is_cocommutative,
                             is_symmetric_module, cotensor_is_submodule,
                             check_hypotheses, tensor_hopf,
                             tensor_module_algebra, tensor_modcomodule,
                             balanced_tensor_modcomodule)
from hopfcyclic import fixtures as fx


def test_hopf_fixtures_pass_all_axioms(triv_hopf, kz2, kz3, sweedler):
    for h in (triv_hopf, kz2, kz3, sweedler):
        assert check_structure(h) == []


def test_hopf_fixtures_over_prime_fields():
    assert check_structure(fx.group_algebra(GF(3), 2)) == []
    assert check_structure(fx.sweedler_hopf(GF(5))) == []


def test_corrupted_antipode_is_detected(kz2):
    """Swapping the antipode for the identity on kZ/2 keeps S invertible
    but breaks the convolution-inverse law, and the report names it."""
    f = QQ
    # S(g) = 1 + g: not an antipode
    bad_s = Matrix(f, 2, 2, {(0, 0): f.one, (1, 1): f.one, (0, 1): f.one})
    broken = HopfAlgebraData(kz2.algebra, kz2.coalgebra, bad_s)
    report = check_hopf(broken)
    assert report
    assert any("antipode" in line for line in report)


def test_module_and_comodule_fixtures_are_lawful(kz2, kz3):
    objs = [
        fx.dual_numbers_module_algebra(kz2),
        fx.regular_module_coalgebra(kz2),
        fx.regular_module_coalgebra(kz3),
        fx.regular_comodule_algebra(kz2),
        fx.function_comodule_coalgebra(kz2),
        fx.function_comodule_coalgebra(kz3),
        fx.regular_action_trivial_coaction(kz2),
        trivial_modcomodule(kz2),
    ]
    for obj in objs:
        assert check_structure(obj) == [], obj.name


def test_equivariant_pairings(kz2):
    mc = fx.regular_module_coalgebra(kz2)
    ma = fx.dual_numbers_module_algebra(kz2)
    assert check_equivariant(fx.action_pairing(mc, ma)) == []
    # the counit pairing is equivariant once the algebra action is trivial
    from hopfcyclic.hopf import ModuleAlgebra
    f = kz2.field
    eps_action = {(h, a): ({a: v} if not f.is_zero(v) else {})
                  for h in range(2)
                  for a in range(2)
                  for v in [kz2.coalgebra.counit.get(h, f.zero)]}
    ma_triv = ModuleAlgebra(kz2, fx.dual_numbers_algebra(f), eps_action)
    assert check_equivariant(fx.counit_pairing(mc, ma_triv)) == []


def test_modular_pairs(kz2):
    f = QQ
    assert check_modular_pair(kz2, fx.trivial_modular_pair(kz2)) == []
    pg = ModularPair({1: f.one}, {0: f.one, 1: f.one})
    assert check_modular_pair(kz2, pg) == []
    # sigma must be group-like: 1 + g is not
    bad = ModularPair({0: f.one, 1: f.one}, {0: f.one, 1: f.one})
    assert any("group-like" in line for line in check_modular_pair(kz2, bad))


def test_a_library_pair_that_is_not_modular_is_named(kz2):
    # delta(g) = 0 is no character of kZ/2: delta(g)delta(g) != delta(1)
    one = QQ.one
    with pytest.raises(CompatibilityFailure,
                       match=r"^modular pair: delta not multiplicative at \(1,1\)$"):
        modular_pair_module(kz2, ModularPair({1: one}, {0: one}))


def test_sayd_positive_fixtures(kz2, pair_triv, pair_g, sayd_reg):
    assert check_sayd(pair_triv) == []
    assert check_sayd(pair_g) == []
    assert check_sayd(sayd_reg) == []


def test_sayd_negative_fixture(kz2):
    bad = fx.regular_action_regular_coaction(kz2)
    report = check_sayd(bad)
    assert any("stability" in line for line in report)
    assert any("AYD" in line for line in report)


def test_group_likes_and_characters(kz2, sweedler):
    gl = fx.group_likes(kz2)
    assert len(gl) == 2                       # 1 and g
    assert len(fx.group_likes(sweedler)) == 2     # 1 and g, but not x or gx
    chars = fx.characters(kz2)
    assert len(chars) == 2                    # eps and the sign character


def test_crossed_product_algebra_associative_exhaustively(kz2):
    ma = fx.dual_numbers_module_algebra(kz2)
    ca = fx.regular_comodule_algebra(kz2)
    prod = crossed_product_algebra(ma, ca)
    from hopfcyclic.hopf import check_algebra
    assert check_algebra(prod) == []          # associativity + unit, all tuples


def test_crossed_product_coalgebra_coassociative_exhaustively(kz2):
    zc = fx.function_comodule_coalgebra(kz2)
    mc = fx.regular_module_coalgebra(kz2)
    prod = crossed_product_coalgebra(zc, mc)
    from hopfcyclic.hopf import check_coalgebra
    assert check_coalgebra(prod) == []        # coassociativity + counit, all tuples


def test_crossed_coalgebra_needs_the_compatibility(kz2):
    """The group-like basis with diagonal coaction violates the mixed
    compatibility; the construction refuses it rather than emitting a
    non-coassociative coalgebra."""
    from hopfcyclic.hopf import CompatibilityFailure, ComoduleCoalgebra
    f = QQ
    coaction = {z: {(z, z): f.one} for z in range(2)}
    zc = ComoduleCoalgebra(kz2, kz2.coalgebra, coaction, name="diagonal")
    mc = fx.regular_module_coalgebra(kz2)
    with pytest.raises(CompatibilityFailure):
        crossed_product_coalgebra(zc, mc)


def test_hypothesis_flags(kz2, sweedler, sayd_reg):
    rep = check_hypotheses(kz2, (sayd_reg, sayd_reg))
    assert rep["commutative"] and rep["cocommutative"]
    assert rep["module_symmetric"] and rep["cotensor_submodule"]
    rep_sw = check_hypotheses(sweedler)
    assert not rep_sw["commutative"] and not rep_sw["cocommutative"]


def test_symmetric_module_flag(kz2):
    assert is_symmetric_module(fx.regular_action_trivial_coaction(kz2))
    sw = fx.sweedler_hopf(QQ)
    assert not is_symmetric_module(fx.regular_action_trivial_coaction(sw))


def test_cotensor_of_trivial_coactions_is_everything(kz2, sayd_reg):
    sub = cotensor(sayd_reg, sayd_reg)
    assert sub.dim == sayd_reg.dim * sayd_reg.dim
    assert cotensor_is_submodule(sayd_reg, sayd_reg)


def test_tensor_hopf_and_modules(kz2):
    hh = tensor_hopf(kz2, kz2)
    assert check_structure(hh) == []
    ma = fx.dual_numbers_module_algebra(kz2)
    mat = tensor_module_algebra(ma, ma, hh)
    assert check_structure(mat) == []
    m = fx.regular_action_trivial_coaction(kz2)
    mm = tensor_modcomodule(m, m, hh)
    assert check_structure(mm) == []


def test_balanced_tensor_halves_the_dimension(kz2, sayd_reg):
    mbar, proj, sect = balanced_tensor_modcomodule(sayd_reg, sayd_reg)
    # H (x)_H H = H for the regular action
    assert mbar.dim == sayd_reg.dim
    assert check_structure(mbar) == []
    assert (proj * sect) == Matrix.identity(QQ, mbar.dim)


def test_modular_pair_module_is_one_dimensional(kz2, pair_g):
    assert pair_g.dim == 1
    assert check_structure(pair_g) == []
    assert trivial_modcomodule(kz2).dim == 1


def test_inputs_over_different_hopf_algebras_of_equal_dimension_are_rejected():
    from hopfcyclic import HopfMismatch, hopf_cyclic_complex
    mc = fx.regular_module_coalgebra(fx.group_algebra(QQ, 4))
    m = trivial_modcomodule(fx.sweedler_hopf(QQ))
    with pytest.raises(HopfMismatch):
        hopf_cyclic_complex(mc, m, 2)
