"""Simplicial/cyclic axioms and the equivariant quotient tower."""

import re

import pytest

from hopfcyclic import (QQ, Matrix, check_axioms, constant_modules,
                        cyc_algebra, cyc_coalgebra, cyclic_dual,
                        diag_hom, diag_tensor, hopf_cyclic_complex,
                        hopf_cocyclic_comodule_algebra,
                        hopf_cyclic_comodule_coalgebra)
from hopfcyclic.cyclic import (cover_coalgebra, cover_algebra, compute_J,
                               quotient_module, coinvariants, truncate,
                               CHAIN, COCHAIN, InvertibilityFailure,
                               ParaCyclicModule)
from hopfcyclic import fixtures as fx


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
    for level in ("T", "Q", "C"):
        with pytest.raises(ValueError, match="buffer must be at least 1"):
            hopf_cyclic_complex(mc, pair_g, 2, buffer=buffer, level=level)


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
