"""Shared session-level fixtures: the expensive complexes are built once."""

import pytest

from hopfcyclic import QQ, ModularPair, modular_pair_module, trivial_modcomodule
from hopfcyclic import fixtures as fx
from hopfcyclic.cyclic import (cover_coalgebra, cover_algebra, compute_J,
                               quotient_module, coinvariants,
                               hopf_cyclic_complex)


@pytest.fixture(scope="session")
def triv_hopf():
    return fx.trivial_hopf(QQ)


@pytest.fixture(scope="session")
def kz2():
    return fx.group_algebra(QQ, 2)


@pytest.fixture(scope="session")
def kz3():
    return fx.group_algebra(QQ, 3)


@pytest.fixture(scope="session")
def sweedler():
    return fx.sweedler_hopf(QQ)


@pytest.fixture(scope="session")
def pair_triv(kz2):
    """The trivial modular pair (1, epsilon) coefficient line."""
    return trivial_modcomodule(kz2)


@pytest.fixture(scope="session")
def pair_g(kz2):
    """The modular pair (g, epsilon): the nontrivial group-like as sigma."""
    return modular_pair_module(kz2, ModularPair({1: QQ.one},
                                                {0: QQ.one, 1: QQ.one}))


@pytest.fixture(scope="session")
def sayd_reg(kz2):
    """Regular action, trivial coaction on H itself (SAYD, dim 2)."""
    return fx.regular_action_trivial_coaction(kz2)


@pytest.fixture(scope="session")
def kz2_coalgebra_cover(kz2, pair_g):
    """T_*(H, k_(g,eps)) for H = kZ/2, degrees 0..5."""
    mc = fx.regular_module_coalgebra(kz2)
    return cover_coalgebra(mc, pair_g, 5)


@pytest.fixture(scope="session")
def kz2_coalgebra_tower(kz2_coalgebra_cover):
    """(T, J, Q, C) for the (g, eps) coefficient line."""
    t = kz2_coalgebra_cover
    j = compute_J(t, buffer=2)
    q = quotient_module(t, j)
    c = coinvariants(q)
    return t, j, q, c


@pytest.fixture(scope="session")
def kz2_hopf_complex(kz2, pair_g):
    """C_*(H, k_(g,eps)) via the full pipeline, truncated to N = 4."""
    mc = fx.regular_module_coalgebra(kz2)
    return hopf_cyclic_complex(mc, pair_g, 4)


@pytest.fixture(scope="session")
def kz2_algebra_complex(kz2, pair_triv):
    """C_*(A, k) for A = H as a module algebra over kZ/2, N = 4."""
    ma = fx.dual_numbers_module_algebra(kz2)
    return hopf_cyclic_complex(ma, pair_triv, 4)
