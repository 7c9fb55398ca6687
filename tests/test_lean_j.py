"""compute_J against the definition of the saturation ideal.

compute_J seeds its closure with T - id and [L_g, tau] for algebra
generators g of H only, and closes without tau^-1.  The reference below is
the definition: every [L_h, tau^i] for h in a basis of H and i = 1..n+1,
closed under the faces, degeneracies, tau, tau^-1 and every L_h.  Reduced
echelon bases are unique, so the two must agree vector for vector.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from hopfcyclic import QQ, GF, Matrix, ModularPair, modular_pair_module
from hopfcyclic import cyclic
from hopfcyclic import fixtures as fx
from hopfcyclic.cyclic import cover_algebra, cover_coalgebra, compute_J
from hopfcyclic.hopf import algebra_generators
from hopfcyclic.linalg import operator_closure


def definitional_J(t):
    f = t.field
    ops = [(n, n + t.step, m) for (n, _), m in t.faces.items()]
    ops += [(n, n - t.step, m) for (n, _), m in t.degeneracies.items()]
    ops += [(n, n, m) for n in t.spaces for m in (t.tau(n), t.tau_inv(n))]
    ops += [(n, n, m) for (n, _), m in t.h_action.items()]
    seeds = {}
    for n, dim_n in t.spaces.items():
        gens = [t.T(n) - Matrix.identity(f, dim_n)]
        for h in range(t.hopf.dim):
            lh = t.act_h(n, h)
            for i in range(1, n + 2):
                ti = t.tau_power(n, i)
                gens.append(lh * ti - ti * lh)
        seeds[n] = [c for g in gens for c in g.columns() if c]
    return operator_closure(f, seeds, ops, max_degree=t.N, buffer=1)


def _pair_g(h):
    """The modular pair (g, epsilon) on kZ/n."""
    one = h.field.one
    return modular_pair_module(h, ModularPair({1: one},
                                              {i: one for i in range(h.dim)}))


def _coalgebra_cover(n):
    def build(field, N):
        h = fx.group_algebra(field, n)
        return cover_coalgebra(fx.regular_module_coalgebra(h), _pair_g(h), N)
    return build


def _dual_numbers_cover(coefficients):
    def build(field, N):
        h = fx.group_algebra(field, 2)
        ma = fx.dual_numbers_module_algebra(h)
        return cover_algebra(ma, coefficients(h), N)
    return build


def _sweedler_cover(field, N):
    h = fx.sweedler_hopf(field)
    return cover_coalgebra(fx.regular_module_coalgebra(h),
                           fx.trivial_modcomodule(h), N)


CASES = {
    "kZ/2 regular module coalgebra": (_coalgebra_cover(2), (QQ, GF(7)), 3),
    "kZ/3 regular module coalgebra": (_coalgebra_cover(3), (QQ, GF(7)), 3),
    "dual numbers, trivial coefficients":
        (_dual_numbers_cover(fx.trivial_modcomodule), (QQ, GF(7)), 3),
    "dual numbers, regular coefficients":
        (_dual_numbers_cover(fx.regular_action_regular_coaction),
         (QQ, GF(7)), 3),
    "Sweedler regular module coalgebra": (_sweedler_cover, (GF(7),), 3),
}


@st.composite
def covers(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    build, fields, top = CASES[name]
    field = draw(st.sampled_from(fields))
    N = draw(st.integers(1, top))
    return name, field, N, build(field, N)


@settings(max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow])
@given(case=covers())
def test_lean_j_equals_the_definition(case):
    name, field, N, t = case
    lean, ref = compute_J(t, buffer=1), definitional_J(t)
    assert sorted(lean) == sorted(ref)
    for n in ref:
        assert lean[n] == ref[n], (name, field, N, n)


def test_lean_j_equals_the_definition_on_every_case_at_top_degree():
    for name, (build, fields, top) in sorted(CASES.items()):
        for field in fields:
            t = build(field, top)
            lean, ref = compute_J(t, buffer=1), definitional_J(t)
            assert all(lean[n] == ref[n] for n in ref), (name, field)


def test_algebra_generators():
    assert algebra_generators(fx.group_algebra(QQ, 2)) == [1]
    assert algebra_generators(fx.group_algebra(GF(7), 5)) == [1]
    # Sweedler's basis is 1, g, x, gx: g and x generate, gx = g x
    assert algebra_generators(fx.sweedler_hopf(QQ)) == [1, 2]
    assert algebra_generators(fx.trivial_hopf(QQ)) == []


def test_seed_certificate_catches_missing_generators(monkeypatch):
    # without generators J is only the closure of T - id: the certificate
    # must find a [L_h, tau] column outside it instead of returning it
    t = _sweedler_cover(GF(7), 2)
    monkeypatch.setattr(cyclic, "algebra_generators", lambda hopf: [])
    with pytest.raises(AssertionError, match=r"\[L_\d+, tau\] leaves J"):
        compute_J(t, buffer=1)
