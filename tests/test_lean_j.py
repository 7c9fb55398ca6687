"""compute_J against the definition of the saturation ideal.

compute_J seeds its closure with T - id and [L_g, tau] for algebra
generators g of H only, and closes without tau^-1.  The reference below is
the definition: every [L_h, tau^i] for h in a basis of H and i = 1..n+1,
closed under the faces, degeneracies, tau, tau^-1 and every L_h.  Reduced
echelon bases are unique, so the two must agree vector for vector.

compute_J's worklist runs over d_0, s_0 and tau, with the other faces and
degeneracies and the L_g as derived operators of operator_closure; the
tests at the end check that any split into worklist and derived operators
gives the closure under all of them.
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


# ---------------------------------------------------------------------------
# operator_closure with derived operators


def _entries(field):
    if field is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, field.p - 1)


@st.composite
def operator_families(draw, field):
    """Small graded families: 1..3 degrees of dim 1..3, 1..6 operators
    between any two of them, a seed per degree and a split of the
    operators into worklist ones and derived ones."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    degree = st.integers(0, len(dims) - 1)
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        src, tgt = draw(degree), draw(degree)
        ent = draw(st.dictionaries(
            st.tuples(st.integers(0, dims[tgt] - 1), st.integers(0, dims[src] - 1)),
            _entries(field), max_size=4))
        ops.append((src, tgt, Matrix(field, dims[tgt], dims[src], ent)))
    seeds = {n: [draw(st.dictionaries(st.integers(0, d - 1), _entries(field),
                                      max_size=d))]
             for n, d in enumerate(dims)}
    derived = draw(st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)))
    return dims, ops, seeds, derived


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_split_into_derived_operators_gives_the_same_closure(field, data):
    dims, ops, seeds, derived = data.draw(operator_families(field))
    top = len(dims) - 1
    ref = operator_closure(field, seeds, ops, max_degree=top)
    split = operator_closure(
        field, seeds, [o for o, d in zip(ops, derived) if not d], max_degree=top,
        derived=[o for o, d in zip(ops, derived) if d])
    assert sorted(split) == sorted(ref)
    for n in ref:
        assert split[n] == ref[n]
    for src, tgt, m in ops:
        assert all(ref[tgt].contains(m.apply(b)) for b in ref[src].basis)


def test_derived_images_outside_the_span_reenter_the_worklist():
    # P: e0 -> e1 is derived and Q: e1 -> e2 is a worklist operator, so
    # e1 comes only from the certified pass and e2 only from the worklist
    # it resumes; a pass that only checked would stop at span{e0}
    f = QQ
    p = Matrix(f, 3, 3, {(1, 0): f.one})
    q = Matrix(f, 3, 3, {(2, 1): f.one})
    for ops in ([(0, 0, q)], []):
        derived = [(0, 0, p)] + ([] if ops else [(0, 0, q)])
        closed = operator_closure(f, {0: [{0: f(2)}]}, ops, max_degree=0,
                                  derived=derived)
        assert closed[0].basis == [{0: f.one}, {1: f.one}, {2: f.one}]


class _Drifting:
    """A 1x1 'operator' that maps to 0 on its first apply and to the
    identity afterwards, so the worklist sees 0 and the certified pass
    sees an image outside the span."""

    rows = cols = 1

    def __init__(self):
        self.calls = 0

    def apply(self, vec):
        self.calls += 1
        return {} if self.calls == 1 else dict(vec)


def test_a_worklist_operator_that_leaves_the_span_still_fails_the_fixpoint():
    f = QQ
    seeds = {0: [{0: f.one}], 1: []}
    ops = [(0, 1, _Drifting())]
    with pytest.raises(AssertionError, match="closure fixpoint violated"):
        operator_closure(f, seeds, ops, max_degree=1)


def test_compute_J_equals_the_closure_with_every_operator_in_the_worklist(
        monkeypatch):
    t = _sweedler_cover(GF(10007), 2)
    f, gens = t.field, algebra_generators(t.hopf)
    calls = []

    def spy(field, seeds, ops, max_degree, buffer=1, derived=()):
        calls.append((ops, derived))
        return operator_closure(field, seeds, ops, max_degree, buffer, derived)

    monkeypatch.setattr(cyclic, "operator_closure", spy)
    lean = compute_J(t, buffer=1)
    # both closures: d_0, s_0 and tau in the worklist; the other faces and
    # degeneracies and the L_g derived, so the certified pass covers them all
    faces = {id(m): j for (_, j), m in t.faces.items()}
    degs = {id(m): i for (_, i), m in t.degeneracies.items()}
    taus = {id(m) for m in t.cyclic.values()}
    acts = {id(t.act_h(n, g)) for n in t.spaces for g in gens}
    full_ops, full_derived = calls[0]
    assert {id(m) for _, _, m in full_ops} == (
        {k for k, j in faces.items() if j == 0} | taus
        | {k for k, i in degs.items() if i == 0})
    assert {id(m) for _, _, m in full_derived} == (
        {k for k, j in faces.items() if j} | acts
        | {k for k, i in degs.items() if i})
    assert len(calls) == 2
    ops = full_ops + full_derived
    seeds = {}
    for n, dim_n in t.spaces.items():
        mats = [t.T(n) - Matrix.identity(f, dim_n)]
        mats += [t.act_h(n, g) * t.tau(n) - t.tau(n) * t.act_h(n, g) for g in gens]
        seeds[n] = [c for m in mats for c in m.columns() if c]
    ref = operator_closure(f, seeds, ops, max_degree=t.N)
    assert sorted(lean) == sorted(ref)
    for n in ref:
        assert lean[n] == ref[n]
