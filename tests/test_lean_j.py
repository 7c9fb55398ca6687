"""compute_J against the definition of the saturation ideal.

compute_J seeds its closure with the columns of T - id and of [L_h, tau]
for every basis element h of H, and closes over d_0, s_0 and tau only,
without tau^-1.  The reference below is the definition: every
[L_h, tau^i] for h in a basis of H and i = 1..n+1, closed under the
faces, degeneracies, tau, tau^-1 and every L_h.  Reduced echelon bases
are unique, so the two must agree vector for vector.  Identities checked
on the matrices carry compute_J's closure over to the other faces and
degeneracies and to every L_h; the kZ/4 case has an L_h, of g^3, that
no check on a pair of generators reads.

The tests at the end check which operators the closure runs over, that
its certified pass catches an operator that leaves the span, and that J
on the Sweedler cover of degree 4 keeps its frozen digests, as does
Q = T/J, whose faces, degeneracies, taus and generators' L_g descend
there with no per-vector check.
"""

import hashlib
import json
import os

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from hopfcyclic import (QQ, GF, Matrix, ModularPair, modular_pair_module,
                        trivial_modcomodule)
from hopfcyclic import cyclic
from hopfcyclic import fixtures as fx
from hopfcyclic.cyclic import cover_algebra, cover_coalgebra, compute_J
from hopfcyclic import io as hio
from hopfcyclic.hopf import ModuleCoalgebra, algebra_generators
from hopfcyclic.linalg import operator_closure
from _descent import read_every_map

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    return operator_closure(f, seeds, ops)


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
                           trivial_modcomodule(h), N)


CASES = {
    "kZ/2 regular module coalgebra": (_coalgebra_cover(2), (QQ, GF(7)), 3),
    "kZ/3 regular module coalgebra": (_coalgebra_cover(3), (QQ, GF(7)), 3),
    "dual numbers, trivial coefficients":
        (_dual_numbers_cover(trivial_modcomodule), (QQ, GF(7)), 3),
    "dual numbers, regular coefficients":
        (_dual_numbers_cover(fx.regular_action_regular_coaction),
         (QQ, GF(7)), 3),
    "kZ/4 regular module coalgebra with (g, ε)":
        (_coalgebra_cover(4), (QQ, GF(7)), 3),
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


def _file_covers():
    """Degree-3 covers of every shipped module (co)algebra file with every
    shipped coefficient file, and of the benchmark's two Sweedler inputs."""
    def read(*parts):
        return hio.parse_input(os.path.join(ROOT, *parts), validate=True)
    pairs = [(read("fixtures", x), read("fixtures", m), x + " with " + m)
             for x in ("module-coalgebra-kz2-regular.json",
                       "module-algebra-dual-numbers.json")
             for m in ("modcomodule-trivial-kz2.json",
                       "modcomodule-modular-pair-kz2.json")]
    pairs.append((read("bench", "inputs",
                       "module-coalgebra-sweedler-regular-gf10007.json"),
                  read("bench", "inputs",
                       "modcomodule-trivial-sweedler-gf10007.json"),
                  "bench inputs"))
    for x, m, name in pairs:
        build = cover_coalgebra if isinstance(x, ModuleCoalgebra) else cover_algebra
        yield name, build(x, m, 3)


def test_the_seeds_are_the_nonzero_columns_of_every_twist_and_commutator():
    # _seeds forms no difference of equal matrices and skips the unit's
    # commutator where L_1 = id: what it returns must still be every
    # nonzero column of T_n - id, then of L_h tau - tau L_h for each h
    def nonzero(m):
        return [c for c in m.columns() if c]
    seen = set()
    for name, t in _file_covers():
        f = t.field
        for n, dim_n in t.spaces.items():
            tau = t.tau(n)
            twist = nonzero(t.T(n) - Matrix.identity(f, dim_n))
            comms = [c for h in range(t.hopf.dim)
                     for c in nonzero(t.act_h(n, h) * tau - tau * t.act_h(n, h))]
            seeds = [f.from_integral(*c) for c in cyclic._seeds(t, n)]
            assert seeds == twist + comms, (name, n)
            seen |= {"twist"} if twist else set()
            seen |= {"commutator"} if comms else set()
    assert seen == {"twist", "commutator"}


def test_algebra_generators():
    assert algebra_generators(fx.group_algebra(QQ, 2)) == [1]
    assert algebra_generators(fx.group_algebra(GF(7), 5)) == [1]
    # Sweedler's basis is 1, g, x, gx: g and x generate, gx = g x
    assert algebra_generators(fx.sweedler_hopf(QQ)) == [1, 2]
    assert algebra_generators(fx.trivial_hopf(QQ)) == []


# ---------------------------------------------------------------------------
# operator_closure's certified pass and the operators compute_J closes over


class _Drifting:
    """A 1x1 'operator' that maps to 0 on its first apply and to the
    identity afterwards, so the worklist sees 0 and the certified pass
    sees an image outside the span.  The closure applies operators to
    lifts (ints, d), so apply takes and returns lifts."""

    rows = cols = 1

    def __init__(self):
        self.calls = 0

    def apply(self, vec):
        self.calls += 1
        return ({}, 1) if self.calls == 1 else vec


def test_a_worklist_operator_that_leaves_the_span_still_fails_the_fixpoint():
    f = QQ
    seeds = {0: [{0: f.one}], 1: []}
    ops = [(0, 1, _Drifting())]
    with pytest.raises(AssertionError, match="closure fixpoint violated"):
        operator_closure(f, seeds, ops)


def test_compute_J_equals_the_closure_with_every_operator_in_the_worklist(
        monkeypatch):
    t = _sweedler_cover(GF(10007), 2)
    f, gens = t.field, algebra_generators(t.hopf)
    calls = []

    def spy(field, seeds, ops, start=None):
        out = operator_closure(field, seeds, ops, start)
        calls.append((sorted(seeds), ops, start, out))
        return out

    monkeypatch.setattr(cyclic, "operator_closure", spy)
    lean = compute_J(t, buffer=1)
    # both phases of the one closure, the stability check's below the top
    # degree and the full one grown from it, run over exactly d_0, s_0 and
    # tau: the identity certificate covers the rest
    zeroth = {id(m) for maps in (t.faces, t.degeneracies)
              for (_, j), m in maps.items() if j == 0}
    taus = {id(m) for m in t.cyclic.values()}
    assert len(calls) == 2
    (low_seeds, low_ops, low_start, low), (top_seeds, full_ops, start, out) = calls
    assert {id(m) for _, _, m in full_ops} == zeroth | taus
    assert len(full_ops) == len(zeroth | taus)
    assert {id(m) for _, _, m in low_ops} <= zeroth | taus
    assert {(src, tgt) for src, tgt, _ in low_ops} == {
        (src, tgt) for src, tgt, _ in full_ops if max(src, tgt) <= t.N - 1}
    # phase 1 covers the degrees below N, and phase 2 grows its very
    # subspaces, adding the seeds of degree N only
    assert low_start is None and low_seeds == sorted(low) == list(range(t.N))
    assert start is low and top_seeds == [t.N] and out is lean
    assert all(lean[n] is low[n] for n in low)
    # the reference closes over every face, degeneracy, tau and L_g
    ops = [(n, n + t.step, m) for (n, _), m in t.faces.items()]
    ops += [(n, n - t.step, m) for (n, _), m in t.degeneracies.items()]
    ops += [(n, n, m) for n in t.spaces
            for m in (t.tau(n), *(t.act_h(n, g) for g in gens))]
    seeds = {}
    for n, dim_n in t.spaces.items():
        mats = [t.T(n) - Matrix.identity(f, dim_n)]
        mats += [t.act_h(n, g) * t.tau(n) - t.tau(n) * t.act_h(n, g) for g in gens]
        seeds[n] = [c for m in mats for c in m.columns() if c]
    ref = operator_closure(f, seeds, ops)
    assert sorted(lean) == sorted(ref)
    for n in ref:
        assert lean[n] == ref[n]


def _j_digest(j):
    """sha256 of every degree's pivots and reduced basis vectors."""
    doc = [[n, j[n].pivots, [sorted([k, str(v)] for k, v in b.items())
                             for b in j[n].basis]] for n in sorted(j)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("field, digest", [
    (QQ, "6268da0aecd01f280dee051de17fbc4bc0e1b0ad26caafc5fd5da5d39e645333"),
    (GF(10007),
     "094a122cf80af0678f4f8843210e6bbb1dd8c2def18ce92d41409b17ca4feedc"),
], ids=["Q", "GF10007"])
def test_j_on_the_sweedler_cover_of_degree_4_is_frozen(field, digest):
    # digests of the J bases computed when every face, degeneracy and L_g
    # was still applied to every basis vector of J
    j = compute_J(_sweedler_cover(field, 4))
    assert {n: j[n].dim for n in sorted(j)} == {0: 0, 1: 6, 2: 35, 3: 163,
                                                 4: 703}
    assert _j_digest(j) == digest


def _q_digest(q):
    """sha256 of every face, degeneracy, tau and L_h of a quotient module."""
    def doc(maps):
        return sorted([list(k), m.rows, m.cols,
                       sorted([i, j, str(v)] for (i, j), v in m.entries.items())]
                      for k, m in maps.items())
    cyc = {(n,): m for n, m in q.cyclic.items()}
    return hashlib.sha256(json.dumps(
        [doc(maps) for maps in (q.faces, q.degeneracies, cyc, q.h_action)]
    ).encode()).hexdigest()


@pytest.mark.parametrize("field, digest", [
    (QQ, "b88e04aed58a24743fdc064c8a90b7dca4ee5202d033429d8d6c21f4a5bb5024"),
    (GF(10007),
     "19b299aa69a579c3c7f476cf7538d7e82dd2fc4a367fd4225e623afe04d22a0a"),
], ids=["Q", "GF10007"])
def test_q_on_the_sweedler_cover_of_degree_4_is_frozen(field, digest, monkeypatch):
    # Q from compute_J's own J, whose record skips the per-vector check of
    # every face, degeneracy, tau and generator's L_g, equals Q from copies
    # of J, checked vector by vector; the digests were taken when every map
    # was still checked on every basis vector of J.  The other L_h are not
    # in the record and are checked vector by vector on both sides.
    t = _sweedler_cover(field, 4)
    j = compute_J(t)
    gens = algebra_generators(t.hopf)
    applied = []
    real = Matrix.apply
    monkeypatch.setattr(Matrix, "apply",
                        lambda m, v: applied.append(1) or real(m, v))
    q = cyclic.quotient_module(t, j)
    for maps in (q.faces, q.degeneracies, q.cyclic):
        list(maps.values())
    [q.act_h(n, g) for n in q.spaces for g in gens]
    skipped = not applied
    read_every_map(q)
    applied[:] = []
    ref = read_every_map(cyclic.quotient_module(t, {n: j[n].copy() for n in j}))
    assert skipped and applied
    for attr in ("spaces", "faces", "degeneracies", "cyclic", "h_action"):
        assert getattr(q, attr) == getattr(ref, attr), attr
    assert _q_digest(q) == digest
