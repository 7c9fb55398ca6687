"""Structure maps built on first read: what a table, a truncation or a
dual builds, and that a replaced entry is the one every reader sees."""

import gc
import os
import weakref

import pytest

from hopfcyclic import (QQ, Matrix, ModularPair, check_axioms, cyc_algebra,
                        cyc_coalgebra, cohomology_table, compare_models,
                        hopf_cocyclic_comodule_algebra,
                        hopf_cyclic_comodule_coalgebra, modular_pair_module)
from hopfcyclic import io as hio
from hopfcyclic.cyclic import (coinvariants, compute_J, cover_coalgebra,
                               quotient_module, transpose_module, truncate)
from hopfcyclic.homology import IdentityFailure
from hopfcyclic.hopf import algebra_generators
from hopfcyclic.linalg import LazyMatrices
from hopfcyclic import fixtures as fx

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _built(x):
    """Keys of x's faces, degeneracies and taus whose Matrix is built."""
    return {(name, k) for name in ("faces", "degeneracies", "cyclic")
            for k, m in getattr(x, name)._entries.items()
            if isinstance(m, Matrix)}


def _touching_top(x):
    """Keys of every map out of or into X_N, and of tau_N."""
    N, s = x.N, x.step
    return ({("faces", k) for k in x.faces if N in (k[0], k[0] + s)}
            | {("degeneracies", k) for k in x.degeneracies
               if N in (k[0], k[0] - s)}
            | {("cyclic", N)})


def test_an_entry_is_built_once_on_its_first_read():
    calls = []

    def build():
        calls.append(1)
        return Matrix.identity(QQ, 2)
    maps = LazyMatrices({0: build, 1: Matrix.zero(QQ, 1, 1)})
    # listing the keys builds nothing
    assert 0 in maps and len(maps) == 2 and list(maps) == [0, 1]
    assert calls == []
    first = maps[0]
    assert maps[0] is first and calls == [1]
    maps[0] = Matrix.zero(QQ, 2, 2)
    assert maps[0] == Matrix.zero(QQ, 2, 2) and calls == [1]


def _colinear_hom(build, base):
    """build over kZ/2 at N = 6, with the modular pair sigma = g, delta = eps."""
    h = fx.group_algebra(QQ, 2)
    m = modular_pair_module(h, ModularPair({1: QQ.one}, h.coalgebra.counit))
    return build(base(h), m, 6)


@pytest.mark.parametrize("make, hc0", [
    (lambda: cyc_algebra(fx.group_algebra(QQ, 3).algebra, 5), 3),
    (lambda: cyc_algebra(fx.sweedler_hopf(QQ).algebra, 4), None),
    (lambda: cyc_coalgebra(fx.sweedler_hopf(QQ).coalgebra, 4), None),
    (lambda: _colinear_hom(hopf_cocyclic_comodule_algebra,
                           fx.regular_comodule_algebra), None),
    (lambda: _colinear_hom(hopf_cyclic_comodule_coalgebra,
                           fx.function_comodule_coalgebra), None),
], ids=["Cyc(kZ3)", "Cyc(H4)", "Cyc(H4 coalgebra)", "C(B,M)", "C(Z,M)"])
def test_tables_build_no_map_of_the_top_degree(make, hc0):
    x = make()
    assert _built(x) == set()
    res = compare_models(x)
    assert res["agree"]
    for model in ("mixed", "bicomplex"):
        assert cohomology_table(x, model) == res[model]
    if hc0 is not None:
        assert res["mixed"].degrees[0] == hc0
    # the tables read maps up to X_{N-1} only
    assert _built(x) and not _built(x) & _touching_top(x)


def test_the_benchmark_tower_builds_no_quotient_map_above_its_table():
    # the saturate-fp tower: Q and C of the whole cover of degree 4, then
    # the axioms and both models of C truncated to degree 2
    mc, m = (hio.parse_input(os.path.join(ROOT, "bench", "inputs", name))
             for name in ("module-coalgebra-sweedler-regular-gf10007.json",
                          "modcomodule-trivial-sweedler-gf10007.json"))
    t = cover_coalgebra(mc, m, 4)
    q = quotient_module(t, compute_J(t))
    c = coinvariants(q)
    # coinvariants reads the L_g of Q for the algebra generators g = g, x
    # (basis indices 1 and 2) in every degree, and nothing else
    assert algebra_generators(q.hopf) == [1, 2]
    assert {k for k, lh in q.h_action._entries.items()
            if isinstance(lh, Matrix)} == {(n, g) for n in q.spaces
                                           for g in (1, 2)}
    assert _built(q) == _built(c) == set()
    top = truncate(c, 2)
    assert check_axioms(top) == [] and compare_models(top)["agree"]
    for x in (q, c):
        sources = {k if name == "cyclic" else k[0] for name, k in _built(x)}
        assert sources == {0, 1, 2}


def test_a_face_replaced_before_its_first_read_is_the_one_seen(kz2):
    after = cyc_coalgebra(kz2.coalgebra, 3)
    bad = after.faces[1, 1] + Matrix(QQ, 8, 4, {(0, 0): QQ.one})
    after.faces[1, 1] = bad         # replaced after its first read
    before = cyc_coalgebra(kz2.coalgebra, 3)
    before.faces[1, 1] = bad        # replaced before it
    assert before.faces[1, 1] is bad
    # check_axioms names the same broken identities for both
    assert check_axioms(before) == check_axioms(after) != []
    fresh = cyc_coalgebra(kz2.coalgebra, 3)
    fresh.faces[1, 1] = bad
    with pytest.raises(IdentityFailure):
        compare_models(fresh)


def test_truncating_and_dualizing_build_nothing(kz3):
    x = cyc_algebra(kz3.algebra, 4)
    t = truncate(x, 3)
    d = transpose_module(t)
    assert _built(x) == _built(t) == _built(d) == set()
    assert (3, 0) in t.faces and (4, 0) not in t.faces and 3 in d.cyclic
    assert sorted(d.faces) == sorted((n - 1, j) for n, j in t.faces)


def test_an_entry_read_through_a_truncation_is_the_sources(kz3):
    x = cyc_algebra(kz3.algebra, 4)
    t = truncate(truncate(x, 3), 2)
    # read through the truncations first, then from the source
    assert t.faces[2, 2] is x.faces[2, 2]
    assert t.degeneracies[1, 0] is x.degeneracies[1, 0]
    assert t.cyclic[2] is x.cyclic[2]
    # the source's entry, built first, is the one its truncation reads
    assert x.faces[1, 1] is truncate(x, 2).faces[1, 1]
    assert transpose_module(t).faces[1, 2] == x.faces[2, 2].transpose()


def test_a_module_with_unread_maps_is_freed_by_reference_counting(kz3):
    # no builder holds its own module strongly, so a module and its
    # truncations go as soon as the last reference does, with the cycle
    # collector off: a reference cycle would hold every map until it ran
    gc.disable()
    try:
        x = cyc_algebra(kz3.algebra, 4)
        t = truncate(x, 3)
        t.faces[2, 2], x.degeneracies[1, 0]     # some maps read, most not
        held = [x, t, x.faces, x.degeneracies, x.cyclic, t.faces]
        refs = [weakref.ref(obj) for obj in held]
        del x, t, held
        assert [r() for r in refs] == [None] * 6
    finally:
        gc.enable()
