"""Quotients built on first read: Q = T/J and C = k (x)_H Q form their
spaces, projections and sections at once and each structure map, after
proving that it descends, on its first read.  Read in full, they equal
the eager descent of `_descent.py`, whose C is spanned from every L_h
where coinvariants reads the generators' L_g only; a subspace grown after
the quotient was formed changes nothing a later read checks, and no
builder holds its own module.  The cover's tau and L_h are built on first
read too.  What a table builds of them is in test_deferred_maps.py."""

import gc
import os
import weakref

import pytest

from hopfcyclic import (QQ, GF, Matrix, ModularPair, modular_pair_module,
                        trivial_modcomodule)
from hopfcyclic import fixtures as fx
from hopfcyclic import io as hio
from hopfcyclic.cli import fixture_library
from hopfcyclic.cyclic import (coinvariants, compute_J, cover_coalgebra,
                               hopf_cyclic_complex, quotient_module)
from hopfcyclic.hopf import algebra_generators, check_sayd
from _descent import (eager_coinvariants, eager_quotient_module,
                      read_every_map)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sweedler_cover(field, N):
    h = fx.sweedler_hopf(field)
    return cover_coalgebra(fx.regular_module_coalgebra(h),
                           trivial_modcomodule(h), N)


def _same(got, want):
    """got and want have the same spaces, structure maps, H-action,
    projections and sections."""
    assert got.name == want.name and got.spaces == want.spaces
    assert got.orientation == want.orientation
    for attr in ("faces", "degeneracies", "cyclic", "h_action"):
        assert getattr(got, attr) == getattr(want, attr), attr
    for part in ("proj", "sect"):
        assert got.meta[part] == want.meta[part], part


def test_q_and_c_of_the_sweedler_cover_of_degree_4_are_the_eager_ones():
    t = _sweedler_cover(GF(10007), 4)
    j = compute_J(t)
    q, want = quotient_module(t, j), eager_quotient_module(t, j)
    _same(q, want)
    _same(coinvariants(q), eager_coinvariants(want))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_c_of_sweedlers_sayd_pair_is_the_eager_one(field):
    # the route without J: C is the coinvariants of the degree-N cover,
    # each map checked on H+T vector by vector when it is first read
    h, one = fx.sweedler_hopf(field), field.one
    mc = fx.regular_module_coalgebra(h)
    m = modular_pair_module(h, ModularPair({1: one}, {0: one, 1: one}))
    assert check_sayd(m) == []
    got = hopf_cyclic_complex(mc, m, 3)
    t = cover_coalgebra(mc, m, 3)
    _same(got, eager_coinvariants(t, name="C(Q(%s))" % t.name))


def test_a_j_grown_after_quotient_module_gives_the_eager_maps():
    # the quotient checks against J as it was formed from: J_1 grown by a
    # vector that d_0 sends outside J_2 is not read, so the maps, checked
    # and formed on first read, are those the eager descent formed at once
    t = _sweedler_cover(GF(10007), 3)
    j = compute_J(t)
    want = eager_quotient_module(t, j)
    q = quotient_module(t, j)
    one = t.field.one
    k = next(i for i in range(t.spaces[1]) if not j[1].contains({i: one}))
    assert j[1].add_vector({k: one})
    _same(read_every_map(q), want)
    _same(coinvariants(q), eager_coinvariants(want))


def test_a_quotient_with_unread_maps_is_freed_by_reference_counting():
    # no builder of Q or C holds its own module, so the tower goes as soon
    # as the last reference does, with the cycle collector off
    gc.disable()
    try:
        t = _sweedler_cover(GF(10007), 2)
        q = quotient_module(t, compute_J(t, buffer=1))
        c = coinvariants(q)
        q.faces[1, 0], c.cyclic[1]     # some maps read, most not
        held = [t, q, c, q.faces, q.h_action, c.faces, c.cyclic]
        refs = [weakref.ref(obj) for obj in held]
        del t, q, c, held
        assert [r() for r in refs] == [None] * 7
    finally:
        gc.enable()


def test_an_unread_cover_is_freed_by_reference_counting():
    # the cover's builders hold no module, and the store of the actions as
    # the cover built them holds itself weakly: with the cycle collector
    # off, the cover goes with its last reference
    gc.disable()
    try:
        t = _sweedler_cover(GF(10007), 3)
        t.act_h(2, 2), t.faces[1, 0]      # L_x through degree 2, one face
        store = t.h_action._entries[3, 0].func.__self__
        held = [t, t.h_action, t.cyclic, t.faces, store]
        refs = [weakref.ref(obj) for obj in held]
        del t, store, held
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_the_sayd_route_leaves_the_unread_cover_maps_as_builders():
    # Sweedler's generators are g and x (basis 1, g, x, gx): C reads their
    # L_g on the cover in every degree, and each L_x reads L_1 one degree
    # down from the cover's own store, so the cover's entries for L_1 and
    # L_gx are never run; no map of C is read, so no tau of the cover is
    h, one = fx.sweedler_hopf(QQ), QQ.one
    m = modular_pair_module(h, ModularPair({1: one}, {0: one, 1: one}))
    c = hopf_cyclic_complex(fx.regular_module_coalgebra(h), m, 3)
    t = c.meta["parent"]
    assert algebra_generators(h) == [1, 2]

    def built(maps):
        return {k for k, e in maps._entries.items() if isinstance(e, Matrix)}
    assert built(t.h_action) == {(n, g) for n in t.spaces for g in (1, 2)}
    assert built(t.cyclic) == set()
    c.cyclic[1]
    assert built(t.cyclic) == {1}


def test_a_replaced_action_changes_only_its_own_entry():
    # L_h of degree 2 reads the degree-1 actions as the cover built them,
    # not the entries of h_action, whichever is read first
    t, ref = (_sweedler_cover(GF(10007), 2) for _ in range(2))
    bad = {h: t.act_h(1, h).scale(2) for h in range(4)}
    for h, m in bad.items():
        t.h_action[1, h] = m
    assert all(t.act_h(1, h) is m for h, m in bad.items())
    assert [t.act_h(2, h) for h in range(4)] == [ref.act_h(2, h) for h in range(4)]


def _coefficient_pairs():
    """(id, module (co)algebra, coefficients, N): every shipped module
    (co)algebra fixture with every shipped coefficient fixture over its
    Hopf algebra, over Q and GF(7), and the benchmark's Sweedler inputs
    over GF(10007) and the same objects over Q."""
    shipped = [("module-algebra-dual-numbers", "modcomodule-trivial-kz2", 3),
               ("module-algebra-dual-numbers", "modcomodule-modular-pair-kz2", 3),
               ("module-coalgebra-kz2-regular", "modcomodule-trivial-kz2", 3),
               ("module-coalgebra-kz2-regular", "modcomodule-modular-pair-kz2", 3),
               ("module-coalgebra-sweedler-regular",
                "modcomodule-modular-pair-sweedler", 3)]
    out = []
    for field, tag in ((QQ, "Q"), (GF(7), "GF7")):
        lib = dict(fixture_library(field))
        out += [pytest.param(lib[x + ".json"], lib[m + ".json"], N,
                             id="%s with %s over %s" % (x, m, tag))
                for x, m, N in shipped]
    mc, m = (hio.parse_input(os.path.join(ROOT, "bench", "inputs", name))
             for name in ("module-coalgebra-sweedler-regular-gf10007.json",
                          "modcomodule-trivial-sweedler-gf10007.json"))
    h = fx.sweedler_hopf(QQ)
    return out + [
        pytest.param(mc, m, 2, id="bench inputs over GF10007"),
        pytest.param(fx.regular_module_coalgebra(h), trivial_modcomodule(h), 2,
                     id="bench inputs over Q")]


@pytest.mark.parametrize("x, m, N", _coefficient_pairs())
def test_c_from_the_generators_is_the_eager_c_of_every_h(x, m, N):
    # H+Q spanned from the generators' L_g alone is H+Q spanned from every
    # L_h: the same reduced basis, so C is the same matrix for matrix, on
    # the route through J and on the SAYD route alike
    c = hopf_cyclic_complex(x, m, N)
    q = c.meta["parent"]
    _same(read_every_map(c), eager_coinvariants(q, name=c.name))
