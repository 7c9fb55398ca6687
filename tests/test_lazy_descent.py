"""Quotients built on first read: Q = T/J and C = k (x)_H Q form their
spaces, projections and sections at once and each structure map, after
proving that it descends, on its first read.  Read in full, they equal
the eager descent of `_descent.py`, a subspace grown after the quotient
was formed changes nothing a later read checks, and no builder holds its
own module.  What a table builds of them is in test_deferred_maps.py."""

import gc
import weakref

import pytest

from hopfcyclic import (QQ, GF, ModularPair, modular_pair_module,
                        trivial_modcomodule)
from hopfcyclic import fixtures as fx
from hopfcyclic.cyclic import (coinvariants, compute_J, cover_coalgebra,
                               hopf_cyclic_complex, quotient_module)
from hopfcyclic.hopf import check_sayd
from _descent import (eager_coinvariants, eager_quotient_module,
                      read_every_map)


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
