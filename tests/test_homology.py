"""Cohomology tables, the two total-complex models, and their identities."""

import pytest

from hopfcyclic import (QQ, GF, Matrix, cyc_algebra, cohomology_table,
                        hochschild_table, compare_models, cohomology,
                        classes_from_cohomology, AlgebraData, ModularPair,
                        modular_pair_module, hopf_cyclic_complex,
                        trivial_modcomodule)
from hopfcyclic import homology
from hopfcyclic.homology import (mixed_of_cyclic, cyclic_bicomplex,
                                 transpose_module, MixedComplex,
                                 IdentityFailure, OutOfStableRange,
                                 hochschild_b, Total)
from hopfcyclic.cyclic import ParaCyclicModule, truncate
from hopfcyclic import fixtures as fx


def unit_algebra(field=QQ):
    return AlgebraData(field, 1, {(0, 0): {0: field.one}}, {0: field.one},
                       labels=["1"])


def test_cyclic_cohomology_of_the_ground_field():
    x = cyc_algebra(unit_algebra(), 4)
    t = cohomology_table(x, "mixed", 2)
    assert [t.degrees[n] for n in (0, 1, 2)] == [1, 0, 1]


def test_cyclic_cohomology_of_kz2_group_algebra(kz2):
    x = cyc_algebra(kz2.algebra, 4)
    t = cohomology_table(x, "mixed", 2)
    assert [t.degrees[n] for n in (0, 1, 2)] == [2, 0, 2]


def test_cyclic_cohomology_of_product_field():
    x = cyc_algebra(fx.product_field_algebra(), 4)
    t = cohomology_table(x, "bicomplex", 2)
    # two points: HC of each summand adds up
    assert [t.degrees[n] for n in (0, 1, 2)] == [2, 0, 2]


def test_hochschild_of_dual_numbers():
    x = cyc_algebra(fx.dual_numbers_algebra(), 5)
    t = hochschild_table(x, 3)
    assert [t.degrees[n] for n in (0, 1, 2, 3)] == [2, 1, 1, 1]


def test_hochschild_of_ground_field_vanishes_positively():
    x = cyc_algebra(unit_algebra(), 4)
    t = hochschild_table(x, 2)
    assert [t.degrees[n] for n in (0, 1, 2)] == [1, 0, 0]


def test_models_agree_on_fixtures(kz2, kz2_hopf_complex):
    for x in (cyc_algebra(unit_algebra(), 4),
              cyc_algebra(fx.dual_numbers_algebra(), 4),
              cyc_algebra(kz2.algebra, 4),
              kz2_hopf_complex):
        rep = compare_models(x)
        assert rep["agree"], getattr(x, "name", x)
        assert rep["stable_range"] == x.N - 2


def test_models_agree_over_prime_field():
    x = cyc_algebra(fx.group_algebra(GF(3), 2).algebra, 4)
    assert compare_models(x)["agree"]


def test_hopf_cyclic_cohomology_of_kz2(kz2, kz2_hopf_complex):
    # twisted coefficients (sigma = g) kill everything; the trivial pair
    # reproduces the cohomology of the ground field
    t = cohomology_table(kz2_hopf_complex, "mixed", 2)
    assert [t.degrees[n] for n in (0, 1, 2)] == [0, 0, 0]
    from hopfcyclic import hopf_cyclic_complex
    mc = fx.regular_module_coalgebra(kz2)
    c_triv = hopf_cyclic_complex(mc, trivial_modcomodule(kz2), 4)
    t2 = cohomology_table(c_triv, "mixed", 2)
    assert [t2.degrees[n] for n in (0, 1, 2)] == [1, 0, 1]


def test_mixed_complex_identities_hold(kz2_hopf_complex):
    # a chain module is dualized first, so its complex is that of its dual
    ref = mixed_of_cyclic(kz2_hopf_complex)
    dual = mixed_of_cyclic(transpose_module(kz2_hopf_complex))
    assert ref.violations() == [] and dual.violations() == []
    assert (dual.spaces, dual.b, dual.B) == (ref.spaces, ref.b, ref.B)


def test_bicomplex_identities_hold(kz2_hopf_complex):
    bic = cyclic_bicomplex(kz2_hopf_complex)
    assert bic.violations() == []


# Damage of one operator in row 2 of CC(Cyc(kZ/3)) at N = 4: the slot and
# parity of the damaged entry, the homology helper that builds it, and
# every identity the damage breaks.  Each of the six identities is named.
ROW = 2
DAMAGES = [
    ("vert", 0, "hochschild_b",
     ["b b != 0 from row 1", "b b != 0 from row 2",
      "-b'(1 - lambda) + (1 - lambda)b != 0 from row 2",
      "bN - Nb' != 0 from row 2"]),
    ("vert", 1, "hochschild_b_prime", ["b' b' != 0 from row 2"]),
    ("horiz", 0, "_one_minus_lambda",
     ["N(1 - lambda) != 0 in row 2", "(1 - lambda)N != 0 in row 2",
      "-b'(1 - lambda) + (1 - lambda)b != 0 from row 1",
      "-b'(1 - lambda) + (1 - lambda)b != 0 from row 2"]),
    ("horiz", 1, "_norm", ["bN - Nb' != 0 from row 2"]),
]


def _bump(m):
    """m plus one unit entry at (0, 0)."""
    return m + Matrix(m.field, m.rows, m.cols, {(0, 0): m.field.one})


@pytest.mark.parametrize("slot, parity, helper, named", DAMAGES)
def test_damaged_bicomplex_operator_is_named(kz3, monkeypatch, slot, parity,
                                             helper, named):
    x = cyc_algebra(kz3.algebra, 4)
    bic = cyclic_bicomplex(x)
    pairs = getattr(bic, slot)
    pair = list(pairs[ROW])
    pair[parity] = _bump(pair[parity])
    pairs[ROW] = tuple(pair)
    assert bic.violations() == named
    build = getattr(homology, helper)
    monkeypatch.setattr(homology, helper, lambda x, n: (
        _bump(build(x, n)) if n == ROW else build(x, n)))
    with pytest.raises(IdentityFailure) as err:
        cyclic_bicomplex(x)
    assert str(err.value) == "; ".join(named)


def test_every_bicomplex_identity_has_a_damage():
    templates = {line.rsplit(" ", 1)[0] for *_, named in DAMAGES
                 for line in named}
    assert len(templates) == 6


def _reference_total(x):
    """The offsets and differentials of Tot(CC) of a cocyclic module on
    degrees 0..N, built cell by cell from the classical definition:
    CC^{p,q} = X_q, vertically b on even and -b' on odd columns,
    horizontally 1 - lambda from even and N from odd columns, with
    lambda = (-1)^q tau, and total d = horizontal + vertical."""
    f, top = x.field, x.N

    def faces(q, last):
        return Matrix.lincomb([((-1) ** j, x.faces[(q, j)])
                               for j in x.face_indices(q)[:last]])

    def horizontal(q):
        lam = x.tau(q).scale((-1) ** q)
        one = Matrix.identity(f, x.spaces[q])
        powers = [one]
        for _ in range(q):
            powers.append(lam * powers[-1])
        return one - lam, Matrix.lincomb([(1, m) for m in powers])

    vert = {q: (faces(q, None), faces(q, -1).scale(-1)) for q in range(top)}
    horiz = {q: horizontal(q) for q in range(top + 1)}
    dims = {n: sum(x.spaces[q] for q in range(n + 1)) for n in range(top + 1)}
    offs = {n: {(p, n - p): sum(x.spaces[q] for q in range(n - p + 1, n + 1))
                for p in range(n + 1)} for n in dims}
    diffs = {n: Matrix.from_blocks(f, dims[n + 1], dims[n], [
        block for (p, q), off in offs[n].items() for block in (
            (offs[n + 1][(p + 1, q)], off, horiz[q][p % 2]),
            (offs[n + 1][(p, q + 1)], off, vert[q][p % 2]))])
        for n in range(top)}
    return offs, diffs


@pytest.mark.parametrize("algebra, top", [("kz3", 5), ("sweedler", 4)])
def test_bicomplex_total_complex_spans_degrees_to_n(request, algebra, top):
    x = transpose_module(cyc_algebra(request.getfixturevalue(algebra).algebra,
                                     top))
    total = Total(x, "bicomplex")
    dims, diffs, offs = total.dims, total.diffs, total.offsets
    assert sorted(dims) == list(range(top + 1))
    for n in dims:
        assert dims[n] == sum(x.spaces[q] for q in range(n + 1))
        assert list(offs[n]) == [(p, n - p) for p in range(n + 1)]
    ref_offs, ref_diffs = _reference_total(x)
    assert offs == ref_offs
    assert sorted(diffs) == list(range(top))
    for n in range(top):
        assert diffs[n] == ref_diffs[n], n
    for n in range(top - 1):
        assert (diffs[n + 1] * diffs[n]).is_zero(), n


def test_corrupted_b_operator_is_named():
    x = cyc_algebra(fx.dual_numbers_algebra(), 4)
    mixed = mixed_of_cyclic(transpose_module(x))
    n = sorted(mixed.B)[1]
    mixed.B[n] = Matrix.zero(mixed.field, mixed.B[n].rows, mixed.B[n].cols)
    report = mixed.violations()
    assert report
    assert any("bB + Bb != 0" in line or "B^2 != 0" in line
               for line in report)


def test_mixed_complex_constructor_rejects_corruption():
    x = cyc_algebra(fx.dual_numbers_algebra(), 4)
    mixed = mixed_of_cyclic(transpose_module(x))
    n = sorted(mixed.b)[1]
    bad_b = dict(mixed.b)
    bad_b[n] = Matrix.zero(mixed.field, bad_b[n].rows, bad_b[n].cols)
    with pytest.raises(IdentityFailure):
        MixedComplex(mixed.field, mixed.spaces, bad_b, mixed.B)


def test_hochschild_b_squares_to_zero(kz2_hopf_complex):
    x = kz2_hopf_complex
    # cochain b raises degree, so compose upward
    for n in range(1, x.N):
        b_lo = hochschild_b(x, n - 1)
        b_hi = hochschild_b(x, n)
        if b_lo is not None and b_hi is not None:
            assert (b_hi * b_lo).is_zero()


def test_table_text_and_dict():
    x = cyc_algebra(unit_algebra(), 4)
    t = cohomology_table(x, "mixed", 3)
    d = t.as_dict()
    assert d["model"] == "mixed" and d["degrees"]["0"] == 1
    text = t.text()
    assert "degree" in text and "truncation-affected" in text


def test_tables_compare_over_common_stable_range():
    x = cyc_algebra(unit_algebra(), 5)
    t_long = cohomology_table(x, "mixed", 3)
    t_short = cohomology_table(cyc_algebra(unit_algebra(), 4), "bicomplex", 2)
    assert t_long == t_short


def test_a_table_is_unequal_to_anything_but_a_table():
    # __eq__ returns NotImplemented for a non-table, so == falls back to
    # identity instead of reading the other side's degrees
    t = cohomology_table(cyc_algebra(unit_algebra(), 4), "mixed", 2)
    assert t != None   # noqa: E711
    assert t != {"degrees": t.degrees, "stable_range": t.stable_range}
    assert t.__eq__(None) is NotImplemented


@pytest.mark.parametrize("model", ["mixed", "bicomplex"])
@pytest.mark.parametrize("name, top", [("kz3", 5), ("sweedler", 4),
                                       ("kz2_hopf_complex", None)])
def test_rank_dimensions_equal_the_representative_count(request, name, top,
                                                        model):
    # the tables count ranks; cohomology and classes_from_cohomology build
    # kernel vectors independent modulo the image: the counts must agree
    x = request.getfixturevalue(name)
    if top is not None:
        x = cyc_algebra(x.algebra, top)
    table = cohomology_table(x, model)
    stable = table.stable_range
    assert sorted(table.degrees) == list(range(stable + 1))
    c = Total(x, model)
    for n, dim in table.degrees.items():
        assert len(classes_from_cohomology(x, n, model)) == dim, n
        assert cohomology(c, n, stable)[0] == dim, n
    with pytest.raises(OutOfStableRange):
        cohomology(c, stable + 1, stable)


def test_compare_models_eliminates_each_differential_once(monkeypatch, kz3):
    calls = {"rank": 0, "kernel_basis": 0, "transpose_module": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rank", "kernel_basis"):
        monkeypatch.setattr(Matrix, name, counted(name, getattr(Matrix, name)))
    monkeypatch.setattr(homology, "transpose_module",
                        counted("transpose_module", homology.transpose_module))
    # the top degree of every module either model builder gets, through
    # the operators the two models share
    tops = []
    for name in ("mixed_of_cyclic", "cyclic_bicomplex"):
        def spy(ops, build=getattr(homology, name)):
            x = ops.module
            tops.append(max(max(x.spaces), max(x.cyclic),
                            *(n + x.step for n, _ in x.faces),
                            *(n - x.step for n, _ in x.degeneracies)))
            return build(ops)
        monkeypatch.setattr(homology, name, spy)
    res = compare_models(cyc_algebra(kz3.algebra, 5))
    assert res["agree"] and res["stable_range"] == 3
    # d_0..d_3 in each model, both models built on one dual of the chain
    # module, and no matrix of either model touches X_5
    assert calls == {"rank": 8, "kernel_basis": 0, "transpose_module": 1}
    assert tops == [4, 4]


def test_compare_models_forms_each_cyclic_operator_once(monkeypatch, kz3):
    x = cyc_algebra(kz3.algebra, 5)
    formed = []
    for name in ("hochschild_b", "hochschild_b_prime", "_one_minus_lambda",
                 "_norm"):
        def spy(x, n, name=name, build=getattr(homology, name)):
            formed.append((name, n))
            return build(x, n)
        monkeypatch.setattr(homology, name, spy)
    twist = ParaCyclicModule.T

    def twist_spy(self, n):
        formed.append(("twist", n))
        return twist(self, n)
    monkeypatch.setattr(ParaCyclicModule, "T", twist_spy)
    assert compare_models(x)["agree"]
    # the tables read X_0..X_4: both models share b (None out of X_4),
    # 1 - lambda, N and the twists of the cyclicity verdict; b' is the
    # bicomplex's alone, out of X_0..X_3
    want = [(name, n) for name in ("hochschild_b", "_one_minus_lambda",
                                   "_norm", "twist") for n in range(5)]
    want += [("hochschild_b_prime", n) for n in range(4)]
    assert sorted(formed) == sorted(want)


def _damaged_face(x, n):
    """A copy of the cocyclic module x with the face (n, 0) damaged."""
    y = truncate(x, x.N)
    y.faces[(n, 0)] = _bump(y.faces[(n, 0)])
    return y


def test_tables_check_every_identity_their_degrees_read(kz3):
    x = transpose_module(cyc_algebra(kz3.algebra, 5))
    # d^0_3 : X_3 -> X_4 enters d_3, the last differential the table reads
    with pytest.raises(IdentityFailure):
        compare_models(_damaged_face(x, 3))
    # d^0_4 : X_4 -> X_5 enters no reported degree: the tables no longer
    # build X_5, and only the full model sees the damage
    broken = _damaged_face(x, 4)
    assert compare_models(broken)["agree"]
    with pytest.raises(IdentityFailure):
        mixed_of_cyclic(broken)


def _kz2_hopf_cyclic(field, N):
    """C(H, k_(g, eps)) of the regular module coalgebra of kZ/2."""
    h = fx.group_algebra(field, 2)
    pair = modular_pair_module(h, ModularPair({1: field.one},
                                              {0: field.one, 1: field.one}))
    return hopf_cyclic_complex(fx.regular_module_coalgebra(h), pair, N)


ORACLE_MODULES = [
    ("Cyc(kZ/2)", 5, lambda f, N: cyc_algebra(fx.group_algebra(f, 2).algebra, N)),
    ("Cyc(kZ/3)", 4, lambda f, N: cyc_algebra(fx.group_algebra(f, 3).algebra, N)),
    ("Cyc(H4)", 3, lambda f, N: cyc_algebra(fx.sweedler_hopf(f).algebra, N)),
    ("Cyc(dual numbers)", 5, lambda f, N: cyc_algebra(fx.dual_numbers_algebra(f), N)),
    ("C(kZ/2, (g, eps))", 4, _kz2_hopf_cyclic),
]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF(3)"])
@pytest.mark.parametrize("name, top, build", ORACLE_MODULES,
                         ids=[m[0] for m in ORACLE_MODULES])
def test_tables_equal_the_untruncated_total_complex(field, name, top, build):
    # the tables build their models on degrees 0..nmax+1 only; the oracle
    # reads the same ranks off the total complexes on all of 0..N
    for N in range(top + 1):
        x = build(field, N)
        full = {m: Total(x, m) for m in ("bicomplex", "mixed")}
        for nmax in [None] + list(range(N + 1)):
            want = {m: full[m].cohomology_dims(N - 2 if nmax is None else nmax)
                    for m in full}
            res = compare_models(x, nmax)
            assert res["stable_range"] == N - 2
            assert res["agree"] == all(
                want["bicomplex"][n] == want["mixed"][n]
                for n in want["mixed"] if n <= N - 2)
            for m in full:
                t = cohomology_table(x, m, nmax)
                assert t.degrees == res[m].degrees == want[m], (N, nmax, m)
                assert t.stable_range == res[m].stable_range == N - 2
