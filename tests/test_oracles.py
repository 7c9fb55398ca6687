"""Independent oracles: closed forms, Morita invariance, Q against F_p,
invariance under a change of basis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic import (QQ, GF, AlgebraData, Matrix, ModuleCoalgebra,
                        cyc_algebra, compare_models, cohomology_table,
                        check_structure, coinvariants, compute_J,
                        cover_algebra, cover_coalgebra,
                        hopf_cyclic_complex, modular_pair_module,
                        quotient_module, trivial_modcomodule, truncate)
from hopfcyclic import fixtures as fx
from hopfcyclic.tensors import matrix_table

FP = GF(10007)


@pytest.mark.parametrize("field,n", [(QQ, 2), (QQ, 3), (FP, 2), (FP, 3),
                                     (FP, 4)], ids=repr)
def test_cyclic_cohomology_of_a_cyclic_group_algebra(field, n):
    # HC^{2k}(kZ/n) = k^n (one class per group element), HC^odd = 0
    res = compare_models(cyc_algebra(fx.group_algebra(field, n).algebra, 4))
    want = {0: n, 1: 0, 2: n}
    assert res["bicomplex"].degrees == res["mixed"].degrees == want
    assert res["agree"]


def _matrix_algebra(field, k):
    """M_k(field) on the matrix units e_ij, flattened to i * k + j."""
    units = [(i, j) for i in range(k) for j in range(k)]
    mul = {(a, b): {} for a in range(k * k) for b in range(k * k)}
    for a, (i, j) in enumerate(units):
        for b, (j2, l) in enumerate(units):
            if j == j2:
                mul[(a, b)] = {i * k + l: field.one}
    unit = {i * k + i: field.one for i in range(k)}
    return AlgebraData(field, k * k, mul, unit,
                       labels=["e%d%d" % u for u in units])


def test_morita_invariance_matrix_algebra_has_the_cyclic_cohomology_of_k():
    table = cohomology_table(cyc_algebra(_matrix_algebra(QQ, 2), 4))
    ground = cohomology_table(cyc_algebra(fx.group_algebra(QQ, 1).algebra, 4))
    assert table.degrees == ground.degrees == {0: 1, 1: 0, 2: 1}


def _pipeline_inputs(field):
    h = fx.group_algebra(field, 2)
    return [(fx.dual_numbers_module_algebra(h), trivial_modcomodule(h)),
            (fx.regular_module_coalgebra(h),
             modular_pair_module(h, fx.trivial_modular_pair(h)))]


def test_pipeline_levels_agree_over_q_and_a_large_prime():
    for (xq, mq), (xp, mp) in zip(_pipeline_inputs(QQ), _pipeline_inputs(FP)):
        dims = {}
        cover = (cover_coalgebra if isinstance(xq, ModuleCoalgebra)
                 else cover_algebra)
        dims["T"] = cover(xq, mq, 3).dims()
        assert dims["T"] == cover(xp, mp, 3).dims(), (type(xq).__name__, "T")
        for level in ("Q", "C"):
            dims[level] = hopf_cyclic_complex(xq, mq, 3, level=level).dims()
            dp = hopf_cyclic_complex(xp, mp, 3, level=level).dims()
            assert dims[level] == dp, (type(xq).__name__, level)
        # both covers are already para-cyclic with J = 0; C halves them
        assert dims["T"] == dims["Q"] == {n: 2 ** (n + 1) for n in range(4)}
        assert dims["C"] == {n: 2 ** n for n in range(4)}
        cq = hopf_cyclic_complex(xq, mq, 3)
        cp = hopf_cyclic_complex(xp, mp, 3)
        assert cohomology_table(cq).degrees == cohomology_table(cp).degrees
    for level in ("T", "J"):   # the cover is cover_algebra's, not a level
        with pytest.raises(ValueError, match="level must be Q or C"):
            hopf_cyclic_complex(xq, mq, 3, level=level)
    with pytest.raises(TypeError):
        hopf_cyclic_complex(xq, mq, 3, 2)    # buffer is keyword-only


def test_sweedler_saturation_over_q_and_a_large_prime():
    # Sweedler's H4 acting on itself with trivial coefficients: J at every
    # cover degree, C and both tables agree over Q and GF(10007).  At N=2
    # the stable range holds degree 0, so the tables are not empty; Q and
    # C are descended in degrees 0..N only, as hopf_cyclic_complex does.
    N, buffer = 2, 2
    seen = []
    for field in (QQ, FP):
        h = fx.sweedler_hopf(field)
        t = cover_coalgebra(fx.regular_module_coalgebra(h),
                            trivial_modcomodule(h), N + buffer)
        j = compute_J(t, buffer=buffer)
        q = quotient_module(truncate(t, N), {n: j[n] for n in range(N + 1)})
        c = coinvariants(q)
        res = compare_models(c)
        assert res["agree"]
        seen.append(({n: j[n].dim for n in j}, c.dims(),
                     res["bicomplex"].degrees, res["mixed"].degrees))
    assert seen[0] == seen[1]
    assert seen[0][0][N + buffer] > 0          # J is not trivially zero
    assert seen[0][2] == {0: 1}                # a table is compared at all


def _product(a, b):
    """A x B on the basis of A followed by the basis of B, componentwise."""
    f, da = a.field, a.dim
    mul = {(i, j): {} for i in range(da + b.dim) for j in range(da + b.dim)}
    mul.update({(i, j): dict(v) for (i, j), v in a.mul.items()})
    mul.update({(da + i, da + j): {da + k: x for k, x in v.items()}
                for (i, j), v in b.mul.items()})
    unit = dict(a.unit)
    unit.update({da + k: x for k, x in b.unit.items()})
    return AlgebraData(f, da + b.dim, mul, unit,
                       labels=list(a.labels) + list(b.labels))


@pytest.mark.parametrize("field,factors,want", [
    (QQ, ("kZ/2", "dual numbers"), {0: 4, 1: 0, 2: 4}),
    (FP, ("dual numbers", "kZ/3"), {0: 5, 1: 0, 2: 5})],
    ids=["kZ2-x-dual-numbers-Q", "dual-numbers-x-kZ3-GF10007"])
def test_cyclic_cohomology_of_a_product_is_the_direct_sum(field, factors, want):
    # HC(A x B) = HC(A) (+) HC(B), in both models
    build = {"kZ/2": lambda: fx.group_algebra(field, 2).algebra,
             "kZ/3": lambda: fx.group_algebra(field, 3).algebra,
             "dual numbers": lambda: fx.dual_numbers_algebra(field)}
    a, b = (build[name]() for name in factors)
    res = compare_models(cyc_algebra(_product(a, b), 4))
    assert res["agree"]
    assert res["bicomplex"].degrees == res["mixed"].degrees == want
    ta, tb = (cohomology_table(cyc_algebra(x, 4)).degrees for x in (a, b))
    assert {n: ta[n] + tb[n] for n in ta} == want


def _invertible(data, d):
    """A random invertible P = L U over Q: L lower and U upper triangular,
    every entry on or below (above) the diagonal a nonzero fraction with
    denominator 2, 3, 5 or 7, so even the simplest draw is no permutation."""
    q = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                  st.sampled_from([2, 3, 5, 7]))
    lower, upper = ({(i, j): data.draw(q)
                     for i in range(d) for j in range(d) if keep(i, j)}
                    for keep in (lambda i, j: i >= j, lambda i, j: i <= j))
    return Matrix(QQ, d, d, lower) * Matrix(QQ, d, d, upper)


def _change_basis(a, p):
    """A on the basis given by the columns of p: m' = p^-1 m (p (x) p) and
    u' = p^-1 u."""
    d, pinv = a.dim, p.inverse()
    m, u = a.matrices()
    mul = matrix_table(pinv * m * p.kron(p), [d, d], [d])
    unit = matrix_table(pinv * u, [1], [d])[0]
    return AlgebraData(a.field, d, mul, unit)


@pytest.mark.parametrize("n", [2, 3], ids=["kZ2", "kZ3"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_cyclic_cohomology_is_invariant_under_a_change_of_basis(n, data):
    # the tables of Cyc(A) do not see the basis: a rational change of basis
    # gives structure constants with denominators, and the same tables
    a = fx.group_algebra(QQ, n).algebra
    b = _change_basis(a, _invertible(data, n))
    assert check_structure(b) == []
    assert any(x.denominator > 1 for v in b.mul.values() for x in v.values())
    want = compare_models(cyc_algebra(a, 4))
    got = compare_models(cyc_algebra(b, 4))
    assert got["agree"]
    for model in ("bicomplex", "mixed"):
        assert got[model].degrees == want[model].degrees == {0: n, 1: 0, 2: n}
