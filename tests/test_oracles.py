"""Independent oracles: closed forms, Morita invariance, Q against F_p."""

import pytest

from hopfcyclic import (QQ, GF, AlgebraData, cyc_algebra, compare_models,
                        cohomology_table, hopf_cyclic_complex,
                        modular_pair_module, trivial_modcomodule)
from hopfcyclic import fixtures as fx

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
        for level in ("T", "Q", "C"):
            dims[level] = hopf_cyclic_complex(xq, mq, 3, level=level).dims()
            dp = hopf_cyclic_complex(xp, mp, 3, level=level).dims()
            assert dims[level] == dp, (type(xq).__name__, level)
        # both covers are already para-cyclic with J = 0; C halves them
        assert dims["T"] == dims["Q"] == {n: 2 ** (n + 1) for n in range(4)}
        assert dims["C"] == {n: 2 ** n for n in range(4)}
        cq = hopf_cyclic_complex(xq, mq, 3)
        cp = hopf_cyclic_complex(xp, mp, 3)
        assert cohomology_table(cq).degrees == cohomology_table(cp).degrees
    with pytest.raises(ValueError):
        hopf_cyclic_complex(xq, mq, 3, level="J")
    with pytest.raises(TypeError):
        hopf_cyclic_complex(xq, mq, 3, 2)    # buffer is keyword-only
