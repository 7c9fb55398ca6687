"""Matrices and subspaces are stored as canonical integer lifts.

A lift (ints, d) stands for the field elements ints[k] / d.  Canonical:
over Q, d > 0 and gcd(d, every int) = 1; over F_p, residues in
range(1, p) over d = 1; never a zero int.  Every kernel output and every
Subspace basis vector is checked to be stored that way, the lift and the
field-element forms of each vector kernel are checked to agree, and
equality and hashing are checked against the lowered entries.  The
constructor's canonicalisation and its refusal of values that are not
field elements are pinned by plain examples.  The Q normaliser, which
hands a canonical table back uncopied, and the index table of permute
are checked against their definitions.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic import QQ, GF, Matrix, Subspace, quotient_space
from hopfcyclic.linalg import SingularMatrix
from hopfcyclic.tensors import (column_blocks, flatten, permute, prod, reshape,
                                slot, unflatten)

FIELDS = [QQ, GF(7), GF(10007)]


def assert_canonical(field, lift):
    ints, d = lift
    assert type(d) is int
    assert all(type(x) is int and x != 0 for x in ints.values())
    if field == QQ:
        assert d > 0 and gcd(d, *ints.values()) == 1
    else:
        assert d == 1 and all(0 < x < field.p for x in ints.values())


def values(field):
    """Q: signs and denominators, zeros included; F_p: any int, which the
    constructor reduces mod p."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-12, 12),
                         st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
    return st.integers(-3 * field.p, 3 * field.p)


def draw_matrix(data, field, rows, cols):
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return Matrix(field, rows, cols, data.draw(
        st.dictionaries(keys, values(field), max_size=rows * cols)))


def draw_vector(data, field, n):
    return data.draw(st.dictionaries(st.integers(0, n - 1), values(field),
                                     max_size=n))


def field_vector(field, vec):
    """vec with its values as field elements and no zeros."""
    out = {k: Fraction(v) if field == QQ else v % field.p for k, v in vec.items()}
    return {k: v for k, v in out.items() if v}


def scaled_lift(field, vec, k):
    """A lift of vec that is not canonical: ints and d both times k."""
    ints, d = field.normalize(*field.integral(field_vector(field, vec)))
    return {i: x * k for i, x in ints.items()}, d * k


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_kernel_output_is_canonical(field, data):
    f = field
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = draw_matrix(data, f, r, k), draw_matrix(data, f, k, c)
    a2 = draw_matrix(data, f, r, k)
    coeff = data.draw(values(f))
    outputs = [a, a * b, a.kron(b), a + a2, a - a2, a.scale(coeff),
               Matrix.lincomb([(coeff, a), (-1, a2), (2, a)]), a.transpose(),
               Matrix.from_blocks(f, r + k, k + c, [(0, 0, a), (r, k, b)]),
               Matrix.from_columns(f, r, a.columns(lifted=True)),
               permute(a.kron(a2), [r, r], (1, 0)),
               reshape(a, 1), slot(b, 2, 3), slot(b, 0, 3), slot(b, 2, 0),
               *column_blocks(a.kron(b), k)]
    n = data.draw(st.integers(1, 4))
    sq = draw_matrix(data, f, n, n)
    try:
        outputs.append(sq.inverse())
    except SingularMatrix:
        pass
    for m in outputs:
        assert_canonical(f, m.lift)
    scale = data.draw(st.integers(1, 6)) * data.draw(st.sampled_from([1, -1]))
    vec = draw_vector(data, f, k)
    assert_canonical(f, a.apply(scaled_lift(f, vec, scale)))
    _, rows = a.rref()
    ker = a.kernel_basis()
    dim, proj, sect = quotient_space(k, ker)
    for lift in rows + ker.lifts() + [proj.lift, sect.lift, ker.basis_matrix().lift]:
        assert_canonical(f, lift)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subspace_basis_stays_canonical_and_both_forms_agree(field, data):
    """Insert each vector as a dict of field elements into one subspace and
    as a scaled, non-canonical lift into another: the two stay equal, every
    stored basis vector is canonical and 1 at its pivot, apply gives the
    lowered lift for a dict, and reduce and coordinates give the same
    canonical lift for a scaled lift as for the canonical one."""
    f = field
    n = data.draw(st.integers(1, 7))
    m = draw_matrix(data, f, data.draw(st.integers(1, 4)), n)
    by_dict, by_lift = Subspace(f, n), Subspace(f, n)
    for _ in range(data.draw(st.integers(0, 9))):
        vec = draw_vector(data, f, n)
        scale = data.draw(st.integers(1, 6)) * data.draw(st.sampled_from([1, -1]))
        grew = by_dict.add_vector(field_vector(f, vec))
        assert by_lift.add_vector(scaled_lift(f, vec, scale)) == grew
        assert by_dict == by_lift
        for p, lift in zip(by_lift.pivots, by_lift.lifts()):
            assert_canonical(f, lift)
            assert lift[0][p] == lift[1]
    for _ in range(3):
        vec = field_vector(f, draw_vector(data, f, n))
        lift = scaled_lift(f, vec, 3)
        canonical = scaled_lift(f, vec, 1)
        image = m.apply(lift)
        assert_canonical(f, image)
        assert m.apply(vec) == f.from_integral(*image)
        assert m.apply(canonical) == image
        for kernel in (by_lift.reduce, by_lift.coordinates):
            out = kernel(lift)
            assert out == kernel(canonical)
            if out is not None:
                assert_canonical(f, out)


def equal_forms(field):
    """Values drawn so that equal entries often come in different forms."""
    if field == QQ:
        return st.sampled_from([0, 1, -1, 2, Fraction(1), Fraction(2, 4),
                                Fraction(1, 2), Fraction(-3, 3), Fraction(4, 2)])
    p = field.p
    return st.sampled_from([0, p, 1, 1 + p, -1, p - 1, 2, 2 - 3 * p])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equality_is_equality_of_entries(field, data):
    f = field
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    a, b = (Matrix(f, rows, cols, data.draw(st.dictionaries(
        keys, equal_forms(f), max_size=rows * cols))) for _ in range(2))
    assert (a == b) == (dict(a.entries) == dict(b.entries))
    if a == b:
        assert hash(a) == hash(b)
    # equal through different kernels
    for same in (a * Matrix.identity(f, cols), (a + b) - b, a.scale(1),
                 a.transpose().transpose()):
        assert same == a and hash(same) == hash(a)


def test_residues_are_reduced_mod_p():
    g = GF(7)
    nine, two = Matrix(g, 1, 1, {(0, 0): 9}), Matrix(g, 1, 1, {(0, 0): 2})
    assert nine == two and hash(nine) == hash(two)
    assert nine == nine * Matrix.identity(g, 1)
    assert nine.entries == {(0, 0): 2}
    assert Matrix(g, 1, 2, {(0, 0): -5, (0, 1): 14}).entries == {(0, 0): 2}


def test_matrices_and_subspaces_over_different_fields_are_unequal():
    q, g = Matrix(QQ, 1, 1, {(0, 0): 2}), Matrix(GF(7), 1, 1, {(0, 0): 2})
    assert q != g and q.lift == g.lift
    assert Matrix(GF(5), 1, 1, {(0, 0): 2}) != g
    assert (Subspace.from_vectors(QQ, 2, [{0: QQ.one}])
            != Subspace.from_vectors(GF(7), 2, [{0: 1}]))


def test_q_ints_become_fractions_in_the_view():
    m = Matrix(QQ, 1, 2, {(0, 0): 3, (0, 1): Fraction(1, 2)})
    assert all(type(v) is Fraction for v in m.entries.values())
    assert m == Matrix(QQ, 1, 2, {(0, 0): Fraction(3), (0, 1): Fraction(2, 4)})


@pytest.mark.parametrize("field, value", [
    (QQ, 0.5), (QQ, "1"), (QQ, None), (QQ, 1j),
    (GF(7), 0.5), (GF(7), Fraction(1, 2)), (GF(7), "1")], ids=repr)
def test_a_value_that_is_not_a_field_element_is_refused(field, value):
    with pytest.raises(TypeError, match=r"entry \(0,1\)"):
        Matrix(field, 1, 2, {(0, 0): 1, (0, 1): value})


@settings(max_examples=200, deadline=None)
@given(ints=st.dictionaries(st.integers(0, 9), st.integers(-40, 40)),
       d=st.integers(-12, 12).filter(bool), common=st.integers(1, 6))
def test_q_normalize_equals_its_definition(ints, d, common):
    """x / d, ints and d sharing a factor: the nonzero ints and d divided by
    their gcd, signed so that d > 0; a dict handed back as it is had no
    zero and is left unchanged, and a canonical lift always comes back."""
    ints = {k: x * common for k, x in ints.items()}
    d *= common
    before = dict(ints)
    g = gcd(d, *ints.values()) * (1 if d > 0 else -1)
    out = QQ.normalize(ints, d)
    assert out == ({k: x // g for k, x in ints.items() if x}, d // g)
    assert ints == before
    if out[0] is ints:
        assert 0 not in ints.values()
    assert QQ.normalize(*out)[0] is out[0]
    assert_canonical(QQ, out)


@pytest.mark.parametrize("cols", [False, True], ids=["rows", "columns"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_permute_moves_each_index_as_its_definition_does(cols, data):
    """Slot j of the new index is slot order[j] of the old one, read off
    unflatten and flatten for every entry of the row or column index."""
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    order = data.draw(st.permutations(range(len(dims))))
    other = data.draw(st.integers(1, 3))
    shape = (other, prod(dims)) if cols else (prod(dims), other)
    m = draw_matrix(data, QQ, *shape)
    new_dims = [dims[o] for o in order]

    def move(i):
        idx = unflatten(i, dims)
        return flatten([idx[o] for o in order], new_dims)
    ints, d = m.lift
    want = {(r, move(c)) if cols else (move(r), c): x
            for (r, c), x in ints.items()}
    got = permute(m, dims, order, cols=cols)
    assert (got.rows, got.cols) == shape and got.lift == (want, d)
