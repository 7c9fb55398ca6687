"""Exact field arithmetic and sparse linear algebra against dense oracles."""

import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from hopfcyclic import QQ, GF, field_by_name, Matrix, Subspace, quotient_space
from hopfcyclic.fields import MR_BOUND, is_prime
from hopfcyclic.linalg import ShapeMismatch, SingularMatrix

from _loops import add_into, vec_add, vec_scale, vec_sub


def dense_rref_oracle(field, rows, cols, entries):
    """Plain dense Gauss-Jordan elimination, written independently of
    Matrix: (pivot columns, reduced rows as zero-free dicts)."""
    a = [[entries.get((i, j), field.zero) for j in range(cols)]
         for i in range(rows)]
    r, pivots = 0, []
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not field.is_zero(a[i][c])),
                   None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y))
                        for x, y in zip(a[i], a[r])]
        r += 1
        pivots.append(c)
    return pivots, [{j: x for j, x in enumerate(row) if not field.is_zero(x)}
                    for row in a[:r]]


def lift_of(field, vec):
    """vec, a dict of field elements, as the canonical lift that rref,
    Subspace.reduce and Subspace.coordinates work in."""
    return field.normalize(*field.integral(vec))


def lowered(field, lift):
    """A lift as a dict of field elements; None stays None."""
    return None if lift is None else field.from_integral(*lift)


def dense_rank_oracle(field, rows, cols, entries):
    return len(dense_rref_oracle(field, rows, cols, entries)[0])


FIELDS = [QQ, GF(2), GF(5)]


def small_entries(field):
    if field is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(min_value=0, max_value=field.p - 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_field_axioms(field):
    xs = ([Fraction(a, b) for a in (-2, -1, 0, 1, 3) for b in (1, 2)]
          if field is QQ else list(range(field.p)))
    for x in xs:
        assert field.add(x, field.zero) == x
        assert field.mul(x, field.one) == x
        assert field.is_zero(field.add(x, field.neg(x)))
        if not field.is_zero(x):
            assert field.mul(x, field.inv(x)) == field.one
        for y in xs:
            assert field.add(x, y) == field.add(y, x)
            assert field.mul(x, y) == field.mul(y, x)
            for z in xs:
                assert field.mul(x, field.add(y, z)) == \
                    field.add(field.mul(x, y), field.mul(x, z))


def test_field_by_name_round_trip():
    assert field_by_name("Q") is QQ
    assert field_by_name("7") == GF(7)
    assert field_by_name("7").p == 7
    with pytest.raises(ValueError):
        GF(6)


def test_large_primes_are_certified_quickly():
    # a field tag is outside input: a 20-digit prime must not stall parsing
    start = time.perf_counter()
    assert GF(10**19 + 51).p == 10**19 + 51
    assert GF(10**14 + 31).p == 10**14 + 31
    assert GF(MR_BOUND - 168).p == MR_BOUND - 168  # the largest prime below
    assert time.perf_counter() - start < 0.05
    for composite in (561, 3215031751, (10**9 + 7) * (10**9 + 9)):
        with pytest.raises(ValueError, match="not prime"):
            GF(composite)
    with pytest.raises(ValueError, match="too large"):
        GF(MR_BOUND)


def test_primality_matches_trial_division_below_ten_thousand():
    assert [p for p in range(10000) if is_prime(p)] == \
        [p for p in range(2, 10000)
         if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def test_prime_field_division():
    f = GF(7)
    assert f(3, 5) == (3 * pow(5, -1, 7)) % 7
    with pytest.raises(ZeroDivisionError):
        f(1, 7)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_matches_dense_oracle(field, data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        small_entries(field), max_size=12))
    m = Matrix(field, rows, cols, entries)
    assert m.rank() == dense_rank_oracle(field, rows, cols, entries)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10007)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_of_nonzeros_in_distinct_rows_and_columns(field, data):
    # such a matrix has one pivot per nonzero, and rank counts them without
    # eliminating; a near miss with one more nonzero in a used row or a
    # used column goes through rref, whose pivots rank must agree with
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    k = data.draw(st.integers(0, min(rows, cols)))
    where = zip(data.draw(st.permutations(range(rows))),
                data.draw(st.permutations(range(cols))))
    nonzero = small_entries(field).filter(bool)
    entries = {ij: data.draw(nonzero) for ij in list(where)[:k]}
    used_rows, used_cols = sorted({i for i, _ in entries}), {j for _, j in entries}
    miss = data.draw(st.sampled_from(["none", "row", "column"]))
    free = []
    if miss == "row":        # a used row, an unused column
        free = [(i, j) for i in used_rows for j in range(cols) if j not in used_cols]
    elif miss == "column":   # an unused row, a used column
        free = [(i, j) for i in range(rows) if i not in used_rows
                for j in sorted(used_cols)]
    if free:
        entries[data.draw(st.sampled_from(free))] = data.draw(nonzero)
    m = Matrix(field, rows, cols, entries)
    with mock.patch.object(Matrix, "rref", autospec=True,
                           side_effect=Matrix.rref) as rref:
        r = m.rank()
    assert r == len(m.rref()[0]) == dense_rank_oracle(field, rows, cols, entries)
    assert rref.called == (len(entries) > k)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_is_killed_and_full(field, data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        small_entries(field), max_size=10))
    m = Matrix(field, rows, cols, entries)
    ker = m.kernel_basis()
    # rank-nullity, and every basis vector really is in the kernel
    assert ker.dim == cols - m.rank()
    for v in ker.basis:
        assert not m.apply(v)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_product_associative(field, data):
    def draw_mat(r, c):
        ent = data.draw(st.dictionaries(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
            small_entries(field), max_size=8))
        return Matrix(field, r, c, ent)
    a, b, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), \
        data.draw(st.integers(1, 4)),
    d = data.draw(st.integers(1, 4))
    m1, m2, m3 = draw_mat(a, b), draw_mat(b, c), draw_mat(c, d)
    assert (m1 * m2) * m3 == m1 * (m2 * m3)


def kernel_entries(field):
    """Entries for the product kernel: over Q, mixed denominators and signs."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12]))
    return st.integers(1, field.p - 1)


def reference_product(f, a, b):
    """a * b entry by entry with f.add and f.mul, zeros dropped."""
    out = {}
    for i in range(a.rows):
        for j in range(b.cols):
            x = f.zero
            for k in range(a.cols):
                v, w = a.entries.get((i, k)), b.entries.get((k, j))
                if v is not None and w is not None:
                    x = f.add(x, f.mul(v, w))
            if not f.is_zero(x):
                out[(i, j)] = x
    return out


def reference_kron(f, a, b):
    return {(i * b.rows + k, j * b.cols + l): f.mul(v, w)
            for (i, j), v in a.entries.items()
            for (k, l), w in b.entries.items()}


def assert_stored_entries_are_field_elements(m):
    p = getattr(m.field, "p", None)
    for v in m.entries.values():
        if p is None:
            assert type(v) is Fraction and v != 0
        else:
            assert type(v) is int and 0 < v < p


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_kernel_matches_field_arithmetic(field, data):
    """Products and Kronecker products summed in ints over a common
    denominator (or mod p once per entry) equal the entry-by-entry ones."""
    f = field

    def draw(r, c):
        return Matrix(f, r, c, data.draw(st.dictionaries(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
            kernel_entries(f), max_size=r * c)))

    def block(rows, cols, parts, vertical):
        # parts side by side (or stacked), each part scaled by its sign
        ent, off = {}, 0
        for m, sign in parts:
            for (i, j), v in m.entries.items():
                ent[(i + off, j) if vertical else (i, j + off)] = f.mul(sign, v)
            off += m.rows if vertical else m.cols
        return Matrix(f, rows, cols, ent)

    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    k2 = data.draw(st.integers(1, 3))
    x, y, z, w = draw(r, k), draw(k, c), draw(r, k2), draw(k2, c)
    one, minus = f.one, f.neg(f.one)
    # a * b = x*y - x*y + z*w: the x*y terms cancel inside every sum
    a = block(r, 2 * k + k2, [(x, one), (x, one), (z, one)], False)
    b = block(2 * k + k2, c, [(y, one), (y, minus), (w, one)], True)
    ab = a * b
    assert ab.entries == reference_product(f, z, w)
    for prod, ref in ((ab, reference_product(f, a, b)),
                      (x * y, reference_product(f, x, y)),
                      (x.kron(w), reference_kron(f, x, w)),
                      (a.kron(b), reference_kron(f, a, b))):
        assert prod.entries == ref
        assert_stored_entries_are_field_elements(prod)
    # with no z*w left, the product cancels exactly to zero
    a0 = block(r, 2 * k, [(x, one), (x, one)], False)
    b0 = block(2 * k, c, [(y, one), (y, minus)], True)
    assert (a0 * b0).is_zero()


def sparse_matrix(data, field, rows, cols, fill_diagonal=False):
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        small_entries(field), max_size=rows * cols // 2))
    if fill_diagonal:
        for i in range(min(rows, cols)):
            if field.is_zero(entries.get((i, i), field.zero)):
                entries[(i, i)] = field.one
    return Matrix(field, rows, cols, entries), entries


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_elimination_engine(field, data):
    """rref, kernel_basis, rank and inverse share one elimination routine."""
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    m, entries = sparse_matrix(data, field, rows, cols)
    r = dense_rank_oracle(field, rows, cols, entries)
    pivots, lifts = m.rref()
    assert (pivots, [lowered(field, r) for r in lifts]) == \
        dense_rref_oracle(field, rows, cols, entries)
    assert m.rank() == r
    ker = m.kernel_basis()
    assert ker.dim == cols - r
    for v in ker.basis:
        assert not m.apply(v)
    n = data.draw(st.integers(1, 8))
    a, entries = sparse_matrix(data, field, n, n,
                               fill_diagonal=data.draw(st.booleans()))
    if dense_rank_oracle(field, n, n, entries) < n:
        with pytest.raises(SingularMatrix):
            a.inverse()
    else:
        inv = a.inverse()
        assert a * inv == Matrix.identity(field, n) == inv * a


def test_entries_are_frozen_once_applied():
    """Entries are read-only from construction, before and after apply."""
    f = QQ
    m = Matrix(f, 2, 2, {(0, 0): f.one, (0, 1): f(3), (1, 1): f.one})
    with pytest.raises(TypeError):
        m.entries[(1, 0)] = f.one
    assert m.apply({1: f.one}) == {0: f(3), 1: f.one}
    with pytest.raises(TypeError):
        m.entries[(1, 0)] = f.one
    assert m.apply({0: f.one}) == {0: f.one}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("use", ["mul", "rmul", "kron", "add", "sub", "scale",
                                 "lincomb", "apply"])
def test_entries_are_frozen_once_read_by_a_kernel(field, use):
    """Entries are read-only from construction, before and after a
    product, sum or apply reads the matrix, and no kernel changes them."""
    f = field
    m = Matrix(f, 2, 2, {(0, 0): f(3), (0, 1): f(2), (1, 1): f.one})
    i2 = Matrix.identity(f, 2)
    run = {"mul": lambda: m * i2, "rmul": lambda: i2 * m,
           "kron": lambda: m.kron(i2), "add": lambda: m + i2,
           "sub": lambda: i2 - m, "scale": lambda: m.scale(f(5)),
           "lincomb": lambda: Matrix.lincomb([(f(4), i2), (f(6), m)]),
           "apply": lambda: m.apply({1: f.one})}
    before = dict(m.entries)
    with pytest.raises(TypeError):
        m.entries[(1, 0)] = f.one
    run[use]()
    with pytest.raises(TypeError):
        m.entries[(1, 0)] = f.one
    assert m.entries == before
    assert m * i2 == m and (m - m).is_zero()
    assert m.scale(f(3)).entries == {k: f.mul(f(3), v) for k, v in before.items()}


def _reference_add(a, b):
    """The field-arithmetic Matrix.__add__ the integer sum kernel replaced:
    one field add and one zero test per entry."""
    f = a.field
    ent = dict(a.entries)
    for k, v in b.entries.items():
        w = f.add(ent.get(k, f.zero), v)
        if f.is_zero(w):
            ent.pop(k, None)
        else:
            ent[k] = w
    return Matrix(f, a.rows, a.cols, ent)


def _reference_scale(a, c):
    """The field-arithmetic Matrix.scale the integer sum kernel replaced."""
    f = a.field
    if f.is_zero(c):
        return Matrix(f, a.rows, a.cols)
    return Matrix(f, a.rows, a.cols, {k: f.mul(c, v) for k, v in a.entries.items()})


def _reference_mul(a, b):
    """The field-arithmetic product: one field multiply and add per term."""
    f = a.field
    ent = {}
    for (i, k), v in a.entries.items():
        for (k2, j), w in b.entries.items():
            if k == k2:
                add_into(f, ent, (i, j), f.mul(v, w))
    return Matrix(f, a.rows, b.cols, ent)


def sum_entries(field):
    """Q: mixed denominators; GF(p): residues near p and near 0."""
    if field is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return st.one_of(st.integers(field.p - 3, field.p - 1), st.integers(0, 2))


def assert_same_entries(m, want):
    assert m.entries == want.entries
    assert_stored_entries_are_field_elements(m)


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sum_kernel_matches_field_loops(field, data):
    """+, -, scale and lincomb, with matrix terms (c, M) and product terms
    (c, A, B) mixed, against the field-loop reference: same entries,
    zero-free, Fractions over Q and ints in range(p) over F_p."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    inner = data.draw(st.integers(1, 4))

    def draw_matrix(rows=rows, cols=cols):
        keys = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return Matrix(field, rows, cols, data.draw(st.dictionaries(
            keys, sum_entries(field), max_size=rows * cols)))

    a, b, c = draw_matrix(), draw_matrix(), draw_matrix()
    left, right = draw_matrix(rows, inner), draw_matrix(inner, cols)
    left2, right2 = draw_matrix(rows, inner), draw_matrix(inner, cols)
    minus_one = field.neg(field.one)
    coeffs = [data.draw(sum_entries(field)) for _ in range(5)]
    assert_same_entries(a + b, _reference_add(a, b))
    assert_same_entries(a - b, _reference_add(a, _reference_scale(b, minus_one)))
    assert_same_entries(a - a, Matrix(field, rows, cols))
    assert_same_entries(a.scale(coeffs[0]), _reference_scale(a, coeffs[0]))
    assert_same_entries(a.scale(field.zero), Matrix(field, rows, cols))
    want = Matrix(field, rows, cols)
    for x, m in zip(coeffs[:3] + [minus_one], (a, b, c, a)):
        want = _reference_add(want, _reference_scale(m, x))
    assert_same_entries(Matrix.lincomb(list(zip(coeffs[:3] + [-1], (a, b, c, a)))),
                        want)
    assert_same_entries(left * right, _reference_mul(left, right))
    # matrix and product terms in one sum, a zero coefficient among them
    for x, m in ((coeffs[3], _reference_mul(left, right)),
                 (minus_one, _reference_mul(left2, right2))):
        want = _reference_add(want, _reference_scale(m, x))
    terms = [(coeffs[0], a), (coeffs[3], left, right), (field.zero, left, right2),
             (coeffs[1], b), (-1, left2, right2), (coeffs[2], c), (-1, a),
             (0, c)]
    assert_same_entries(Matrix.lincomb(terms), want)
    assert_same_entries(Matrix.lincomb([(coeffs[4], left, right)]),
                        _reference_scale(_reference_mul(left, right), coeffs[4]))
    assert Matrix.lincomb([(1, left, right), (-1, left, right)]).is_zero()
    assert Matrix.lincomb([(coeffs[4], left, right),
                           (field.neg(coeffs[4]), left, right), (0, a)]).is_zero()
    with pytest.raises(ShapeMismatch):
        a + Matrix(field, rows + 1, cols)
    with pytest.raises(ShapeMismatch):
        Matrix.lincomb([(field.one, a), (field.one, Matrix(field, rows, cols + 1))])
    with pytest.raises(ShapeMismatch, match="mul"):     # the inner dimensions
        Matrix.lincomb([(1, a), (1, left, Matrix(field, inner + 1, cols))])
    with pytest.raises(ShapeMismatch, match="add"):     # the outer shapes
        Matrix.lincomb([(1, left, right), (1, left, Matrix(field, inner, cols + 1))])
    with pytest.raises(ShapeMismatch, match="add"):
        Matrix.lincomb([(1, Matrix(field, rows + 1, cols)), (1, left, right)])


def test_sum_kernel_cancels_to_zero():
    """Mixed denominators over Q and entries near p over GF(10007) that
    cancel exactly leave no stored zero, in sums of matrices and of
    products alike."""
    f = QQ
    a = Matrix(f, 1, 3, {(0, 0): f(1, 2), (0, 1): f(1, 3), (0, 2): f(5, 7)})
    b = Matrix(f, 1, 3, {(0, 0): f(1, 6), (0, 1): f(1, 9), (0, 2): f(1, 7)})
    s = Matrix.lincomb([(1, a), (-3, b), (f(0), b)])
    assert s.entries == {(0, 2): f(2, 7)}
    assert (a.scale(f(2, 3)) - b.scale(4)).entries == {(0, 0): f(-1, 3), (0, 1): f(-2, 9),
                                                      (0, 2): f(-2, 21)}
    # (1/2)(3/5) a - 9 (1/10) b + 0 (1/10) b = (3/10)(a - 3b): 3/35 is left
    col = Matrix(f, 1, 1, {(0, 0): f(3, 5)})
    tenth = Matrix(f, 1, 1, {(0, 0): f(1, 10)})
    p = Matrix.lincomb([(f(1, 2), col, a), (-9, tenth, b), (0, tenth, b)])
    assert p.entries == {(0, 2): f(3, 35)} and p.lift == ({(0, 2): 3}, 35)
    assert Matrix.lincomb([(1, col, a), (-1, col, a)]).lift == ({}, 1)
    assert Matrix.lincomb([(f(1, 3), col, a), (f(-3, 5), a)]).entries == {
        (0, 0): f(-1, 5), (0, 1): f(-2, 15), (0, 2): f(-2, 7)}
    g = GF(10007)
    x = Matrix(g, 2, 2, {(0, 0): 10006, (1, 1): 10005, (0, 1): 3})
    y = Matrix(g, 2, 2, {(0, 0): 1, (1, 1): 2, (0, 1): 10004})
    assert (x + y).is_zero()
    assert Matrix.lincomb([(10006, x), (1, y)]).entries == {
        (0, 0): 2, (1, 1): 4, (0, 1): 10001}
    # y = -x, so x x = [[1, -9], [0, 4]] = -x y mod p
    assert Matrix.lincomb([(1, x, x), (1, x, y)]).is_zero()
    assert Matrix.lincomb([(1, x, x), (10006, x, y), (0, y, y)]).entries == {
        (0, 0): 2, (1, 1): 8, (0, 1): 10007 - 18}


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_integral_lowers_in_one_pass(field, data):
    """x / d for every int x, as a new zero-free dict of field elements:
    ints that lower to zero (0 and multiples of p), negative ints, and
    denominators other than 1, negative ones and one that is 1 mod p."""
    p = 10007
    ints = data.draw(st.dictionaries(st.integers(0, 9), st.one_of(
        st.sampled_from([0, p, -p, -3 * p, 2 * p * p]),
        st.integers(-3 * p, 3 * p))))
    d = data.draw(st.sampled_from([1, 2, 6, -3, -1, p + 1]))
    before = dict(ints)
    out = field.from_integral(ints, d)
    assert ints == before and out is not ints
    assert out == {k: field(x, d) for k, x in ints.items()
                   if not field.is_zero(field(x, d))}
    assert_vector_of_field_elements(field, out)


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
def test_kernels_never_write_into_a_cached_lift(field):
    """Products, sums that cancel to zero, Kronecker products, apply and
    subspace reductions all normalise fresh accumulators: the stored
    integer lift (ints, d) of every operand stays as it was."""
    f = field
    m = Matrix(f, 2, 2, {(0, 0): f(1, 2), (0, 1): f(-3), (1, 1): f(2, 3)})
    n = Matrix(f, 2, 2, {(0, 0): f(-1, 2), (1, 0): f(5)})
    lifts = [(x, x.lift) for x in (m, n)]
    ints = [(x, dict(a), d) for x, (a, d) in lifts]
    assert (m - m).is_zero() and (0, 0) not in (m + n).entries
    assert Matrix.lincomb([(2, m), (-1, m), (-1, m)]).is_zero()
    assert (m * n).entries == {(0, 0): f(-61, 4), (1, 0): f(10, 3)}
    assert (n * m).entries == {(0, 0): f(-1, 4), (0, 1): f(3, 2),
                               (1, 0): f(5, 2), (1, 1): f(-15)}
    assert m.kron(n).entries[(0, 0)] == f(-1, 4)
    assert m.scale(f(-7)).entries[(1, 1)] == f(-14, 3)
    assert m.apply({0: f.one, 1: f(3, 2)}) == {0: f.sub(f(1, 2), f(9, 2)),
                                               1: f.one}
    s = Subspace.from_vectors(f, 2, [m.apply({1: f.one})])
    s.add_vector({1: f(-4)})
    assert lowered(f, s.reduce(lift_of(f, {0: f(5), 1: f(-5)}))) == {}
    for (x, lift), (_, a, d) in zip(lifts, ints):
        assert x.lift is lift and lift == (a, d)


def test_matrix_inverse_and_powers():
    f = QQ
    m = Matrix(f, 2, 2, {(0, 0): f(1), (0, 1): f(1), (1, 1): f(1)})
    inv = m.inverse()
    assert m * inv == Matrix.identity(f, 2)
    assert m.pow_int(3) * m.pow_int(-3) == Matrix.identity(f, 2)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_pow_int_is_the_repeated_product_by_squaring(monkeypatch, field):
    f = field
    m = Matrix(f, 3, 3, {(0, 0): f(2), (0, 1): f(1), (1, 2): f(3),
                         (2, 0): f(1), (2, 2): f(-1)})
    inv = m.inverse()
    expected = {0: Matrix.identity(f, 3)}
    for k in range(1, 10):
        expected[k] = expected[k - 1] * m
        expected[-k] = expected[-k + 1] * inv
    products = [0]
    mul = Matrix.__mul__

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    for k in range(-3, 10):
        products[0] = 0
        assert m.pow_int(k) == expected[k], k
        # one squaring per bit after the leading one, one product per set
        # bit after the first: k = 5 takes 3, k = 1 and k = 0 take none
        a = abs(k)
        assert products[0] == (max(a.bit_length() - 1, 0)
                               + max(bin(a).count("1") - 1, 0)), k


def test_kron_shape_and_entries():
    f = QQ
    a = Matrix(f, 2, 2, {(0, 1): f(2)})
    b = Matrix.identity(f, 3)
    k = a.kron(b)
    assert (k.rows, k.cols) == (6, 6)
    assert k.entries == {(0 * 3 + i, 1 * 3 + i): f(2) for i in range(3)}


def test_subspace_membership_and_growth():
    f = QQ
    s = Subspace.from_vectors(f, 3, [{0: f.one, 1: f.one}])
    assert s.contains({0: f(2), 1: f(2)})
    assert not s.contains({0: f.one})
    assert s.add_vector({2: f.one})
    assert not s.add_vector({0: f(3), 1: f(3), 2: f(-5)})
    assert s.dim == 2


def test_quotient_space_kills_subspace():
    f = QQ
    s = Subspace.from_vectors(f, 3, [{0: f.one, 1: f.one}])
    dim, proj, sect = quotient_space(3, s)
    assert dim == 2 and proj.rows == 2 and proj.cols == 3
    # the subspace maps to zero, and the section splits the projection
    assert not proj.apply({0: f.one, 1: f.one})
    assert proj * sect == Matrix.identity(f, 2)


def test_vector_helpers():
    f = QQ
    u = {0: f.one}
    v = {0: f.neg(f.one), 1: f(3)}
    assert vec_add(f, u, v) == {1: f(3)}
    assert vec_sub(f, u, u) == {}
    assert vec_scale(f, f.zero, v) == {}


def reference_reduce(sub, vec):
    """Residual by walking every basis vector in pivot order, rebuilding
    the vector at each hit: the earlier Subspace.reduce."""
    f = sub.field
    v = dict(vec)
    for piv, b in zip(sub.pivots, sub.basis):
        c = v.get(piv)
        if c is not None and not f.is_zero(c):
            v = vec_sub(f, v, vec_scale(f, c, b))
    return v


def reference_projection(sub):
    """Projection onto the non-pivot coordinates by reducing every unit
    vector: the earlier quotient_space."""
    f = sub.field
    n = sub.ambient_dim
    nonpivots = [i for i in range(n) if i not in set(sub.pivots)]
    pos = {i: q for q, i in enumerate(nonpivots)}
    proj = {}
    for i in range(n):
        for j, v in reference_reduce(sub, {i: f.one}).items():
            if j in pos:
                proj[(pos[j], i)] = v
    return Matrix(f, len(nonpivots), n, proj)


def vectors_rank(field, n, vectors):
    entries = {(k, i): x for k, v in enumerate(vectors) for i, x in v.items()}
    return dense_rank_oracle(field, len(vectors), n, entries) if vectors else 0


def assert_reduced_echelon(sub):
    f = sub.field
    assert len(sub.basis) == len(sub.pivots) == sub.dim
    assert all(p < q for p, q in zip(sub.pivots, sub.pivots[1:]))
    for p, b in zip(sub.pivots, sub.basis):
        assert min(b) == p and b[p] == f.one
        assert not any(q in b for q in sub.pivots if q != p)
        assert not any(f.is_zero(x) for x in b.values())


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
# no explain phase: on a failure it replays this many-draw example for
# minutes before reporting it
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_subspace_against_walk_every_basis_reference(field, data):
    """One-pass reduce and the basis-read projection match the earlier
    walk-every-basis code, and the basis stays fully reduced."""
    n = data.draw(st.integers(1, 8))

    def draw_vector():
        if added and data.draw(st.booleans()):
            # a combination of vectors already added: never grows the span
            v = {}
            for u in added:
                v = vec_add(field, v, vec_scale(field, data.draw(
                    small_entries(field)), u))
            return v
        v = data.draw(st.dictionaries(st.integers(0, n - 1),
                                      small_entries(field), max_size=n))
        return {i: x for i, x in v.items() if not field.is_zero(x)}

    sub = Subspace(field, n)
    added = []
    for _ in range(data.draw(st.integers(0, 10))):
        v = draw_vector()
        before = vectors_rank(field, n, added)
        added.append(v)
        assert sub.add_vector(v) == (vectors_rank(field, n, added) > before)
        assert_reduced_echelon(sub)
    assert sub.dim == vectors_rank(field, n, added)

    for _ in range(4):
        v = draw_vector()
        assert lowered(field, sub.reduce(lift_of(field, v))) == \
            reference_reduce(sub, v)
        assert sub.contains(v) == \
            (vectors_rank(field, n, added + [v]) == sub.dim)

    dim, proj, sect = quotient_space(n, sub)
    assert dim == n - sub.dim
    assert proj == reference_projection(sub)
    assert proj * sect == Matrix.identity(field, dim)
    for b in sub.basis:
        assert not proj.apply(b)

    # a copy grows on its own, and the original stays as it was
    pivots, basis = list(sub.pivots), [dict(b) for b in sub.basis]
    twin = sub.copy()
    assert twin == sub
    free = [i for i in range(n) if not sub.contains({i: field.one})]
    if free:
        e = {free[-1]: field.one}
        assert twin.add_vector(e)
        assert_reduced_echelon(twin)
        assert twin.contains(e) and not sub.contains(e)
        assert twin.dim == sub.dim + 1
    assert sub.pivots == pivots and sub.basis == basis
    assert_reduced_echelon(sub)
    # then the original grows the same way on its own index
    if free:
        assert sub.add_vector(e)
        assert_reduced_echelon(sub)
        assert sub == twin


def test_subspace_coordinates_read_the_pivots_or_refuse_outsiders():
    f = QQ
    s = Subspace.from_vectors(f, 3, [{0: f(1), 1: f(2)}, {2: f(1)}])
    v = {0: f(3), 1: f(6), 2: f(-1)}           # 3 basis[0] - basis[1]
    coords = lowered(f, s.coordinates(lift_of(f, v)))
    assert coords == {0: f(3), 1: f(-1)}
    assert vec_sub(f, s.basis_matrix().apply(coords), v) == {}
    assert s.coordinates(lift_of(f, {1: f(1)})) is None
    assert lowered(f, s.coordinates(lift_of(f, {}))) == {}


def reference_combination(f, terms):
    """sum c * v over the (c, v) in terms, entry by entry with f.add and
    f.mul, zeros dropped."""
    out = {}
    for c, v in terms:
        for j, x in v.items():
            out[j] = f.add(out.get(j, f.zero), f.mul(c, x))
    return {j: x for j, x in out.items() if not f.is_zero(x)}


def reference_apply(f, m, vec):
    """m applied to vec row by row with f.add and f.mul, zeros dropped."""
    out = {}
    for i in range(m.rows):
        x = f.zero
        for j, w in vec.items():
            v = m.entries.get((i, j))
            if v is not None:
                x = f.add(x, f.mul(v, w))
        if not f.is_zero(x):
            out[i] = x
    return out


def reference_residual(f, basis, vec):
    """vec minus vec[p] b_p for each pivot p of the fully reduced basis
    {p: b_p}, one basis vector at a time."""
    v = dict(vec)
    for p in sorted(basis):
        c = v.get(p)
        if c is not None and not f.is_zero(c):
            v = reference_combination(f, [(f.one, v),
                                          (f.neg(c), basis[p])])
    return v


def reference_insert(f, basis, vec):
    """Insert vec into the fully reduced basis {p: b_p} with f.inv, f.mul
    and f.add; True when it grew."""
    r = reference_residual(f, basis, vec)
    if not r:
        return False
    piv = min(r)
    v = reference_combination(f, [(f.inv(r[piv]), r)])
    for p, b in basis.items():
        if piv in b:
            basis[p] = reference_combination(f, [(f.one, b),
                                                 (f.neg(b[piv]), v)])
    basis[piv] = v
    return True


def assert_vector_of_field_elements(f, vec):
    p = getattr(f, "p", None)
    for v in vec.values():
        if p is None:
            assert type(v) is Fraction and v != 0
        else:
            assert type(v) is int and 0 < v < p


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_kernels_match_field_arithmetic(field, data):
    """apply, reduce, add_vector, contains and coordinates summed in ints
    equal the entry-by-entry field arithmetic, leave their input as it
    was and hold only nonzero field elements."""
    f = field
    n = data.draw(st.integers(1, 6))

    def draw_vector(size):
        return data.draw(st.dictionaries(st.integers(0, size - 1),
                                         kernel_entries(f), max_size=size))

    # columns 0 and 1 of m are equal, so c e_0 - c e_1 maps to exactly {}
    r = data.draw(st.integers(1, 5))
    ent = data.draw(st.dictionaries(
        st.tuples(st.integers(0, r - 1), st.integers(1, n)),
        kernel_entries(f), max_size=r * n))
    ent.update({(i, 0): v for (i, j), v in list(ent.items()) if j == 1})
    m = Matrix(f, r, n + 1, ent)
    entries = dict(m.entries)
    for _ in range(3):           # the first apply freezes m, the rest reuse it
        vec = draw_vector(n + 1)
        before = dict(vec)
        image = m.apply(vec)
        assert image == reference_apply(f, m, vec)
        assert m.apply(vec) == image
        assert vec == before
        assert_vector_of_field_elements(f, image)
    c = data.draw(kernel_entries(f))
    assert m.apply({0: c, 1: f.neg(c)}) == {}
    assert m.entries == entries

    def draw_member_or_not():
        if added and data.draw(st.booleans()):
            return reference_combination(
                f, [(data.draw(kernel_entries(f)), u) for u in added])
        return draw_vector(n)

    sub, ref, added = Subspace(f, n), {}, []
    for _ in range(data.draw(st.integers(0, 8))):
        vec = draw_member_or_not()
        before = dict(vec)
        assert sub.add_vector(vec) == reference_insert(f, ref, vec)
        assert vec == before
        assert sub.pivots == sorted(ref)
        assert sub.basis == [ref[p] for p in sub.pivots]
        for b in sub.basis:
            assert_vector_of_field_elements(f, b)
        added.append(vec)
    for _ in range(4):
        vec = draw_member_or_not()
        before = dict(vec)
        lift = lift_of(f, vec)
        lift_before = dict(lift[0]), lift[1]
        residual = lowered(f, sub.reduce(lift))
        assert residual == reference_residual(f, ref, vec)
        assert_vector_of_field_elements(f, residual)
        assert sub.contains(vec) == (not residual)
        coords = lowered(f, sub.coordinates(lift))
        if residual:
            assert coords is None
        else:
            assert_vector_of_field_elements(f, coords)
            assert reference_combination(
                f, [(x, sub.basis[i]) for i, x in coords.items()]) == vec
        assert vec == before and lift == lift_before
    # a combination of the basis vectors reduces to exactly {}
    combo = reference_combination(
        f, [(data.draw(kernel_entries(f)), b) for b in sub.basis])
    assert lowered(f, sub.reduce(lift_of(f, combo))) == {}
    # a copy shares the lifted basis but grows to all of k^n on its own
    twin = sub.copy()
    for i in range(n):
        twin.add_vector({i: f.one})
    assert twin.basis == [{i: f.one} for i in range(n)]
    assert sub.basis == [ref[p] for p in sub.pivots]
