import numbers
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcross.algebras import AlgebraData
from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, SpanSolver, vec_add_into

from conftest import from_rows, to_rows
from spectral_reference import select_columns, select_rows

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F2 = FieldSpec.prime(2)


def test_field_parse_roundtrip():
    assert FieldSpec.parse("q") == Q
    assert FieldSpec.parse("fp:5") == F5
    assert FieldSpec.parse(Q.spec_string()) == Q
    with pytest.raises(ValueError):
        FieldSpec.parse("fp:6")
    with pytest.raises(ValueError):
        FieldSpec.prime(9)


def test_float_and_bool_scalars_are_refused():
    # not read as the binary value of 0.1 or as 1
    for field, value in ((Q, 0.1), (F5, True), (Q, False), (F5, 2.0)):
        with pytest.raises(TypeError, match="scalar"):
            field.scalar(value)
    with pytest.raises(TypeError, match="0.1"):
        AlgebraData(Q, 2, ["1", "y"], [[{0: 1}, {1: 1}], [{1: 1}, {0: 0.1}]])


def test_scalar_formatting():
    assert Q.fmt(Q.scalar("3/4")) == "3/4"
    assert F5.fmt(F5.scalar(7)) == 2
    # F_p scalars are held as symmetric residues, and written as 0..p-1
    assert Q.scalar(-2) == -2 and F5.scalar(-2) == -2 and F5.scalar(3) == -2
    assert F5.fmt(F5.scalar(-2)) == 3 and F5.fmt(-1) == 4 and F5.fmt(F5.scalar(2)) == 2
    assert F2.scalar(-1) == 1 and F2.fmt(F2.scalar(-1)) == 1


def test_integral_rationals_are_ints():
    half, third = Q.scalar("1/2"), Q.scalar("1/3")
    integral = [
        Q.add(third, Q.scalar("2/3")), Q.add(2, 3),
        Q.add(Q.scalar("5/2"), Q.neg(half)), Q.add(2, Q.neg(7)),
        Q.mul(Q.scalar("3/2"), 2), Q.mul(-2, 3),
        Q.neg(Q.scalar("4/2")), Q.neg(5),
        Q.inv(half), Q.inv(-1),
        Q.mul(3, Q.inv(Q.scalar("3/2"))), Q.mul(4, Q.inv(2)),
        Q.scalar("4/2"), Q.scalar(Fraction(6, 3)), Q.scalar(-3),
        Q.zero, Q.one, Q.scalar(-7),
    ]
    assert [type(v) for v in integral] == [int] * len(integral)
    rational = [
        Q.add(third, 1), Q.add(1, Q.neg(third)), Q.mul(third, 2), Q.neg(third),
        Q.inv(2), Q.inv(Q.scalar("3/2")), Q.mul(third, Q.inv(2)), Q.scalar("-1/6"),
    ]
    assert all(
        isinstance(v, numbers.Rational) and type(v) is not int and v.denominator > 1
        for v in rational
    )
    assert Q.inv(2) == half and Q.mul(third, Q.inv(2)) == Q.scalar("1/6")
    prime = [F5.add(3, 4), F5.mul(3, 4), F5.neg(2), F5.inv(2), F5.mul(4, F5.inv(3)), F5.scalar("7")]
    assert prime == [2, 2, -2, -2, -2, 2]
    assert [F5.fmt(v) for v in prime] == [2, 2, 3, 3, 3, 2]
    assert not any(isinstance(v, float) for v in integral + rational + prime)


def test_settle_finishes_raw_sums():
    half = Q.scalar("1/2")
    raw = {3: half + half, "z": 2 - 2, (1, 2): half + 1, 0: Fraction(0), 9: -4}
    got = Q.settle(raw)
    assert got == {3: 1, (1, 2): Q.scalar("3/2"), 9: -4}
    assert list(got) == [3, (1, 2), 9] and type(got[3]) is int
    assert Q.settle({5: 2, 1: -3}) == {5: 2, 1: -3}
    assert F5.settle({1: 4 * 4 + 3, 2: 5 * 3, 7: -1, 8: 0}) == {1: -1, 7: -1}
    assert F5.settle({1: 3, 2: -3, 3: 2, 4: -2}) == {1: -2, 2: 2, 3: 2, 4: -2}
    assert F2.settle({1: -1, 2: 2, 3: 3}) == {1: 1, 3: 1}
    assert F2.settle({}) == {}


def test_fmt_ignores_the_scalar_type():
    assert Q.fmt(2) == Q.fmt(Fraction(2)) == Q.fmt(Q.scalar("4/2")) == "2"
    assert Q.fmt(Q.mul(-1, Q.inv(2))) == "-1/2"


def test_rank_identity_and_zero():
    assert ExactMatrix.identity(Q, 2).rank() == 2
    assert ExactMatrix.zeros(Q, 3, 4).rank() == 0


def test_rank_proportional_rows():
    m = from_rows(Q, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    k = ExactMatrix.identity(Q, 3).kernel_basis()
    assert k.ncols == 0


def test_kernel_zero_matrix_full():
    k = ExactMatrix.zeros(Q, 2, 2).kernel_basis()
    assert k.ncols == 2
    assert ExactMatrix.zeros(Q, 2, 2) @ k == ExactMatrix.zeros(Q, 2, 2)


def test_kernel_line():
    m = from_rows(Q, [[1, 1]])
    k = m.kernel_basis()
    assert k.ncols == 1
    col = k.cols[0]
    assert col[0] == -col[1] and col[0] != 0
    assert m @ k == ExactMatrix.zeros(Q, 1, 1)


def test_solve_identity():
    m = ExactMatrix.identity(Q, 3)
    assert m.solve([1, 0, 0]) == [Q.one, Q.zero, Q.zero]


def test_solve_no_solution():
    m = ExactMatrix.zeros(Q, 2, 2)
    assert m.solve([1, 0]) is None


def test_solve_mod5():
    m = from_rows(F5, [[2]])
    assert m.solve([1]) == [-2]
    assert [F5.fmt(v) for v in m.solve([1])] == [3]


def test_matmul_and_transpose():
    a = from_rows(Q, [[1, 2], [3, 4]])
    b = from_rows(Q, [[0, 1], [1, 0]])
    assert to_rows(a @ b) == [[2, 1], [4, 3]]
    assert to_rows(a.transpose()) == [[1, 3], [2, 4]]


def test_stacking():
    a = from_rows(Q, [[1], [2]])
    b = from_rows(Q, [[3], [4]])
    assert to_rows(ExactMatrix.hstack([a, b])) == [[1, 3], [2, 4]]


def test_span_ops():
    e1 = from_rows(Q, [[1], [0], [0]])
    e12 = from_rows(Q, [[1, 0], [0, 1], [0, 0]])
    solver = SpanSolver(e12)
    assert solver.coordinates({0: Q.one, 1: Q.scalar(5)}) == [1, 5]
    assert solver.coordinates({2: Q.one}) is None
    assert solver.coordinates(e1.cols[0]) == [1, 0]


matrix_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(rows=matrix_strategy, field_idx=st.integers(min_value=0, max_value=2))
def test_rank_nullity_and_transpose(rows, field_idx):
    field = [Q, F5, F2][field_idx]
    m = from_rows(field, rows)
    k = m.kernel_basis()
    assert m.rank() + k.ncols == m.ncols
    assert m.rank() == m.transpose().rank()
    if k.ncols:
        prod = m @ k
        assert prod.is_zero()
    # kernel columns are linearly independent
    assert k.ncols == k.rank()


@settings(max_examples=80, deadline=None)
@given(rows=matrix_strategy, data=st.data())
def test_solve_consistency(rows, data):
    m = from_rows(Q, rows)
    coeffs = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=m.ncols, max_size=m.ncols)
    )
    rhs_vec = m.apply({j: Q.scalar(c) for j, c in enumerate(coeffs) if c})
    x = m.solve(rhs_vec)
    assert x is not None
    back = m.apply({j: v for j, v in enumerate(x) if not Q.is_zero(v)})
    assert back == rhs_vec


@settings(max_examples=60, deadline=None)
@given(rows=matrix_strategy)
def test_column_space_basis_spans(rows):
    m = from_rows(Q, rows)
    basis = m.column_space_basis()
    assert basis.ncols == m.rank()
    solver = SpanSolver(basis)
    for col in m.cols:
        assert solver.coordinates(col) is not None


def test_arbitrary_precision_rationals():
    # Hilbert-type matrices have denominators that explode under elimination;
    # exactness must survive with no precision loss
    n = 7
    rows = [[Q.scalar(f"1/{i + j + 1}") for j in range(n)] for i in range(n)]
    m = from_rows(Q, rows)
    assert m.rank() == n
    assert m.kernel_basis().ncols == 0
    rhs = [Q.one] * n
    x = m.solve(rhs)
    assert x is not None
    back = m.apply({j: v for j, v in enumerate(x) if not Q.is_zero(v)})
    assert back == {i: Q.one for i in range(n)}


@settings(max_examples=60, deadline=None)
@given(rows=matrix_strategy)
def test_pivot_pairs_rank_lower_left_blocks(rows):
    # pairing lemma: rank of m[rows >= a, cols < b] counts pairs in that block
    m = from_rows(F5, rows)
    pairs = m.pivot_pairs()
    assert len(pairs) == m.rank()
    for a in range(m.nrows + 1):
        for b in range(m.ncols + 1):
            block = select_rows(select_columns(m, range(b)), range(a, m.nrows))
            assert block.rank() == sum(1 for low, j in pairs if low >= a and j < b)


_SMALL = st.integers(-4, 4)
_RATIONAL = st.builds(Fraction, _SMALL, st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([None, 2, 5, 7]))
def test_vec_add_into_matches_the_per_entry_sum(data, p):
    # over Q with int and rational scales, and over F_p; some sums cancel to 0
    field = FieldSpec.rationals() if p is None else FieldSpec.prime(p)
    values = st.one_of(_SMALL, _RATIONAL) if p is None else _SMALL
    vec = st.dictionaries(st.integers(0, 5), values.map(field.scalar)).map(field.sparse)
    dst, src = data.draw(vec), data.draw(vec)
    scale = field.scalar(data.draw(values))
    if data.draw(st.booleans()) and src and not field.is_zero(scale):
        # dst holds -scale * src on some rows, so those sums are 0
        for i in data.draw(st.lists(st.sampled_from(sorted(src)), unique=True)):
            dst[i] = field.neg(field.mul(scale, src[i]))
    want = {}
    for i in set(dst) | set(src):
        w = field.add(dst.get(i, 0), field.mul(scale, src.get(i, 0)))
        if not field.is_zero(w):
            want[i] = w
    got = dict(dst)
    vec_add_into(got, src, scale, field)
    assert got == want
    assert all(field.scalar(v) == v and type(v) is type(field.scalar(v)) for v in got.values())
