"""F_p scalars as symmetric residues.

Every F_p scalar the package hands back is the residue of its class in
[-((p - 1) // 2), p // 2], which is {0, 1} for p = 2.  Random matrices over
F_2, F_3, F_5 and F_2147483629 are eliminated and compared with the
field-generic reference, and every entry of every result, and every value
FieldSpec.settle returns, must lie in that range.  p = 2 is where a range
test written as -h <= t <= h with h = p // 2 would let -1 through.
"""

from hypothesis import given, settings, strategies as st

import elimination_reference as ref
from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, vec_add_into

PRIMES = [2, 3, 5, 2147483629]
FIELDS = [FieldSpec.prime(p) for p in PRIMES]


def in_range(t, p) -> bool:
    return type(t) is int and -((p - 1) // 2) <= t <= p // 2


def test_range_is_exact():
    assert [t for t in range(-3, 4) if in_range(t, 2)] == [0, 1]
    assert [t for t in range(-3, 4) if in_range(t, 3)] == [-1, 0, 1]
    assert [t for t in range(-4, 5) if in_range(t, 5)] == [-2, -1, 0, 1, 2]
    for field in FIELDS:
        p = field.p
        if p < 10:
            residues = {field.scalar(t) for t in range(-2 * p, 2 * p)}
            assert residues == {t for t in range(-p, p) if in_range(t, p)}
            assert len(residues) == p
        assert field.scalar(-1) == (1 if p == 2 else -1)
        assert field.scalar(p // 2) == p // 2 and field.scalar(p // 2 + 1) == p // 2 + 1 - p
        assert field.fmt(field.scalar(-1)) == p - 1


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_field_operations_return_canonical_residues(field, data):
    p = field.p
    a, b = data.draw(st.lists(st.integers(-p * p, p * p), min_size=2, max_size=2))
    for got, want in ((field.scalar(a), a), (field.add(a, b), a + b), (field.mul(a, b), a * b),
                      (field.neg(a), -a)):
        assert in_range(got, p) and (got - want) % p == 0
    if a % p:
        inv = field.inv(a)
        assert in_range(inv, p) and (inv * a) % p == 1 and field.fmt(inv) == inv % p


def _scalars(field):
    p = field.p
    return st.one_of(st.integers(-3, 3), st.integers(-p, 2 * p)).map(field.scalar)


def _vectors(field, size):
    keys = st.integers(0, size - 1)
    return st.dictionaries(keys, _scalars(field), max_size=size).map(
        lambda vec: {i: v for i, v in vec.items() if v}
    )


@st.composite
def prime_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 7))
    cols = draw(st.lists(_vectors(field, nrows), min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        combo: dict = {}
        for col in cols:
            vec_add_into(combo, col, draw(_scalars(field)), field)
        cols.insert(draw(st.integers(0, len(cols))), combo)
    return ExactMatrix.from_columns(field, nrows, cols)


def _all_in_range(vectors, p) -> bool:
    return all(in_range(v, p) for vec in vectors for v in vec.values())


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_elimination_matches_reference_in_range(data):
    m = data.draw(prime_matrices())
    p = m.field.p
    assert _all_in_range(m.cols, p)
    pairs = m.pivot_pairs()
    assert pairs == ref.pivot_pairs(m) and m.rank() == len(pairs)
    kernel = m.kernel_basis()
    assert kernel.cols == ref.kernel_basis(m)
    assert _all_in_range(kernel.cols, p)
    assert _all_in_range(m.column_space_basis().cols, p)
    queries = data.draw(st.lists(_vectors(m.field, m.nrows), max_size=3))
    queries += [m.apply(x) for x in data.draw(st.lists(_vectors(m.field, m.ncols), max_size=3))]
    reference = ref.SolverReference(m)
    for q in queries:
        assert _all_in_range([q], p)
        got = m.solve(q)
        assert got == reference.coordinates(q)
        if got is not None:
            assert all(in_range(v, p) for v in got)
            assert m.apply(dict(enumerate(got))) == q


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_settle_returns_canonical_residues(field, data):
    p = field.p
    raw = data.draw(st.dictionaries(st.integers(0, 20), st.integers(-p * p, p * p)))
    got = field.settle(raw)
    assert list(got) == [k for k in raw if raw[k] % p]
    assert all(in_range(v, p) and (v - raw[k]) % p == 0 for k, v in got.items())


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_settle_returns_a_canonical_sum_itself(field, data):
    # a sum whose values are all nonzero residues already comes back as the
    # same dict; any zero or out-of-range value still makes a settled copy
    p = field.p
    canonical = st.integers(-((p - 1) // 2), p // 2).filter(bool)
    raw = data.draw(st.dictionaries(st.integers(0, 20), st.one_of(canonical, st.integers(-p * p, p * p))))
    got = field.settle(raw)
    if all(v and in_range(v, p) for v in raw.values()):
        assert got is raw
    else:
        assert got is not raw
        assert list(got) == [k for k in raw if raw[k] % p]
        assert all(in_range(v, p) and (v - raw[k]) % p == 0 for k, v in got.items())


def test_settle_copies_only_when_it_must():
    f5, f2 = FieldSpec.prime(5), FieldSpec.prime(2)
    for field, acc in ((f5, {4: 2, 1: -2, 9: 1}), (f2, {0: 1, 3: 1}), (f5, {})):
        assert field.settle(acc) is acc
    for field, raw, want in ((f5, {4: 2, 1: 3, 9: 1}, {4: 2, 1: -2, 9: 1}),
                             (f5, {4: 2, 1: 0, 9: 5}, {4: 2}),
                             (f2, {0: 1, 3: -1, 5: 2}, {0: 1, 3: 1})):
        got = field.settle(raw)
        assert got is not raw and got == want and list(got) == list(want)


def test_sign_is_a_power_of_minus_one():
    for field in [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(5),
                  FieldSpec.prime(2147483629)]:
        minus_one = field.neg(field.one)
        for k in range(7):
            assert field.sign(k) == minus_one ** k, (field, k)
            assert type(field.sign(k)) is int, (field, k)
