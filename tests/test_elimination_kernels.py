"""The per-field elimination kernels against the field-generic reference.

Random sparse matrices over Q (integer and non-integral entries, denominators
2 and 3) and over F_5 and F_2147483629, some with columns that are
combinations of earlier ones so that kernels and non-trivial spans occur.
Pivot pairs, ranks, kernel vectors and coordinates must be equal to the
reference entry for entry (and of the same scalar type); column-space vectors
may differ by a nonzero scalar each.
"""

import pytest
from hypothesis import given, settings, strategies as st

import elimination_reference as ref
from hopfcross.bar import hochschild_chain_complex
from hopfcross.crossed import regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, SpanSolver, vec_add_into
from conftest import BUILTIN_BUILDERS

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
BIG = FieldSpec.prime(2147483629)
FIELDS = [Q, F5, BIG]


def _scalars(field):
    if field == Q:
        fractions = st.builds(lambda n, d: f"{n}/{d}", st.integers(-5, 5), st.sampled_from([2, 3]))
        return st.one_of(st.integers(-3, 3), fractions).map(field.scalar)
    if field == BIG:
        return st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1)).map(field.scalar)
    return st.integers(0, field.p - 1).map(field.scalar)


def _vectors(field, size):
    keys = st.integers(0, size - 1)
    return st.dictionaries(keys, _scalars(field), max_size=size).map(
        lambda vec: {i: v for i, v in vec.items() if not field.is_zero(v)}
    )


@st.composite
def sparse_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 8))
    cols = draw(st.lists(_vectors(field, nrows), min_size=1, max_size=8))
    # columns that are combinations of earlier ones, at random places
    for _ in range(draw(st.integers(0, 3))):
        combo: dict = {}
        for col in cols:
            vec_add_into(combo, col, draw(_scalars(field)), field)
        cols.insert(draw(st.integers(0, len(cols))), combo)
    return ExactMatrix.from_columns(field, nrows, cols)


def _typed(vec):
    return {i: (v, type(v)) for i, v in vec.items()}


def _assert_same_up_to_scalar(field, got, want):
    assert got.keys() == want.keys() and got
    k = next(iter(want))
    scale = field.mul(got[k], field.inv(want[k]))
    assert {i: field.mul(scale, v) for i, v in want.items()} == got


def _assert_matches_reference(m):
    field = m.field
    pairs = ref.pivot_pairs(m)
    assert m.pivot_pairs() == pairs
    assert m.rank() == len(pairs)
    kernel = m.kernel_basis()
    assert kernel.nrows == m.ncols
    assert [_typed(c) for c in kernel.cols] == [_typed(c) for c in ref.kernel_basis(m)]
    basis = m.column_space_basis()
    want = ref.column_space_basis(m)
    assert basis.ncols == len(want)
    for got_col, want_col in zip(basis.cols, want):
        _assert_same_up_to_scalar(field, got_col, want_col)


@settings(max_examples=200, deadline=None)
@given(m=sparse_matrices())
def test_kernels_match_reference_elimination(m):
    _assert_matches_reference(m)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_span_solver_matches_reference(data):
    m = data.draw(sparse_matrices())
    field = m.field
    queries = data.draw(st.lists(_vectors(field, m.nrows), max_size=4))
    # vectors inside the span too, as images of random coefficient vectors
    queries += [m.apply(x) for x in data.draw(st.lists(_vectors(field, m.ncols), max_size=3))]
    solver = SpanSolver(m)
    reference = ref.SolverReference(m)
    for q in queries:
        got, want = solver.coordinates(q), reference.coordinates(q)
        assert (got is None) == (want is None)
        if want is not None:
            assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]


@pytest.mark.parametrize("field", [Q, F5], ids=lambda f: f.spec_string())
@pytest.mark.parametrize("name", ["z2_trivial", "klein_four", "sweedler_smash"])
def test_bar_maps_match_reference_elimination(name, field):
    cp = BUILTIN_BUILDERS[name](field)
    c = hochschild_chain_complex(cp.e, regular_bimodule(cp.e), 2)
    for d in c.maps[1:]:
        _assert_matches_reference(d)
