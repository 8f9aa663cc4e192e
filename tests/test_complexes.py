import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfcross.algebras import Report
from hopfcross.fields import FieldSpec
from hopfcross.complexes import (
    BoundaryNotSquareZero,
    _composites_vanish,
    COHOMOLOGY,
    ChainComplex,
    FilteredComplex,
    HOMOLOGY,
    check_convergence,
    homology_dims,
    infinity_page,
    spectral_page,
)
from hopfcross.crossed import regular_bimodule
from hopfcross.linalg import ExactMatrix, SpanSolver
from hopfcross.problems import BUILTIN_NAMES
from conftest import BUILTIN_BUILDERS, from_rows
from filtered_bar import hochschild_chain_filtered
from test_spectral_pages import filtered_complexes

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def page_monotone(fc: FilteredComplex, upto_r: int) -> Report:
    """Entries weakly decrease from page to page (subquotients only shrink)."""
    report = Report("page monotonicity")
    prev = spectral_page(fc, 1)
    for r in range(2, upto_r + 1):
        cur = spectral_page(fc, r)
        for key in set(prev.table) | set(cur.table):
            report.record(
                cur.cell(*key) <= prev.cell(*key),
                "page-entry-monotone",
                (r, *key),
            )
        prev = cur
    return report


def test_single_point_complex():
    c = ChainComplex(Q, [1, 0], [None, ExactMatrix.zeros(Q, 1, 0)], HOMOLOGY)
    assert homology_dims(c) == [1]


def test_identity_map_complex():
    c = ChainComplex(Q, [1, 1], [None, ExactMatrix.identity(Q, 1)], HOMOLOGY)
    assert homology_dims(c) == [0]


def test_square_zero_violation_detected():
    d1 = ExactMatrix.identity(Q, 1)
    d2 = ExactMatrix.identity(Q, 1)
    with pytest.raises(BoundaryNotSquareZero):
        ChainComplex(Q, [1, 1, 1], [None, d1, d2], HOMOLOGY)


@pytest.mark.parametrize("field,row,vanishes", [
    (FieldSpec.prime(3), (1, 2), True),       # 1 + 2 = 3 is zero mod 3 only
    (FieldSpec.prime(5), (1, 2), False),
    (Q, ("1/2", "-1/2"), True),                # rational entries that cancel
    (Q, ("1/2", "1/3"), False),
])
def test_square_zero_check_in_each_field(field, row, vanishes):
    d1 = ExactMatrix.from_columns(field, 1, [{0: field.scalar(v)} for v in row])
    d2 = ExactMatrix.from_columns(field, 2, [{0: field.one, 1: field.one}])
    if vanishes:
        c = ChainComplex(field, [1, 2, 1], [None, d1, d2], HOMOLOGY)
        assert homology_dims(c) == [0, 0]
    else:
        with pytest.raises(BoundaryNotSquareZero):
            ChainComplex(field, [1, 2, 1], [None, d1, d2], HOMOLOGY)


@pytest.mark.parametrize("p,row,col", [
    (5, (2, 1), (2, 1)),          # 2*2 + 1*1 = 5
    (2, (1, 1), (1, 1)),          # 1 + 1 = 2
    (3, (1, 1, 1), (1, 1, 1)),    # 1 + 1 + 1 = 3
])
def test_square_zero_sums_that_are_nonzero_multiples_of_p(p, row, col):
    # the integer sum of the composite is p itself, not 0: it still vanishes
    field = FieldSpec.prime(p)
    assert [field.scalar(v) for v in row + col] == list(row + col)
    assert sum(a * b for a, b in zip(row, col)) == p
    d1 = ExactMatrix.from_columns(field, 1, [{0: v} for v in row])
    d2 = ExactMatrix.from_columns(field, len(row), [dict(enumerate(col))])
    # construction runs the check, which would raise BoundaryNotSquareZero
    c = ChainComplex(field, [1, len(row), 1], [None, d1, d2], HOMOLOGY)
    assert homology_dims(c) == [0, len(row) - 2]


def _dense_composites_vanish(first: list, then_rows: list, p) -> bool:
    """then . x == 0 for every dense column x of first, one dense row product at a time."""
    for x in first:
        for row in then_rows:
            t = sum(a * b for a, b in zip(row, x))
            if (t % p if p else t):
                return False
    return True


def _sparse(vec) -> dict:
    return {i: v for i, v in enumerate(vec) if v}


@st.composite
def composite_cases(draw):
    """then = [T | T C] with small random integers, and a long run of columns
    [-C y; y] whose composites cancel exactly, then one last column: another
    cancelling one, a random one, or a cancelling one plus q * p at a leg
    where T is nonzero (a composite that is a nonzero multiple of p)."""
    ints = st.integers(-3, 3)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r, m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    t = [[draw(ints) for _ in range(m1)] for _ in range(r)]
    c = [[draw(ints) for _ in range(m2)] for _ in range(m1)]
    then_rows = [row + [sum(row[k] * c[k][j] for k in range(m1)) for j in range(m2)] for row in t]

    def cancelling():
        y = [draw(ints) for _ in range(m2)]
        return [-sum(c[k][j] * y[j] for j in range(m2)) for k in range(m1)] + y

    first = [cancelling() for _ in range(draw(st.integers(0, 12)))]
    kind = draw(st.sampled_from(["cancelling", "random", "multiple of p"]))
    if kind == "cancelling":
        last = cancelling()
    elif kind == "random":
        last = [draw(ints) for _ in range(m1 + m2)]
    else:
        last = cancelling()
        last[draw(st.integers(0, m1 + m2 - 1))] += draw(st.sampled_from([-2, -1, 1, 2])) * p
    return p, then_rows, first + [last]


@settings(max_examples=300, deadline=None)
@given(case=composite_cases())
def test_composites_vanish_matches_a_dense_product(case):
    p, then_rows, first = case
    nrows, ncols = len(then_rows), len(then_rows[0])
    then_cols = [_sparse(row[j] for row in then_rows) for j in range(ncols)]
    first_cols = [_sparse(x) for x in first]
    for q in (None, p):
        assert _composites_vanish(first_cols, then_cols, nrows, q) == _dense_composites_vanish(first, then_rows, q)


@pytest.mark.parametrize("p", [None, 2, 5])
def test_composites_vanish_reads_the_last_column(p):
    # 40 columns cancel through nonzero products at every row, then the last one does not
    then_cols = [{0: 1, 1: 2, 2: -1}, {0: -1, 1: -2, 2: 1}, {1: 1}]
    first_cols = [{0: k, 1: k} for k in range(1, 41)] + [{0: 1, 1: 1, 2: 1}]
    assert _composites_vanish(first_cols[:-1], then_cols, 3, p)
    assert not _composites_vanish(first_cols, then_cols, 3, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_composites_vanish_sums_that_are_multiples_of_p(p):
    # the composite p * e_1 after a run of exactly cancelling columns: zero
    # over F_p only, and the run after it still cancels mod p
    then_cols = [{0: 1, 1: 1}, {0: -1, 1: -1}, {1: 1}]
    run = [{0: k, 1: k} for k in range(1, 20)]
    first_cols = run + [{0: 1, 1: 1, 2: p}] + run
    assert _composites_vanish(first_cols, then_cols, 2, p)
    assert not _composites_vanish(first_cols, then_cols, 2, None)
    assert not _composites_vanish(first_cols + [{2: 1}], then_cols, 2, p)


def _random_invertible(field, n, rng):
    # product of elementary operations applied to the identity
    m = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = field.scalar(rng.choice([-2, -1, 1, 2]))
        for k in range(n):
            m[i][k] = field.add(m[i][k], field.mul(c, m[j][k]))
    return from_rows(field, m)


def test_homology_invariant_under_basis_change():
    cp = BUILTIN_BUILDERS["z4_as_cocycle_extension"](Q)
    from hopfcross.bar import hochschild_chain_complex

    m = regular_bimodule(cp.e)
    c = hochschild_chain_complex(cp.e, m, 3)
    base = homology_dims(c)
    rng = random.Random(7)
    ps = [_random_invertible(Q, d, rng) for d in c.dims]
    inv = []
    for p in ps:
        # one elimination per matrix; each column of p^-1 solves p x = e_j
        solver = SpanSolver(p)
        cols = []
        n = p.nrows
        for j in range(n):
            x = solver.coordinates({j: Q.one})
            cols.append({i: v for i, v in enumerate(x) if not Q.is_zero(v)})
        inv.append(ExactMatrix(Q, n, n, cols))
    maps = [None]
    for n in range(1, c.cap + 1):
        maps.append(ps[n - 1] @ c.maps[n] @ inv[n])
    conj = ChainComplex(Q, c.dims, maps, HOMOLOGY)
    assert homology_dims(conj) == base


def test_trivial_filtration_page1_is_homology():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    from hopfcross.bar import hochschild_chain_complex

    m = regular_bimodule(cp.e)
    c = hochschild_chain_complex(cp.e, m, 4)
    fc = FilteredComplex(c, [[0] * c.dims[n] for n in range(c.cap + 1)])
    page = spectral_page(fc, 1)
    dims = homology_dims(c)
    for n in range(4):
        assert page.cell(0, n) == dims[n]
    assert check_convergence(fc).passed


def test_two_level_filtration_bookkeeping():
    # 0 -> C_1 -> C_0 -> 0 with d = [[1,0],[0,0]] and level-0 = first coordinate
    d = from_rows(Q, [[1, 0], [0, 0]])
    c = ChainComplex(Q, [2, 2, 0], [None, d, ExactMatrix.zeros(Q, 2, 0)], HOMOLOGY)
    fc = FilteredComplex(c, [[0, 1], [0, 1], []])
    assert fc.verify().passed
    assert check_convergence(fc).passed
    einf = infinity_page(fc)
    assert einf.antidiagonal_sum(0) == homology_dims(c)[0]
    assert einf.antidiagonal_sum(1) == homology_dims(c)[1]


@pytest.mark.parametrize("levels", [
    [[0, 1]],  # one degree missing
    [[0, 1], [0]],  # one coordinate missing
    [[0, 1], [0, 1, 1]],  # one coordinate too many
    [[0, -1], [0, 1]],  # a negative level
])
def test_malformed_level_list_rejected(levels):
    c = ChainComplex(Q, [2, 2], [None, from_rows(Q, [[1, 0], [0, 0]])], HOMOLOGY)
    with pytest.raises(ValueError):
        FilteredComplex(c, levels)


def test_corrupted_filtration_reported():
    d = from_rows(Q, [[0, 1], [0, 0]])
    c = ChainComplex(Q, [2, 2], [None, d], HOMOLOGY)
    # d(e_1) = e_0 escapes the claimed level-0 span {e_1}
    fc = FilteredComplex(c, [[1, 0], [1, 0]])
    report = fc.verify()
    assert not report.passed
    assert any(f.check == "boundary-preserves-filtration" for f in report.failures)


def test_page_monotonicity_on_bar_filtration():
    cp = BUILTIN_BUILDERS["z4_as_cocycle_extension"](Q)
    m = regular_bimodule(cp.e)
    fc = hochschild_chain_filtered(cp, m, 3)
    assert page_monotone(fc, 4).passed
    for r in range(0, 5):
        page = spectral_page(fc, r)
        assert all(v >= 0 for v in page.table.values())


def test_cohomological_two_level():
    # 0 -> C^0 -> C^1 -> 0, d = [[1],[0]] with decreasing filtration on C^1
    d = from_rows(Q, [[1], [0]])
    c = ChainComplex(Q, [1, 2], [None, d], COHOMOLOGY)
    fc = FilteredComplex(c, [[0], [0, 1]])
    assert fc.verify().passed
    assert check_convergence(fc).passed


def _plain_dims(c):
    """dims[n] - rank maps[n] - rank maps[n + 1], every map ranked whole."""
    r = [0] + [d.rank() for d in c.maps[1:]] + [0]
    return [c.dims[n] - r[n] - r[n + 1] for n in range(c.cap)]


def test_homology_dims_ranks_each_map_once(monkeypatch):
    from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex
    from hopfcross.reduced_complexes import ReducedComplexes

    cap = 4
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, cap)
    complexes = [rc.reduced_chain_complex().complex, rc.reduced_cochain_complex().complex,
                 hochschild_chain_complex(cp.e, m, cap), hochschild_cochain_complex(cp.e, m, cap)]
    ranks = [[0] + [d.rank() for d in c.maps[1:]] for c in complexes]
    expected = [_plain_dims(c) for c in complexes]
    shapes, rank_calls = [], []
    echelon, rank = ExactMatrix._echelon, ExactMatrix.rank

    def counted(self, track_combos):
        shapes.append((self.nrows, self.ncols))
        return echelon(self, track_combos)

    monkeypatch.setattr(ExactMatrix, "_echelon", counted)
    monkeypatch.setattr(ExactMatrix, "rank", lambda self: rank_calls.append(self) or rank(self))
    for c, r, want in zip(complexes, ranks, expected):
        shapes.clear()
        rank_calls.clear()
        dims = homology_dims(c)
        # U_n : C_{n-1} -> C_n, less the rank(U_{n-1}) columns its pivots cleared
        assert shapes == [(c.dims[n], c.dims[n - 1] - r[n - 1]) for n in range(1, cap + 1)]
        assert len(rank_calls) <= 1
        assert dims == want
    assert any(r[2] for r in ranks)  # some reduction has columns cleared


@settings(max_examples=150, deadline=None)
@given(fc=filtered_complexes())
def test_clearing_dims_equal_plain_rank_dims(fc):
    assert homology_dims(fc.complex) == _plain_dims(fc.complex)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_clearing_dims_on_bar_complexes(name, field):
    from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex

    cp = BUILTIN_BUILDERS[name](field)
    m = regular_bimodule(cp.e)
    for build in (hochschild_chain_complex, hochschild_cochain_complex):
        c = build(cp.e, m, 4)
        assert homology_dims(c) == _plain_dims(c), build.__name__
