import random

import pytest

from hopfcross.fields import FieldSpec
from hopfcross.bar import hochschild_chain_filtered
from hopfcross.complexes import (
    BoundaryNotSquareZero,
    COHOMOLOGY,
    ChainComplex,
    FilteredComplex,
    HOMOLOGY,
    check_convergence,
    homology_dims,
    infinity_page,
    page_monotone,
    spectral_page,
)
from hopfcross.crossed import regular_bimodule
from hopfcross.linalg import ExactMatrix, SpanSolver
from conftest import BUILTIN_BUILDERS

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def test_single_point_complex():
    c = ChainComplex(Q, [1, 0], [None, ExactMatrix.zeros(Q, 1, 0)], HOMOLOGY)
    assert homology_dims(c) == [1]


def test_identity_map_complex():
    c = ChainComplex(Q, [1, 1], [None, ExactMatrix.identity(Q, 1)], HOMOLOGY)
    assert homology_dims(c) == [0]


def test_square_zero_violation_detected():
    d1 = ExactMatrix.identity(Q, 1)
    d2 = ExactMatrix.identity(Q, 1)
    c = ChainComplex(Q, [1, 1, 1], [None, d1, d2], HOMOLOGY)
    with pytest.raises(BoundaryNotSquareZero):
        homology_dims(c)


def _random_invertible(field, n, rng):
    # product of elementary operations applied to the identity
    m = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = field.from_int(rng.choice([-2, -1, 1, 2]))
        for k in range(n):
            m[i][k] = field.add(m[i][k], field.mul(c, m[j][k]))
    return ExactMatrix.from_rows(field, m)


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
        solver = SpanSolver(p, track_combos=True)
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
    filtration = [[tuple(range(c.dims[n]))] for n in range(c.cap + 1)]
    fc = FilteredComplex(c, filtration)
    page = spectral_page(fc, 1)
    dims = homology_dims(c)
    for n in range(4):
        assert page.cell(0, n) == dims[n]
    assert check_convergence(fc).passed


def test_two_level_filtration_bookkeeping():
    # 0 -> C_1 -> C_0 -> 0 with d = [[1,0],[0,0]] and level-0 = first coordinate
    d = ExactMatrix.from_rows(Q, [[1, 0], [0, 0]])
    c = ChainComplex(Q, [2, 2, 0], [None, d, ExactMatrix.zeros(Q, 2, 0)], HOMOLOGY)
    filtration = [
        [(0,), (0, 1)],
        [(0,), (0, 1)],
        [(), ()],
    ]
    fc = FilteredComplex(c, filtration)
    assert fc.verify().passed
    assert check_convergence(fc).passed
    einf = infinity_page(fc)
    assert einf.antidiagonal_sum(0) == homology_dims(c)[0]
    assert einf.antidiagonal_sum(1) == homology_dims(c)[1]


def test_corrupted_filtration_reported():
    d = ExactMatrix.from_rows(Q, [[0, 1], [0, 0]])
    c = ChainComplex(Q, [2, 2], [None, d], HOMOLOGY)
    filtration = [
        [(1,), (0, 1)],  # d(e_1) = e_0 escapes the claimed level-0 span
        [(1,), (0, 1)],
    ]
    fc = FilteredComplex(c, filtration)
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
    d = ExactMatrix.from_rows(Q, [[1], [0]])
    c = ChainComplex(Q, [1, 2], [None, d], COHOMOLOGY)
    filtration = [
        [(0,)],
        [(0, 1), (1,)],
    ]
    fc = FilteredComplex(c, filtration)
    assert fc.verify().passed
    assert check_convergence(fc).passed


def test_homology_dims_ranks_each_map_once(monkeypatch):
    from hopfcross.reduced_complexes import ReducedComplexes

    cap = 4
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    rc = ReducedComplexes(cp, regular_bimodule(cp.e), cap)
    chain = rc.reduced_chain_complex().complex
    cochain = rc.reduced_cochain_complex().complex
    calls = []
    rank = ExactMatrix.rank
    monkeypatch.setattr(ExactMatrix, "rank", lambda self: calls.append(self) or rank(self))
    for c in (chain, cochain):
        calls.clear()
        dims = homology_dims(c)
        assert len(calls) == cap
        assert {id(m) for m in calls} == {id(m) for m in c.maps[1:]}
        assert dims == [
            c.dims[n] - (rank(c.outgoing(n)) if c.outgoing(n) else 0)
            - (rank(c.incoming(n)) if c.incoming(n) else 0)
            for n in range(cap)
        ]
