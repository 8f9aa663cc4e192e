"""The brute-force complexes are the reference for everything else, so they get
their own independent checks: frozen homology numbers for small algebras that
can be verified by hand or by a second route (the periodic resolution of
k[x]/(x^2), Maschke for group algebras over Q).

The homology of a Hopf algebra H with coefficients in a left H-module N is
computed as the package's E^2 side computes it: the Hochschild chains of H
with coefficients in N_eps = N (x) k_eps, the counit as the right action."""

import pytest

from hopfcross.fields import FieldSpec
from hopfcross.algebras import truncated_polynomial_algebra
from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex
from hopfcross.complexes import (
    BoundaryNotSquareZero,
    ChainComplex,
    HOMOLOGY,
    check_convergence,
    homology_dims,
    infinity_page,
    spectral_page,
)
from hopfcross.crossed import regular_bimodule, tensor_bimodule
from hopfcross.hopf import group_hopf, sweedler_hopf, trivial_hopf  # noqa: F401
from hopfcross.linalg import ExactMatrix
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import HActionOnHomology
from bar_reference import (
    chain_complex_reference,
    cochain_complex_reference,
    h_module_homology_complex_reference,
)
from conftest import BUILTIN_BUILDERS, argument_major, z_n_hopf
from filtered_bar import hochschild_chain_filtered, hochschild_cochain_filtered

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def test_dual_numbers_f2_homology():
    # A = k[x]/(x^2) over F_2: dims 2,2,2,2 in degrees 0..3
    a = truncated_polynomial_algebra(F2, 2, "x")
    m = regular_bimodule(a)
    c = hochschild_chain_complex(a, m, 4)
    assert homology_dims(c) == [2, 2, 2, 2]


def test_dual_numbers_f2_periodic_cross_check():
    # independent route: the periodic small resolution ... -> A(x)A -> A(x)A -> A
    # with maps u*(x(x)1 - 1(x)x) and u*(x(x)1 + 1(x)x); applying M(x)_{A^e} -
    # leaves multiplication by x -/+ x on A, which over F_2 is zero either way,
    # so every homology group is A itself (dimension 2).
    a = truncated_polynomial_algebra(F2, 2, "x")
    field = F2
    zero = ExactMatrix.zeros(field, 2, 2)
    dims = [2, 2, 2, 2, 2]
    maps = [None, zero, zero, zero, zero]
    c = ChainComplex(field, dims, maps, HOMOLOGY)
    assert homology_dims(c) == [2, 2, 2, 2]


def test_group_algebra_z2_f2_regular_coefficients():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    m = regular_bimodule(cp.e)
    c = hochschild_chain_complex(cp.e, m, 4)
    assert homology_dims(c) == [2, 2, 2, 2]
    cc = hochschild_cochain_complex(cp.e, m, 4)
    assert homology_dims(cc) == [2, 2, 2, 2]


def test_group_algebra_z2_rational_regular_coefficients():
    cp = BUILTIN_BUILDERS["z2_trivial"](Q)
    m = regular_bimodule(cp.e)
    assert homology_dims(hochschild_chain_complex(cp.e, m, 4)) == [2, 0, 0, 0]
    assert homology_dims(hochschild_cochain_complex(cp.e, m, 4)) == [2, 0, 0, 0]


def test_one_dimensional_algebra():
    cp = BUILTIN_BUILDERS["trivial"](Q)
    m = regular_bimodule(cp.e)
    assert homology_dims(hochschild_chain_complex(cp.e, m, 4)) == [1, 0, 0, 0]
    assert homology_dims(hochschild_cochain_complex(cp.e, m, 4)) == [1, 0, 0, 0]


def test_square_zero_all_builtins():
    for name, builder in BUILTIN_BUILDERS.items():
        cp = builder(Q)
        m = regular_bimodule(cp.e)
        hochschild_chain_complex(cp.e, m, 4).check_square_zero()
        hochschild_cochain_complex(cp.e, m, 4).check_square_zero()


F3 = FieldSpec.prime(3)


def h_module_chains(h, module, cap):
    """Hbar^s (x) N as the Hochschild chains of H with coefficients in
    N_eps; basis tensors laid out (t, n)."""
    dim_n, rho = module
    k_eps = (1, [[{0: c} for c in h.counit]])
    n_eps = tensor_bimodule(h.algebra, (dim_n, [mat.cols for mat in rho]), k_eps)
    return hochschild_chain_complex(h.algebra, n_eps, cap)


def trivial_module(h):
    """k with h acting by the counit, as (dim, rho)."""
    return 1, [ExactMatrix(h.field, 1, 1, [h.field.sparse({0: c})]) for c in h.counit]


def test_h_module_homology_z2():
    h = z_n_hopf(F2, 2)
    c = h_module_chains(h, trivial_module(h), 4)
    assert homology_dims(c) == [1, 1, 1, 1]
    h_q = z_n_hopf(Q, 2)
    assert homology_dims(h_module_chains(h_q, trivial_module(h_q), 4)) == [1, 0, 0, 0]


def _transposed(module):
    """The left module whose homology complex is the transpose of the
    cohomology complex with right-module coefficients module."""
    dim_n, rho = module
    return dim_n, [mat.transpose() for mat in rho]


def test_h_module_cohomology_z2():
    h = z_n_hopf(F2, 2)
    mod = trivial_module(h)  # trivial module works on either side
    c = h_module_chains(h, _transposed(mod), 4)
    assert homology_dims(c) == [1, 1, 1, 1]
    h_q = z_n_hopf(Q, 2)
    c_q = h_module_chains(h_q, _transposed(trivial_module(h_q)), 4)
    assert homology_dims(c_q) == [1, 0, 0, 0]


def test_h_module_trivial_hopf():
    h = trivial_hopf(Q)
    assert homology_dims(h_module_chains(h, trivial_module(h), 4)) == [1, 0, 0, 0]


@pytest.mark.parametrize("field, dims", [
    (Q, [1, 0, 1, 0, 1, 0]), (F3, [1, 0, 1, 0, 1, 0]), (F2, [1, 2, 3, 4, 5, 6]),
], ids=["Q", "F3", "F2"])
def test_h_module_homology_sweedler_h4(field, dims):
    # the counit of H4 vanishes on x and gx, so a misplaced counit shows here.
    # Ext over k[x]/(x^2) is k[y] with |y| = 1 and g acting on y by -1, so only
    # even degrees survive the g-invariants outside char 2; over F_2,
    # H4 = k[u, x]/(u^2, x^2) with u = 1 + g, and dim H_n = n + 1
    h = sweedler_hopf(field)
    assert homology_dims(h_module_chains(h, trivial_module(h), 6)) == dims


def _builtin_h_modules():
    """The trivial modules of k[Z/2] and H4, and every H_r(A, M) of the
    built-ins as an H-module, chain and cochain (transposed), over Q and F_3."""
    for field in (Q, F3):
        for h in (z_n_hopf(field, 2), sweedler_hopf(field)):
            yield h, trivial_module(h)
        for name in BUILTIN_NAMES:
            cp = builtin(name, field=field).crossed_product()
            for cochain in (False, True):
                act = HActionOnHomology(cp, regular_bimodule(cp.e), 4, cochain=cochain)
                for r in range(4):
                    module = act.as_h_module(r)
                    yield cp.h, _transposed(module) if cochain else module


def test_h_module_chains_match_reference():
    # the standard complex, face by face, is the Hochschild complex of N_eps
    # term for term, both laid out (t, n)
    for h, module in _builtin_h_modules():
        got, want = h_module_chains(h, module, 4), h_module_homology_complex_reference(h, module, 4)
        assert got.dims == want.dims
        assert got.maps[1:] == want.maps[1:]


def test_chain_filtration_verifies():
    for name in ("z2_trivial", "z4_as_cocycle_extension", "sweedler_smash"):
        cp = BUILTIN_BUILDERS[name](Q)
        m = regular_bimodule(cp.e)
        fc = hochschild_chain_filtered(cp, m, 3)
        assert fc.verify().passed, name
        fcc = hochschild_cochain_filtered(cp, m, 3)
        assert fcc.verify().passed, name


def test_chain_filtration_convergence_z2():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    m = regular_bimodule(cp.e)
    fc = hochschild_chain_filtered(cp, m, 4)
    report = check_convergence(fc)
    assert report.passed
    # E^1 of the leg-count filtration: A = k so everything sits in column r = 0
    page1 = spectral_page(fc, 1)
    assert all(q == 0 for (p, q) in page1.table)
    assert [page1.cell(s, 0) for s in range(4)] == [2, 2, 2, 2]


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_flat_face_indices_match_reference(name, field):
    # every map entry for entry as the TensorSpace.index builders, compared as
    # dicts: the package builds each column in its own order (see the next
    # test); the chain reference is laid out (m, t) and relabelled (t, m)
    cp = BUILTIN_BUILDERS[name](field)
    m = regular_bimodule(cp.e)
    for build, reference, relabel in (
            (hochschild_chain_complex, chain_complex_reference, True),
            (hochschild_cochain_complex, cochain_complex_reference, False)):
        got, want = build(cp.e, m, 4), reference(cp.e, m, 4)
        assert got.dims == want.dims
        for d, r in zip(got.maps[1:], want.maps[1:]):
            r = argument_major(r, m.dim) if relabel else r
            assert (d.nrows, d.ncols) == (r.nrows, r.ncols)
            assert d.cols == r.cols


def _reversed_columns(c: ChainComplex) -> ChainComplex:
    """c with every column dict in reversed insertion order."""
    maps = [None] + [ExactMatrix(d.field, d.nrows, d.ncols, [dict(reversed(col.items())) for col in d.cols])
                     for d in c.maps[1:]]
    return ChainComplex(c.field, c.dims, maps, c.direction)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_column_order_does_not_change_the_reductions(name, field):
    # no reader depends on the insertion order of a column: the elimination
    # picks pivots by row index, d o d sums, and transpose indexes
    cp = BUILTIN_BUILDERS[name](field)
    m = regular_bimodule(cp.e)
    for build in (hochschild_chain_complex, hochschild_cochain_complex):
        c = build(cp.e, m, 4)
        r = _reversed_columns(c)
        assert [d.pivot_pairs() for d in r.maps[1:]] == [d.pivot_pairs() for d in c.maps[1:]]
        assert homology_dims(r) == homology_dims(c)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(7)], ids=["Q", "F7"])
def test_one_perturbed_cochain_entry_breaks_square_zero(field):
    # add 1 to entry (i, 0) of b*_n, for a row i where b*_(n+1) has a nonzero column
    cp = BUILTIN_BUILDERS["s3_as_action_extension"](field)
    c = hochschild_cochain_complex(cp.e, regular_bimodule(cp.e), 3)  # checked when made
    for n in (1, 2):
        i = next(i for i, col in enumerate(c.maps[n + 1].cols) if col)
        cols = list(c.maps[n].cols)
        cols[0] = field.settle({**cols[0], i: cols[0].get(i, 0) + 1})
        maps = list(c.maps)
        maps[n] = ExactMatrix(field, c.maps[n].nrows, c.maps[n].ncols, cols)
        with pytest.raises(BoundaryNotSquareZero):
            ChainComplex(field, c.dims, maps, c.direction)
