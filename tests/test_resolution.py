from itertools import product

import pytest

from hopfcross.fields import FieldSpec
from hopfcross.linalg import ExactMatrix, vec_add_into
from hopfcross.resolution import (
    CrossedResolution,
    boundaries_vanish,
    build_resolution_closed,
    build_resolution_recursive,
)
from conftest import (
    BUILTIN_BUILDERS,
    boundary_matrices,
    homotopy_matrices,
    make_matrix,
    mat_add,
    mat_neg,
    mu_matrices,
)
import homotopy_reference as ref

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)

SMALL = ("trivial", "z2_trivial", "z4_as_cocycle_extension", "klein_four")


@pytest.fixture(scope="module")
def resolutions():
    return {name: build_resolution_closed(BUILTIN_BUILDERS[name](Q), 4) for name in SMALL}


def test_row_contractions(resolutions):
    # the row targets are the indices of block (0, s) whose right slot lies in
    # 1 # H, and sigma0_y is their inclusion: mu_s is the identity on them;
    # mu_s + d0 sigma0_x = id on the (0, s) blocks; sigma0 d0 + d0 sigma0 = id
    # on the other blocks
    for name, res in resolutions.items():
        sigma0_x, mu = ref.sigma0_x(res), mu_matrices(res)
        for s in range(res.cap + 1):
            rows = ref.row_projection(res, s)
            assert rows.rank() == res.cp.e.dim * (res.cp.h.dim - 1) ** s * res.cp.h.dim, (name, s)
            assert mu[s] @ rows == rows, (name, s)
            assert rows @ mu[s] == mu[s], (name, s)
            # the correction block d0_{1s} lives one degree up, so the (0, s)
            # identity is only checkable below the cap
            if (1, s) in res.block_spaces:
                xs = res.block_spaces[(0, s)]
                lhs = mat_add(mu[s], res.blocks[(0, 1, s)] @ sigma0_x[(0, s)])
                assert lhs == ExactMatrix.identity(Q, xs.dim), (name, s)
        for (r, s), xs in res.block_spaces.items():
            if r < 1 or (r + 1, s) not in res.block_spaces:
                continue
            lhs = sigma0_x[(r - 1, s)] @ res.blocks[(0, r, s)]
            lhs = mat_add(lhs, res.blocks[(0, r + 1, s)] @ sigma0_x[(r, s)])
            assert lhs == ExactMatrix.identity(Q, xs.dim), (name, r, s)


def test_y_complex_contraction(resolutions):
    for name, res in resolutions.items():
        partial, sigma_minus1 = ref.partial(res), ref.sigma_minus1(res)
        mu_tilde = ref.mu_tilde(res)
        # partial o partial = 0
        for s in range(2, res.cap + 1):
            assert (partial[s - 1] @ partial[s]).is_zero(), (name, s)
        # mu_tilde o partial_1 = 0
        assert (mu_tilde @ partial[1]).is_zero(), name
        # contraction identities
        e_dim = res.cp.e.dim
        assert mu_tilde @ sigma_minus1[-1] == ExactMatrix.identity(Q, e_dim), name
        lhs = partial[1] @ sigma_minus1[0]
        lhs = mat_add(lhs, sigma_minus1[-1] @ mu_tilde)
        assert lhs == ref.row_projection(res, 0), name
        for s in range(1, res.cap):
            lhs = partial[s + 1] @ sigma_minus1[s]
            lhs = mat_add(lhs, sigma_minus1[s - 1] @ partial[s])
            assert lhs == ref.row_projection(res, s), (name, s)


def test_square_zero_and_augmentation(resolutions):
    for name, res in resolutions.items():
        d = boundary_matrices(res)
        for n in range(1, res.cap):
            assert (d[n] @ d[n + 1]).is_zero(), (name, n)
        assert (res.augmentation @ d[1]).is_zero(), name


def test_augmentation_is_negative_multiplication(resolutions):
    for name, res in resolutions.items():
        cp = res.cp
        x00 = res.block_spaces[(0, 0)]
        for flat in range(x00.dim):
            e_left, _, e_right = x00.split(flat)
            expect = {k: Q.neg(v) for k, v in cp.e.mult[e_left][e_right].items()}
            assert res.augmentation.cols[flat] == expect, (name, flat)


@pytest.mark.parametrize("field", (Q, FieldSpec.prime(5), F2), ids=("Q", "F5", "F2"))
@pytest.mark.parametrize("method", ("closed", "recursive"))
def test_augmentation_factors_through_the_row_maps(field, method):
    # the augmentation, read from E's product, is mu_tilde o mu_0 of the
    # row-map column rules
    from hopfcross.problems import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        res = CrossedResolution(BUILTIN_BUILDERS[name](field), 1, method)
        assert ref.mu_tilde(res) @ mu_matrices(res)[0] == res.augmentation, name


def test_augmentation_reads_no_row_map(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the augmentation read a mu_s column")

    for method in ("closed", "recursive"):
        res = CrossedResolution(BUILTIN_BUILDERS["sweedler_smash"](Q), 2, method)
        monkeypatch.setattr(CrossedResolution, "_mu_column", forbidden)
        assert res.augmentation.nrows == res.cp.e.dim
        assert boundaries_vanish(res) == (True, True)
        monkeypatch.undo()


def test_contracting_homotopy(resolutions):
    # the identities on every column, with sigma extended over the full basis
    for name, res in resolutions.items():
        sigma, d = homotopy_matrices(res), boundary_matrices(res)
        e_dim = res.cp.e.dim
        # aug o sigma_0 = id_E
        assert res.augmentation @ sigma[0] == ExactMatrix.identity(Q, e_dim), name
        # d_1 sigma_1 + sigma_0 aug = id at degree 0
        lhs = mat_add(d[1] @ sigma[1], sigma[0] @ res.augmentation)
        assert lhs == ExactMatrix.identity(Q, res.dims[0]), name
        # d_{n+1} sigma_{n+1} + sigma_n d_n = id at degree n
        for n in range(1, res.cap):
            lhs = mat_add(d[n + 1] @ sigma[n + 1], sigma[n] @ d[n])
            assert lhs == ExactMatrix.identity(Q, res.dims[n]), (name, n)


def test_homotopy_vanishes_on_generators(resolutions):
    for name, res in resolutions.items():
        sigma = res.contracting_homotopy()
        for n in range(2, res.cap + 1):
            # the table holds every left generator of degree n - 1
            left = [off + space.combine(0, mid, e) for _, _, off, space in res.degree_blocks(n - 1)
                    for mid in space.generators() for e in range(space.ne)]
            assert sorted(sigma[n]) == left, (name, n)
            for g in res.generator_indices(n - 1):
                assert not sigma[n][g], (name, n, g)


@pytest.mark.parametrize("field", (Q, FieldSpec.prime(5)), ids=("Q", "F5"))
def test_homotopy_equals_the_full_basis_reference(field):
    # the left extension of the table equals the matrix-product sigma on
    # every column
    from hopfcross.problems import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        cap = 3 if name == "sweedler_smash" else 4
        res = build_resolution_closed(BUILTIN_BUILDERS[name](field), cap)
        expect = ref.contracting_homotopy(res)
        got = homotopy_matrices(res)
        assert sorted(got) == sorted(expect) == list(range(cap + 1)), name
        for n in expect:
            assert got[n] == expect[n], (name, n)


@pytest.mark.parametrize(
    "name", ("s3_as_action_extension", "sweedler_smash", "z4_as_cocycle_extension"))
def test_changed_sigma0_x_value_is_caught(name, monkeypatch, tmp_path, capsys):
    # sigma^0_x scaled on one left generator with a nonzero value: the
    # left-generator check raises, and resolution-check exits 1 with the
    # homotopy marked false
    import json

    from hopfcross.cli import main
    from hopfcross.resolution import HomotopyIdentityFailure, assert_contracting_homotopy

    original = CrossedResolution._sigma0_x_column
    cp = BUILTIN_BUILDERS[name](Q)
    res = build_resolution_closed(cp, 3)
    assert_contracting_homotopy(res)
    targets = []
    for (r, s), space in res.block_spaces.items():
        if r + s < res.cap:
            local = next((j for j in range(space.mid_size * space.ne)
                          if original(res, r, s, j)), None)
            if local is not None:
                targets.append((r, s, local))
    assert len(targets) >= 3, targets

    for target in targets:
        def mutated(self, r, s, flat, target=target):
            col = original(self, r, s, flat)
            if (r, s, flat) == target:
                col = {i: self.field.mul(2, v) for i, v in col.items()}
            return col

        monkeypatch.setattr(CrossedResolution, "_sigma0_x_column", mutated)
        with pytest.raises(HomotopyIdentityFailure):
            assert_contracting_homotopy(build_resolution_closed(cp, 3))
        if target[:2] == (0, 1):
            out = tmp_path / "res.json"
            assert main(["resolution-check", name, "--max-degree", "2",
                         "--output", str(out)]) == 1
            doc = json.loads(out.read_text())
            assert doc["sections"]["contracting_homotopy"] == {"match": False}
            assert not doc["pass"]
        monkeypatch.setattr(CrossedResolution, "_sigma0_x_column", original)
    capsys.readouterr()


def test_closed_equals_recursive_small():
    for name in SMALL:
        cp = BUILTIN_BUILDERS[name](Q)
        closed = build_resolution_closed(cp, 4)
        rec = build_resolution_recursive(cp, 4)
        assert set(closed.blocks) == set(rec.blocks), name
        for key in closed.blocks:
            assert closed.blocks[key] == rec.blocks[key], (name, key)


def test_block_sum_identities(resolutions):
    # mu_{s-1} d^1_{0s} = -partial_s mu_s and the d0 d^l sum identities on
    # generators
    for name, res in resolutions.items():
        partial, mu = ref.partial(res), mu_matrices(res)
        for s in range(1, res.cap + 1):
            lhs = mu[s - 1] @ res.blocks[(1, 0, s)]
            rhs = mat_neg(partial[s] @ mu[s])
            assert lhs == rhs, (name, s)
        for (l, r, s), block in res.blocks.items():
            if l < 1 or r + l - 1 < 1:
                continue
            d0 = res.blocks.get((0, r + l - 1, s - l))
            if d0 is None:
                continue
            space = res.block_spaces[(r, s)]
            for mid in space.generators():
                gen = {space.combine(0, mid, 0): Q.one}
                lhs = d0.apply(block.apply(gen))
                rhs: dict = {}
                lo = 1 if r == 0 else 0
                for j in range(lo, l):
                    if j == 0:
                        step = res.blocks[(0, r, s)].apply(gen)
                        step = res.blocks[(l, r - 1, s)].apply(step)
                    else:
                        step = res.blocks[(j, r, s)].apply(gen)
                        step = res.blocks[(l - j, r + j - 1, s - j)].apply(step)
                    for k, v in step.items():
                        w = Q.add(rhs.get(k, Q.zero), v)
                        if Q.is_zero(w):
                            rhs.pop(k, None)
                        else:
                            rhs[k] = w
                rhs = {k: Q.neg(v) for k, v in rhs.items()}
                assert lhs == rhs, (name, l, r, s, mid)


def test_degenerate_shapes():
    # H = k: only the s = 0 row survives and the resolution is the normalized
    # bar resolution of A in the r-direction
    cp = BUILTIN_BUILDERS["trivial"](Q)
    res = build_resolution_closed(cp, 3)
    for n in range(4):
        assert res.degree_dim(n) == res.block_spaces[(n, 0)].dim
    # A = k: the (0, s) column is all of X_s
    cp = BUILTIN_BUILDERS["z2_trivial"](Q)
    res = build_resolution_closed(cp, 3)
    for n in range(4):
        total = res.degree_dim(n)
        assert total == res.block_spaces[(0, n)].dim + sum(
            res.block_spaces[(n - s, s)].dim for s in range(n)
        )
        for s in range(n):
            if n - s > 0:
                assert res.block_spaces[(n - s, s)].dim == 0


def test_formulas_descend_to_quotients():
    # Representative choice is invisible: by linearity, adding multiples of the
    # unit to an input of a quotient-level map changes it by the value on a
    # tensor with a unit leg, and those values flatten to zero exactly.
    from conftest import BUILTIN_BUILDERS

    for name in ("z4_as_cocycle_extension", "sweedler_smash", "s3_as_action_extension"):
        cp = BUILTIN_BUILDERS[name](Q)
        res = build_resolution_closed(cp, 3)
        for (r, s) in res.block_spaces:
            if s < 1 or r + s > 3:
                continue
            nh, na = cp.h.dim, cp.a.dim
            for mid_key in product(*([range(nh)] * s + [range(na)] * r)):
                if 0 not in mid_key:
                    continue
                assert not res._d1_generator_column(tuple(mid_key), r, s), (name, r, s, mid_key)
                for l in range(2, s + 1):
                    assert not res._dl_generator_column(tuple(mid_key), l, r, s), (
                        name, l, r, s, mid_key,
                    )


def test_mismatch_and_homotopy_exceptions(resolutions, monkeypatch):
    from hopfcross.resolution import (
        HomotopyIdentityFailure,
        RecursionMismatch,
        assert_constructions_agree,
        assert_contracting_homotopy,
        build_resolution_recursive,
    )

    res = resolutions["z4_as_cocycle_extension"]
    rec = build_resolution_recursive(res.cp, 4)
    assert_constructions_agree(res, rec)
    assert_contracting_homotopy(res)

    # corrupting one generator column triggers the mismatch with the right key
    key = (2, 0, 2)
    gens = rec.generator_columns[key]
    saved = gens[0]
    assert saved
    try:
        gens[0] = {i: res.field.neg(v) for i, v in saved.items()}
        with pytest.raises(RecursionMismatch) as err:
            assert_constructions_agree(res, rec)
        assert err.value.block == key
    finally:
        gens[0] = saved

    # a wrong homotopy table on the resolution is rejected with the failing degree
    sigma = res.contracting_homotopy()
    bad = dict(sigma)
    three = res.field.scalar(3)
    bad[2] = {g: {i: res.field.mul(three, v) for i, v in img.items()} for g, img in sigma[2].items()}
    monkeypatch.setattr(res, "contracting_homotopy", lambda: bad)
    with pytest.raises(HomotopyIdentityFailure) as err:
        assert_contracting_homotopy(res)
    assert err.value.degree == 1


def test_comparison_identity_exception():
    from hopfcross.comparison import BarCalculus, build_comparison, check_comparison_identities
    from conftest import BUILTIN_BUILDERS

    cp = BUILTIN_BUILDERS["klein_four"](Q)
    res = build_resolution_closed(cp, 3)
    bar = BarCalculus(cp, 4)
    cmp_maps = build_comparison(res, bar, 2)
    assert check_comparison_identities(cmp_maps).passed
    # breaking one psi generator image surfaces as an identity failure
    cmp_maps.psi[1][0] = {}
    report = check_comparison_identities(cmp_maps)
    first = report.failures[0]
    assert (first.check, first.witness[0]) == ("psi-chain-map", 1), report.failures[:3]


def test_trivial_hopf_collapses_to_bar_resolution():
    # H = k: only the s = 0 row survives, and the assembled boundaries are the
    # normalized bar resolution of A itself, matrix for matrix
    from hopfcross.comparison import BarCalculus
    from hopfcross.crossed import build_crossed_product, trivial_action, trivial_cocycle
    from hopfcross.hopf import trivial_hopf
    from conftest import z_n_algebra

    a = z_n_algebra(Q, 3)
    h = trivial_hopf(Q)
    cp = build_crossed_product(a, h, trivial_action(Q, h, a), trivial_cocycle(Q, h, a))
    res = build_resolution_closed(cp, 3)
    bar = BarCalculus(cp, 3)
    d = boundary_matrices(res)
    for n in range(1, 4):
        space = bar.spaces[n]
        assert res.dims[n] == space.dim
        for j in range(space.dim):
            assert d[n].cols[j] == bar.bprime(n, {j: Q.one}), (n, j)


CERTIFICATE_LAYER = ("blocks", "augmentation")


def test_generator_columns_are_those_of_the_blocks():
    # both methods: the generator layer is exactly the generator columns of
    # the blocks applied from it
    from hopfcross.problems import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        cp = BUILTIN_BUILDERS[name](Q)
        for method in ("closed", "recursive"):
            res = CrossedResolution(cp, 3, method)
            assert set(res.generator_columns) == set(res.blocks), (name, method)
            for (l, r, s), block in res.blocks.items():
                src = res.block_spaces[(r, s)]
                gens = [block.cols[src.combine(0, m, 0)] for m in src.generators()]
                assert res.generator_columns[(l, r, s)] == gens, (name, method, l, r, s)


def test_d0_extension_matches_the_total_formula():
    # l = 0 blocks are extended from generators; d^0 is E^e-linear, so they
    # equal the displayed d^0 evaluated on every basis tensor
    for name in ("s3_as_action_extension", "sweedler_smash"):
        res = build_resolution_closed(BUILTIN_BUILDERS[name](Q), 3)
        for (l, r, s), block in res.blocks.items():
            if l:
                continue
            full = make_matrix(Q, block.nrows, block.ncols, lambda j: res._d0_column(r, s, j))
            assert block == full, (name, r, s)


def test_reports_leave_certificate_layer_unbuilt(monkeypatch):
    from hopfcross.homology import hochschild_cohomology, hochschild_homology

    def forbidden(self):
        raise AssertionError("a report built the contracting homotopy")

    monkeypatch.setattr(CrossedResolution, "contracting_homotopy", forbidden)
    cp = BUILTIN_BUILDERS["sweedler_smash"](Q)
    res = CrossedResolution(cp, 4)
    hochschild_homology(cp, cap=4, res=res)
    hochschild_cohomology(cp, cap=4, res=res)
    assert not set(CERTIFICATE_LAYER) & set(vars(res))


def test_recursive_method_reads_no_closed_formula(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the recursion read a closed-formula generator column")

    closed = build_resolution_closed(BUILTIN_BUILDERS["klein_four"](Q), 3)
    monkeypatch.setattr(CrossedResolution, "_closed_generator_columns", forbidden)
    monkeypatch.setattr(CrossedResolution, "_d1_generator_column", forbidden)
    monkeypatch.setattr(CrossedResolution, "_dl_generator_column", forbidden)
    rec = build_resolution_recursive(closed.cp, 3)
    assert rec.blocks == closed.blocks
    for key, gens in rec.generator_columns.items():
        assert not any(a is b for a, b in zip(gens, closed.generator_columns[key])), key


def test_recursion_builds_no_certificate_layer():
    from hopfcross.resolution import assert_constructions_agree

    cp = BUILTIN_BUILDERS["s3_as_action_extension"](Q)
    rec = build_resolution_recursive(cp, 3)
    assert_constructions_agree(build_resolution_closed(cp, 3), rec)
    built = set(CERTIFICATE_LAYER) & set(vars(rec))
    assert not built, built


@pytest.mark.parametrize("p", (5, 2))
def test_closed_equals_recursive_over_prime_fields(p):
    from hopfcross.problems import BUILTIN_NAMES

    field = FieldSpec.prime(p)
    for name in BUILTIN_NAMES:
        cp = BUILTIN_BUILDERS[name](field)
        cap = 3 if name == "sweedler_smash" else 4
        closed = build_resolution_closed(cp, cap)
        rec = build_resolution_recursive(cp, cap)
        assert rec.generator_columns == closed.generator_columns, (p, name)


def _free_spaces():
    from hopfcross.comparison import BarCalculus

    cp = BUILTIN_BUILDERS["sweedler_smash"](Q)
    block = build_resolution_closed(cp, 2).block_spaces[(1, 1)]
    return cp, {"block": block, "bar": BarCalculus(cp, 2).spaces[2]}


def test_free_bimodule_space_mid_key_round_trip():
    # one mixed-radix index serves the free bimodule spaces and the mid
    # spaces of the reduced and untwisted complexes
    from hopfcross.reduced_complexes import _reduced_mid_space, _untwisted_mid_space
    from hopfcross.tensors import mid_key, mid_rank

    cp, spaces = _free_spaces()
    indexings = {kind: (list(space.radices), space.mid_key,
                        space.mid_rank, space.generators())
                 for kind, space in spaces.items()}
    for kind, mid_space in (("reduced", _reduced_mid_space), ("untwisted", _untwisted_mid_space)):
        tensor_space = mid_space(cp, 2, 1)
        radices = tensor_space.dims
        indexings[kind] = (list(radices), lambda m, radices=radices: mid_key(radices, m),
                           lambda key, radices=radices: mid_rank(radices, key),
                           range(tensor_space.size))
    for kind, (radices, key_of, rank_of, indices) in indexings.items():
        keys = [key_of(m) for m in indices]
        assert keys and all(0 not in key for key in keys), kind
        assert [rank_of(key) for key in keys] == list(indices), kind
        # section keys enumerate the normalized legs row-major
        assert keys == [tuple(i + 1 for i in multi) for multi in product(*map(range, radices))]
        assert rank_of((0,) + keys[-1][1:]) is None, kind
    for kind, space in spaces.items():
        assert space.dim == cp.e.dim ** 2 * space.mid_size, kind


def test_free_bimodule_space_is_a_bimodule():
    cp, spaces = _free_spaces()
    ne = cp.e.dim
    for kind, space in spaces.items():
        for flat in range(0, space.dim, 5):
            x = {flat: Q.one}
            for e in range(ne):
                for e2 in range(ne):
                    # (e . x) . e2 = e . (x . e2)
                    assert space.right_mult(space.left_mult(x, e), e2) == space.left_mult(
                        space.right_mult(x, e2), e
                    ), (kind, flat, e, e2)
                    # e . (e2 . x) = (e e2) . x and (x . e) . e2 = x . (e e2)
                    lhs_left: dict = {}
                    lhs_right: dict = {}
                    for k, c in cp.e.mult[e][e2].items():
                        vec_add_into(lhs_left, space.left_mult(x, k), c, Q)
                        vec_add_into(lhs_right, space.right_mult(x, k), c, Q)
                    assert space.left_mult(space.left_mult(x, e2), e) == lhs_left, (kind, flat)
                    assert space.right_mult(space.right_mult(x, e), e2) == lhs_right, (kind, flat)


def test_bar_contraction_on_builtins():
    from hopfcross.comparison import BarCalculus
    from hopfcross.problems import BUILTIN_NAMES
    from comparison_reference import check_bar_contraction

    for name in BUILTIN_NAMES:
        report = check_bar_contraction(BarCalculus(BUILTIN_BUILDERS[name](Q), 3), 2)
        assert report.passed and report.checks_run > 0, (name, report.summary())


def _linear_split(res, n, flat):
    """degree_split by a scan of the degree's blocks, as a reference."""
    offset = 0
    for s in range(n + 1):
        space = res.block_spaces[(n - s, s)]
        if flat < offset + space.dim:
            return n - s, s, offset, space, flat - offset
        offset += space.dim
    raise IndexError(flat)


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_degree_split_matches_a_linear_scan(name):
    # z2_trivial has Abar = 0: in each degree its empty blocks (r > 0) come
    # before the one nonempty block, so equal offsets must be skipped
    res = CrossedResolution(BUILTIN_BUILDERS[name](Q), 4)
    for n in range(res.cap + 1):
        assert res.degree_dim(n) == res.dims[n]
        for flat in range(res.dims[n]):
            assert res.degree_split(n, flat) == _linear_split(res, n, flat), (name, n, flat)
        with pytest.raises(IndexError):
            res.degree_split(n, res.dims[n])
