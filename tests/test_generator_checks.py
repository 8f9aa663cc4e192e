"""The boundary applied from generator columns against full-basis computations.

CrossedResolution.boundary applies d_n to a vector from the generator
columns; tests/extension_reference.py extends each block one basis vector at
a time, and the assembly here sums the blocks.  boundaries_vanish checks
d o d and the augmentation on generator columns only; it must agree with the
full matrix products, on the built-ins and on resolutions with a broken
generator column.
"""

import pytest

from hopfcross.cli import main
from hopfcross.fields import FieldSpec
from hopfcross.linalg import vec_add_into
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.resolution import CrossedResolution, boundaries_vanish

from conftest import boundary_matrices
from extension_reference import extend_bimodule_reference

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2)]
FIELD_IDS = ["Q", "F5", "F2"]
# trivial has no free generator at all, so no column of d_1 to break
BROKEN_NAMES = [name for name in BUILTIN_NAMES if name != "trivial"]


def _resolution(name, field, method="closed", cap=None):
    cp = builtin(name, field=field).crossed_product()
    if cap is None:
        cap = 3 if name == "sweedler_smash" else 4
    return CrossedResolution(cp, cap, method)


def _full_products(res):
    d = boundary_matrices(res)
    square = all((d[n] @ d[n + 1]).is_zero() for n in range(1, res.cap))
    return square, (res.augmentation @ d[1]).is_zero()


def _reference_boundary(res, n: int) -> list:
    """The columns of d_n, each the sum over l of the column of the reference
    block (l, r, s), shifted to the offset of its target block."""
    field = res.field
    tgt_offset = {(r, s): off for r, s, off, _ in res.degree_blocks(n - 1)}
    cols = []
    for r, s, _, space in res.degree_blocks(n):
        blocks = [(extend_bimodule_reference(res, l, r, s, res.generator_columns[(l, r, s)]),
                   tgt_offset[(r + l - 1, s - l)]) for l in range(0 if r else 1, s + 1)]
        for local in range(space.dim):
            col: dict = {}
            for block, off in blocks:
                vec_add_into(col, {i + off: v for i, v in block.cols[local].items()},
                             field.one, field)
            cols.append(col)
    return cols


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_blocks_match_extension_reference(name, field):
    for method in ("closed", "recursive"):
        res = _resolution(name, field, method)
        for (l, r, s), gens in sorted(res.generator_columns.items()):
            expect = extend_bimodule_reference(res, l, r, s, gens)
            assert res.blocks[(l, r, s)] == expect, (method, l, r, s)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_boundary_matches_extension_reference(name, field):
    for method in ("closed", "recursive"):
        res = _resolution(name, field, method, cap=3)
        one = res.field.one
        for n in range(1, res.cap + 1):
            expect = _reference_boundary(res, n)
            for j in range(res.dims[n]):
                assert res.boundary(n, {j: one}) == expect[j], (method, n, j)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", ["klein_four", "s3_as_action_extension", "sweedler_smash"])
def test_boundary_sums_two_source_blocks_in_one_target_block(name, field):
    # d^1 out of block (1, 1) and d^0 out of block (2, 0) both land in block
    # (1, 0): a vector with a part in each must get the sum of both images
    res = _resolution(name, field, cap=3)
    one = res.field.one
    expect = _reference_boundary(res, 2)
    offsets = {(r, s): (off, space.dim) for r, s, off, space in res.degree_blocks(2)}
    (off_a, dim_a), (off_b, dim_b) = offsets[(1, 1)], offsets[(2, 0)]
    pair = next((a, b) for a in range(off_a, off_a + dim_a) for b in range(off_b, off_b + dim_b)
                if set(expect[a]) & set(expect[b]))
    want = dict(expect[pair[0]])
    vec_add_into(want, expect[pair[1]], one, res.field)
    assert res.boundary(2, {pair[0]: one, pair[1]: one}) == want


@pytest.mark.parametrize("name", ["klein_four", "s3_as_action_extension", "sweedler_smash"])
def test_resolution_check_builds_no_blocks(name, monkeypatch, capsys):
    # every check applies d from the generator columns: no E^e-extended block
    def forbidden(self):
        raise AssertionError("resolution-check built the extended blocks")

    monkeypatch.setattr(CrossedResolution, "blocks", property(forbidden))
    assert main(["resolution-check", name, "--max-degree", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_boundaries_vanish_matches_full_products(name, field):
    res = _resolution(name, field)
    assert boundaries_vanish(res) == _full_products(res) == (True, True)


def _broken(name, field, change):
    """A cap-3 closed resolution whose first nonzero d_1 generator column is
    changed before any block is read."""
    res = _resolution(name, field, cap=3)
    for key in sorted(res.generator_columns):
        l, r, s = key
        cols = res.generator_columns[key]
        if r + s == 1 and cols and cols[0]:
            cols[0] = change(res.field, cols[0])
            return res
    raise AssertionError(f"{name} has no nonzero d_1 generator column")


def _negated(field, col):
    return {k: field.neg(v) for k, v in col.items()}


def _plus_unit(field, col):
    # basis vector 0 of block (0, 0) is 1 (x) 1, on which the augmentation is -1
    out = dict(col)
    total = field.add(out.get(0, field.zero), field.one)
    out.pop(0, None)
    if not field.is_zero(total):
        out[0] = total
    return out


@pytest.mark.parametrize("change", [_negated, _plus_unit], ids=["negated", "plus_unit"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BROKEN_NAMES)
def test_boundaries_vanish_sees_a_broken_column(name, field, change):
    res = _broken(name, field, change)
    got = boundaries_vanish(res)
    assert got == _full_products(res)
    if change is _plus_unit:
        assert got[1] is False
