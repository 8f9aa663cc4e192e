"""The certificate layer against full-basis computations.

CrossedResolution._extend_bimodule forms each left image eL . x once and
reuses it for every right factor; tests/extension_reference.py keeps the
per-basis-vector body it replaced.  boundaries_vanish checks d o d and the
augmentation on generator columns only; it must agree with the full matrix
products, on the built-ins and on resolutions with a broken generator column.
"""

import pytest

from hopfcross.fields import FieldSpec
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.resolution import CrossedResolution, boundaries_vanish

from extension_reference import extend_bimodule_reference

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2)]
FIELD_IDS = ["Q", "F5", "F2"]
# trivial has no free generator at all, so no column of d_1 to break
BROKEN_NAMES = [name for name in BUILTIN_NAMES if name != "trivial"]


def _resolution(name, field, method="closed", cap=None):
    cp = builtin(name, field=field).crossed_product(with_inverse=False)
    if cap is None:
        cap = 3 if name == "sweedler_smash" else 4
    return CrossedResolution(cp, cap, method)


def _full_products(res):
    square = all((res.d[n] @ res.d[n + 1]).is_zero() for n in range(1, res.cap))
    return square, (res.augmentation @ res.d[1]).is_zero()


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
