"""The derived-side blocks and the Sweedler legs against their test references.

reduced_block_from_resolution, untwist_block and untwist_inverse_block read
each term's action on M from the bimodule's sandwich table and finish each
column once with FieldSpec.settle; tests/placement_reference.py keeps the
per-term bodies they replaced.  sweedler_legs reads HopfData.comult_power;
tests/sweedler_reference.py recurses over the comultiplication rows.
"""

import pytest

from hopfcross.crossed import dual_bimodule, regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.hopf import sweedler_legs
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import (
    reduced_block_from_resolution,
    untwist_block,
    untwist_inverse_block,
)
from hopfcross.resolution import CrossedResolution

from placement_reference import (
    reduced_block_reference,
    untwist_block_reference,
    untwist_inverse_block_reference,
)
from sweedler_reference import sweedler_legs_reference

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2)]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5", "F2"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_derived_blocks_match_reference(name, field):
    cp = builtin(name, field=field).crossed_product()
    cap = 3 if name == "sweedler_smash" else 4
    res = CrossedResolution(cp, cap)
    e = regular_bimodule(cp.e)
    for label, m in (("E", e), ("E^v", dual_bimodule(e))):
        for l, r, s in sorted(res.generator_columns):
            got = reduced_block_from_resolution(res, m, l, r, s)
            assert got == reduced_block_reference(res, m, l, r, s), (label, l, r, s)
        for n in range(cap + 1):
            for s in range(n + 1):
                r = n - s
                assert untwist_block(cp, m, r, s) == untwist_block_reference(cp, m, r, s), (label, r, s)
                assert untwist_inverse_block(cp, m, r, s) == untwist_inverse_block_reference(
                    cp, m, r, s
                ), (label, r, s)


def _tuples(dim: int, length: int):
    if length == 0:
        yield ()
        return
    for head in _tuples(dim, length - 1):
        for i in range(dim):
            yield head + (i,)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5", "F2"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sweedler_legs_match_reference(name, field):
    h = builtin(name, field=field).hopf
    for count in range(1, 5):
        for length in range(4):
            for hs in _tuples(h.dim, length):
                want = sweedler_legs_reference(h, hs, count)
                first = sweedler_legs(h, hs, count)
                assert first == want, (hs, count)
                # a caller that mutates its result must not reach the shared table
                first.clear()
                first[(-1,)] = field.one
                assert sweedler_legs(h, hs, count) == want, (hs, count)
