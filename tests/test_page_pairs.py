"""The cleared pivot pairs of FilteredComplex against the plain level-order reduction.

FilteredComplex._pairs(n) finds the pairs of U_n : C_{n-1} -> C_n, the map
joining degrees n - 1 and n written upward (maps[n] for cochains, its
transpose for chains), by a reduction cleared by the map below.  The pairs
must be those of tests/page_pairs_reference.py entry for entry, run on the
cochain complex of the transposed maps at degree n - 1 (on the complex itself
for cochains); the transposes are taken here, not through ChainComplex.up.
"""

import pytest
from hypothesis import given, settings

from hopfcross.complexes import COHOMOLOGY, HOMOLOGY, ChainComplex
from hopfcross.crossed import regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import ReducedComplexes
from filtered_bar import hochschild_chain_filtered, hochschild_cochain_filtered
from page_pairs_reference import reference_pairs
from test_spectral_pages import filtered_complexes

FIELDS = {"Q": FieldSpec.rationals(), "F3": FieldSpec.prime(3), "F7": FieldSpec.prime(7)}


def _assert_pairs_match(fc):
    c = fc.complex
    up = c
    if c.direction == HOMOLOGY:
        up = ChainComplex(c.field, c.dims, [None] + [d.transpose() for d in c.maps[1:]], COHOMOLOGY)
    for n in range(c.cap + 2):
        assert fc._pairs(n) == reference_pairs(up, fc.levels, n - 1), (c.direction, n)


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pairs_match_reference_on_builtins(name, field):
    cp = builtin(name, field=FIELDS[field]).crossed_product()
    rc = ReducedComplexes(cp, regular_bimodule(cp.e), 5)
    for fc in (rc.reduced_chain_complex(), rc.reduced_cochain_complex(),
               rc.untwisted_chain_complex(), rc.untwisted_cochain_complex()):
        _assert_pairs_match(fc)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pairs_match_reference_on_scattered_levels(name, crossed_products):
    # the bar oracles' levels are scattered over each degree's coordinates
    cp = crossed_products[name]
    m = regular_bimodule(cp.e)
    for fc in (hochschild_chain_filtered(cp, m, 3), hochschild_cochain_filtered(cp, m, 3)):
        _assert_pairs_match(fc)


@settings(max_examples=150, deadline=None)
@given(fc=filtered_complexes())
def test_pairs_match_reference_on_random_filtered_complexes(fc):
    _assert_pairs_match(fc)
