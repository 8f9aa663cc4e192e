"""Cohomology by coefficient duality.

Hom_{E^e}(X, M) is the dual of M^v (x)_{E^e} X for finite-dimensional M.
Chains and cochains share one layout, argument first, so every cochain
matrix is the plain transpose of a chain matrix with dual coefficients,
entry for entry.  The bar cochain oracle and the displayed cochain formulas
are built without the dual, so they witness the identity independently.  The
package's bar chains are themselves the transposed bar cochains of M^v, so
the bar-side tests here take their chains from the face-by-face reference
(tests/bar_reference.py): the homology oracle reads dim H_n(E, M) from the
bar cochains of M^v, which the reference chains of M witness.
"""

import pytest

from hopfcross.bar import hochschild_cochain_complex
from hopfcross.complexes import ChainComplex, homology_dims
from hopfcross.crossed import (
    dual_bimodule, regular_bimodule, tensor_bimodule, unit_section_inverse_map,
)
from hopfcross.fields import FieldSpec
from hopfcross.homology import regular_left_module
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import (
    HActionOnHomology, ReducedComplexes, conjugation_chain_matrix,
)

from bar_reference import chain_complex_reference
from conftest import argument_major
from placement_reference import untwist_block_reference, untwist_inverse_block_reference


def _cases(field=None):
    """The six built-ins with M = E, plus two bimodules that are not E."""
    out = []
    for name in BUILTIN_NAMES:
        cp = builtin(name, field=field).crossed_product()
        out.append((name, cp, regular_bimodule(cp.e)))
    pf = builtin("s3_as_action_extension", field=field)
    cp = pf.crossed_product()
    right, left = pf.tor_modules
    # the Tor bimodule k (x) k, and E (x) k, whose two sides act differently
    out.append(("s3 tor", cp, tensor_bimodule(cp.e, left, right)))
    out.append(("s3 E (x) k", cp, tensor_bimodule(cp.e, regular_left_module(cp), right)))
    return out


CASES = _cases()
IDS = [name for name, _, _ in CASES]
TRANSPOSE_CASES = [pytest.param(cp, m, id=f"{name}-{field.spec_string()}")
                   for field in (FieldSpec.rationals(), FieldSpec.prime(3))
                   for name, cp, m in _cases(field)]


@pytest.mark.parametrize("name, cp, m", CASES, ids=IDS)
def test_dual_bimodule_is_a_bimodule_and_an_involution(name, cp, m):
    dual = dual_bimodule(m)
    assert dual.verify(cp.e).passed, name
    back = dual_bimodule(dual)
    assert (back.dim, back.dim_e) == (m.dim, m.dim_e)
    assert back.left == m.left and back.right == m.right, name


def _assert_transposed(cochains, chains, cap):
    assert cochains.dims == chains.dims
    for n in range(1, cap + 1):
        assert cochains.maps[n] == chains.maps[n].transpose(), n


def _reference_chains(e, m, cap):
    """The face-by-face bar chains of M, relabelled to the package's (t, m) layout."""
    ref = chain_complex_reference(e, m, cap)
    return ChainComplex(ref.field, ref.dims, [None] + [argument_major(d, m.dim) for d in ref.maps[1:]])


@pytest.mark.parametrize("cp, m", TRANSPOSE_CASES)
def test_bar_cochains_are_transposed_dual_bar_chains(cp, m):
    cap = 3
    _assert_transposed(hochschild_cochain_complex(cp.e, m, cap),
                       _reference_chains(cp.e, dual_bimodule(m), cap), cap)


@pytest.mark.parametrize("cp, m", TRANSPOSE_CASES)
def test_small_cochains_are_transposed_dual_chains(cp, m):
    # the reduced and untwisted cochains of M against the chains of M^v built
    # on their own, and the cochain H-action against the conjugation on M^v
    cap = 3
    dual = dual_bimodule(m)
    rc, rc_dual = ReducedComplexes(cp, m, cap), ReducedComplexes(cp, dual, cap)
    _assert_transposed(rc.reduced_cochain_complex().complex,
                       rc_dual.reduced_chain_complex().complex, cap)
    if cp.conv_inverse is None:
        return
    _assert_transposed(rc.untwisted_cochain_complex().complex,
                       rc_dual.untwisted_chain_complex().complex, cap)
    act, uinv = HActionOnHomology(cp, m, cap, cochain=True), unit_section_inverse_map(cp)
    for r in range(cap):
        for h_idx, mat in enumerate(act.chain_mats[r]):
            assert mat == conjugation_chain_matrix(cp, dual, r, h_idx, uinv).transpose(), (r, h_idx)


@pytest.mark.parametrize("name, cp, m", CASES, ids=IDS)
def test_derived_cochain_blocks_match_displayed_formulas(name, cp, m):
    cap = 3
    rc = ReducedComplexes(cp, m, cap)
    untwisted = cp.conv_inverse is not None
    dual = dual_bimodule(m)

    def untwist(reference, r, s):
        """The cochain mirror of a per-term untwisting map on M^v."""
        return argument_major(reference(cp, dual, r, s), m.dim).transpose()

    for s in range(cap + 1):
        for r in range(cap + 1 - s):
            for l in range(s + 1):
                if r + l == 0:
                    continue
                key = (name, l, r, s)
                block = rc.reduced_cochain_block(l, r, s)
                assert block == rc.literal.block(False, l, r, s, cochain=True), key
                if untwisted:
                    conjugated = (untwist(untwist_inverse_block_reference, r, s) @ block
                                  @ untwist(untwist_block_reference, r + l - 1, s - l))
                    assert conjugated == rc.literal.block(True, l, r, s, cochain=True), key
                    derived = rc.untwisted_block(l, r, s, cochain=True)
                    assert derived.transpose() == conjugated, key


ORACLE_FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2147483629)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec_string())
def test_homology_oracle_reads_dual_bar_cochains(field):
    for name, cp, m in _cases(field):
        cap = 4 if name.startswith("s3") else 3
        chains = homology_dims(_reference_chains(cp.e, m, cap))
        assert homology_dims(hochschild_cochain_complex(cp.e, dual_bimodule(m), cap)) == chains, name
