"""Cohomology by coefficient duality.

Hom_{E^e}(X, M) is the dual of M^v (x)_{E^e} X for finite-dimensional M, so
every cochain matrix is the relabelled transpose of a chain matrix with dual
coefficients.  The bar cochain oracle and the displayed cochain formulas are
built without the dual, so they witness the identity independently.  The
homology oracle reads dim H_n(E, M) from the bar cochains of M^v, which
the bar chains of M witness.
"""

import pytest

from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex
from hopfcross.complexes import homology_dims
from hopfcross.crossed import dual_bimodule, regular_bimodule, tensor_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.homology import regular_left_module
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import ReducedComplexes, dual_transpose

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


@pytest.mark.parametrize("name, cp, m", CASES, ids=IDS)
def test_dual_bimodule_is_a_bimodule_and_an_involution(name, cp, m):
    dual = dual_bimodule(m)
    assert dual.verify(cp.e).passed, name
    back = dual_bimodule(dual)
    assert (back.dim, back.dim_e) == (m.dim, m.dim_e)
    assert back.left == m.left and back.right == m.right, name


@pytest.mark.parametrize("name, cp, m", CASES, ids=IDS)
def test_bar_cochains_are_dual_bar_chains(name, cp, m):
    cap = 3
    cochains = hochschild_cochain_complex(cp.e, m, cap)
    chains = hochschild_chain_complex(cp.e, dual_bimodule(m), cap)
    assert cochains.dims == chains.dims
    for n in range(1, cap + 1):
        assert cochains.maps[n] == dual_transpose(chains.maps[n], m.dim), (name, n)


@pytest.mark.parametrize("name, cp, m", CASES, ids=IDS)
def test_derived_cochain_blocks_match_displayed_formulas(name, cp, m):
    cap = 3
    rc = ReducedComplexes(cp, m, cap)
    untwisted = cp.conv_inverse is not None
    for s in range(cap + 1):
        for r in range(cap + 1 - s):
            for l in range(s + 1):
                if r + l == 0:
                    continue
                key = (name, l, r, s)
                block = rc.reduced_cochain_block(l, r, s)
                assert block == rc.literal.reduced_cochain_block(l, r, s), key
                if untwisted:
                    dual = dual_bimodule(m)
                    conjugated = (
                        dual_transpose(untwist_inverse_block_reference(cp, dual, r, s), m.dim) @ block
                        @ dual_transpose(untwist_block_reference(cp, dual, r + l - 1, s - l), m.dim))
                    assert conjugated == rc.literal.untwisted_cochain_block(l, r, s), key
                    derived = rc.untwisted_block(l, r, s, cochain=True)
                    assert dual_transpose(derived, m.dim) == conjugated, key


ORACLE_FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5), FieldSpec.prime(2147483629)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec_string())
def test_homology_oracle_reads_dual_bar_cochains(field):
    for name, cp, m in _cases(field):
        cap = 4 if name.startswith("s3") else 3
        chains = homology_dims(hochschild_chain_complex(cp.e, m, cap))
        assert homology_dims(hochschild_cochain_complex(cp.e, dual_bimodule(m), cap)) == chains, name
