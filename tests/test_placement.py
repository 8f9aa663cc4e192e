"""The derived-side blocks and the Sweedler legs against their test references.

reduced_block_from_resolution reads each term's action on M from the
bimodule's sandwich table and finishes each column once with
FieldSpec.settle; tests/placement_reference.py keeps the per-term body it
replaced.  The untwisted blocks are placed from d^l on twisted generators
(TwistedBasis); the reference conjugates the derived reduced block by the
per-term untwisting maps of tests/placement_reference.py, which no longer
exist in the package.  sweedler_legs reads HopfData.comult_power;
tests/sweedler_reference.py recurses over the comultiplication rows.
The references lay each block out (m, argument); conftest.argument_major
relabels them to the package's (argument, m) before they are compared.
"""

import pytest

from hopfcross.crossed import dual_bimodule, regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.hopf import sweedler_legs
from hopfcross.problems import BUILTIN_NAMES, builtin
from hopfcross.reduced_complexes import (
    FormulaMismatch,
    ReducedComplexes,
    TwistedBasis,
    reduced_block_from_resolution,
)
from hopfcross.resolution import CrossedResolution

from placement_reference import (
    reduced_block_reference,
    untwist_block_reference,
    untwist_inverse_block_reference,
)
from conftest import argument_major
from closed_form_inputs import (
    dual_numbers_tensor_quaternions,
    gauge_twisted_sweedler_smash,
    gauged_action_groupoid,
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
            want = argument_major(reduced_block_reference(res, m, l, r, s), m.dim)
            assert got == want, (label, l, r, s)


Q, F3, F5 = FieldSpec.rationals(), FieldSpec.prime(3), FieldSpec.prime(5)
UNTWISTED_INPUTS = [pytest.param(lambda name=name: builtin(name).crossed_product(), id=name)
                    for name in BUILTIN_NAMES] + [
    pytest.param(lambda field=field: make(field), id=f"{label}-{field.spec_string()}")
    for label, make in (("gauged", gauged_action_groupoid),
                        ("dual_quaternions", dual_numbers_tensor_quaternions),
                        ("gauge_twisted_sweedler", gauge_twisted_sweedler_smash))
    for field in (Q, F5)
]


@pytest.mark.parametrize("make", UNTWISTED_INPUTS)
def test_untwisted_blocks_are_the_conjugated_reduced_blocks(make):
    # every (l, r, s), the l >= 2 blocks that the assembly skips included
    cp = make()
    rc = ReducedComplexes(cp, regular_bimodule(cp.e), 4)
    res = rc.res
    for cochain, coeff in ((False, rc.m), (True, rc.dual)):
        maps: dict = {}

        def untwist(fn, r, s):
            if (fn, r, s) not in maps:
                maps[(fn, r, s)] = argument_major(fn(cp, coeff, r, s), coeff.dim)
            return maps[(fn, r, s)]

        for l, r, s in sorted(res.generator_columns):
            conjugated = (untwist(untwist_block_reference, r + l - 1, s - l)
                          @ reduced_block_from_resolution(res, coeff, l, r, s)
                          @ untwist(untwist_inverse_block_reference, r, s))
            assert rc.untwisted_block(l, r, s, cochain=cochain) == conjugated, (cochain, l, r, s)


@pytest.mark.parametrize("cochain", [False, True], ids=["chain", "cochain"])
def test_dropped_sweedler_term_in_the_twisted_basis_is_caught(cochain, monkeypatch):
    # the twist and the rebasing read the Sweedler legs of TwistedBasis only;
    # with one term of every several-term expansion dropped, the derived
    # untwisted block leaves the displayed formula
    original = TwistedBasis._sweedler

    def dropped(self, hs):
        legs = original(self, hs)
        return dict(list(legs.items())[:-1]) if len(legs) > 1 else legs

    monkeypatch.setattr(TwistedBasis, "_sweedler", dropped)
    cp = builtin("sweedler_smash").crossed_product()
    rc = ReducedComplexes(cp, regular_bimodule(cp.e), 3)
    with pytest.raises(FormulaMismatch) as err:
        rc.untwisted_cochain_complex() if cochain else rc.untwisted_chain_complex()
    assert err.value.which == ("untwisted-cochain" if cochain else "untwisted-chain")
    # the reduced side reads no TwistedBasis code
    rc.reduced_cochain_complex() if cochain else rc.reduced_chain_complex()


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
