"""Closed-form inputs outside the gallery (tests/closed_form_inputs.py).

The gauged action groupoid k^{Z3} #_f kZ3: E = M_3(k), so every route must
give HH = [1, 0, 0, ...].  Unlike the gallery, it has nonzero reduced blocks
d^3 and d^4 and non-central section inverses, so a wrong sign of d^3 or a
wrong order of the section inverses in the untwisted formula is caught on it.

The dual numbers tensor the quaternions: a nontrivial cocycle valued in k.1,
so HH = [2, 1, 1, ...] and every d^l with l >= 2 vanishes on generators.

The closed resolution builds no d^l above l = 1 for a k.1-valued cocycle
(hopfcross.twisting), so the vanishing is certified on the recursive one,
which reads no insertion column, on these inputs and on the gallery's
k.1-valued cocycles; the cocycles outside k.1 keep their columns."""

import pytest

from closed_form_inputs import dual_numbers_tensor_quaternions, gauged_action_groupoid
from hopfcross.algebras import AlgebraData
from hopfcross.crossed import regular_bimodule
from hopfcross.fields import FieldSpec
from hopfcross.homology import hochschild_cohomology, hochschild_homology
from hopfcross.problems import builtin
from hopfcross.reduced_complexes import FormulaMismatch, ReducedComplexes
from hopfcross.resolution import (
    CrossedResolution,
    RecursionMismatch,
    assert_constructions_agree,
    build_resolution_closed,
    build_resolution_recursive,
)

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(5)]
IDS = ["q", "fp5"]
CAP = 4


@pytest.fixture(scope="module", params=FIELDS, ids=IDS)
def cp(request):
    return gauged_action_groupoid(request.param)


def test_gauge_must_take_unit_values():
    with pytest.raises(ValueError, match="not a unit"):
        gauged_action_groupoid(FieldSpec.prime(3), {1: (2, -3, 1), 2: (1, 1, 1)})
    with pytest.raises(ValueError, match="not a unit"):
        gauged_action_groupoid(FieldSpec.rationals(), {1: (1, 1, 1), 2: (1, 0, 1)})


def test_dims_are_those_of_a_matrix_algebra(cp):
    for fn in (hochschild_homology, hochschild_cohomology):
        report = fn(cp, cap=CAP, oracle=True)
        assert report["dims"] == [1, 0, 0, 0], fn.__name__
        assert report["oracle_match"] is True, fn.__name__


def test_closed_equals_recursive(cp):
    assert_constructions_agree(build_resolution_closed(cp, CAP), build_resolution_recursive(cp, CAP))


def test_blocks_above_l_one_do_not_vanish(cp):
    rc = ReducedComplexes(cp, regular_bimodule(cp.e), CAP)
    nonzero = [(l, r, s) for s in range(CAP + 1) for r in range(CAP + 1 - s)
               for l in range(2, s + 1) if not rc.reduced_block(l, r, s).is_zero()]
    assert len(nonzero) == 10 and {(3, 0, 3), (3, 1, 3), (3, 0, 4), (4, 0, 4)} <= set(nonzero)


def test_sign_of_d3_is_checked(cp, monkeypatch):
    # d^3 with the opposite sign: the recursion and the displayed formula disagree
    original = CrossedResolution._dl_generator_column

    def flipped(self, mid_key, l, r, s):
        col = original(self, mid_key, l, r, s)
        return {k: self.field.neg(v) for k, v in col.items()} if l == 3 else col

    monkeypatch.setattr(CrossedResolution, "_dl_generator_column", flipped)
    with pytest.raises(RecursionMismatch) as err:
        assert_constructions_agree(build_resolution_closed(cp, CAP), build_resolution_recursive(cp, CAP))
    assert err.value.block == (3, 0, 3)
    with pytest.raises(FormulaMismatch) as err:
        hochschild_homology(cp, cap=CAP)
    assert err.value.block == (3, 0, 3)


@pytest.mark.parametrize("cochain", [False, True], ids=["chain", "cochain"])
def test_order_of_section_inverses_is_checked(cp, cochain, monkeypatch):
    # the displayed untwisted formula is the only reader of E.mult_elems; with
    # its factors swapped, the section inverses are multiplied in forward order
    def untwisted():
        rc = ReducedComplexes(cp, regular_bimodule(cp.e), CAP)
        return rc.untwisted_cochain_complex() if cochain else rc.untwisted_chain_complex()

    assert untwisted().complex.dims
    monkeypatch.setattr(cp.e, "mult_elems", lambda u, v: AlgebraData.mult_elems(cp.e, v, u))
    with pytest.raises(FormulaMismatch) as err:
        untwisted()
    assert err.value.block == (2, 0, 2)
    assert err.value.which == ("untwisted-cochain" if cochain else "untwisted-chain")


@pytest.fixture(scope="module", params=[FieldSpec.rationals(), FieldSpec.prime(3), FieldSpec.prime(5)],
                ids=["q", "fp3", "fp5"])
def dual_quaternions(request):
    return dual_numbers_tensor_quaternions(request.param)


def test_scalar_cocycle_dims_are_those_of_the_dual_numbers(dual_quaternions):
    for fn in (hochschild_homology, hochschild_cohomology):
        report = fn(dual_quaternions, cap=CAP, oracle=True)
        assert report["dims"] == [2, 1, 1, 1], fn.__name__
        assert report["oracle_match"] is True, fn.__name__


def test_scalar_cocycle_closed_equals_recursive(dual_quaternions):
    assert_constructions_agree(build_resolution_closed(dual_quaternions, CAP),
                               build_resolution_recursive(dual_quaternions, CAP))


def _columns_above_l_one(res):
    return [(key, col) for key, cols in res.generator_columns.items() if key[0] >= 2 for col in cols]


def _target_dims(res, above):
    return {res.block_spaces[(r + l - 1, s - l)].dim for (l, r, s), _ in above}


def test_scalar_cocycle_kills_every_column_above_l_one(dual_quaternions):
    assert dual_quaternions.cocycle.scalar_valued
    for build in (build_resolution_closed, build_resolution_recursive):
        res = build(dual_quaternions, CAP)
        above = _columns_above_l_one(res)
        assert len(above) == 378
        assert 0 not in _target_dims(res, above)
        assert not any(col for _, col in above), build.__name__


@pytest.mark.parametrize("name", ["z2_trivial", "s3_as_action_extension", "klein_four", "sweedler_smash"])
def test_gallery_scalar_cocycle_kills_every_recursive_column_above_l_one(name):
    cp = builtin(name).crossed_product()
    assert cp.cocycle.scalar_valued
    recursive = build_resolution_recursive(cp, CAP)
    assert_constructions_agree(build_resolution_closed(cp, CAP), recursive)
    above = _columns_above_l_one(recursive)
    assert above and not any(col for _, col in above)
    targets = _target_dims(recursive, above)
    if cp.a.dim == 1:  # z2_trivial: every target has an Abar leg, so it is empty
        assert targets == {0}
    else:
        assert 0 not in targets


@pytest.mark.parametrize("make", [lambda: builtin("z4_as_cocycle_extension").crossed_product(),
                                  lambda: gauged_action_groupoid(FieldSpec.rationals())],
                         ids=["z4", "gauged"])
def test_cocycle_outside_k1_keeps_columns_above_l_one(make):
    cp = make()
    assert not cp.cocycle.scalar_valued
    for build in (build_resolution_closed, build_resolution_recursive):
        assert any(col for _, col in _columns_above_l_one(build(cp, CAP))), build.__name__
