import pytest

from hopfcross.fields import FieldSpec
from hopfcross.crossed import convolution_inverse, regular_bimodule
from hopfcross.homology import (
    e2_identification,
    hochschild_cohomology,
    hochschild_homology,
    regular_left_module,
    regular_right_module,
    tor_spectral_report,
)
from conftest import BUILTIN_BUILDERS

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)


def _trivial_modules(cp):
    """Both-sided trivial modules through the augmentation of a group algebra."""
    field = cp.field
    one = field.one
    dim_e = cp.e.dim
    right = (1, [[{0: one} for _ in range(dim_e)]])
    left = (1, [[{0: one}] for _ in range(dim_e)])
    return right, left


def test_homology_z2_f2():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    rep = hochschild_homology(cp, cap=4, oracle=True)
    assert rep["dims"] == [2, 2, 2, 2]
    assert rep["oracle_match"]
    rep = hochschild_cohomology(cp, cap=4, oracle=True)
    assert rep["dims"] == [2, 2, 2, 2]
    assert rep["oracle_match"]


def test_homology_z2_rational():
    cp = BUILTIN_BUILDERS["z2_trivial"](Q)
    rep = hochschild_homology(cp, cap=4, oracle=True)
    assert rep["dims"] == [2, 0, 0, 0]
    assert rep["oracle_match"]
    rep = hochschild_cohomology(cp, cap=4, oracle=True)
    assert rep["dims"] == [2, 0, 0, 0]
    assert rep["oracle_match"]


def test_homology_trivial():
    cp = BUILTIN_BUILDERS["trivial"](Q)
    assert hochschild_homology(cp, cap=3)["dims"] == [1, 0, 0]
    assert hochschild_cohomology(cp, cap=3)["dims"] == [1, 0, 0]


def test_e2_identification_z2_f2():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    convolution_inverse(cp)
    rep = e2_identification(cp, cap=4)
    assert rep["pass"], rep
    # A = k: tables concentrate in r = 0 and every cell is 2-dimensional
    assert rep["chain"]["e2"] == {f"{s},0": 2 for s in range(4)}


def test_e2_identification_others():
    for name in ("z4_as_cocycle_extension", "klein_four", "s3_as_action_extension"):
        cp = BUILTIN_BUILDERS[name](Q)
        convolution_inverse(cp)
        rep = e2_identification(cp, cap=3)
        assert rep["pass"], (name, rep)


@pytest.mark.slow
def test_e2_identification_sweedler():
    cp = BUILTIN_BUILDERS["sweedler_smash"](Q)
    convolution_inverse(cp)
    rep = e2_identification(cp, cap=3)
    assert rep["pass"], rep


def test_tor_trivial_modules():
    cp = BUILTIN_BUILDERS["z2_trivial"](F2)
    convolution_inverse(cp)
    right, left = _trivial_modules(cp)
    rep = tor_spectral_report(cp, right, left, cap=4)
    assert rep["tor_dims"] == [1, 1, 1, 1]
    assert rep["oracle_match"]
    assert rep["e2"]["pass"]

    cp = BUILTIN_BUILDERS["z2_trivial"](Q)
    convolution_inverse(cp)
    right, left = _trivial_modules(cp)
    rep = tor_spectral_report(cp, right, left, cap=4)
    assert rep["tor_dims"] == [1, 0, 0, 0]
    assert rep["oracle_match"]


def test_tor_free_module():
    cp = BUILTIN_BUILDERS["klein_four"](Q)
    convolution_inverse(cp)
    rep = tor_spectral_report(cp, regular_right_module(cp), regular_left_module(cp), cap=2)
    # M = N = E free: Tor_0 = dim E (as E (x) E over E), higher Tor vanish
    assert rep["tor_dims"][0] == cp.e.dim
    assert all(d == 0 for d in rep["tor_dims"][1:])


def test_tor_builds_and_checks_each_block_once(monkeypatch):
    from hopfcross import reduced_complexes

    cp = BUILTIN_BUILDERS["s3_as_action_extension"](Q)
    convolution_inverse(cp)
    built, checked = [], []
    build = reduced_complexes.reduced_block_from_resolution
    check = reduced_complexes._Literal.block

    def counted_build(res, m, l, r, s):
        built.append((id(m), l, r, s))
        return build(res, m, l, r, s)

    def counted_check(self, untwisted, l, r, s, cochain):
        checked.append((untwisted, cochain, l, r, s))
        return check(self, untwisted, l, r, s, cochain)

    monkeypatch.setattr(reduced_complexes, "reduced_block_from_resolution", counted_build)
    monkeypatch.setattr(reduced_complexes._Literal, "block", counted_check)
    rep = tor_spectral_report(cp, regular_right_module(cp), regular_left_module(cp), cap=3)
    assert rep["e2"]["pass"]
    assert built and len(built) == len(set(built))
    assert checked and len(checked) == len(set(checked))


def test_first_page_is_twisted_coefficient_homology():
    # first page of the reduced filtration against H(A, -) with the twisted
    # coefficient bimodules, computed by the bar complex of A
    from hopfcross.bar import hochschild_chain_complex, hochschild_cochain_complex
    from hopfcross.complexes import homology_dims, spectral_page
    from hopfcross.reduced_complexes import ReducedComplexes
    from coefficient_reference import (
        reduced_coefficient_bimodule,
        reduced_coefficient_hom_bimodule,
    )

    for name, field in (("z2_trivial", F2), ("z4_as_cocycle_extension", Q)):
        cp = BUILTIN_BUILDERS[name](field)
        convolution_inverse(cp)
        m = regular_bimodule(cp.e)
        rc = ReducedComplexes(cp, m, 4)
        window = 3
        page1 = spectral_page(rc.reduced_chain_complex(), 1, window)
        for s in range(window + 1):
            coeff = reduced_coefficient_bimodule(cp, m, s)
            assert coeff.verify(cp.a).passed, (name, s)
            dims = homology_dims(hochschild_chain_complex(cp.a, coeff, window - s + 1))
            for r in range(window + 1 - s):
                assert page1.cell(s, r) == dims[r], (name, s, r)
        page1c = spectral_page(rc.reduced_cochain_complex(), 1, window)
        for s in range(window + 1):
            coeff = reduced_coefficient_hom_bimodule(cp, m, s)
            assert coeff.verify(cp.a).passed, (name, s)
            dims = homology_dims(hochschild_cochain_complex(cp.a, coeff, window - s + 1))
            for r in range(window + 1 - s):
                assert page1c.cell(s, r) == dims[r], (name, s, r)


def test_cohomology_checks_square_zero_once(monkeypatch):
    # the reduced cochain complex is checked when it is assembled; the
    # report does not multiply d o d out a second time
    from hopfcross.complexes import ChainComplex

    calls = []
    check = ChainComplex.check_square_zero
    monkeypatch.setattr(ChainComplex, "check_square_zero",
                        lambda self: calls.append(self) or check(self))
    hochschild_cohomology(BUILTIN_BUILDERS["klein_four"](Q), cap=3)
    assert len(calls) == 1
