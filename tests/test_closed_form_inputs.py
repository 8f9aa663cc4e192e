"""Closed-form inputs outside the gallery (tests/closed_form_inputs.py).

The gauged action groupoid k^{Z3} #_f kZ3: E = M_3(k), so every route must
give HH = [1, 0, 0, ...].  Unlike the gallery, it has nonzero reduced blocks
d^3 and d^4 and non-central section inverses, so a wrong sign of d^3 or a
wrong order of the section inverses in the untwisted formula is caught on it.

The dual numbers tensor the quaternions: a nontrivial cocycle valued in k.1,
so HH = [2, 1, 1, ...] and every d^l with l >= 2 vanishes on generators.

The gauge twist of sweedler_smash: isomorphic to the base, so its dims are
sweedler_smash's, but its cocycle is outside k.1 and H4's coproduct has
several terms, so the several-choice loop of the insertion columns reaches
the closed resolution, and a mutation of it is caught by closed = recursive.

The dual numbers with the nilpotent cocycle f(g, g) = y: E = k[t]/(t^4), so
HH = [4, 3, 3, ...], or [4, 4, 4, ...] in characteristic 2.  It is the one
input whose cocycle has no convolution inverse: the CLI falls back to the
reduced complex and refuses the E^2 identification.

The closed resolution builds no d^l above l = 1 for a k.1-valued cocycle
(TwistingCalculus.inserts), and the assembled small complexes stack d^0 and
d^1 only.  So the vanishing is certified on the recursive resolution, which
reads no insertion column and never asks inserts, on these inputs and on the
gallery's k.1-valued cocycles: its l >= 2 columns are zero (the
double_complex section of resolution-check reports them), and the complexes
assembled with every l from it equal the shortcut's.  The cocycles outside
k.1 keep their columns, and a decision forced the wrong way is caught on
them."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from closed_form_inputs import (
    SWEEDLER_GAUGE,
    dual_numbers_tensor_quaternions,
    gauge_twist,
    gauge_twisted_sweedler_smash,
    gauged_action_groupoid,
    nilpotent_cocycle_quartic,
)
from conftest import untwist_degree_matrices
from hopfcross.algebras import AlgebraData
from hopfcross.cli import main
from hopfcross.crossed import CocycleData, convolution_inverse, regular_bimodule, verify_crossed_axioms
from hopfcross.fields import FieldSpec
from hopfcross.homology import e2_identification, hochschild_cohomology, hochschild_homology
from hopfcross.linalg import ExactMatrix
from hopfcross.problems import ProblemFile, builtin, emit_problem
from hopfcross.reduced_complexes import (
    FormulaMismatch,
    ReducedComplexes,
    reduced_block_from_resolution,
    reduced_cochain_block_from_resolution,
)
from hopfcross.resolution import (
    CrossedResolution,
    RecursionMismatch,
    assert_constructions_agree,
    build_resolution_closed,
    build_resolution_recursive,
    double_complex_report,
)
from hopfcross.twisting import TwistingCalculus

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


@pytest.fixture(scope="module", params=[FieldSpec.rationals(), FieldSpec.prime(3), FieldSpec.prime(5)],
                ids=["q", "fp3", "fp5"])
def gauge_twisted(request):
    return gauge_twisted_sweedler_smash(request.param)


def test_gauge_twist_checks_its_gauge():
    field = FieldSpec.rationals()
    with pytest.raises(ValueError, match="not 1"):
        gauge_twisted_sweedler_smash(field, {**SWEEDLER_GAUGE, 0: (1, 1)})
    with pytest.raises(ValueError, match="not a unit"):
        gauge_twisted_sweedler_smash(FieldSpec.prime(3), {**SWEEDLER_GAUGE, 1: (3, 1)})
    base = builtin("sweedler_smash", field=field)
    u = [{0: 1}, {0: 2, 1: 1}, {0: 1, 1: 3}, {0: -1, 1: 2}]
    # u^{-1}(x) and u^{-1}(gx) left out: no convolution inverse on either side
    wrong = [{0: 1}, {0: field.scalar("1/2"), 1: field.scalar("-1/4")}, {}, {}]
    with pytest.raises(ValueError, match="two-sided"):
        gauge_twist(field, base.algebra, base.hopf, base.action, base.cocycle, u, wrong)


def test_gauge_twist_is_a_crossed_product_outside_k1(gauge_twisted):
    cp = gauge_twisted
    assert verify_crossed_axioms(cp.a, cp.h, cp.action, cp.cocycle).passed
    assert not cp.cocycle.scalar_valued


def test_gauge_twist_dims_are_those_of_the_base(gauge_twisted):
    base = builtin("sweedler_smash", field=gauge_twisted.field).crossed_product()
    for fn in (hochschild_homology, hochschild_cohomology):
        dims = fn(gauge_twisted, cap=CAP)["dims"]
        assert dims == fn(base, cap=CAP)["dims"] == [3, 4, 6, 8], fn.__name__


def test_gauge_twist_closed_equals_recursive(gauge_twisted):
    assert_constructions_agree(build_resolution_closed(gauge_twisted, CAP),
                               build_resolution_recursive(gauge_twisted, CAP))


def test_gauge_twist_second_page(gauge_twisted):
    assert e2_identification(gauge_twisted, cap=CAP)["pass"] is True


@pytest.fixture(scope="module", params=[FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(3),
                                        FieldSpec.prime(5)], ids=["q", "fp2", "fp3", "fp5"])
def quartic(request):
    return nilpotent_cocycle_quartic(request.param)


def test_nilpotent_cocycle_has_no_convolution_inverse(quartic):
    assert not quartic.cocycle.scalar_valued
    assert quartic.conv_inverse is None
    assert convolution_inverse(quartic) is None and quartic.conv_inverse is None


def test_nilpotent_cocycle_dims_are_those_of_k_t_mod_t4(quartic):
    # HH_n(k[t]/(t^4)) = 3 for n >= 1, 4 when char k divides 4
    want = [4, 4, 4, 4] if quartic.field.p == 2 else [4, 3, 3, 3]
    for fn in (hochschild_homology, hochschild_cohomology):
        report = fn(quartic, cap=CAP, oracle=True)
        assert report["dims"] == want, fn.__name__
        assert report["oracle_match"] is True, fn.__name__


def test_cli_on_a_cocycle_without_inverse(tmp_path, capsys):
    cp = nilpotent_cocycle_quartic(FieldSpec.rationals())
    problem = tmp_path / "quartic.json"
    pf = ProblemFile(cp.field, cp.a, cp.h, cp.action, cp.cocycle, name="quartic")
    problem.write_text(json.dumps(emit_problem(pf)), encoding="utf-8")

    def run(*argv):
        out = tmp_path / "doc.json"
        code = main([argv[0], str(problem), *argv[1:], "--output", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        out.unlink(missing_ok=True)
        return code, doc

    code, doc = run("spectral")
    assert code == 0 and doc["pass"] is True and doc["sections"]["complex"] == "reduced"
    code, doc = run("verify")
    assert code == 0 and doc["sections"]["cocycle_invertible"] is False
    code, doc = run("tor", "--cap", "3")
    assert code == 0 and doc["pass"] is True and "e2" not in doc["sections"]["tor"]
    capsys.readouterr()
    code, doc = run("e2-check")
    assert code == 1 and doc is None
    assert capsys.readouterr().err == "error: cocycle has no convolution inverse\n"


GAUGE_VALUE = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=20, deadline=None)
@given(ug=GAUGE_VALUE, ux=GAUGE_VALUE, ugx=GAUGE_VALUE)
def test_random_gauge_twist_keeps_the_base_dims(field, ug, ux, ugx):
    # u(1) = 1 and u(g) a unit, the rest free: the twist is isomorphic to
    # sweedler_smash whatever u is
    assume(not field.is_zero(field.scalar(ug[0])))
    cp = gauge_twisted_sweedler_smash(field, {0: (1, 0), 1: ug, 2: ux, 3: ugx})
    assert verify_crossed_axioms(cp.a, cp.h, cp.action, cp.cocycle).passed
    for fn in (hochschild_homology, hochschild_cohomology):
        assert fn(cp, cap=3)["dims"] == [3, 4, 6], fn.__name__
    assert_constructions_agree(build_resolution_closed(cp, 3), build_resolution_recursive(cp, 3))


def test_first_sweedler_choice_only_breaks_closed_equals_recursive(monkeypatch):
    # the several-choice loop of TwistingCalculus._insertion_column cut to the
    # first choice of each leg group: only an input whose cocycle is outside
    # k.1 and whose coproduct has several terms sees it
    cp = gauge_twisted_sweedler_smash(FieldSpec.rationals())
    original = TwistingCalculus._comult_groups

    def first_only(self, h_idx, n):
        return [(last, terms[:1]) for last, terms in original(self, h_idx, n)]

    monkeypatch.setattr(TwistingCalculus, "_comult_groups", first_only)
    with pytest.raises(RecursionMismatch) as err:
        assert_constructions_agree(build_resolution_closed(cp, CAP), build_resolution_recursive(cp, CAP))
    assert err.value.block == (2, 1, 2)


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


SCALAR_BUILTINS = ["trivial", "z2_trivial", "s3_as_action_extension", "klein_four", "sweedler_smash"]
CERTIFICATE_FIELDS = [FieldSpec.rationals(), FieldSpec.prime(3)]


def _builtin_cp(name, field):
    return builtin(name, field=field).crossed_product()


def _outside_k1():
    return [pytest.param(lambda: _builtin_cp("z4_as_cocycle_extension", None), id="z4"),
            pytest.param(lambda: gauged_action_groupoid(FieldSpec.rationals()), id="gauged")]


@pytest.mark.parametrize("field", CERTIFICATE_FIELDS, ids=["q", "fp3"])
@pytest.mark.parametrize("name", SCALAR_BUILTINS + ["dual_quaternions"])
def test_double_complex_certificate_on_scalar_cocycles(name, field):
    if name == "dual_quaternions":
        cp = dual_numbers_tensor_quaternions(field)
    else:
        cp = _builtin_cp(name, field)
    recursive = build_resolution_recursive(cp, CAP)
    report = double_complex_report(recursive)
    above = _columns_above_l_one(recursive)
    assert report == {"scalar_valued": True, "columns_above_l1": len(above),
                      "nonzero_columns": 0, "passed": True}
    if name == "dual_quaternions":
        assert len(above) == 378
    # H = k has no normalized H leg, so no generator of d^l with l >= 2
    assert (len(above) == 0) == (name == "trivial")


@pytest.mark.parametrize("make", _outside_k1())
def test_double_complex_certificate_outside_k1(make):
    report = double_complex_report(build_resolution_recursive(make(), CAP))
    assert report["scalar_valued"] is False and report["passed"] is True
    assert 0 < report["nonzero_columns"] <= report["columns_above_l1"]


def test_double_complex_certificate_reads_the_recursive_resolution():
    with pytest.raises(ValueError, match="recursive"):
        double_complex_report(build_resolution_closed(_builtin_cp("klein_four", None), 3))


def _resolution_check(argv, tmp_path):
    out = tmp_path / "doc.json"
    code = main(["resolution-check", *argv, "--max-degree", "2", "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("field", ["q", "fp:3"])
@pytest.mark.parametrize("name", SCALAR_BUILTINS + ["z4_as_cocycle_extension"])
def test_resolution_check_reports_the_certificate(name, field, tmp_path, capsys):
    code, doc = _resolution_check([name, "--field", field], tmp_path)
    section = doc["sections"]["double_complex"]
    cp = _builtin_cp(name, FieldSpec.parse(field))
    assert section == double_complex_report(build_resolution_recursive(cp, 3))
    assert section["scalar_valued"] is (name != "z4_as_cocycle_extension")
    assert code == 0 and doc["pass"] is True
    assert "double_complex: pass [scalar_valued" in capsys.readouterr().out


# mutations: a decision forced the wrong way is caught where f is outside k.1

@pytest.mark.parametrize("make", _outside_k1())
def test_forced_scalar_valued_fails_the_certificate(make, monkeypatch):
    cp = make()
    monkeypatch.setattr(cp.cocycle, "scalar_valued", True)
    report = double_complex_report(build_resolution_recursive(cp, CAP))
    assert report["scalar_valued"] is True and report["nonzero_columns"] > 0
    assert report["passed"] is False


def test_forced_scalar_valued_fails_resolution_check(monkeypatch, tmp_path, capsys):
    original = CocycleData.__init__

    def forced(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.scalar_valued = True

    monkeypatch.setattr(CocycleData, "__init__", forced)
    code, doc = _resolution_check(["z4_as_cocycle_extension"], tmp_path)
    assert doc["sections"]["double_complex"]["passed"] is False
    assert code == 1 and doc["pass"] is False
    assert "double_complex: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("make", _outside_k1())
def test_skipping_every_l_above_one_breaks_closed_equals_recursive(make, monkeypatch):
    cp = make()
    monkeypatch.setattr(TwistingCalculus, "inserts", lambda self, l: l < 2)
    with pytest.raises(RecursionMismatch) as err:
        assert_constructions_agree(build_resolution_closed(cp, CAP), build_resolution_recursive(cp, CAP))
    assert err.value.block[0] >= 2


# the shortcut against every l --------------------------------------------------

def _every_l_degree_matrices(cp, m, res, cochain: bool) -> list:
    """The reduced (co)chain degree matrices with every block d^l, each block
    from reduced_(cochain_)block_from_resolution on res and placed at the
    offsets of its source and target blocks (s ascending in each degree)."""
    field = cp.field
    size = {(n - s, s): m.dim * (cp.h.dim - 1) ** s * (cp.a.dim - 1) ** (n - s)
            for n in range(CAP + 1) for s in range(n + 1)}
    offset, dims = {}, []
    for n in range(CAP + 1):
        at = 0
        for s in range(n + 1):
            offset[(n - s, s)] = at
            at += size[(n - s, s)]
        dims.append(at)
    block_fn = reduced_cochain_block_from_resolution if cochain else reduced_block_from_resolution
    mats = [None]
    for n in range(1, CAP + 1):
        nrows, ncols = (dims[n], dims[n - 1]) if cochain else (dims[n - 1], dims[n])
        cols: list[dict] = [{} for _ in range(ncols)]
        for s in range(n + 1):
            r = n - s
            for l in range(0 if r else 1, s + 1):
                src, tgt = offset[(r, s)], offset[(r + l - 1, s - l)]
                row_off, col_off = (src, tgt) if cochain else (tgt, src)
                for j, col in enumerate(block_fn(res, m, l, r, s).cols):
                    for i, v in col.items():
                        cols[col_off + j][row_off + i] = v
        mats.append(ExactMatrix(field, nrows, ncols, cols))
    return mats


@pytest.mark.parametrize("field", [FieldSpec.rationals(), FieldSpec.prime(3)], ids=["q", "fp3"])
@pytest.mark.parametrize("name", SCALAR_BUILTINS)
def test_double_complex_equals_every_l_assembly(name, field):
    cp = _builtin_cp(name, field)
    m = regular_bimodule(cp.e)
    rc = ReducedComplexes(cp, m, CAP)
    recursive = build_resolution_recursive(cp, CAP)
    for cochain in (False, True):
        fc = rc.reduced_cochain_complex() if cochain else rc.reduced_chain_complex()
        every_l = _every_l_degree_matrices(cp, m, recursive, cochain)
        for n in range(1, CAP + 1):
            assert fc.complex.maps[n] == every_l[n], (cochain, n)
    # the untwisted chains are the reduced ones conjugated by the untwisting maps
    chains = _every_l_degree_matrices(cp, m, recursive, False)
    untwist = untwist_degree_matrices(rc)
    untwisted = rc.untwisted_chain_complex().complex
    for n in range(1, CAP + 1):
        assert untwisted.maps[n] == untwist[n - 1][0] @ chains[n] @ untwist[n][1], n
