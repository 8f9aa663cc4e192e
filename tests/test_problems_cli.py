import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from hopfcross.algebras import verify_algebra
from hopfcross import cli
from hopfcross.cli import main
from hopfcross.crossed import regular_bimodule, verify_crossed_axioms
from hopfcross.fields import FieldSpec
from hopfcross.hopf import verify_hopf
from hopfcross.problems import (
    BUILTIN_NAMES,
    DimensionMismatch,
    ParseError,
    UnknownBuiltin,
    builtin,
    emit_problem,
    parse_problem,
    parse_problem_dict,
)

Q = FieldSpec.rationals()


def minimal_problem_doc():
    return {
        "field": "q",
        "algebra": {"dim": 1, "basis_labels": ["1"], "mult": [[[1]]]},
        "hopf": {
            "dim": 1,
            "basis_labels": ["1"],
            "mult": [[[1]]],
            "comult": [[[1]]],
            "counit": [1],
            "antipode": [[1]],
        },
        "action": [[[1]]],
        "cocycle": [[[1]]],
        "options": {"cap": 3},
    }


def test_minimal_problem_parses():
    pf = parse_problem_dict(minimal_problem_doc())
    cp = pf.crossed_product()
    assert cp.e.dim == 1
    assert pf.cap == 3


def test_wrong_arity_reports_tensor():
    doc = minimal_problem_doc()
    doc["action"] = [[[1, 2]]]
    with pytest.raises(DimensionMismatch) as err:
        parse_problem_dict(doc)
    assert "action" in str(err.value)


def test_missing_section():
    doc = minimal_problem_doc()
    del doc["cocycle"]
    with pytest.raises(ParseError):
        parse_problem_dict(doc)


def test_bad_scalar_for_prime_field():
    doc = minimal_problem_doc()
    doc["field"] = "fp:5"
    doc["algebra"]["mult"] = [[["1/2"]]]
    with pytest.raises(ParseError):
        parse_problem_dict(doc)


@pytest.mark.parametrize("field", ["q", "fp:2", "fp:3", "fp:5"])
def test_gallery_verifies(field):
    """builtin verifies nothing, so the gallery data is checked here."""
    for name in BUILTIN_NAMES:
        pf = builtin(name, field=FieldSpec.parse(field))
        for report in (verify_algebra(pf.algebra), verify_hopf(pf.hopf),
                       verify_crossed_axioms(pf.algebra, pf.hopf, pf.action, pf.cocycle)):
            assert report.passed, (name, report.summary())


def test_gallery_roundtrip(tmp_path):
    for name in BUILTIN_NAMES:
        pf = builtin(name)
        doc = emit_problem(pf)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        back = parse_problem(str(path))
        redoc = emit_problem(back)
        assert doc == redoc, name


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        builtin("nope")


def test_builtin_field_override():
    pf = builtin("z2_trivial", field=Q)
    assert pf.field == Q


def test_cli_verify_pass(capsys):
    code = main(["verify", "sweedler_smash"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out


def test_cli_verify_exit_codes(tmp_path, capsys):
    # input error
    assert main(["verify", "no_such_thing"]) == 2
    capsys.readouterr()
    # verification failure: corrupt the sweedler antipode
    doc = emit_problem(builtin("sweedler_smash"))
    doc["hopf"]["antipode"][2] = ["0", "0", "0", "1"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    capsys.readouterr()


def test_cli_oracle_compare_z2(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "oracle-compare", "z2_trivial", "--max-degree", "3", "--output", str(out_path)
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["sections"]["homology"]["dims"] == [2, 2, 2, 2]
    assert doc["sections"]["homology"]["oracle_match"]
    assert doc["sections"]["cohomology"]["dims"] == [2, 2, 2, 2]
    capsys.readouterr()


def test_cli_spectral_page2(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code = main(["spectral", "z2_trivial", "--page", "2", "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["sections"]["convergence"]["passed"]
    assert doc["sections"]["page_2"]["cells"]
    capsys.readouterr()


def test_cli_deterministic_output(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["homology", "z4_as_cocycle_extension", "--output", str(p1)]) == 0
    assert main(["homology", "z4_as_cocycle_extension", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    capsys.readouterr()


def test_cli_e2_check_small(capsys):
    assert main(["e2-check", "klein_four", "--cap", "3"]) == 0
    capsys.readouterr()


def test_cli_resolution_check_small(capsys):
    assert main(["resolution-check", "z4_as_cocycle_extension", "--max-degree", "3"]) == 0
    capsys.readouterr()


def test_cli_tor_z2(tmp_path, capsys):
    out_path = tmp_path / "tor.json"
    assert main(["tor", "z2_trivial", "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["sections"]["tor"]["tor_dims"] == [1, 1, 1, 1]
    capsys.readouterr()


def test_cli_zero_dimensional_bimodule(tmp_path, capsys):
    # M = 0 over s3: every chain and cochain space is zero, and each
    # subcommand passes with all-zero dims
    pf = builtin("s3_as_action_extension")
    doc = emit_problem(pf)
    doc["bimodule"] = {"dim": 0, "left": [[]] * (pf.algebra.dim * pf.hopf.dim), "right": []}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    zeros = [0, 0, 0, 0]
    for argv in (["homology", "--oracle"], ["cohomology", "--oracle"], ["e2-check"], ["spectral"]):
        out_path = tmp_path / f"{argv[0]}.json"
        assert main([argv[0], str(path), *argv[1:], "--output", str(out_path)]) == 0, argv
        assert "overall: pass" in capsys.readouterr().out, argv
        sections = json.loads(out_path.read_text())["sections"]
        if argv[0] == "e2-check":
            for side in ("chain", "cochain"):
                got = sections["identification"][side]
                assert got["total_dims"] == zeros and got["e2"] == got["e1"] == {}, side
        elif argv[0] == "spectral":
            assert sections["page_2"]["cells"] == {}
        else:
            assert sections["hochschild"]["dims"] == sections["hochschild"]["oracle_dims"] == zeros


def test_cli_cap_guard(capsys):
    assert main(["homology", "trivial", "--cap", "7"]) == 2
    capsys.readouterr()


def test_cli_field_override(capsys):
    assert main(["homology", "z2_trivial", "--field", "q", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "[2, 0, 0, 0]" in out


@pytest.mark.parametrize("argv", [
    ["homology", "klein_four", "--cap", "-1"],
    ["homology", "klein_four", "--cap", "0"],
    ["homology", "klein_four", "--field", "fp:4"],
    ["homology", "klein_four", "--field", "fp:x"],
    ["spectral", "z2_trivial", "--page", "-3"],
    ["oracle-compare", "z2_trivial", "--max-degree", "-1"],
    ["resolution-check", "z2_trivial", "--max-degree", "-1"],
])
def test_cli_bad_ranges_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, flag", [
    ("verify", ["--cap", "3"]), ("oracle-compare", ["--cap", "3"]),
    ("resolution-check", ["--cap", "3"]),
    ("verify", ["--oracle"]), ("spectral", ["--oracle"]), ("e2-check", ["--oracle"]),
    ("oracle-compare", ["--oracle"]), ("resolution-check", ["--oracle"]), ("tor", ["--oracle"]),
    ("verify", ["--force"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_refuses_flags_a_subcommand_never_reads(command, flag, capsys):
    # a flag the subcommand would ignore is refused by argparse, before anything runs
    with pytest.raises(SystemExit) as exc:
        main([command, "klein_four", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def test_cli_non_integer_file_cap_exits_2(tmp_path, capsys):
    doc = minimal_problem_doc()
    doc["options"]["cap"] = "x"
    path = tmp_path / "bad_cap.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        parse_problem_dict(doc)
    assert main(["homology", str(path)]) == 2
    assert "options.cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["homology", "klein_four", "--cap", "3"],
    ["cohomology", "klein_four", "--cap", "3"],
    ["spectral", "klein_four", "--cap", "3"],
    ["e2-check", "klein_four", "--cap", "3"],
    ["oracle-compare", "klein_four", "--max-degree", "2"],
    ["tor", "z2_trivial"],
])
def test_cli_reports_build_no_resolution_matrix(argv, monkeypatch, capsys):
    # the reduced complexes read generator columns only: no E^e-extended
    # block or augmentation, the only matrices resolution.py builds, may be built
    from hopfcross import resolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a resolution matrix was built")

    monkeypatch.setattr(resolution, "ExactMatrix", forbidden)
    monkeypatch.setattr(resolution.CrossedResolution, "blocks", property(forbidden))
    assert main(argv) == 0
    capsys.readouterr()


def test_cli_resolution_check_reports_every_identity(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    assert main(["resolution-check", "klein_four", "--max-degree", "2",
                 "--output", str(out_path)]) == 0
    sections = json.loads(out_path.read_text())["sections"]
    for key in ("closed_equals_recursive", "square_zero", "augmentation_d1_zero",
                "contracting_homotopy"):
        assert sections[key]["match"], key
    for key in ("comparison_identities", "filtration_preservation", "bar_square_zero"):
        assert sections[key]["passed"] and sections[key]["checks_run"] > 0, key
    capsys.readouterr()


def test_cli_resolution_check_reports_a_broken_d1(tmp_path, monkeypatch, capsys):
    # one generator column of d^1 negated before the blocks are read: the
    # generator-only d o d check sees it, and the document says so
    from hopfcross import cli

    closed = cli.build_resolution_closed

    def broken(cp, cap):
        res = closed(cp, cap)
        cols = res.generator_columns[(1, 0, 1)]
        assert cols[0]
        cols[0] = {k: res.field.neg(v) for k, v in cols[0].items()}
        return res

    monkeypatch.setattr(cli, "build_resolution_closed", broken)
    out_path = tmp_path / "res.json"
    assert main(["resolution-check", "s3_as_action_extension", "--max-degree", "2",
                 "--output", str(out_path)]) == 1
    doc = json.loads(out_path.read_text())
    assert doc["sections"]["square_zero"] == {"match": False} and doc["pass"] is False
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle-compare", "resolution-check"])
def test_cli_max_degree_above_five_needs_force(command, monkeypatch, capsys):
    # cap = max degree + 1 follows the --cap rule: refused before anything is built
    from hopfcross import resolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a resolution was built")

    monkeypatch.setattr(resolution.CrossedResolution, "__init__", forbidden)
    assert main([command, "klein_four", "--max-degree", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("warning: cap 7 ") and "error: cap > 6 requires --force" in err
    with pytest.raises(AssertionError, match="a resolution was built"):
        main([command, "klein_four", "--max-degree", "6", "--force"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["homology", "--cap", "7"], ["cohomology", "--cap", "7"], ["spectral", "--cap", "7"],
    ["e2-check", "--cap", "7"], ["tor", "--cap", "7"], ["oracle-compare", "--max-degree", "6"],
], ids=lambda argv: argv[0])
def test_cli_force_runs_above_cap_six(argv, tmp_path, capsys):
    # the CLI's warning is the one size policy: with --force nothing below it refuses
    out_path = tmp_path / "doc.json"
    assert main([argv[0], "trivial", *argv[1:], "--force", "--output", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: cap 7 ") and "Traceback" not in err
    assert json.loads(out_path.read_text())["pass"] is True


def test_cli_axiom_failure_reports_witnesses(tmp_path, capsys):
    # a non-normal cocycle parses but fails the crossed-product axioms
    doc = emit_problem(builtin("klein_four"))
    doc["cocycle"][0][1] = ["2", "0"]
    path = tmp_path / "not_normal.json"
    path.write_text(json.dumps(doc))
    for command in ("homology", "cohomology", "spectral", "e2-check",
                    "oracle-compare", "resolution-check", "tor"):
        out_path = tmp_path / f"{command}.json"
        assert main([command, str(path), "--output", str(out_path)]) == 1, command
        report = json.loads(out_path.read_text())
        assert report["command"] == command and report["pass"] is False
        axioms = report["sections"]["axioms"]
        assert not axioms["passed"]
        assert {"check": "cocycle-normality-left", "detail": "", "witness": [1]} in axioms["failures"]
    capsys.readouterr()


def _axiom_documents(tmp_path, capsys, doc, commands):
    """Run each command on the problem doc: every one must exit 1 with an
    axioms document and no traceback; returns the axioms sections."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    sections = []
    for command in commands:
        out_path = tmp_path / f"{command}.json"
        argv = [command, str(path), "--output", str(out_path)]
        if command in ("oracle-compare", "resolution-check"):
            argv += ["--max-degree", "1"]
        elif command != "verify":
            argv += ["--cap", "2"]
        assert main(argv) == 1, command
        report = json.loads(out_path.read_text())
        assert report["command"] == command and report["pass"] is False
        axioms = report["sections"]["axioms"]
        assert not axioms["passed"] and axioms["failures"], command
        sections.append(axioms)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "overall: FAIL" in captured.out
    return sections


def test_cli_unverified_hopf_structure_exits_with_axioms(tmp_path, capsys):
    # S(x) = +gx in place of -gx: every subcommand that builds E names the
    # Hopf failure, not a later symptom
    doc = emit_problem(builtin("sweedler_smash"))
    doc["hopf"]["antipode"][2] = ["0", "0", "0", "1"]
    for axioms in _axiom_documents(
            tmp_path, capsys, doc, ("homology", "cohomology", "spectral", "e2-check",
                                    "oracle-compare", "resolution-check", "tor")):
        assert axioms["title"] == "hopf axioms"
        assert {f["check"] for f in axioms["failures"]} <= {"antipode-left", "antipode-right"}


def test_cli_unverified_file_bimodule_exits_with_axioms(tmp_path, capsys):
    # the regular bimodule of s3 with m_0 . e_1 = m_0: every subcommand that
    # reads the bimodule names it, and verify keeps its own bimodule section
    from hopfcross.crossed import regular_bimodule

    pf = builtin("s3_as_action_extension")
    pf.bimodule = regular_bimodule(pf.crossed_product().e)
    doc = emit_problem(pf)
    doc["bimodule"]["right"][0][1] = [1] + [0] * (pf.bimodule.dim - 1)
    for axioms in _axiom_documents(
            tmp_path, capsys, doc, ("homology", "cohomology", "spectral", "e2-check",
                                    "oracle-compare")):
        assert axioms["title"] == "bimodule axioms"
    out_path = tmp_path / "verify.json"
    assert main(["verify", str(tmp_path / "broken.json"), "--output", str(out_path)]) == 1
    sections = json.loads(out_path.read_text())["sections"]
    assert "axioms" not in sections and not sections["bimodule"]["passed"]
    capsys.readouterr()


def test_cli_unverified_tor_modules_exit_with_axioms(tmp_path, capsys):
    # the trivial right module of klein_four with m . g = 0
    doc = emit_problem(builtin("klein_four"))
    doc["tor_modules"]["right"][0][1] = [0]
    (axioms,) = _axiom_documents(tmp_path, capsys, doc, ("tor",))
    assert axioms["title"] == "tor modules: bimodule axioms"


def test_cli_formula_mismatch_reports_block(tmp_path, monkeypatch, capsys):
    # the displayed formulas placed with x and y exchanged (y.m.x -> x.m.y):
    # the certificate fails, and the document names the block, with no traceback
    from hopfcross.reduced_complexes import FormulaMismatch, ReducedComplexes, _Literal

    block = _Literal.block

    def swapped(self, untwisted, l, r, s, cochain):
        name = "untwisted_terms" if untwisted else "reduced_terms"
        terms = getattr(_Literal, name)

        def terms_swapped(key, l, r, s):
            for x, out_key, y, c in terms(self, key, l, r, s):
                yield y, out_key, x, c
        setattr(self, name, terms_swapped)
        return block(self, untwisted, l, r, s, cochain)

    monkeypatch.setattr(_Literal, "block", swapped)
    pf = builtin("s3_as_action_extension")
    cp = pf.crossed_product()
    for command, which in (("homology", "chain"), ("cohomology", "cochain")):
        rc = ReducedComplexes(cp, pf.bimodule_or_regular(cp), 2)
        with pytest.raises(FormulaMismatch) as err:
            rc.reduced_cochain_complex() if which == "cochain" else rc.reduced_chain_complex()
        out_path = tmp_path / f"{command}.json"
        code = main([command, "s3_as_action_extension", "--cap", "2", "--output", str(out_path)])
        assert code == 1, command
        report = json.loads(out_path.read_text())
        assert report["command"] == command and report["pass"] is False
        assert report["sections"]["displayed_formula"] == {
            "pass": False, "which": which, "block": list(err.value.block),
        }
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "overall: FAIL" in captured.out


def test_cli_resolution_check_builds_sigma_once(monkeypatch, capsys):
    # the resolution keeps the sigma it builds; the comparison maps and the
    # homotopy certificate both read it
    from hopfcross.resolution import CrossedResolution

    calls = []
    homotopy = CrossedResolution.contracting_homotopy
    monkeypatch.setattr(CrossedResolution, "contracting_homotopy",
                        lambda self: calls.append(self) or homotopy(self))
    assert main(["resolution-check", "klein_four", "--max-degree", "2"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value (deleted when
    value is None and the node is a dict entry)."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for k in path[:-1]:
        node = node[k]
    if value is None and isinstance(node, dict):
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


MALFORMED = [
    (("hopf", "comult"), 1),
    (("hopf", "counit"), 1),
    (("hopf", "antipode"), 1),
    (("hopf", "counit", 0), "x"),
    (("hopf", "comult", 0, 0, 0), "x"),
    (("algebra", "dim"), "x"),
    (("tor_modules", "dim_right"), "a"),
    (("bimodule",), [1]),
    (("algebra", "basis_labels"), 3),
    (("algebra",), {"dim": 0, "basis_labels": [], "mult": []}),
    (("hopf",), None),
]


@pytest.mark.parametrize("path, value", MALFORMED, ids=[".".join(map(str, p)) for p, _ in MALFORMED])
def test_cli_malformed_problem_exits_2(path, value, tmp_path, capsys):
    doc = _replaced(emit_problem(builtin("s3_as_action_extension")), path, value)
    problem = tmp_path / "malformed.json"
    problem.write_text(json.dumps(doc))
    assert main(["homology", str(problem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert f"(at {path[0]}" in err, err
    if path == ("hopf",):
        assert "hopf section must be an object" in err


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_cli_unwritable_output_exits_2(where, tmp_path, capsys):
    out_path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    assert main(["verify", "trivial", "--output", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write --output {out_path}") and "Traceback" not in err, err
    assert len(err.strip().splitlines()) == 1 and out == "", out


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_cli_unwritable_output_exits_before_the_work(where, tmp_path, capsys, monkeypatch):
    def never(pf, args):
        raise AssertionError("the subcommand ran although --output cannot be written")

    monkeypatch.setitem(cli._DISPATCH, "oracle-compare", never)
    out_path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    argv = ["oracle-compare", "sweedler_smash", "--max-degree", "4", "--output", str(out_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write --output {out_path}") and out == "", err
    assert list(tmp_path.iterdir()) == []


def test_cli_output_is_untouched_until_the_document_is_written(tmp_path, monkeypatch):
    out_path = tmp_path / "x.json"
    out_path.write_text("old")
    seen = []

    def verify(pf, args):
        seen.append(out_path.read_text())
        return cli.cmd_verify(pf, args)

    monkeypatch.setitem(cli._DISPATCH, "verify", verify)
    assert main(["verify", "trivial", "--output", str(out_path)]) == 0
    assert seen == ["old"]
    assert json.loads(out_path.read_text())["command"] == "verify"


def _node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _emitted_with_every_section():
    pf = builtin("s3_as_action_extension")
    pf.bimodule = regular_bimodule(pf.crossed_product().e)
    return emit_problem(pf)


EMITTED = _emitted_with_every_section()
EMITTED_PATHS = list(_node_paths(EMITTED))


# nodes of the wrong JSON type that a coercion would once have accepted
MISTYPED = [
    (("algebra", "dim"), 3.9),
    (("algebra", "dim"), "3"),
    (("algebra", "dim"), True),
    (("hopf", "dim"), 2.0),
    (("hopf", "basis_labels"), "ab"),
    (("algebra", "basis_labels"), ["1", 2, 3]),
    (("bimodule", "dim"), 6.0),
    (("tor_modules", "dim_right"), 1.5),
    (("tor_modules", "dim_left"), "1"),
    (("options", "oracle"), "no"),
    (("options", "oracle"), 1),
]


# scalars of the wrong JSON type: over Q, 0.1 would read as the exact value
# of the binary float, and over both fields true would read as 1
SCALAR_DOCS = {"q": EMITTED, "fp:3": emit_problem(builtin("klein_four", field=FieldSpec.prime(3)))}
MISTYPED_SCALARS = [
    ("q", ("algebra", "mult", 0, 0, 0), 0.1, "algebra.mult[0][0]"),
    ("q", ("hopf", "counit", 0), 0.1, "hopf.counit"),
    ("fp:3", ("algebra", "mult", 0, 0, 0), True, "algebra.mult[0][0]"),
    ("fp:3", ("hopf", "counit", 0), True, "hopf.counit"),
]


def _exits_2_at(doc, where, tmp_path, capsys):
    with pytest.raises(ParseError):
        parse_problem_dict(doc)
    problem = tmp_path / "mistyped.json"
    problem.write_text(json.dumps(doc))
    assert main(["homology", str(problem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert f"(at {where})" in err, err


@pytest.mark.parametrize("path, value", MISTYPED,
                         ids=[f"{'.'.join(p)}={v!r}" for p, v in MISTYPED])
def test_cli_mistyped_node_exits_2_at_the_node(path, value, tmp_path, capsys):
    _exits_2_at(_replaced(EMITTED, path, value), ".".join(path), tmp_path, capsys)


@pytest.mark.parametrize("field, path, value, where", MISTYPED_SCALARS,
                         ids=[f"{f}-{w}={v!r}" for f, _, v, w in MISTYPED_SCALARS])
def test_cli_mistyped_scalar_exits_2_at_the_node(field, path, value, where, tmp_path, capsys):
    _exits_2_at(_replaced(SCALAR_DOCS[field], path, value), where, tmp_path, capsys)


def test_file_oracle_option_is_a_json_bool():
    doc = _replaced(EMITTED, ("options", "oracle"), False)
    assert parse_problem_dict(doc).oracle is False
    doc = _replaced(EMITTED, ("options", "oracle"), True)
    assert parse_problem_dict(doc).oracle is True


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(EMITTED_PATHS), value=JSON_VALUES)
def test_one_malformed_node_parses_or_raises_parse_error(path, value):
    try:
        parse_problem_dict(_replaced(EMITTED, path, value))
    except ParseError:
        pass
