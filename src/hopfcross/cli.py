"""Command-line surface.

Every subcommand builds one machine-readable JSON document; the human table
printed to stdout is derived from it.  Exit codes: 0 all checks pass, 1 a
verification failed (witnesses included in the document), 2 input error.

Subcommands: verify | homology | cohomology | spectral --page R | e2-check |
oracle-compare --max-degree N | resolution-check --max-degree N | tor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .algebras import verify_algebra
from .comparison import (
    BarCalculus,
    build_comparison,
    check_bar_square_zero,
    check_bimodule_extension,
    check_comparison_identities,
    check_filtration_preservation,
)
from .complexes import check_convergence, spectral_page
from .crossed import (
    AxiomViolation,
    NotInvertibleError,
    convolution_inverse,
    regular_bimodule,
    verify_crossed_axioms,
)
from .fields import FieldSpec
from .homology import (
    e2_identification,
    hochschild_cohomology,
    hochschild_homology,
    regular_left_module,
    regular_right_module,
    tor_spectral_report,
)
from .hopf import verify_hopf
from .problems import (
    BUILTIN_NAMES,
    ParseError,
    ProblemFile,
    UnknownBuiltin,
    builtin,
    parse_problem,
)
from .reduced_complexes import FormulaMismatch, ReducedComplexes
from .resolution import (
    CrossedResolution,
    HomotopyIdentityFailure,
    RecursionMismatch,
    assert_constructions_agree,
    assert_contracting_homotopy,
    boundaries_vanish,
    build_resolution_closed,
    build_resolution_recursive,
    double_complex_report,
)


def _load_problem(args) -> ProblemFile:
    name = args.problem
    try:
        override = FieldSpec.parse(args.field) if args.field else None
    except ValueError as exc:
        raise ParseError(str(exc), "--field") from None
    if os.path.exists(name):
        pf = parse_problem(name)
        if override is not None and override != pf.field:
            raise ParseError(
                "field override for a problem file would reinterpret its scalars; "
                "edit the file instead"
            )
        return pf
    if name in BUILTIN_NAMES:
        return builtin(name, field=override)
    raise UnknownBuiltin(f"{name!r} is neither a readable file nor a builtin "
                         f"({', '.join(BUILTIN_NAMES)})")


def _effective_cap(pf: ProblemFile, args, cap: int | None = None) -> int:
    if cap is None:
        cap = args.cap if args.cap is not None else pf.cap
    if cap < 1:
        raise ParseError(f"cap must be at least 1, got {cap}")
    if cap > 6:
        print(
            f"warning: cap {cap} implies tensor spaces of roughly "
            f"{(pf.algebra.dim * pf.hopf.dim) ** 2} x {(pf.algebra.dim * pf.hopf.dim - 1) ** cap} "
            "entries on the bar side",
            file=sys.stderr,
        )
        if not args.force:
            raise ParseError("cap > 6 requires --force")
    return cap


def _max_degree(pf: ProblemFile, args) -> tuple[int, int]:
    max_degree = args.max_degree if args.max_degree is not None else 3
    if max_degree < 0:
        raise ParseError(f"max degree must be at least 0, got {max_degree}")
    return max_degree, _effective_cap(pf, args, max_degree + 1)


def _emit(doc: dict, args) -> int:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    _render_human(doc)
    return 0 if doc.get("pass", True) else 1


def _render_human(doc: dict) -> None:
    print(f"== {doc['command']} : {doc['problem']} over {doc['field']} ==")
    if "cap" in doc:
        print(f"cap {doc['cap']}; trusted degrees 0..{doc['cap'] - 1}")
    for key, section in doc.get("sections", {}).items():
        if isinstance(section, dict) and "dims" in section:
            print(f"  {key}: dims {section['dims']}", end="")
            if section.get("oracle_dims") is not None:
                tick = "==" if section.get("oracle_match") else "!="
                print(f"  {tick} oracle {section['oracle_dims']}", end="")
            print()
        elif isinstance(section, dict) and "cells" in section:
            print(f"  {key} (page {section.get('page')}):")
            for cell, v in sorted(section["cells"].items()):
                print(f"    ({cell}) -> {v}")
        elif isinstance(section, dict) and "passed" in section:
            status = "pass" if section["passed"] else "FAIL"
            if "checks_run" in section:
                detail = f"{section['checks_run']} checks"
            else:
                detail = ", ".join(f"{k} {v}" for k, v in section.items() if k != "passed")
            print(f"  {key}: {status} [{detail}]")
            for f in section.get("failures", [])[:10]:
                print(f"    {f['check']} witness {tuple(f['witness'])}")
        elif isinstance(section, dict) and "match" in section:
            print(f"  {key}: {'match' if section['match'] else 'MISMATCH'}")
        else:
            print(f"  {key}: {section}")
    print("overall:", "pass" if doc.get("pass", True) else "FAIL")


def _doc(command: str, pf: ProblemFile, cap=None) -> dict:
    doc = {"command": command, "problem": pf.name, "field": pf.field.spec_string(),
           "sections": {}}
    if cap is not None:
        doc["cap"] = cap
    return doc


# subcommands --------------------------------------------------------------------

def cmd_verify(pf: ProblemFile, args) -> dict:
    doc = _doc("verify", pf)
    sections = doc["sections"]
    r_alg = verify_algebra(pf.algebra)
    r_hopf = verify_hopf(pf.hopf)
    r_crossed = verify_crossed_axioms(pf.algebra, pf.hopf, pf.action, pf.cocycle)
    sections["algebra"] = r_alg.as_dict()
    sections["hopf"] = r_hopf.as_dict()
    sections["crossed_axioms"] = r_crossed.as_dict()
    ok = r_alg.passed and r_hopf.passed and r_crossed.passed
    if ok:
        cp = pf.crossed_product(check=False, with_inverse=False)
        r_e = verify_algebra(cp.e)
        sections["crossed_product_algebra"] = r_e.as_dict()
        ok = ok and r_e.passed
        m = pf.bimodule if pf.bimodule is not None else regular_bimodule(cp.e)
        r_m = m.verify(cp.e)
        sections["bimodule"] = r_m.as_dict()
        ok = ok and r_m.passed
        finv = convolution_inverse(cp)
        sections["cocycle_invertible"] = finv is not None
    doc["pass"] = ok
    return doc


def cmd_homology(pf: ProblemFile, args, cochain: bool) -> dict:
    cap = _effective_cap(pf, args)
    cp = pf.crossed_product(with_inverse=False)
    m = pf.bimodule_or_regular(cp)
    oracle = args.oracle or pf.oracle
    fn = hochschild_cohomology if cochain else hochschild_homology
    rep = fn(cp, m, cap=cap, oracle=oracle)
    doc = _doc("cohomology" if cochain else "homology", pf, cap)
    doc["sections"]["hochschild"] = rep
    doc["pass"] = rep.get("oracle_match", True)
    return doc


def cmd_spectral(pf: ProblemFile, args) -> dict:
    page_no = args.page
    if page_no < 0:
        raise ParseError(f"page must be at least 0, got {page_no}")
    cap = _effective_cap(pf, args)
    cp = pf.crossed_product()
    m = pf.bimodule_or_regular(cp)
    rc = ReducedComplexes(cp, m, cap)
    try:
        cp.require_inverse()
        fc = rc.untwisted_chain_complex()
        which = "untwisted"
    except NotInvertibleError:
        fc = rc.reduced_chain_complex()
        which = "reduced"
    page = spectral_page(fc, page_no)
    conv = check_convergence(fc)
    doc = _doc("spectral", pf, cap)
    doc["sections"]["complex"] = which
    doc["sections"][f"page_{page_no}"] = page.as_dict()
    doc["sections"]["convergence"] = conv.as_dict()
    doc["pass"] = conv.passed
    return doc


def cmd_e2_check(pf: ProblemFile, args) -> dict:
    cap = _effective_cap(pf, args)
    cp = pf.crossed_product()
    m = pf.bimodule_or_regular(cp)
    rep = e2_identification(cp, m, cap=cap)
    doc = _doc("e2-check", pf, cap)
    doc["sections"]["identification"] = rep
    doc["pass"] = rep["pass"]
    return doc


def cmd_oracle_compare(pf: ProblemFile, args) -> dict:
    max_degree, cap = _max_degree(pf, args)
    cp = pf.crossed_product(with_inverse=False)
    m = pf.bimodule_or_regular(cp)
    res = CrossedResolution(cp, cap)
    rep_h = hochschild_homology(cp, m, cap=cap, oracle=True, res=res)
    rep_c = hochschild_cohomology(cp, m, cap=cap, oracle=True, res=res)
    doc = _doc("oracle-compare", pf, cap)
    doc["sections"]["homology"] = rep_h
    doc["sections"]["cohomology"] = rep_c
    doc["pass"] = rep_h["oracle_match"] and rep_c["oracle_match"]
    return doc


def cmd_resolution_check(pf: ProblemFile, args) -> dict:
    max_degree, cap = _max_degree(pf, args)
    cp = pf.crossed_product(with_inverse=False)
    doc = _doc("resolution-check", pf, cap)
    sections = doc["sections"]
    closed = build_resolution_closed(cp, cap)
    recursive = build_resolution_recursive(cp, cap)
    try:
        assert_constructions_agree(closed, recursive)
        blocks_equal = True
    except RecursionMismatch:
        blocks_equal = False
    sections["closed_equals_recursive"] = {"match": blocks_equal}
    sections["double_complex"] = double_complex_report(recursive)
    square, aug = boundaries_vanish(closed)
    sections["square_zero"] = {"match": square}
    sections["augmentation_d1_zero"] = {"match": aug}
    bar = BarCalculus(cp, cap + 1)
    cmp_maps = build_comparison(closed, bar, min(max_degree, cap - 1))
    try:
        assert_contracting_homotopy(closed, cmp_maps.sigma)
        hom_ok = True
    except HomotopyIdentityFailure:
        hom_ok = False
    sections["contracting_homotopy"] = {"match": hom_ok}
    r_ext = check_bimodule_extension(cmp_maps)
    r_ident = check_comparison_identities(cmp_maps)
    r_filt = check_filtration_preservation(cmp_maps)
    r_bar = check_bar_square_zero(bar, cap)
    sections["bimodule_extension"] = r_ext.as_dict()
    sections["comparison_identities"] = r_ident.as_dict()
    sections["filtration_preservation"] = r_filt.as_dict()
    sections["bar_square_zero"] = r_bar.as_dict()
    doc["pass"] = all([blocks_equal, sections["double_complex"]["passed"], square, aug, hom_ok,
                       r_ext.passed, r_ident.passed, r_filt.passed, r_bar.passed])
    return doc


def cmd_tor(pf: ProblemFile, args) -> dict:
    cap = _effective_cap(pf, args)
    cp = pf.crossed_product()
    if pf.tor_modules is not None:
        right, left = pf.tor_modules
    else:
        right, left = regular_right_module(cp), regular_left_module(cp)
    rep = tor_spectral_report(cp, right, left, cap=cap)
    doc = _doc("tor", pf, cap)
    doc["sections"]["tor"] = rep
    ok = rep.get("oracle_match", True)
    if "e2" in rep:
        ok = ok and rep["e2"]["pass"]
    doc["pass"] = ok
    return doc


@cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcross",
        description="Exact Hochschild (co)homology of Hopf crossed products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads, so argparse refuses the rest
    def common(name, summary, degree="--cap", force=True, oracle=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("problem", help="problem file path or builtin name")
        p.add_argument("--field", help="field override for builtins: q or fp:P")
        if degree is not None:
            p.add_argument(degree, type=int, default=None, help=(
                "degree cap (default 4)" if degree == "--cap" else "largest degree (default 3)"))
        if force:
            p.add_argument("--force", action="store_true", help="allow cap > 6 (max degree > 5)")
        p.add_argument("--output", help="write the JSON document to this path")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="also run the bar-complex oracle and compare")
        return p

    common("verify", "axiom certification", degree=None, force=False)
    common("homology", "Hochschild homology dims", oracle=True)
    common("cohomology", "Hochschild cohomology dims", oracle=True)
    common("spectral", "spectral page and convergence").add_argument(
        "--page", type=int, default=2)
    common("e2-check", "second-page identification")
    common("oracle-compare", "reduced vs bar-complex dims", degree="--max-degree")
    common("resolution-check", "resolution and comparison identities", degree="--max-degree")
    common("tor", "Tor dimensions via the bimodule trick")
    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "homology": partial(cmd_homology, cochain=False),
    "cohomology": partial(cmd_homology, cochain=True),
    "spectral": cmd_spectral,
    "e2-check": cmd_e2_check,
    "oracle-compare": cmd_oracle_compare,
    "resolution-check": cmd_resolution_check,
    "tor": cmd_tor,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        pf = _load_problem(args)
        doc = _DISPATCH[args.command](pf, args)
    except (ParseError, UnknownBuiltin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AxiomViolation as exc:
        # the problem parsed but fails an axiom: report the witnesses, exit 1
        doc = _doc(args.command, pf)
        doc["sections"]["axioms"] = exc.report.as_dict()
        doc["pass"] = False
    except FormulaMismatch as exc:
        # a displayed formula disagrees with the derived block: report the block, exit 1
        doc = _doc(args.command, pf)
        doc["sections"]["displayed_formula"] = {
            "pass": False, "which": exc.which, "block": list(exc.block),
        }
        doc["pass"] = False
    return _emit(doc, args)


if __name__ == "__main__":
    sys.exit(main())
