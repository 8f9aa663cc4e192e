"""Checks of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. Seed 0 reproduces the gallery, and a seeded problem is a verified
   problem with entries in {0, +-1} that depends only on its seed.
2. Two traced runs of each named workload (default: all) with the same seed
   report exactly the same deterministic counters, and both answer correctly.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from prepare import HERE, ROOT, import_package
from spans import COUNT_METRICS
from workloads import WORKLOADS, problems_of

COUNTERS = (*COUNT_METRICS, "resolution.generator_share", "linalg.rank_repeat_share")


def check(ok: bool, what: str) -> None:
    if not ok:
        print("FAIL", what)
        sys.exit(1)
    print("ok  ", what)


def check_inputs() -> None:
    import_package()
    from hopfcross.algebras import verify_algebra
    from hopfcross.crossed import verify_crossed_axioms
    from hopfcross.fields import FieldSpec
    from hopfcross.hopf import verify_hopf
    from hopfcross.problems import builtin, emit_problem

    from inputs import seeded_problem

    problems = sorted({p for w in WORKLOADS for p in problems_of(w)})
    for name, field in problems:
        gallery = emit_problem(builtin(name, field=FieldSpec.parse(field)))
        gallery.pop("tor_modules", None)
        check(emit_problem(seeded_problem(name, field, 0)) == gallery,
              f"seed 0 is the gallery: {name}@{field}")
        pf = seeded_problem(name, field, 7)
        doc = emit_problem(pf)
        check(doc == emit_problem(seeded_problem(name, field, 7)),
              f"same seed, same problem: {name}@{field}")
        units = {"0", "1", "-1"} if field == "q" else {0, 1, FieldSpec.parse(field).p - 1}
        check(_entries(doc) <= units, f"entries in {{0, +-1}}: {name}@{field}")
        check(all(r.passed for r in (verify_algebra(pf.algebra), verify_hopf(pf.hopf),
                                     verify_crossed_axioms(pf.algebra, pf.hopf, pf.action,
                                                           pf.cocycle))),
              f"seeded problem verifies: {name}@{field}")
    moved = [p for p in problems
             if emit_problem(seeded_problem(*p, 7)) != emit_problem(seeded_problem(*p, 0))]
    check(bool(moved), "seed 7 changes the basis of some problem")


def _entries(doc) -> set:
    """Every scalar of the structure tensors of an emitted problem."""
    tensors = [doc["algebra"]["mult"], doc["action"], doc["cocycle"],
               *(doc["hopf"][k] for k in ("mult", "comult", "counit", "antipode"))]
    out, stack = set(), tensors
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        else:
            out.add(x)
    return out


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    check(proc.returncode == 0, f"traced run of {workload} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counters(workloads) -> None:
    for workload in workloads:
        first, second = traced_run(workload), traced_run(workload)
        check(first["correct"] and second["correct"], f"{workload}: traced answers correct")
        for name in COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} repeats exactly ({a})")


if __name__ == "__main__":
    check_inputs()
    check_counters(sys.argv[1:] or list(WORKLOADS))
