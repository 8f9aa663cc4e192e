"""Set-up of one workload: import the package, write the seeded problem files,
parse them back and verify every axiom.

Run as a script it does the set-up once in a fresh interpreter and prints the
seconds taken, import included, raw and in reference seconds (clock.py);
run.py starts it several times for setup_s.

    python3 perfbench/prepare.py --workload reduced --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from clock import SpeedProbe
from workloads import WORKLOADS, problems_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class SetupError(Exception):
    pass


def import_package():
    """Import hopfcross from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hopfcross", "__init__.py")):
        raise SetupError(f"no package source at {SRC}/hopfcross")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import hopfcross

    if os.path.dirname(os.path.abspath(hopfcross.__file__)) != os.path.join(SRC, "hopfcross"):
        raise SetupError(f"hopfcross imported from {hopfcross.__file__}, not {SRC}")
    return hopfcross


def prepare(workload: str, seed: int, out: str) -> dict:
    """{(gallery name, field): problem file path} for every problem of the workload."""
    import_package()
    from hopfcross.algebras import verify_algebra
    from hopfcross.crossed import verify_crossed_axioms
    from hopfcross.hopf import verify_hopf
    from hopfcross.problems import emit_problem, parse_problem

    from inputs import seeded_problem

    os.makedirs(out, exist_ok=True)
    paths = {}
    for name, field in problems_of(workload):
        path = os.path.join(out, f"{name}-{field.replace(':', '_')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(emit_problem(seeded_problem(name, field, seed)), fh)
        pf = parse_problem(path)
        for report in (verify_algebra(pf.algebra), verify_hopf(pf.hopf),
                       verify_crossed_axioms(pf.algebra, pf.hopf, pf.action, pf.cocycle)):
            if not report.passed:
                raise SetupError(f"{path}: {report.summary()}")
        paths[(name, field)] = path
    return paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    probe = SpeedProbe()
    since = probe.mark()
    probe.start()
    start = time.perf_counter()
    try:
        prepare(args.workload, args.seed, args.out)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        raw = time.perf_counter() - start
        until = probe.mark()
        probe.stop()
    print(json.dumps({"raw_s": raw, "ref_s": probe.reference_seconds(raw, since, until)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
