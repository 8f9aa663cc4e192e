"""Write expected.json: the answer of every benchmark job at seed 0.

    python3 perfbench/pin.py

The pins are the reference every later run is checked against, so they are
written once, from a commit whose answers are trusted, and not regenerated to
make a failing run pass.  Answers are seed-invariant (the seeded inputs are
isomorphic), so one set serves every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from prepare import HERE, import_package, prepare
from workloads import WORKLOADS, answer


def main() -> int:
    import_package()
    from hopfcross.cli import main as cli_main

    pins = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        for workload, jobs in WORKLOADS.items():
            paths = prepare(workload, 0, os.path.join(tmp, workload))
            for job in jobs:
                output = os.path.join(tmp, "doc.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(job.argv(paths[(job.problem, job.field)], output))
                if code != 0:
                    print(f"error: {job.key} exited {code}", file=sys.stderr)
                    return 1
                with open(output, encoding="utf-8") as fh:
                    pins[job.key] = answer(json.load(fh))
                print("pinned", job.key)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
