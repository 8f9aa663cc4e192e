"""Byte-identity sweep of the CLI over the built-in gallery.

    PYTHONPATH=src python tests/document_sweep.py OUT.json
    python tests/document_sweep.py --diff A.json B.json

The first form runs 144 jobs in this process (the six built-ins, over the
default field, F_3 and F_7, under eight subcommands) and writes, for each
job, the sha1 of its JSON document, of its stdout and of its stderr, and its
exit code.  The second lists the jobs whose records differ, or that only one
file has, and exits 1 when there is any.  To compare two checkouts, run the
first form once with PYTHONPATH naming each checkout's src/.

The name does not start with test_, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

FIELDS = [None, "fp:3", "fp:7"]
COMMANDS = [
    ["verify"],
    ["homology", "--oracle"],
    ["cohomology", "--oracle"],
    ["spectral", "--page", "2"],
    ["e2-check"],
    ["oracle-compare"],
    ["resolution-check"],
    ["tor", "--cap", "2"],
]


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def run_job(main, argv: list, out: Path) -> dict:
    """One CLI run in this process: the sha1 of the document (None when none
    was written), of stdout and of stderr, and the exit code."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "--output", str(out)])
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return {
        "document": _sha1(out.read_bytes()) if out.exists() else None,
        "stdout": _sha1(stdout.getvalue().encode()),
        "stderr": _sha1(stderr.getvalue().encode()),
        "exit": code,
    }


def sweep() -> dict:
    import hopfcross
    from hopfcross.cli import main
    from hopfcross.problems import BUILTIN_NAMES

    print(f"sweeping with {hopfcross.__file__}", file=sys.stderr)
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "doc.json"
        for name in BUILTIN_NAMES:
            for field in FIELDS:
                for command in COMMANDS:
                    argv = [command[0], name, *command[1:]]
                    if field is not None:
                        argv += ["--field", field]
                    jobs[" ".join(argv)] = run_job(main, argv, out)
    return jobs


def diff(a: dict, b: dict) -> list:
    """The job ids whose records differ or that only one sweep has."""
    return sorted(job for job in a.keys() | b.keys() if a.get(job) != b.get(job))


def cli(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        differing = diff(a, b)
        for job in differing:
            print(job)
        print(f"{len(differing)} of {len(a.keys() | b.keys())} jobs differ")
        return 1 if differing else 0
    if len(argv) == 1:
        jobs = sweep()
        Path(argv[0]).write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(jobs)} jobs written to {argv[0]}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
