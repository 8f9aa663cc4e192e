"""What `import hopfcross` loads, and the demos that use the package root.

The package root re-exports only the input layer (fields, algebras, Hopf
algebras, crossed products, problem files); reports and complexes come from
their own modules.  Each check runs in a fresh interpreter, so the modules
that other tests have imported do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
COMPUTE_MODULES = ("complexes", "homology", "bar", "reduced_complexes", "resolution",
                   "twisting", "comparison", "cli")


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_only_the_input_layer():
    names = [f"hopfcross.{m}" for m in COMPUTE_MODULES] + ["dataclasses"]
    probe = (
        "import sys\n"
        "import hopfcross\n"
        f"print(sorted(m for m in {names!r} if m in sys.modules))\n"
    )
    run = _run(["-c", probe])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_star_import_resolves_all():
    probe = (
        "import hopfcross\n"
        "from hopfcross import *\n"
        "missing = [n for n in hopfcross.__all__ if n not in globals()]\n"
        "print(missing)\n"
    )
    run = _run(["-c", probe])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run = _run([str(demo)])
    assert run.returncode == 0, run.stderr[-2000:]
