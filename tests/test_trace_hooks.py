"""The benchmark's traced run wraps package callables by name; a rename that
would break `perfbench/run.py --trace 1` fails here."""

import importlib.util
from pathlib import Path

from hopfcross.cli import main
from hopfcross.linalg import ExactMatrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_hooks_install_and_restore(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rank = ExactMatrix.rank
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert ExactMatrix.rank is not rank
        assert main(["cohomology", "z2_trivial", "--cap", "2"]) == 0
    finally:
        patches.restore()
    assert ExactMatrix.rank is rank
    assert tracer.counters["linalg.rank_calls"] > 0
    assert {span[0] for span in tracer.spans} >= {"reduced.blocks", "linalg.rank"}
    capsys.readouterr()
