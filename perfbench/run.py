"""Benchmark of the hopfcross command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload reduced --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The run

1. starts `prepare.py` SETUP_SAMPLES times, each in a fresh interpreter, to
   time set-up (import, write the seeded problem files, parse, verify);
2. prepares the problem files itself;
3. runs passes over the workload's jobs through `hopfcross.cli.main(argv)`,
   one job after another in this process, for as many passes as fit in
   --seconds (at least one), and checks every answer against expected.json;
4. with --trace 1, then runs one more pass with every layer wrapped by
   spans.py and reports per-layer numbers and the tracing overhead instead of
   the end-to-end ones.

End-to-end times are in reference seconds (clock.py), so that they do not
move with the speed of a shared CPU; raw seconds are printed next to them.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  Problem files, documents, the environment record and spans go
to .perfbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from clock import SpeedProbe
from prepare import ROOT, SetupError, import_package, prepare
from workloads import WORKLOADS, answer, mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def git_commit() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import hopfcross.fields

    return {
        # Numbers from the gmpy2 and the fractions backends are not comparable.
        "scalar_backend": hopfcross.fields._ratio.__module__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def setup_samples(workload: str, seed: int, work: str) -> list[dict]:
    """Raw and reference seconds of set-up in SETUP_SAMPLES fresh interpreters."""
    out = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", os.path.join(work, f"setup-{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up sample {i} failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Closed loop over one workload's jobs: each job starts when the last answered."""

    def __init__(self, workload: str, paths: dict, work: str, expected: dict):
        from hopfcross.cli import main

        self.cli_main = main
        self.jobs = WORKLOADS[workload]
        self.paths = paths
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = SpeedProbe()
        # raw and reference seconds of each job and of each pass
        self.job_seconds = {job.key: {"raw": [], "ref": []} for job in self.jobs}
        self.pass_seconds: dict = {"raw": [], "ref": []}

    def run_pass(self, tracer=None) -> None:
        outputs = []
        ref = 0.0
        self.probe.start()
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            output = os.path.join(self.work, f"doc-{i}.json")
            if os.path.exists(output):
                os.remove(output)
            if tracer is not None:
                tracer.start_job(job.key)
            argv = job.argv(self.paths[(job.problem, job.field)], output)
            gc.collect()  # the last job's garbage is not this job's work
            since = self.probe.mark()
            t0 = time.perf_counter()
            code = self._call(argv)
            raw = time.perf_counter() - t0
            job_ref = self.probe.reference_seconds(raw, since, self.probe.mark())
            self.job_seconds[job.key]["raw"].append(raw)
            self.job_seconds[job.key]["ref"].append(job_ref)
            ref += job_ref
            outputs.append((job, code, output))
        self.pass_seconds["raw"].append(time.perf_counter() - start)
        self.probe.stop()
        self.pass_seconds["ref"].append(ref)
        for job, code, output in outputs:
            self._check(job, code, output)

    def _call(self, argv) -> int | str:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli_main(argv)
        except SystemExit as exc:
            return f"exit {exc.code}"
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            return f"{type(exc).__name__}: {exc}"

    def _check(self, job, code, output) -> None:
        self.attempted += 1
        pinned = self.expected.get(job.key)
        if code != 0:
            problem = f"exit code {code!r}"
        elif pinned is None:
            problem = "no pinned answer"
        else:
            try:
                with open(output, encoding="utf-8") as fh:
                    got = answer(json.load(fh))
            except (OSError, ValueError) as exc:
                problem = f"unreadable document: {exc}"
            else:
                bad = mismatches(pinned, got)
                problem = f"differs at {', '.join(bad)}" if bad else None
        if problem is not None:
            self.failures.append(f"{job.key}: {problem}")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hopfcross CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        setup = setup_samples(args.workload, args.seed, work)
        import_package()
        tracer = patches = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.start_job("setup")
            patches = spans.install(tracer)
        paths = prepare(args.workload, args.seed, os.path.join(work, "problems"))
    except (SetupError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if patches is not None:
        patches.restore()
    env = environment(args)
    print("environment", json.dumps(env, sort_keys=True))

    runner = Runner(args.workload, paths, work, expected)
    start = time.perf_counter()
    runner.run_pass()
    # another pass only if it should end within --seconds
    while time.perf_counter() - start + runner.pass_seconds["raw"][-1] <= args.seconds:
        runner.run_pass()

    def median(kind, samples):
        return statistics.median(x[kind] for x in samples)

    def slowest_job(kind):
        return max(statistics.median(v[kind]) for v in runner.job_seconds.values())

    passes = runner.pass_seconds
    raw = {"wall_s": statistics.median(passes["raw"]), "max_job_s": slowest_job("raw"),
           "setup_s": median("raw_s", setup)}
    if args.trace:
        patches = spans.install(tracer)
        try:
            runner.run_pass(tracer)
        finally:
            patches.restore()
        # per-layer times are raw span durations; the pass times are scaled
        traced, untraced = passes["ref"][-1], statistics.median(passes["ref"][:-1])
        metrics = tracer.metrics()
        metrics["trace.pass_s"] = metric(traced, "s")
        metrics["trace.untraced_pass_s"] = metric(untraced, "s")
        metrics["trace.overhead_share"] = metric(traced / untraced - 1, "share")
        tracer.write(os.path.join(work, "spans.jsonl"))
    else:
        metrics = {
            "wall_s": metric(statistics.median(passes["ref"]), "s"),
            "max_job_s": metric(slowest_job("ref"), "s"),
            "setup_s": metric(median("ref_s", setup), "s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MiB"),
        }

    failed = len(runner.failures)
    record = {"environment": env, "metrics": metrics, "raw_seconds": raw,
              "setup_seconds": setup, "pass_seconds": passes,
              "job_seconds": runner.job_seconds, "failures": runner.failures}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for failure in runner.failures:
        print("FAILED", failure)
    print(f"passes {len(passes['raw'])}; failed_share {failed}/{runner.attempted}")
    for name, value in raw.items():
        print(f"{name + ' (raw)':32s} {value:.6g} s")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
