"""Job lists of the four workloads and the answer keys that are pinned.

A job is one CLI command on one generated problem file.  Each workload is a
closed loop over its jobs: one client, one process, each job starting when
the previous one has answered.
"""

from __future__ import annotations

Q = "q"
FP = "fp:2147483629"

SWEEDLER = "sweedler_smash"
S3 = "s3_as_action_extension"
KLEIN = "klein_four"
Z4 = "z4_as_cocycle_extension"


class Job:
    def __init__(self, command: str, problem: str, field: str, *options: str):
        self.command = command
        self.problem = problem
        self.field = field
        self.options = list(options)

    @property
    def key(self) -> str:
        return " ".join([self.command, f"{self.problem}@{self.field}", *self.options])

    def argv(self, path: str, output: str) -> list[str]:
        return [self.command, path, *self.options, "--output", output]


def _each(command, problems, *options, field=Q):
    return [Job(command, p, field, *options) for p in problems]


WORKLOADS = {
    # Eager resolution dominates; the bar layer is idle.
    "reduced": [
        job
        for p in (SWEEDLER, S3, KLEIN, Z4)
        for job in (Job("homology", p, Q, "--cap", "4"),
                    Job("cohomology", p, Q, "--cap", "4"))
    ],
    # Bar-complex oracle ranks dominate; the F_p job runs the same kernel on
    # another scalar type.
    "oracle": _each("oracle-compare", (S3, KLEIN, Z4), "--max-degree", "3")
    + [Job("oracle-compare", S3, FP, "--max-degree", "3")],
    # Kernels and spans of the spectral pages dominate.
    "spectral": _each("e2-check", (S3, KLEIN, Z4), "--cap", "5")
    + [Job("spectral", S3, Q, "--cap", "5", "--page", "2")],
    # The resolution as a full certificate: closed, recursive, homotopy and
    # the comparison identities.
    "certify": _each("resolution-check", (S3, KLEIN, Z4), "--max-degree", "3")
    + [Job("resolution-check", SWEEDLER, Q, "--max-degree", "2")],
}


def problems_of(workload: str) -> list[tuple[str, str]]:
    """Distinct (gallery name, field) pairs a workload reads, in job order."""
    return list(dict.fromkeys((j.problem, j.field) for j in WORKLOADS[workload]))


# Keys of a CLI document that carry the answer: dims, page cells and the
# pass flags.  Everything else in the document is free to change.
ANSWER_KEYS = frozenset({
    "dims", "oracle_dims", "total_dims", "cells", "e1", "e2", "e1_expected",
    "e2_expected", "pass", "passed", "match", "oracle_match", "e1_match", "e2_match",
})


def answer(doc, prefix="") -> dict:
    """Flat {path: value} of every answer key in a CLI document."""
    out = {}
    if isinstance(doc, dict):
        for k, v in sorted(doc.items()):
            path = f"{prefix}.{k}" if prefix else k
            if k in ANSWER_KEYS:
                out[path] = v
            else:
                out.update(answer(v, path))
    return out


def mismatches(expected: dict, got: dict) -> list[str]:
    """Pinned paths whose value is missing or different in `got`."""
    return [path for path, v in expected.items() if got.get(path) != v]
