"""Outside-in span recorder for the traced run.

The package is not edited: public functions and methods of each layer are
wrapped from here for the duration of the traced passes.  A module-level
function is replaced at every place that holds it, because `cli.py`,
`homology.py`, `problems.py` and the package `__init__` bind names with
`from .x import y`; replacing it only in the defining module would miss those
calls.  Methods (`ExactMatrix.rank`, `CrossedResolution.__init__`, ...) are
replaced on their class.

Each span records name, start, end, parent span and job id.  Spans stay in
memory and are written out when the run ends.  A layer's time is the
inclusive duration of its spans, counted only at the outermost span of that
name, so recursion and nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# span name -> the callables it wraps: ("module", "function") or
# ("module", "Class.method").
LAYERS = {
    "problems.load": [("problems", "builtin"), ("problems", "parse_problem")],
    "problems.verify": [("algebras", "verify_algebra"), ("hopf", "verify_hopf"),
                        ("crossed", "verify_crossed_axioms")],
    "crossed.build": [("crossed", "build_crossed_product"), ("crossed", "convolution_inverse")],
    "resolution.homotopy": [("resolution", "CrossedResolution.contracting_homotopy")],
    "reduced.blocks": [("reduced_complexes", "reduced_block_from_resolution"),
                       ("reduced_complexes", "reduced_cochain_block_from_resolution")],
    "reduced.compare": [("reduced_complexes", "ReducedComplexes.reduced_block"),
                        ("reduced_complexes", "ReducedComplexes.reduced_cochain_block")],
    "reduced.h_action": [("reduced_complexes", "HActionOnHomology.__init__")],
    "complexes.square_zero": [("complexes", "ChainComplex.check_square_zero")],
    "complexes.spectral": [("complexes", "spectral_page"), ("complexes", "check_convergence")],
    "linalg.rank": [("linalg", "ExactMatrix.rank")],
    "linalg.kernel": [("linalg", "ExactMatrix.kernel_basis"),
                      ("linalg", "ExactMatrix.column_space_basis")],
    "linalg.matmul": [("linalg", "ExactMatrix.__matmul__")],
    "bar.build": [("bar", "hochschild_chain_complex"), ("bar", "hochschild_cochain_complex")],
    "comparison.build": [("comparison", "build_comparison"), ("comparison", "BarCalculus.__init__")],
    "comparison.check": [("comparison", "check_comparison_identities"),
                         ("comparison", "check_filtration_preservation"),
                         ("comparison", "check_bar_square_zero")],
}

# CrossedResolution.__init__ gets a span named after its method argument.
RESOLUTION_SPANS = {"closed": "resolution.closed", "recursive": "resolution.recursive"}

TIME_METRICS = [f"{name}_s" for name in (*LAYERS, *RESOLUTION_SPANS.values())]
COUNT_METRICS = [
    "resolution.calls", "resolution.columns_built", "linalg.rank_calls",
    "linalg.rank_nnz", "linalg.kernel_calls", "bar.cells",
]


class Tracer:
    """Spans and deterministic counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, outermost]
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counters: Counter = Counter()
        self.job = None
        self._ranked: dict = {}  # id -> matrix, kept alive so ids stay unique

    def start_job(self, job: str) -> None:
        self.job = job
        self._ranked.clear()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job,
                           self._depth[name] == 0])
        self._depth[name] += 1
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._depth[span[0]] -= 1
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn inside a span; `name` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # counters, read after the wrapped call returns (outside its span) -----------
    def _after_rank(self, args, result):
        m = args[0]
        self.counters["linalg.rank_calls"] += 1
        self.counters["linalg.rank_nnz"] += m.nnz()
        if id(m) in self._ranked:
            self.counters["linalg.rank_repeats"] += 1
        else:
            self._ranked[id(m)] = m

    def _after_kernel(self, args, result):
        self.counters["linalg.kernel_calls"] += 1

    def _after_bar(self, args, result):
        self.counters["bar.cells"] += sum(result.dims)

    def _after_resolution(self, args, result):
        res = args[0]
        self.counters["resolution.calls"] += 1
        for (_, r, s), mat in res.blocks.items():
            self.counters["resolution.columns_built"] += mat.ncols
            self.counters["resolution.generator_columns"] += res.block_spaces[(r, s)].mid_size

    # metrics ---------------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values over every span and counter recorded."""
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for name, start, end, parent, _, outermost in self.spans:
            if not outermost:
                continue
            times[name + "_s"] += end - start
            if name == "reduced.blocks" and self._has_ancestor(parent, "reduced.compare"):
                # reduced.compare is the displayed-formula check alone
                times["reduced.compare_s"] -= end - start
        out = {k: {"value": v, "unit": "s"} for k, v in times.items()}
        c = self.counters
        for k in COUNT_METRICS:
            out[k] = {"value": c[k], "unit": "count"}
        out["resolution.generator_share"] = {
            "value": c["resolution.generator_columns"] / max(c["resolution.columns_built"], 1),
            "unit": "share"}
        out["linalg.rank_repeat_share"] = {
            "value": c["linalg.rank_repeats"] / max(c["linalg.rank_calls"], 1),
            "unit": "share"}
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


class Patches:
    """Replacements installed into the package, undone by restore()."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, fn, wrapper) -> None:
        """Rebind every package-level name that holds fn."""
        for name, mod in list(sys.modules.items()):
            if name == "hopfcross" or name.startswith("hopfcross."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer of LAYERS; call .restore() on the result to undo."""
    patches = Patches()
    after = {"linalg.rank": tracer._after_rank, "linalg.kernel": tracer._after_kernel,
             "bar.build": tracer._after_bar}
    for span, targets in LAYERS.items():
        for module, attr in targets:
            mod = importlib.import_module(f"hopfcross.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                patches.set(cls, meth, tracer.wrap(span, cls.__dict__[meth], after.get(span)))
            else:
                fn = getattr(mod, attr)
                patches.replace_everywhere(fn, tracer.wrap(span, fn, after.get(span)))
    from hopfcross.resolution import CrossedResolution

    def resolution_span(self, cp, cap, method="closed"):
        return RESOLUTION_SPANS.get(method, "resolution.closed")

    patches.set(CrossedResolution, "__init__",
                tracer.wrap(resolution_span, CrossedResolution.__init__,
                            tracer._after_resolution))
    return patches
