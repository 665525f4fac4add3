"""In-memory span recorder for the traced benchmark pass.

The tracer wraps public functions of the stefansim modules by rebinding the
module or class attributes they are called through.  Each call records one
span (name, start, end, parent span, operation id); counts are taken at the
same boundaries.  Spans stay in memory until the pass ends, when they are
reduced to per-layer metrics and written to a CSV file.  ``close`` restores
every rebound attribute, so the timed (untraced) pass runs the program
exactly as shipped.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
from time import perf_counter

import numpy as np

import stefansim.checks as checks
import stefansim.cli as cli
import stefansim.oracle as oracle
import stefansim.reconstruct as reconstruct
import stefansim.similarity as similarity

# Busy-time metric -> the span names it sums.  A span nested inside another
# span of the same metric is not added again, so recursion through the
# layer's own public functions is not counted twice.
BUSY_METRICS = {
    "oracle.run_s": ("oracle.run_oracle_for",),
    "oracle.compare_s": ("oracle.compare",),
    "oracle.banded_s": ("oracle.solve_banded",),
    "similarity.solve_s": ("similarity.solve_problem",),
    "similarity.root_s": ("similarity.solve_lambda",),
    "numerics.quad_s": ("numerics.integrate", "numerics.integrate_cumulative"),
    "similarity.y_many_s": ("similarity.y_many",),
    "similarity.psi_eval_s": ("similarity.psi_evaluate_many",),
    "reconstruct.s": (
        "reconstruct.temperature",
        "reconstruct.front_position",
        "reconstruct.similarity_coordinate",
    ),
    "checks.run_s": ("checks.run_checks",),
    "config.load_s": ("config.load_config",),
}

# The check functions run_checks calls, looked up as globals of the checks
# module; each gets its own busy-time metric checks.<name>_s.
CHECK_FUNCTIONS = {
    "lambda_residual": "lambda_residual_check",
    "boundary": "boundary_checks",
    "front_slope": "front_slope_check",
    "ode_residual": "ode_residual_check",
    "profile_shape": "profile_shape_checks",
    "closed_form": "closed_form_agreement_check",
    "oracle": "oracle_checks",
}
for _short in CHECK_FUNCTIONS:
    BUSY_METRICS[f"checks.{_short}_s"] = (f"checks.{_short}",)

COUNT_METRICS = (
    "oracle.steps",
    "oracle.sweeps",
    "numerics.root_evals",
    "numerics.quad_calls",
    "numerics.integrand_nodes",
    "similarity.y_points",
    "checks.failed",
    "cli.csv_bytes",
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Rebind owner.attr to a wrapper recording a span called name.

        before(args) may replace the positional arguments (to wrap a
        callable argument for counting); after(result) takes counts from
        the return value.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(result)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def counted(self, key: str, fn, size: bool = False):
        """One-argument fn wrapped to add 1, or the size of its argument,
        to counts[key].  The reduced equations cost about 2 us per call, so
        the wrapper is kept to one statement."""
        counts = self.counts
        if size:
            def wrapper(x):
                counts[key] += np.size(x)
                return fn(x)
        else:
            def wrapper(x):
                counts[key] += 1
                return fn(x)
        return wrapper

    def install(self) -> None:
        """Wrap every public boundary the per-layer metrics need."""
        count = self.counts

        def root_args(args):
            return (self.counted("numerics.root_evals", args[0]),) + args[1:]

        def quad_args(args):
            count["numerics.quad_calls"] += 1
            return (self.counted("numerics.integrand_nodes", args[0], size=True),) + args[1:]

        def y_many_args(args):
            count["similarity.y_points"] += np.size(args[1])
            return args

        def oracle_steps(run):
            count["oracle.steps"] += len(run.times) - 1

        def failed_checks(results):
            count["checks.failed"] += sum(1 for r in results if not r.passed)

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "load_config", "config.load_config")
        for mod in (cli, similarity):
            self.wrap(mod, "solve_problem", "similarity.solve_problem")
        for mod in (similarity, checks):
            self.wrap(mod, "solve_lambda", "similarity.solve_lambda")
        self.wrap(similarity, "find_root_increasing", "numerics.find_root_increasing", before=root_args)
        self.wrap(similarity, "integrate", "numerics.integrate", before=quad_args)
        self.wrap(similarity, "integrate_cumulative", "numerics.integrate_cumulative", before=quad_args)
        self.wrap(similarity.SimilaritySolution, "y_many", "similarity.y_many", before=y_many_args)
        self.wrap(similarity.PsiProfile, "evaluate_many", "similarity.psi_evaluate_many")
        for mod, attrs in (
            (cli, ("front_position", "similarity_coordinate")),
            (oracle, ("front_position", "temperature")),
            (reconstruct, ("front_position", "similarity_coordinate")),
        ):
            for attr in attrs:
                self.wrap(mod, attr, f"reconstruct.{attr}")
        self.wrap(checks, "run_oracle_for", "oracle.run_oracle_for", after=oracle_steps)
        self.wrap(oracle, "compare", "oracle.compare")
        self.wrap(oracle, "solve_banded", "oracle.solve_banded")
        for mod in (cli, checks):
            self.wrap(mod, "run_checks", "checks.run_checks", after=failed_checks)
        for short, attr in CHECK_FUNCTIONS.items():
            self.wrap(checks, attr, f"checks.{short}")

    def close(self) -> None:
        """Restore every rebound attribute, last wrap first."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def busy(self) -> dict[str, float]:
        """Seconds per busy-time metric, excluding same-metric nesting."""
        metric_of = {name: m for m, names in BUSY_METRICS.items() for name in names}
        totals = dict.fromkeys(BUSY_METRICS, 0.0)
        spans = self.spans
        for name, start, end, parent, _ in spans:
            metric = metric_of.get(name)
            if metric is None:
                continue
            while parent >= 0 and metric_of.get(spans[parent][0]) != metric:
                parent = spans[parent][3]
            if parent < 0:
                totals[metric] += end - start
        return totals

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called name.

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap, because every
        workload runs on one thread.
        """
        spans = self.spans
        total = 0.0
        for start, end in ((s[1], s[2]) for s in spans if s[0] == name):
            total += end - start
        for child in spans:
            parent = child[3]
            if parent >= 0 and spans[parent][0] == name:
                total -= child[2] - child[1]
        return total

    def write(self, path: str) -> None:
        """Write every span as one CSV row: name, start, end, parent, op."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "op"])
            writer.writerows(self.spans)
