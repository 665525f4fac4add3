"""Reproduce the ROADMAP "Recent" baselines with the benchmark's tracer.

Run from the root of a checkout:

    python3 bench/baselines.py [--repeats N]

Each row names a baseline, the figure ROADMAP.md gives for it and the
median of N repeats measured here twice: once by timing the call directly
(untraced) and once from the span the tracer records around the same
public function (traced).  The difference between the two is what the
tracer's wraps cost on that call.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from time import perf_counter

import numpy as np

from run import load_stefansim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)

    load_stefansim()
    import stefansim.checks as checks
    import stefansim.similarity as similarity
    from spans import Tracer
    from stefansim.oracle import OracleConfig
    from workloads import ChecksLibrary

    def problem(kind, p=1.0):
        """The shipped-config parameters Ste = delta = A = 1 with this p."""
        return ChecksLibrary.problem((kind, 1.0, 1.0, p, 1.0))

    def timed(call, span, repeats):
        """(untraced median ms, traced median ms, tracer) over repeats calls."""
        plain = []
        for _ in range(repeats):
            start = perf_counter()
            call()
            plain.append(perf_counter() - start)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(repeats):
                call()
        finally:
            tracer.close()
        spans = [s[2] - s[1] for s in tracer.spans if s[0] == span]
        return 1e3 * statistics.median(plain), 1e3 * statistics.median(spans), tracer

    rows = []
    n = args.repeats
    sources = ("none", "exponential", "custom", "feedback")
    roadmap_solve = {"none": "0.11", "exponential": "0.11", "custom": "1.6", "feedback": "7.5-8"}
    sols = {}
    for kind in sources:
        prob = problem(kind)
        sols[kind] = similarity.solve_problem(*prob)
        plain, traced, _ = timed(lambda: similarity.solve_problem(*prob), "similarity.solve_problem", n)
        rows.append((f"solve_problem, {kind} source [ms]", roadmap_solve[kind], plain, traced))

    sol = sols["exponential"]
    plain, traced, tracer = timed(
        lambda: checks.run_oracle_for(sol, OracleConfig()), "oracle.run_oracle_for", 3
    )
    sweeps = sum(1 for s in tracer.spans if s[0] == "oracle.solve_banded")
    steps = tracer.counts["oracle.steps"]
    banded = [s[2] - s[1] for s in tracer.spans if s[0] == "oracle.solve_banded"]
    rows.append(("oracle run, 128 x 1024, exponential [ms]", "~515", plain, traced))
    rows.append(("oracle sweeps per step", "3.5", sweeps / steps, sweeps / steps))
    rows.append(("oracle solve_banded per sweep [us]", "-", float("nan"), 1e6 * statistics.median(banded)))

    for kind in sources:
        s = sols[kind]
        plain, traced, _ = timed(lambda: checks.run_checks(s), "checks.run_checks", n)
        rows.append((f"run_checks, no oracle, {kind} source [ms]", "1-7", plain, traced))

    for kind, p, table_figure, exact_figure in (
        ("none", 1.0, "33-38", "0.3"),
        ("exponential", 1.0, "33-38", "0.3"),
        ("exponential", 0.5, "33-38", "2.2"),
        ("feedback", 1.0, "33-38", "9"),
    ):
        s = similarity.solve_problem(*problem(kind, p))
        etas = np.linspace(0.0, s.lam, 10_000)
        gap = float(np.max(np.abs(s.y_many(etas) - s.y_many(etas, exact=True))))
        plain, traced, _ = timed(lambda: s.y_many(etas), "similarity.y_many", n)
        rows.append((f"y_many 1e4 pts, {kind} p={p:g}: table [ms]", table_figure, plain, traced))
        plain, traced, _ = timed(lambda: s.y_many(etas, exact=True), "similarity.y_many", n)
        rows.append((f"y_many 1e4 pts, {kind} p={p:g}: exact [ms] (|diff| {gap:.1e})",
                     exact_figure, plain, traced))

    width = max(len(r[0]) for r in rows)
    print(f"{'baseline':{width}s}  {'ROADMAP':>12s}  {'untraced':>10s}  {'traced':>10s}")
    for name, figure, plain, traced in rows:
        print(f"{name:{width}s}  {figure:>12s}  {plain:10.4g}  {traced:10.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
