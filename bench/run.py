"""stefansim benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in bench/workloads.py and explained in bench/NOTES.md.
Each is closed loop with one client in one process.  The inputs of a seed
form one pass; the run cycles through them until --seconds have elapsed
and at least two passes are complete, so every input runs twice and its
output digests can be compared.  The latency metrics are the median and
tail over the run's latency samples: every operation, or for workloads of
short operations each input's best over its repeats (see bench/NOTES.md).
attempted and failed count inputs, not repeats: an input fails when any of
its repeats fails its gate, so the counts depend on the seed alone and not
on how many repeats the host's speed allowed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (bench/spans.py), at least one of each, and starts no
pass that would end past --seconds after the first two.  It reports the
per-layer metrics, every one normalized per traced operation, plus
trace.overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "oracle.run_s": "s/op",
    "oracle.compare_s": "s/op",
    "oracle.steps": "count/op",
    "oracle.sweeps": "count/op",
    "oracle.sweeps_per_step": "sweeps/step",
    "oracle.banded_s": "s/op",
    "similarity.solve_s": "s/op",
    "similarity.root_s": "s/op",
    "numerics.root_evals": "count/op",
    "numerics.quad_calls": "count/op",
    "numerics.integrand_nodes": "count/op",
    "numerics.quad_s": "s/op",
    "similarity.y_many_s": "s/op",
    "similarity.y_points": "count/op",
    "similarity.psi_eval_s": "s/op",
    "reconstruct.s": "s/op",
    "checks.run_s": "s/op",
    "checks.lambda_residual_s": "s/op",
    "checks.boundary_s": "s/op",
    "checks.front_slope_s": "s/op",
    "checks.ode_residual_s": "s/op",
    "checks.profile_shape_s": "s/op",
    "checks.closed_form_s": "s/op",
    "checks.oracle_s": "s/op",
    "checks.failed": "count/op",
    "config.load_s": "s/op",
    "cli.self_s": "s/op",
    "cli.csv_bytes": "B/op",
    "trace.overhead": "ratio",
}


def load_stefansim() -> None:
    """Import stefansim from this checkout's src/, never an installed copy."""
    init = os.path.join(SRC, "stefansim", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: {init} is missing; run from a stefansim checkout")
    sys.path.insert(0, SRC)
    import stefansim

    if os.path.abspath(stefansim.__file__) != init:
        raise SystemExit(f"bench: imported {stefansim.__file__}, expected {init}")


@dataclass
class Tally:
    """What the operations of a run produced; times[i] lists input i's repeats.

    failures maps an input's key to the first gate error of its repeats.
    """

    times: list[list[float]]
    items: list[int]
    wrong: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    @classmethod
    def new(cls, n_inputs: int) -> "Tally":
        return cls(times=[[] for _ in range(n_inputs)], items=[0] * n_inputs)

    @property
    def attempted(self) -> int:
        """Inputs that ran at least once."""
        return sum(1 for t in self.times if t)

    @property
    def failed(self) -> int:
        """Inputs with at least one repeat that failed its gate."""
        return len(self.failures)

    @property
    def operations(self) -> int:
        return sum(len(t) for t in self.times)


def run_op(workload, i: int, tally: Tally, digests: dict, tracer=None) -> float:
    """Run input i once, gate its output and return the call's wall time."""
    inp = workload.inputs[i]
    start = perf_counter()
    raw = workload.run(inp)
    elapsed = perf_counter() - start
    outcome = workload.check(inp, raw)
    if outcome.error is not None:
        tally.failures.setdefault(inp.key, outcome.error)
    if outcome.malformed:
        tally.wrong.append(f"{inp.key}: {outcome.error}")
    tally.items[i] = outcome.items
    known = digests.setdefault(inp.key, outcome.digest)
    if known != outcome.digest:
        tally.wrong.append(f"{inp.key}: output differs from an earlier repeat")
    if tracer is not None:
        tracer.counts["cli.csv_bytes"] += outcome.nbytes
    return elapsed


def measure(
    workload, seconds: float, passes: int, tally: Tally, digests: dict, tracer=None
) -> list[list[float]]:
    """Cycle through the inputs for seconds, and for at least passes passes.

    Returns each input's times in this call; tally gets them too.
    """
    n = len(workload.inputs)
    times = [[] for _ in range(n)]
    start = perf_counter()
    k = 0
    while k < passes * n or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op += 1
        times[k % n].append(run_op(workload, k % n, tally, digests, tracer))
        k += 1
    for i in range(n):
        tally.times[i].extend(times[i])
    return times


def latency_samples(workload, times: list[list[float]], items: list[int]) -> list[tuple[float, int]]:
    """(seconds, items) of each latency sample.

    With workload.per_input_best, a sample is an input's best time over its
    repeats; otherwise every operation is a sample (see bench/NOTES.md).
    """
    if workload.per_input_best:
        return [(min(t), k) for t, k in zip(times, items) if t]
    return [(s, k) for t, k in zip(times, items) for s in t]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that only import and set up."""
    probes = 1 if args.tiny else SETUP_PROBES
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def end_to_end(args, workload, tally: Tally) -> dict[str, float]:
    samples = latency_samples(workload, tally.times, tally.items)
    times = [s for s, _ in samples]
    value, pct = tail(times)
    repeats = min(len(t) for t in tally.times)
    kind = "input's best" if workload.per_input_best else "operation"
    print(
        f"{args.workload} seed={args.seed}: {tally.operations} ops, {repeats}+ repeats of each "
        f"of {tally.attempted} inputs; op_ms_p50 and op_ms_tail over {len(times)} samples, "
        f"one per {kind}; op_ms_tail is p{pct:.1f}"
    )
    return {
        "setup_s": setup_seconds(args),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_tail": 1e3 * value,
        "items_per_s": sum(k for _, k in samples) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, workload, tally: Tally, digests: dict) -> dict[str, float]:
    from spans import COUNT_METRICS, Tracer

    # Untraced and traced passes alternate, so a slow phase of the host
    # does not land on one side of trace.overhead only.
    tracer = Tracer()
    times = {side: [[] for _ in workload.inputs] for side in (False, True)}
    start = perf_counter()
    passes = 0
    longest = 0.0
    while passes < 2 or perf_counter() - start + longest < args.seconds:
        traced = passes % 2 == 1
        begun = perf_counter()
        if traced:
            tracer.install()
        try:
            done = measure(workload, 0.0, 1, tally, digests, tracer if traced else None)
        finally:
            tracer.close()
        for mine, new in zip(times[traced], done):
            mine.extend(new)
        longest = max(longest, perf_counter() - begun)
        passes += 1
    tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv"))
    n = tracer.op + 1
    tracer.counts["oracle.sweeps"] = sum(1 for s in tracer.spans if s[0] == "oracle.solve_banded")
    metrics = {name: total / n for name, total in tracer.busy().items()}
    metrics.update({name: tracer.counts[name] / n for name in COUNT_METRICS})
    steps = tracer.counts["oracle.steps"]
    metrics["oracle.sweeps_per_step"] = tracer.counts["oracle.sweeps"] / steps if steps else 0.0
    metrics["cli.self_s"] = tracer.self_time("cli.main") / n
    p50 = {
        side: statistics.median(s for s, _ in latency_samples(workload, times[side], tally.items))
        for side in times
    }
    metrics["trace.overhead"] = p50[True] / p50[False] - 1.0
    print(
        f"{args.workload} seed={args.seed}: {tally.operations} ops, {n} of them traced; "
        f"{len(tracer.spans)} spans; oracle.sweeps_per_step = {tracer.counts['oracle.sweeps']}"
        f" sweeps / {steps} steps; per-layer values are per traced op"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_stefansim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        if args.setup_only:
            return 0
        tally = Tally.new(len(workload.inputs))
        digests: dict = {}
        # Warm-up: lazy imports and first-call costs are not timed, but a
        # wrong output still counts.
        warm = Tally.new(len(workload.inputs))
        run_op(workload, 0, warm, digests)
        tally.wrong.extend(warm.wrong)
        if args.trace:
            metrics = per_layer(args, workload, tally, digests)
            units = PER_LAYER
        else:
            measure(workload, args.seconds, 2, tally, digests)
            metrics = end_to_end(args, workload, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = tally.attempted
    print(f"fail_ratio = {tally.failed}/{attempted} = {tally.failed / attempted!r} (inputs)")
    for key, error in sorted(tally.failures.items()):
        print(f"failed: {key}: {error}")
    for line in sorted(set(tally.wrong)):
        print(f"WRONG: {line}")
    result = {
        "correct": not tally.wrong,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
