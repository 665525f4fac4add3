"""The benchmark's workloads: seeded inputs, one operation, its gate.

Every workload draws its parameters log-uniformly inside the
acceptance-grid ranges (RANGES).  The draws are stratified: a range split
into n equal log-intervals gets one draw in each, in shuffled order.  That
keeps each seed's mix of cheap and costly inputs close to every other
seed's, which keeps the medians steady across seeds without narrowing any
range.  The program receives only the generated config files (CLI
workloads) or parameter tuples (checks_library).

An operation's time covers only the call into the program.  The gate that
follows reads what the call wrote and returns an Outcome; it is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

import stefansim.checks as checks
import stefansim.cli as cli
import stefansim.similarity as similarity
from stefansim.config import reduced_problem
from stefansim.model import SimilaritySource

RANGES = {"ste": (0.1, 5.0), "delta": (0.1, 5.0), "p": (0.5, 3.0), "feedback": (0.5, 2.0)}
SHIPPED_CONFIGS = ("exponential", "feedback", "water_ice")


@dataclass(frozen=True)
class Input:
    """One input of a workload; key names it in reports and digest checks."""

    key: str
    argv: tuple = ()
    case: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """The gate's verdict on one operation.

    items counts the work units the operation completed, whatever their
    verdict.  error is None when every gate condition held; otherwise the
    operation counts as failed.  malformed marks output the benchmark cannot
    trust at all: missing or misshapen although the program reported
    success, or contradicting the program's own exit code.
    """

    items: int
    digest: Optional[str]
    error: Optional[str] = None
    malformed: bool = False
    nbytes: int = 0


def stratified(rng: random.Random, n: int, names=tuple(RANGES)) -> dict[str, list[float]]:
    """n stratified log-uniform draws of each named parameter in RANGES."""
    out = {}
    for name in names:
        a, b = (math.log(v) for v in RANGES[name])
        values = [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]
        rng.shuffle(values)
        out[name] = values
    return out


def dimensionless_config(kind: str, **values) -> str:
    """Config text for a reduced problem; list values become sweep keys."""
    lines = ["problem.dimensionless = true", f"source.kind = {kind}"]
    for name, value in values.items():
        if isinstance(value, list):
            lines.append(f"sweep.{name} = " + ", ".join(repr(v) for v in value))
        else:
            prefix = "source" if name == "feedback" else "problem"
            lines.append(f"{prefix}.{name} = {value!r}")
    return "\n".join(lines) + "\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_output(path: str) -> Optional[bytes]:
    """The bytes of an output CSV, removing it so the next repeat writes anew."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return data


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]


def interleave(*groups: list) -> list:
    """Round-robin merge, so every stretch of a pass mixes the groups."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def dimensionless_values(d: dict[str, list[float]], i: int, kind: str) -> dict[str, float]:
    """The i-th stratified draw of the parameters a source kind takes."""
    names = ("ste", "delta", "p", "feedback") if kind == "feedback" else ("ste", "delta", "p")
    return {name: d[name][i] for name in names}


class CliWorkload:
    """A workload whose operation is one in-process ``stefansim`` command.

    per_input_best: each latency sample is an input's best time over its
    repeats, which suits operations of milliseconds that repeat tens of
    times per run.  False makes every operation a sample, for operations so
    long that each input repeats only a few times (see NOTES.md).
    """

    name = ""
    output = ""
    per_input_best = True

    def __init__(self, seed: int, workdir: str, tiny: bool) -> None:
        self.workdir = workdir
        self.tiny = tiny
        self.rng = random.Random(seed)
        self.inputs: list[Input] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def make(self, key: str, command: str, text: str, *extra: str, config: str = "") -> Input:
        """An input running command on config, or on text written as a config."""
        out = os.path.join(self.workdir, key)
        os.makedirs(out, exist_ok=True)
        if not config:
            config = os.path.join(out, "input.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(text)
        return Input(key=key, argv=(command, "--config", config, "--out", out, *extra))

    def run(self, inp: Input) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(inp.argv))

    def check(self, inp: Input, rc: int) -> Outcome:
        data = _read_output(os.path.join(inp.argv[4], self.output))
        if data is None:
            return Outcome(0, None, f"exit {rc}, no {self.output}", malformed=rc == 0)
        return self.gate(inp, rc, data)

    def gate(self, inp: Input, rc: int, data: bytes) -> Outcome:
        raise NotImplementedError


class VerifyOracle(CliWorkload):
    """``stefansim verify`` with the oracle at its default 128 x 1024 grid.

    Inputs are the three shipped single-problem configs and ten seeded
    configs per CLI source kind.  Operation times differ by up to 2x from
    config to config, feedback being the costliest; with 33 inputs the
    median and tail over inputs barely depend on which configs a seed
    draws.  A pass takes 15-20 s, so a 55 s run gives each input about
    three repeats, seconds apart.
    """

    SEEDED_PER_KIND = 10
    per_input_best = False

    name = "verify_oracle"
    output = "verify.csv"

    def build(self) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        shipped = SHIPPED_CONFIGS[:1] if self.tiny else SHIPPED_CONFIGS
        # The smoke test cannot afford the default grid.
        coarse = "oracle.n_space = 32\noracle.n_time = 64\n" if self.tiny else ""
        groups = [[
            self.make(name, "verify", "", config=os.path.join(root, "configs", f"{name}.cfg"))
            for name in shipped
        ]]
        per_kind = 1 if self.tiny else self.SEEDED_PER_KIND
        for kind in ("none", "exponential", "feedback"):
            d = stratified(self.rng, per_kind)
            group = []
            for i in range(per_kind):
                values = dimensionless_values(d, i, kind)
                key = f"{kind}-" + "-".join(f"{k}{v:.4g}" for k, v in values.items())
                group.append(self.make(key, "verify", dimensionless_config(kind, **values) + coarse))
            groups.append(group)
        self.inputs = interleave(*groups)

    def gate(self, inp: Input, rc: int, data: bytes) -> Outcome:
        rows = _csv_rows(data)
        failing = [f"{r[0]}={float(r[1]):.4g}>{float(r[2]):.4g}" for r in rows if r[3] != "true"]
        digest = _sha(data)
        if rc == 0 and rows and not failing:
            return Outcome(1, digest, nbytes=len(data))
        error = f"exit {rc}: " + (", ".join(failing) or "no failing check")
        malformed = not rows or (rc == 4) != bool(failing)
        return Outcome(1, digest, error, malformed=malformed, nbytes=len(data))


class SweepGrid(CliWorkload):
    """``stefansim sweep --workers 1`` on seeded feedback and exponential grids.

    A pass holds 25 exponential grids and 15 feedback grids, so the median
    operation is a cheap exponential sweep (CLI and config overhead) and the
    tail is a feedback sweep (root solving and quadrature), each several
    ranks away from the other kind.
    """

    name = "sweep_grid"
    output = "sweep.csv"
    FEEDBACK_SHAPE = {"ste": 2, "delta": 2, "p": 2, "feedback": 1}
    EXPONENTIAL_SHAPE = {"ste": 3, "delta": 3, "p": 2}

    def build(self) -> None:
        self.expected_rows: dict[str, int] = {}
        n_feedback, n_exponential = (1, 2) if self.tiny else (15, 25)
        feedback = [self._grid(f"feedback-{g}", "feedback", self.FEEDBACK_SHAPE) for g in range(n_feedback)]
        exponential = [
            self._grid(f"exponential-{g}", "exponential", self.EXPONENTIAL_SHAPE)
            for g in range(n_exponential)
        ]
        self.inputs = interleave(feedback, exponential[0::2], exponential[1::2])

    def _grid(self, key: str, kind: str, shape: dict[str, int]) -> Input:
        axes = {name: sorted(stratified(self.rng, n, (name,))[name]) for name, n in shape.items()}
        self.expected_rows[key] = math.prod(shape.values())
        return self.make(key, "sweep", dimensionless_config(kind, **axes), "--workers", "1")

    def gate(self, inp: Input, rc: int, data: bytes) -> Outcome:
        rows = _csv_rows(data)
        digest = _sha(data)
        if len(rows) != self.expected_rows[inp.key]:
            return Outcome(0, digest, f"exit {rc}, {len(rows)} rows", malformed=True, nbytes=len(data))
        errors = [r[7] for r in rows if r[7] != "ok"]
        if errors:
            return Outcome(len(rows), digest, f"exit {rc}: {errors[0]}", nbytes=len(data))
        worst = max(float(r[6]) for r in rows)
        if rc != 0 or worst > checks.LAMBDA_RESIDUAL_TOL:
            error = f"exit {rc}, status ok but lambda_residual {worst:.3g}"
            return Outcome(len(rows), digest, error, malformed=rc != 0, nbytes=len(data))
        return Outcome(len(rows), digest, nbytes=len(data))


class ProfileBulk(CliWorkload):
    """``stefansim profile`` with many points at three seeded times.

    Per source kind half the configs have a seeded p (the Newton branch of
    Phi^{-1}) and half have p = 1 (the quadratic branch).
    """

    name = "profile_bulk"
    output = "profile.csv"

    def build(self) -> None:
        self.points = 200 if self.tiny else 2000
        per_kind = 1 if self.tiny else 10
        groups = []
        for kind in ("none", "exponential", "feedback"):
            d = stratified(self.rng, per_kind)
            group = []
            for i in range(per_kind):
                values = dimensionless_values(d, i, kind)
                if i % 2:
                    values["p"] = 1.0
                times = sorted(
                    math.exp(self.rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(3)
                )
                group.append(self.make(
                    f"{kind}-{i}-p{values['p']:.4g}", "profile", dimensionless_config(kind, **values),
                    "--points", str(self.points), "--t", ",".join(repr(t) for t in times),
                ))
            groups.append(group)
        self.inputs = interleave(*groups)

    def gate(self, inp: Input, rc: int, data: bytes) -> Outcome:
        digest = _sha(data)
        n_times = inp.argv[-1].count(",") + 1
        table = np.loadtxt(io.StringIO(data.decode("utf-8")), delimiter=",", skiprows=1, ndmin=2)
        if rc != 0 or table.shape != (self.points * n_times, 5):
            error = f"exit {rc}, shape {table.shape}"
            return Outcome(0, digest, error, malformed=True, nbytes=len(data))
        for block in table[:, 3].reshape(n_times, self.points):
            if block.min() < 0.0 or block.max() > 1.0:
                error = f"y outside [0, 1]: [{float(block.min())!r}, {float(block.max())!r}]"
            elif np.any(np.diff(block) > 0.0):
                error = f"y increases in x by {float(np.max(np.diff(block)))!r}"
            elif abs(block[0] - 1.0) > 1e-10:
                error = f"|y(0) - 1| = {float(abs(block[0] - 1.0))!r}"
            else:
                continue
            return Outcome(len(table), digest, "exit 0 but " + error, nbytes=len(data))
        return Outcome(len(table), digest, nbytes=len(data))


def custom_beta(amplitude: float, eta):
    """A smooth similarity-form source with no closed form in the solver."""
    return 0.5 * amplitude * (1.0 + eta) * np.exp(-np.square(eta))


class ChecksLibrary:
    """``solve_problem`` then ``run_checks`` without the oracle, in-process.

    Cases cover the exponential, flux-feedback and a custom-beta
    SimilaritySource; the custom beta cannot be reached from the CLI.
    """

    name = "checks_library"
    per_input_best = True

    def __init__(self, seed: int, workdir: str, tiny: bool) -> None:
        rng = random.Random(seed)
        per_kind = 1 if tiny else 40
        groups = []
        for kind in ("exponential", "feedback", "custom"):
            d = stratified(rng, per_kind)
            group = []
            for i in range(per_kind):
                case = (kind, d["ste"][i], d["delta"][i], d["p"][i], d["feedback"][i])
                key = f"{kind}-" + "-".join(f"{v:.4g}" for v in case[1:])
                group.append(Input(key=key, case=case))
            groups.append(group)
        self.inputs = interleave(*groups)

    @staticmethod
    def problem(case: tuple):
        """(material, boundary, source) for a (kind, Ste, delta, p, A) case."""
        kind, ste, delta, p, a = case
        if kind == "custom":
            material, boundary, _ = reduced_problem(ste, delta, p, "none", None)
            return material, boundary, SimilaritySource(functools.partial(custom_beta, a))
        return reduced_problem(ste, delta, p, kind, a if kind == "feedback" else None)

    def run(self, inp: Input):
        # Problem construction (dataclass validation) is part of the call,
        # as it is for a library user.
        sol = similarity.solve_problem(*self.problem(inp.case))
        return checks.run_checks(sol)

    def check(self, inp: Input, results) -> Outcome:
        data = "".join(
            f"{r.name},{r.value:.17g},{r.threshold:.17g},{r.passed}\n" for r in results
        ).encode()
        failing = [f"{r.name}={r.value:.4g}>{r.threshold:.4g}" for r in results if not r.passed]
        if failing:
            return Outcome(1, _sha(data), ", ".join(failing))
        return Outcome(1, _sha(data))


# BENCHMARK.json gates only verify_oracle and checks_library; sweep_grid
# and profile_bulk stay runnable by name (see NOTES.md, "Workloads not in
# BENCHMARK.json").
WORKLOADS = {cls.name: cls for cls in (VerifyOracle, SweepGrid, ProfileBulk, ChecksLibrary)}
