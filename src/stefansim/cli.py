"""Command-line front end.

Four subcommands operate on a config file (see `config`):

* ``solve``   -- solve one problem, write a one-row summary CSV.
* ``profile`` -- evaluate temperature profiles at given times, write CSV.
* ``verify``  -- run the verification suite (residuals, boundary values,
  ODE residual, shape checks, redundant-path agreement, and the
  finite-difference oracle when enabled), write a report CSV; exit 4 if
  any check fails.
* ``sweep``   -- solve a grid of dimensionless parameter tuples, write a
  table CSV; tuples run in parallel with ``--workers N``.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.  All CSV output uses 17 significant digits and
is byte-identical across runs of the same config.

Examples::

    stefansim solve --config melting.cfg --out results
    stefansim profile --config melting.cfg --t 0.1,0.5,1.0 --points 201
    stefansim verify --config melting.cfg
    stefansim sweep --config grid.cfg --workers 4
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Optional

import numpy as np

from .checks import run_checks
from .config import DimensionlessProblem, RunConfig, load_config, reduced_problem
from .errors import ConfigError, InvalidInput, StefanError
from .reconstruct import front_position, similarity_coordinate
from .similarity import SimilaritySolution, solve_problem


# Largest profile.csv, in rows of --t times by --points samples: every row
# is held in memory as text before the file is written.
MAX_PROFILE_ROWS = 10**6


def _fmt(value: float) -> str:
    return "%.17g" % value


def _write_csv(
    args: argparse.Namespace, filename: str, header: list[str], rows: list[list[str]]
) -> str:
    """Write a CSV as filename in --out, else in the cwd; return its path.

    Raises:
        ConfigError: The directory cannot be made or the file written.
    """
    directory = args.out or "."
    path = os.path.join(directory, filename)
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    return path


def _solve_from_config(cfg: RunConfig) -> SimilaritySolution:
    if cfg.material is None:
        raise ConfigError(
            "config leaves swept parameters without base values; "
            "only the sweep command accepts it"
        )
    return solve_problem(cfg.material, cfg.boundary, cfg.source)


def _summary_row(sol: SimilaritySolution) -> tuple[list[str], list[str]]:
    model = sol.model
    feedback = "" if model.feedback is None else _fmt(model.feedback)
    front_defect = abs(float(sol.y_many(np.array([sol.lam]), clamp=False)[0]))
    header = [
        "source", "ste", "delta", "p", "feedback",
        "lam", "y_prime0", "lambda_residual", "front_value_defect",
    ]
    row = [
        sol.source.kind,
        _fmt(model.ste),
        _fmt(sol.material.delta),
        _fmt(sol.material.p),
        feedback,
        _fmt(sol.lam),
        _fmt(sol.y_prime0),
        _fmt(abs(sol.lambda_residual())),
        _fmt(front_defect),
    ]
    return header, row


def cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> int:
    sol = _solve_from_config(cfg)
    header, row = _summary_row(sol)
    path = _write_csv(args, "summary.csv", header, [row])
    print(f"lam = {_fmt(sol.lam)}")
    print(f"ste = {_fmt(sol.model.ste)}")
    if sol.model.feedback is not None:
        print(f"feedback = {_fmt(sol.model.feedback)}")
    print(f"y_prime0 = {_fmt(sol.y_prime0)}")
    print(f"lambda_residual = {_fmt(abs(sol.lambda_residual()))}")
    print(f"wrote {path}")
    return 0


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"--t: not a number list: {text!r}") from exc
    if not times:
        raise ConfigError("--t: empty time list")
    if any(not (0.0 < t < math.inf) for t in times):
        raise ConfigError("--t: times must be finite and positive")
    return sorted(times)


def cmd_profile(cfg: RunConfig, args: argparse.Namespace) -> int:
    times = _parse_times(args.t)
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    if len(times) * args.points > MAX_PROFILE_ROWS:
        raise ConfigError(
            f"--t and --points ask for {len(times)} x {args.points} rows; "
            f"profile.csv holds at most {MAX_PROFILE_ROWS}"
        )
    sol = _solve_from_config(cfg)
    span = sol.boundary.theta0 - sol.boundary.theta_f
    rows: list[list[str]] = []
    for t in times:
        front = front_position(sol, t)
        xs = np.linspace(0.0, front, args.points)
        etas = similarity_coordinate(sol, xs, t)
        ys = sol.y_many(etas)
        for x, eta, y in zip(xs, etas, ys):
            theta = sol.boundary.theta_f + span * y
            rows.append([_fmt(t), _fmt(x), _fmt(eta), _fmt(y), _fmt(theta)])
    path = _write_csv(args, "profile.csv", ["t", "x", "eta", "y", "theta"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    sol = _solve_from_config(cfg)
    results = run_checks(sol, oracle_cfg=cfg.oracle)
    rows = [
        [r.name, _fmt(r.value), _fmt(r.threshold), "true" if r.passed else "false"]
        for r in results
    ]
    path = _write_csv(args, "verify.csv", ["check", "value", "threshold", "passed"], rows)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {_fmt(r.value)} (threshold {_fmt(r.threshold)})")
    print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 4
    return 0


def _sweep_case(problem: DimensionlessProblem) -> list[str]:
    """The sweep.csv row of one case: its parameters, lam, y_prime0, residual, status.

    Top-level so process pools can pickle it; never raises, failures are
    recorded in the status column.
    """
    feedback = "" if problem.feedback is None else _fmt(problem.feedback)
    row = [_fmt(problem.ste), _fmt(problem.delta), _fmt(problem.p), feedback]
    try:
        material, boundary, source = reduced_problem(**asdict(problem))
        sol = solve_problem(material, boundary, source)
        return row + [_fmt(sol.lam), _fmt(sol.y_prime0), _fmt(abs(sol.lambda_residual())), "ok"]
    except StefanError as exc:
        return row + ["nan", "nan", "nan", f"error: {type(exc).__name__}: {exc}"]


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep command requires at least one sweep.* key")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    # A fork-started pool launches every worker up front, so more workers
    # than cases would only fork idle interpreters.
    workers = min(args.workers, len(cfg.sweep))
    if workers == 1:
        rows = [_sweep_case(problem) for problem in cfg.sweep]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_case, cfg.sweep))
    path = _write_csv(
        args, "sweep.csv",
        ["ste", "delta", "p", "feedback", "lam", "y_prime0", "lambda_residual", "status"],
        rows,
    )
    n_failed = sum(1 for row in rows if row[-1] != "ok")
    print(f"wrote {path} ({len(rows)} rows, {n_failed} failed)")
    if rows and n_failed == len(rows):
        print("all sweep tuples failed", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefansim",
        description="Similarity solutions of a one-phase melting problem "
        "with temperature-dependent conductivity, verified by finite differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem, write summary.csv")
    profile = sub.add_parser("profile", help="write temperature profiles as profile.csv")
    verify = sub.add_parser("verify", help="run the verification suite, write verify.csv")
    sweep = sub.add_parser("sweep", help="solve a parameter grid, write sweep.csv")

    for p, func in ((solve, cmd_solve), (profile, cmd_profile), (verify, cmd_verify), (sweep, cmd_sweep)):
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        p.set_defaults(func=func)
    profile.add_argument("--t", default="1.0", help="comma-separated evaluation times")
    profile.add_argument("--points", type=int, default=101, help="samples per profile")
    sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StefanError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
