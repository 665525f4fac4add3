"""Wide probe of the finite-difference oracle over the documented domain.

Runs solve_problem and oracle_checks on the fixed grid

    Ste {1e-6, 1e-2, 1, 1e2, 1e4} x delta {1e-8, 1, 1e3} x p {1e-3, 1, 20}
    x sources none, exponential and flux feedback with A = 1,

135 cases, with numpy's over, invalid and divide errors raised and every
warning turned into an error (underflow stays ignored, as numpy's default).
Each case that does not pass both oracle checks is printed with its
front_rel_err / temp_max_err, or with the error it raised; the totals and
the wall time follow.  The oracle grid is OracleConfig()'s unless --grid
gives another, e.g. --grid 128x256.

    PYTHONPATH=src python tools/oracle_probe.py [--grid NSPACExNTIME]
"""

from __future__ import annotations

import argparse
import itertools
import time
import warnings

import numpy as np

from stefansim.checks import oracle_checks
from stefansim.config import reduced_problem
from stefansim.errors import StefanError
from stefansim.oracle import OracleConfig
from stefansim.similarity import solve_problem

STES = (1e-6, 1e-2, 1.0, 1e2, 1e4)
DELTAS = (1e-8, 1.0, 1e3)
PS = (1e-3, 1.0, 20.0)
# (kind, feedback coupling A)
SOURCES = (("none", None), ("exponential", None), ("feedback", 1.0))
OUTCOMES = ("pass", "fail", "no closed form", "oracle error")


def probe_case(kind: str, feedback: float | None, ste: float, delta: float, p: float,
               cfg: OracleConfig) -> tuple[str, str]:
    """(outcome, detail) of one case; the outcomes are OUTCOMES."""
    try:
        sol = solve_problem(*reduced_problem(ste, delta, p, kind, feedback))
    except (StefanError, FloatingPointError, Warning) as exc:
        return "no closed form", f"{type(exc).__name__}: {exc}"
    try:
        front, temp = oracle_checks(sol, cfg)
    except (StefanError, FloatingPointError, Warning) as exc:
        return "oracle error", f"{type(exc).__name__}: {exc}"
    detail = f"{front.value:.2g} / {temp.value:.2g}"
    return ("pass" if front.passed and temp.passed else "fail"), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", help="oracle n_space x n_time, e.g. 128x256")
    args = parser.parse_args(argv)
    cfg = OracleConfig()
    if args.grid:
        n_space, n_time = (int(part) for part in args.grid.lower().split("x"))
        cfg = OracleConfig(n_space=n_space, n_time=n_time)
    print(f"oracle {cfg.n_space} x {cfg.n_time}")
    print("source       Ste     delta   p      outcome: front_rel_err / temp_max_err")
    totals: dict[str, int] = {}
    start = time.perf_counter()
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        for (kind, feedback), ste, delta, p in itertools.product(SOURCES, STES, DELTAS, PS):
            outcome, detail = probe_case(kind, feedback, ste, delta, p, cfg)
            totals[outcome] = totals.get(outcome, 0) + 1
            if outcome != "pass":
                print(f"{kind:12s} {ste:<7g} {delta:<7g} {p:<6g} {outcome}: {detail}")
    elapsed = time.perf_counter() - start
    counts = ", ".join(f"{totals.get(k, 0)} {k}" for k in OUTCOMES)
    print(f"{sum(totals.values())} cases: {counts}; {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
