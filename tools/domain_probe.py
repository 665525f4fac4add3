"""Extreme-domain probe of the closed forms: solve_problem, then run_checks.

Runs the 700 tuples of the fixed grid

    Ste {1e-300, 1e-20, 1, 1e20, 1e300}
    x delta {1e-300, 1e-20, 1, 1e20, 1e154, 1e200, 1e300}
    x p {1e-10, 1e-3, 1, 30, 1e3}
    x sources none, custom beta = e^{-eta^2}/2, exponential and
      flux feedback with A = 1,

without the oracle, under the error policy of oracle_probe.py: numpy's
over, invalid and divide errors raised and every warning turned into an
error (underflow stays ignored, as numpy's default).  A case passes, fails
a check, raises in solve_problem ("no closed form") or raises in
run_checks ("check error"); any other exception stops the probe.  It
prints the failures of each check with the worst ratio of value to
threshold, each error type with where it was raised, the slowest case and
the totals.

    PYTHONPATH=src python tools/domain_probe.py
"""

from __future__ import annotations

import argparse
import itertools
import time
import warnings
from collections import Counter

import numpy as np

from stefansim.checks import run_checks
from stefansim.config import reduced_problem
from stefansim.errors import StefanError
from stefansim.model import SimilaritySource
from stefansim.similarity import solve_problem

STES = (1e-300, 1e-20, 1.0, 1e20, 1e300)
DELTAS = (1e-300, 1e-20, 1.0, 1e20, 1e154, 1e200, 1e300)
PS = (1e-10, 1e-3, 1.0, 30.0, 1e3)
# (kind, feedback coupling A); "custom" is beta = e^{-eta^2}/2 through the
# general similarity-source formulas.
SOURCES = (("none", None), ("custom", None), ("exponential", None), ("feedback", 1.0))
CUSTOM = SimilaritySource(lambda eta: 0.5 * np.exp(-eta * eta))
OUTCOMES = ("pass", "fail", "no closed form", "check error")


def problem(kind: str, feedback: float | None, ste: float, delta: float, p: float):
    """(material, boundary, source) of one case, at a = 1 and Ste = 1/latent_heat."""
    if kind == "custom":
        material, boundary, _ = reduced_problem(ste, delta, p, "none", None)
        return material, boundary, CUSTOM
    return reduced_problem(ste, delta, p, kind, feedback)


def probe_case(kind: str, feedback: float | None, ste: float, delta: float,
               p: float) -> tuple[str, str]:
    """(outcome, detail) of one case; the outcomes are OUTCOMES.

    A fail's detail lists each failed check as "name value/threshold",
    separated by ", "; an error's is "Type: message".
    """
    try:
        sol = solve_problem(*problem(kind, feedback, ste, delta, p))
    except (StefanError, FloatingPointError, Warning) as exc:
        return "no closed form", f"{type(exc).__name__}: {exc}"
    try:
        results = run_checks(sol)
    except (StefanError, FloatingPointError, Warning) as exc:
        return "check error", f"{type(exc).__name__}: {exc}"
    failed = [r for r in results if not r.passed]
    detail = ", ".join(f"{r.name} {r.value / r.threshold:.3g}" for r in failed)
    return ("fail" if failed else "pass"), detail


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    totals: Counter[str] = Counter()
    errors: Counter[str] = Counter()
    fails: Counter[str] = Counter()
    worst: dict[str, float] = {}
    slowest = (0.0, "")
    start = time.perf_counter()
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        for (kind, feedback), ste, delta, p in itertools.product(SOURCES, STES, DELTAS, PS):
            case_start = time.perf_counter()
            outcome, detail = probe_case(kind, feedback, ste, delta, p)
            case = f"{kind} Ste={ste:g} delta={delta:g} p={p:g}"
            slowest = max(slowest, (time.perf_counter() - case_start, case))
            totals[outcome] += 1
            if outcome == "fail":
                for item in detail.split(", "):
                    name, ratio = item.rsplit(" ", 1)
                    fails[name] += 1
                    worst[name] = max(worst.get(name, 0.0), float(ratio))
            elif outcome != "pass":
                where = "solve_problem" if outcome == "no closed form" else "run_checks"
                errors[f"{detail.split(':', 1)[0]} in {where}"] += 1
    elapsed = time.perf_counter() - start
    for name, count in sorted(fails.items()):
        print(f"fail {name}: {count}, worst value/threshold {worst[name]:.3g}")
    for name, count in sorted(errors.items()):
        print(f"error {name}: {count}")
    print(f"slowest case: {slowest[1]}, {1e3 * slowest[0]:.1f} ms")
    counts = ", ".join(f"{totals[k]} {k}" for k in OUTCOMES)
    print(f"{sum(totals.values())} cases: {counts}; {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
