"""The closed-form bracket of each front equation, over the documented domain.

Each source model derives (lo, hi) from inequalities on its left-hand side
(docs/errata.md, "Brackets"), and solve_lambda makes one Brent-Dekker solve
on it.  The property test draws the groups log-uniformly with a fixed seed;
the parametrized cases are roots that a bracket search capped at 50 refused.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stefansim.errors import OutOfRange, StefanError
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim.similarity import solve_lambda, solve_problem, source_model

FEEDBACK = FluxFeedbackSource(lambda0=0.5)
CUSTOM = SimilaritySource(lambda eta: 0.5 * (1.0 + eta) * np.exp(-eta * eta))
SOURCES = {"none": NoSource(), "exponential": ExponentialSource(), "custom": CUSTOM,
           "feedback": FEEDBACK}


def log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def counted(eq):
    """eq with a counter of its left-hand side's evaluations."""
    calls = []

    def evaluate(x):
        calls.append(x)
        return eq.evaluate(x)

    return dataclasses.replace(eq, evaluate=evaluate), calls


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ste=log_uniform(1e-300, 1e300),
    delta=log_uniform(1e-8, 1e8),
    p=log_uniform(1e-3, 30.0),
    feedback=log_uniform(1e-300, 1e300),
)
def test_bracket_holds_and_solve_is_bounded(ste, delta, p, feedback):
    for kind, source in SOURCES.items():
        model = source_model(source, ste, delta, p, feedback if kind == "feedback" else None)
        eq = model.equation
        lo, hi = eq.bracket
        assert 0.0 < lo < hi < math.inf, kind
        assert eq.evaluate(lo) <= eq.target, kind
        eq, calls = counted(eq)
        start = time.perf_counter()
        try:
            lam = solve_lambda(eq)
        except StefanError as exc:
            # Only a root past the e^{x^2} overflow may fail, and feedback has none.
            assert isinstance(exc, OutOfRange) and kind != "feedback", (kind, exc)
        else:
            assert lo <= lam <= hi, kind
            assert eq.target <= model.equation.evaluate(hi), kind
        assert time.perf_counter() - start <= 0.5, kind
        assert len(calls) <= 40, kind


@pytest.mark.parametrize(
    "ste, delta, p, feedback, lam",
    [
        (1e4, 1e3, 1e-3, 1.0, 53.0169),
        (1e6, 1e3, 1e-3, 1.0, 529.78),
        (1e8, 1e3, 1e-3, 1e-3, 167.87),
    ],
)
def test_feedback_roots_past_the_former_cap(ste, delta, p, feedback, lam):
    eq = source_model(FEEDBACK, ste, delta, p, feedback).equation
    got = solve_lambda(eq)
    assert got == pytest.approx(lam, rel=1e-4)
    assert eq.evaluate(got * (1.0 - 1e-10)) < eq.target < eq.evaluate(got * (1.0 + 1e-10))


@pytest.mark.parametrize("kind", ["none", "exponential", "custom"])
def test_root_past_overflow_raises(kind):
    # Ste = delta = 1e300: the root has e^{lam^2} far past the largest double,
    # so the bracket closes on the last finite value, which is no root.
    material = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1e-300, delta=1e300, p=1.0)
    with pytest.raises(OutOfRange, match=r"g overflows past x = 26\.64\d* \(x\^2 = 709\.78"):
        solve_problem(material, BoundaryData(theta0=1.0, theta_f=0.0), SOURCES[kind])
