"""Rejected transcriptions of the similarity formulas, kept as regression guards.

Published statements of the integrated formulas for this problem family
circulate with transcription slips.  During implementation each candidate
form was re-derived from the governing ODE system; the corrected forms live
in similarity.py and docs/errata.md records the derivation.  This module
keeps the rejected variants executable so the test suite can demonstrate,
permanently, that they violate the problem's own requirements (the profile
must vanish at the front; the front coefficient must agree with an
independent PDE solver).  Nothing here is used by the solver.

Variant A (similarity-form source profile): the front term of the profile
appears as (2 Ibe(lam) - lam e^{lam^2}) instead of the derived
(lam e^{lam^2} + 2 Ibe(lam)); equivalently the sign of lam e^{lam^2} is
flipped.  The variant profile fails y(lam) = 0 by an O(1) margin.

Variant B (exponential-source front equation): the closed form appears as

    (1/Ste)(1 - e^{-x^2}) + (sqrt(pi)/Ste) x erf(x) (e^{x^2} - 1)
        = 1 + delta/(p+1)

whereas substituting beta = e^{-eta^2}/2 into the general (corrected)
equation gives (e^{x^2} + 1) in place of (e^{x^2} - 1) and the opposite
sign on the (1 - e^{-x^2}) term.  The variant's root disagrees with both
the corrected root and the finite-difference front trajectory by tens of
percent.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace

from .model import SimilaritySource
from .numerics import SQRT_PI, Tolerance, DEFAULT_TOL, erf
from .similarity import LambdaEquation, PsiProfile, solve_lambda, source_model


def variant_psi_front_term_flipped(
    lam: float, ste: float, delta: float, p: float, beta: Callable
) -> PsiProfile:
    """Variant A: profile with the sign of lam e^{lam^2} flipped in the front term.

    Built from the corrected profile so the only difference under test is
    the front-term sign itself: flipping it in B adds
    (2 sqrt(pi)/Ste) lam e^{lam^2} erf(eta) to Psi.  Values may leave
    [0, Phi(1)]; invert with clamping (or inspect Psi directly) when
    demonstrating the violation.
    """
    correct = source_model(SimilaritySource(beta), ste, delta, p).psi(lam)
    shift = (2.0 * SQRT_PI / ste) * lam * math.exp(lam * lam)
    return replace(correct, _kernel=lambda pts: correct.evaluate_many(pts) + shift * erf(pts))


def variant_lambda_equation_exponential(
    ste: float, delta: float, p: float
) -> LambdaEquation:
    """Variant B: circulated exponential-source front equation, +inf past overflow."""

    def evaluate(x: float) -> float:
        return (-math.expm1(-x * x)) / ste + (SQRT_PI / ste) * x * math.erf(x) * (
            math.exp(x * x) - 1.0
        )

    return LambdaEquation(
        evaluate,
        1.0 + delta / (p + 1.0),
        "front equation (exponential source, rejected variant)",
    )


def variant_lambda_exponential(
    ste: float, delta: float, p: float, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Root of the rejected exponential-source front equation (Variant B)."""
    return solve_lambda(variant_lambda_equation_exponential(ste, delta, p), tol)
