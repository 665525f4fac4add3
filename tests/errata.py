"""Rejected transcriptions of the similarity formulas, kept as regression guards.

Published statements of the integrated formulas for this problem family
circulate with transcription slips.  During implementation each candidate
form was re-derived from the governing ODE system; the corrected forms live
in similarity.py and docs/errata.md records the derivation.  This module
keeps the rejected variants executable so the test suite can demonstrate,
permanently, that they violate the problem's own requirements (the profile
must vanish at the front; the front coefficient must agree with an
independent PDE solver).  Nothing in the package uses them: this module
lives beside the tests that import it.

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

import numpy as np
from scipy.special import exprel

from stefansim.model import SimilaritySource
from stefansim.numerics import SQRT_PI, erf
from stefansim.similarity import LambdaEquation, PsiProfile, source_model


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
    """Variant B: circulated exponential-source front equation, in logs.

    Its left-hand side factors as (1 - e^{-x^2}) (1 + sqrt(pi) x erf(x) e^{x^2}) / Ste,
    so its log is a sum of logs; 1 - e^{-x^2} = x^2 exprel(-x^2) stays exact
    where x^2 underflows.  Its bracket: for x >= 1, e^{x^2} - 1 >= x^2 and
    sqrt(pi) x erf(x) >= sqrt(pi) erf(1) > 1, so the left-hand side is
    >= x^3 / Ste, which reaches the target at x = max(1, (Ste target)^(1/3)).
    """

    def log_ratio(x: float) -> float:
        log_head = math.log(SQRT_PI) + math.log(x) + math.log(math.erf(x)) + x * x
        log_factors = 2.0 * math.log(x) + math.log(exprel(-x * x)) + np.logaddexp(0.0, log_head)
        return float(log_factors) - math.log(ste) - math.log(target)

    target = 1.0 + delta / (p + 1.0)
    return LambdaEquation(
        log_ratio,
        target,
        "front equation (exponential source, rejected variant)",
        (1e-300, max(1.0, (ste * target) ** (1.0 / 3.0))),
    )
