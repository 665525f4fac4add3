"""Verification suite for computed similarity solutions.

Every check here re-measures a property of a finished solution from the
outside: residual of the reduced equation at the computed front
coefficient, boundary values, the Stefan condition via one-sided finite
differences, the full second-order ODE residual via five-point stencils
on exact pointwise profile values, monotonicity and range of the
profile, agreement of redundant computation paths, and (optionally) the
finite-difference moving-boundary solver.  The CLI's verify command and
the test suite both consume these, so a check failing in one fails in
the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ExponentialSource, SimilaritySource
from .oracle import OracleConfig, run_oracle_for
from .similarity import SimilaritySolution, _phi_inverse_many, phi_map, solve_lambda, source_model

LAMBDA_RESIDUAL_TOL = 1e-8
FIXED_FACE_VALUE_TOL = 1e-10
FRONT_VALUE_TOL = 1e-8
FRONT_SLOPE_REL_TOL = 1e-4
ODE_RESIDUAL_TOL = 1e-4
CLOSED_FORM_AGREEMENT_TOL = 1e-9
MONOTONE_SLACK = 1e-12
PROFILE_RANGE_SLACK = 1e-9
ORACLE_FRONT_REL_TOL = 1e-2
ORACLE_TEMP_FRACTION_TOL = 1e-2

# Step for the one-sided front-slope difference, relative to max(1, lam).
# The profile has a (lam - eta)^(p+1) correction near the front, so for
# p < 1 the slope error carries a sqrt(step)-type singular term; 1e-10
# balances it against rounding noise and keeps the worst corner of the
# acceptance grid a factor of ~2 under FRONT_SLOPE_REL_TOL.
FRONT_SLOPE_STEP = 1e-10
# Interior nodes of the ODE residual, and samples of the profile shape checks.
ODE_RESIDUAL_NODES = 200
PROFILE_SHAPE_POINTS = 512


@dataclass(frozen=True)
class CheckResult:
    """One verification measurement.

    value is the measured magnitude (error, residual, defect); passed is
    derived from it, so a result cannot disagree with its own numbers.
    """

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        """True when value <= threshold."""
        return bool(self.value <= self.threshold)


def _result(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), float(threshold))


def lambda_residual_check(sol: SimilaritySolution) -> CheckResult:
    """|reduced-equation residual| at the computed front coefficient."""
    return _result("lambda_residual", abs(sol.lambda_residual()), LAMBDA_RESIDUAL_TOL)


def boundary_checks(sol: SimilaritySolution) -> list[CheckResult]:
    """Fixed-face value y(0) = 1 and front value y(lam) = 0."""
    y0, ylam = sol.y_many(np.array([0.0, sol.lam]), clamp=False)
    return [
        _result("fixed_face_value", abs(y0 - 1.0), FIXED_FACE_VALUE_TOL),
        _result("front_value", abs(ylam), FRONT_VALUE_TOL),
    ]


def front_slope_check(sol: SimilaritySolution) -> CheckResult:
    """Stefan condition y'(lam) = -2 lam / Ste by one-sided differences.

    Three-point backward difference with a tiny step on the unclamped
    profile; the stencil coefficients sum to zero, so the residual-level
    offset of the profile at the front cancels out of the estimate.
    """
    lam = sol.lam
    step = FRONT_SLOPE_STEP * max(1.0, lam)
    pts = np.array([lam, lam - step, lam - 2.0 * step])
    y = sol.y_many(pts, clamp=False)
    slope = (3.0 * y[0] - 4.0 * y[1] + y[2]) / (2.0 * step)
    target = -2.0 * lam / sol.model.ste
    return _result("front_slope", abs(slope - target) / abs(target), FRONT_SLOPE_REL_TOL)


def ode_residual_check(sol: SimilaritySolution) -> CheckResult:
    """Max-norm residual of the reduced second-order ODE.

    The equation in expanded form,

        2 eta (1 + delta y^p) y' + delta p y^(p-1) (y')^2
          + (1 + delta y^p) y'' = RHS(eta),

    is evaluated at ODE_RESIDUAL_NODES interior nodes with fourth-order
    five-point stencils of the exact pointwise profile.  The stencil step
    shrinks near the endpoints where derivatives of y steepen.
    """
    lam, delta, p = sol.lam, sol.material.delta, sol.material.p
    etas = np.linspace(0.0, lam, ODE_RESIDUAL_NODES + 2)[1:-1]
    dist = np.minimum(etas, lam - etas)
    h = np.minimum(lam / 200.0, dist / 50.0)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pts = etas[:, None] + h[:, None] * offsets[None, :]
    vals = sol.y_many(pts, clamp=False).reshape(ODE_RESIDUAL_NODES, 5)
    d1 = (vals[:, 0] - 8.0 * vals[:, 1] + 8.0 * vals[:, 3] - vals[:, 4]) / (12.0 * h)
    d2 = (
        -vals[:, 0] + 16.0 * vals[:, 1] - 30.0 * vals[:, 2] + 16.0 * vals[:, 3] - vals[:, 4]
    ) / (12.0 * h * h)
    y = vals[:, 2]
    factor = 1.0 + delta * y**p
    residual = (
        2.0 * etas * factor * d1
        + delta * p * y ** (p - 1.0) * d1 * d1
        + factor * d2
        - sol.model.ode_rhs(etas, sol.y_prime0)
    )
    return _result("ode_residual", float(np.max(np.abs(residual))), ODE_RESIDUAL_TOL)


def profile_shape_checks(sol: SimilaritySolution) -> list[CheckResult]:
    """Monotonicity and range of y, and monotonicity of Psi and Phi."""
    etas = np.linspace(0.0, sol.lam, PROFILE_SHAPE_POINTS)
    psi = sol.psi.evaluate_many(etas)
    delta, p = sol.material.delta, sol.material.p
    y = _phi_inverse_many(delta, p, psi, clamp=False)
    xs = np.linspace(0.0, 1.0, PROFILE_SHAPE_POINTS)
    phi = phi_map(delta, p, xs)
    return [
        _result("profile_decreasing", float(np.max(np.diff(y))), MONOTONE_SLACK),
        _result(
            "profile_range",
            float(max(np.max(y) - 1.0, -np.min(y), 0.0)),
            PROFILE_RANGE_SLACK,
        ),
        _result("psi_decreasing", float(np.max(np.diff(psi))), MONOTONE_SLACK),
        _result("phi_increasing", float(np.max(-np.diff(phi))), MONOTONE_SLACK),
    ]


def closed_form_agreement_check(sol: SimilaritySolution) -> Optional[CheckResult]:
    """Exponential-source closed form vs the general quadrature path.

    The exponential source's front coefficient sol.lam is the root of a
    closed-form reduced equation; solving the generic quadrature equation
    must agree.  Returns None for other sources, where no redundant path exists.
    """
    if not isinstance(sol.source, ExponentialSource):
        return None
    quadrature = source_model(
        SimilaritySource(sol.source.beta), sol.model.ste, sol.material.delta, sol.material.p
    )
    lam_quad = solve_lambda(quadrature.equation)
    return _result(
        "closed_form_vs_quadrature", abs(sol.lam - lam_quad), CLOSED_FORM_AGREEMENT_TOL
    )


def oracle_checks(sol: SimilaritySolution, cfg: OracleConfig) -> list[CheckResult]:
    """Front and temperature agreement of the finite-difference solver."""
    run = run_oracle_for(sol, cfg)
    span = sol.boundary.theta0 - sol.boundary.theta_f
    return [
        _result("oracle_front_rel_err", run.front_rel_err, ORACLE_FRONT_REL_TOL),
        _result(
            "oracle_temp_max_err", run.temp_max_err, ORACLE_TEMP_FRACTION_TOL * span
        ),
    ]


def run_checks(
    sol: SimilaritySolution, oracle_cfg: Optional[OracleConfig] = None
) -> list[CheckResult]:
    """Full verification suite; oracle comparison only when configured."""
    results = [lambda_residual_check(sol)]
    results.extend(boundary_checks(sol))
    results.append(front_slope_check(sol))
    results.append(ode_residual_check(sol))
    results.extend(profile_shape_checks(sol))
    agreement = closed_form_agreement_check(sol)
    if agreement is not None:
        results.append(agreement)
    if oracle_cfg is not None:
        results.extend(oracle_checks(sol, oracle_cfg))
    return results
