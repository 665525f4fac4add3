"""Physical-space quantities reconstructed from a similarity solution.

The similarity layer works in (eta, y); this module maps back to (x, t,
theta): the front position s(t) = 2 a lam sqrt(t), the temperature field
theta(x, t) = theta_f + (theta0 - theta_f) y(x / (2 a sqrt(t))) on the
liquid region 0 <= x <= s(t), the heat flux entering at the fixed face,
and the source field each model induces.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidInput, OutOfDomain
from .similarity import SimilaritySolution

# Queries may overshoot the front by this relative margin before being
# rejected; overshoots inside the margin report the phase-change
# temperature, since they come from rounding in callers' front arithmetic.
FRONT_DOMAIN_SLACK = 1e-9


def _require_time(what: str, t) -> None:
    """Raise InvalidInput unless t is a finite real scalar > 0."""
    if not (isinstance(t, numbers.Real) and math.isfinite(t) and t > 0.0):
        raise InvalidInput(f"{what} needs t > 0, got {t!r}")


def front_position(sol: SimilaritySolution, t) -> float:
    """Front position s(t) = 2 a lam sqrt(t); accepts scalar or array t >= 0."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0) or not np.all(np.isfinite(ta)):
        raise InvalidInput("front_position needs finite t >= 0")
    out = 2.0 * sol.dimensionless.a * sol.lam * np.sqrt(ta)
    return float(out) if np.isscalar(t) else out


def similarity_coordinate(sol: SimilaritySolution, x, t: float):
    """Similarity coordinate eta = x / (2 a sqrt(t)) for t > 0."""
    _require_time("similarity coordinate", t)
    xa = np.asarray(x, dtype=float)
    out = xa / (2.0 * sol.dimensionless.a * math.sqrt(t))
    return float(out) if np.isscalar(x) else out


def temperature(sol: SimilaritySolution, x, t: float):
    """Temperature theta(x, t) inside the liquid region.

    The profile is evaluated pointwise as y = Phi^{-1}(Psi(eta)) from the
    defining integrals of Psi (SimilaritySolution.y_many).

    Args:
        sol: Similarity solution.
        x: Position or array of positions, 0 <= x <= s(t).  Positions
            overshooting s(t) by at most FRONT_DOMAIN_SLACK (relative)
            report theta_f; larger overshoots raise OutOfDomain.
        t: Time, > 0.

    Returns:
        theta matching the shape of x.

    Raises:
        OutOfDomain: x < 0, x NaN, or x beyond the front by more than the slack.
        InvalidInput: t <= 0.
    """
    _require_time("temperature", t)
    xa = np.asarray(x, dtype=float)
    if not np.all(xa >= 0.0):
        raise OutOfDomain("temperature query at x < 0 or NaN")
    s = front_position(sol, t)
    if np.any(xa > s * (1.0 + FRONT_DOMAIN_SLACK)):
        raise OutOfDomain(
            f"temperature query beyond the front: max x = {float(xa.max())!r}, s(t) = {s!r}"
        )
    eta = np.minimum(similarity_coordinate(sol, xa, t), sol.lam)
    y = sol.y_many(eta)
    span = sol.boundary.theta0 - sol.boundary.theta_f
    out = sol.boundary.theta_f + span * y
    return float(out) if np.isscalar(x) else out


def fixed_face_flux(sol: SimilaritySolution, t) -> float:
    """Temperature gradient dtheta/dx at the fixed face x = 0 (negative).

    Equals (theta0 - theta_f) * y'(0) / (2 a sqrt(t)); the conductive heat
    flux entering the liquid is -k(theta0) times this value.
    """
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= 0.0) or not np.all(np.isfinite(ta)):
        raise InvalidInput("fixed_face_flux needs finite t > 0")
    span = sol.boundary.theta0 - sol.boundary.theta_f
    out = span * sol.y_prime0 / (2.0 * sol.dimensionless.a * np.sqrt(ta))
    return float(out) if np.isscalar(t) else out


def source_field(sol: SimilaritySolution, x, t: float):
    """Source term H(x, t) of the governing equation rho c theta_t = (k theta_x)_x - H.

    For the similarity-form sources H = (rho latent_heat / t) beta(eta);
    for the flux-feedback source H = (lambda0 / sqrt(t)) dtheta/dx(0, t),
    independent of x; without a source H = 0.
    """
    _require_time("source_field", t)
    xa = np.asarray(x, dtype=float)
    if not np.all(xa >= 0.0):
        raise OutOfDomain("source_field query at x < 0 or NaN")
    eta = np.asarray(similarity_coordinate(sol, xa, t), dtype=float)
    out = sol.model.heat_source(sol.material, eta, t, fixed_face_flux(sol, t))
    return float(out) if np.isscalar(x) else out
