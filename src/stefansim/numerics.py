"""Low-level numerical kernels: quadrature and root finding.

The routines here are deliberately self-contained and conservative.  The
adaptive integrator uses an embedded Gauss-Kronrod 7/15 pair: the 15-point
Kronrod value is the estimate and the absolute Gauss/Kronrod discrepancy is
its error bound, which overestimates the true error for smooth integrands
and therefore errs on the side of extra subdivision.  Subdivision is
breadth-first over numpy arrays of active panels, so integrands are always
evaluated on batches of nodes rather than one scalar at a time.

Root finding works only on (strictly) increasing functions, which is all
the similarity layer ever needs: every transcendental equation in this
problem family has a monotone left-hand side.  Bisection is used because
its bracket is a proof.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .errors import (
    BracketExpansionFailed,
    InvalidInput,
    MaxSubdivisionsExceeded,
    NonConvergence,
    NotBracketed,
)

SQRT_PI = math.sqrt(math.pi)

# Hard cap for upward bracket expansion.  The similarity equations all grow
# like exp(x^2), which overflows a double near x = 27, so any root beyond
# this cap is unrepresentable anyway; failing cleanly beats looping.
BRACKET_EXPANSION_CAP = 50.0

# Subdivision depth limit for adaptive quadrature.  Depth 60 corresponds to
# panels ~1e-18 times the original interval, far below double spacing.
MAX_SUBDIVISION_DEPTH = 60


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget.

    Attributes:
        abs_tol: Absolute tolerance, > 0.
        rel_tol: Relative tolerance, > 0.
        max_iter: Iteration budget for iterative routines, >= 1.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0) or not math.isfinite(self.abs_tol):
            raise InvalidInput(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not (self.rel_tol > 0.0) or not math.isfinite(self.rel_tol):
            raise InvalidInput(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.max_iter < 1:
            raise InvalidInput(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] believed to contain a root.

    Attributes:
        lo: Lower endpoint, finite, < hi.
        hi: Upper endpoint, finite.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInput(f"bracket endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidInput(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


DEFAULT_TOL = Tolerance()


def erf(x):
    """Error function (2/sqrt(pi)) * integral of exp(-u^2) from 0 to x.

    Scalars go through the C library implementation (correctly rounded to
    within a unit in the last place); numpy arrays are dispatched to the
    vectorized special-function kernel so batch callers pay no Python loop.

    Args:
        x: Point or array of points.

    Returns:
        erf(x), matching the shape of the input.
    """
    if isinstance(x, np.ndarray):
        return _special.erf(x)
    return math.erf(x)


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].  Positive Kronrod
# abscissae in decreasing order; odd-indexed entries are the embedded
# 7-point Gauss nodes.
_XGK_POS = np.array(
    [
        0.9914553711208126392068547,
        0.9491079123427585245261897,
        0.8648644233597690727897128,
        0.7415311855993944398638648,
        0.5860872354676911302941448,
        0.4058451513773971669066064,
        0.2077849550078984676006894,
    ]
)
_WGK_POS = np.array(
    [
        0.0229353220105292249637320,
        0.0630920926299785532907007,
        0.1047900103222501838398763,
        0.1406532597155259187451896,
        0.1690047266392679028265834,
        0.1903505780647854099132564,
        0.2044329400752988924141620,
    ]
)
_WGK_ZERO = 0.2094821410847278280129992
_WG_POS = np.array(
    [
        0.1294849661688696932706114,
        0.2797053914892766679014678,
        0.3818300505051189449503698,
    ]
)
_WG_ZERO = 0.4179591836734693877551020

# Full 15-node layout: [-x0 .. -x6, 0, x6 .. x0].
_NODES = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
_WK = np.concatenate([_WGK_POS, [_WGK_ZERO], _WGK_POS[::-1]])
_wg_full_pos = np.zeros(7)
_wg_full_pos[1::2] = _WG_POS  # Gauss nodes sit at Kronrod indices 1, 3, 5
_WG = np.concatenate([_wg_full_pos, [_WG_ZERO], _wg_full_pos[::-1]])


def _call_vectorized(f: Callable, x: np.ndarray) -> tuple[Callable, np.ndarray]:
    """Evaluate f on an array, falling back to np.vectorize for scalar-only f.

    Returns the (possibly wrapped) callable to use for subsequent batches
    together with the values at x.
    """
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return f, y
    except (TypeError, ValueError):
        pass
    fv = np.vectorize(f, otypes=[float])
    return fv, np.asarray(fv(x), dtype=float)


def _gk_panels(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[Callable, np.ndarray, np.ndarray]:
    """Apply the Gauss-Kronrod 7/15 pair to a batch of panels.

    Args:
        f: Integrand, evaluated on a flat array of nodes.
        a: Panel left endpoints, shape (m,).
        b: Panel right endpoints, shape (m,).

    Returns:
        (f_used, kronrod_values, error_estimates), each array of shape (m,).
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center[:, None] + half[:, None] * _NODES[None, :]
    f, fx = _call_vectorized(f, x.ravel())
    fx = fx.reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        raise InvalidInput("integrand returned a non-finite value")
    vals_k = half * (fx @ _WK)
    vals_g = half * (fx @ _WG)
    return f, vals_k, np.abs(vals_k - vals_g)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Adaptive integral of f over [a, b].

    Panels whose Gauss/Kronrod discrepancy exceeds their share of the
    error budget (allocated proportionally to panel length) are bisected,
    breadth first, until every panel is accepted.  The final estimated
    error is at most max(abs_tol, rel_tol * |result|).

    Args:
        f: Integrand.  Preferably accepts numpy arrays; scalar-only
            callables are wrapped transparently at a modest speed cost.
        a: Lower limit.
        b: Upper limit (a <= b for the usual orientation; a > b negates).
        tol: Error budget and iteration limits.

    Returns:
        The integral estimate.

    Raises:
        MaxSubdivisionsExceeded: A panel reached subdivision depth 60
            without meeting its error share.
        InvalidInput: The integrand produced a non-finite value, or a
            limit is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInput(f"integration limits must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    total_len = b - a
    act_a = np.array([a])
    act_b = np.array([b])
    depth = np.array([0])
    accepted = 0.0
    while act_a.size:
        f, vals, errs = _gk_panels(f, act_a, act_b)
        estimate = accepted + float(vals.sum())
        budget = max(tol.abs_tol, tol.rel_tol * abs(estimate))
        ok = errs <= budget * (act_b - act_a) / total_len
        accepted += float(vals[ok].sum())
        bad = ~ok
        if not bad.any():
            break
        if depth[bad].max() >= MAX_SUBDIVISION_DEPTH:
            raise MaxSubdivisionsExceeded(
                f"integrate([{a}, {b}]): panel at depth {MAX_SUBDIVISION_DEPTH} "
                f"still exceeds its error share of {budget:.3e}"
            )
        ba, bb, bd = act_a[bad], act_b[bad], depth[bad]
        mid = 0.5 * (ba + bb)
        act_a = np.concatenate([ba, mid])
        act_b = np.concatenate([mid, bb])
        depth = np.concatenate([bd, bd]) + 1
    return sign * accepted


def integrate_cumulative(
    f: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Cumulative integrals of f from points[0] to every point.

    All segments between consecutive points are integrated in one batched
    adaptive pass and then prefix-summed, so the values at neighboring
    points share their quadrature history exactly.  That property matters
    when the caller finite-differences the result: independent adaptive
    calls would carry independently rounded errors that do not cancel.

    Args:
        f: Integrand (see integrate for the vectorization contract).
        points: Ascending 1-D array of evaluation points (ties allowed).
        tol: Error budget; abs_tol is split across segments by length.

    Returns:
        Array F with F[0] = 0 and F[i] = integral of f over
        [points[0], points[i]].

    Raises:
        InvalidInput: points is not ascending.
        MaxSubdivisionsExceeded: As for integrate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise InvalidInput("points must be a 1-D array with at least one entry")
    if np.any(np.diff(pts) < 0.0):
        raise InvalidInput("points must be ascending")
    seg_vals = np.zeros(max(pts.size - 1, 0))
    lens = np.diff(pts)
    total_len = float(lens.sum())
    if total_len == 0.0:
        return np.zeros(pts.size)
    live = lens > 0.0
    seg_id = np.nonzero(live)[0]
    act_a = pts[:-1][live]
    act_b = pts[1:][live]
    depth = np.zeros(seg_id.size, dtype=int)
    while seg_id.size:
        f, vals, errs = _gk_panels(f, act_a, act_b)
        ok = errs <= tol.abs_tol * (act_b - act_a) / total_len
        np.add.at(seg_vals, seg_id[ok], vals[ok])
        bad = ~ok
        if not bad.any():
            break
        if depth[bad].max() >= MAX_SUBDIVISION_DEPTH:
            raise MaxSubdivisionsExceeded(
                "integrate_cumulative: a panel reached depth "
                f"{MAX_SUBDIVISION_DEPTH} without meeting its error share"
            )
        ba, bb, bi, bd = act_a[bad], act_b[bad], seg_id[bad], depth[bad]
        mid = 0.5 * (ba + bb)
        act_a = np.concatenate([ba, mid])
        act_b = np.concatenate([mid, bb])
        seg_id = np.concatenate([bi, bi])
        depth = np.concatenate([bd, bd]) + 1
    out = np.empty(pts.size)
    out[0] = 0.0
    np.cumsum(seg_vals, out=out[1:])
    return out


def _eval_clipped(g: Callable[[float], float], x: float) -> float:
    """Evaluate g(x), mapping overflow to +inf (g is increasing)."""
    try:
        return g(x)
    except OverflowError:
        return math.inf


def find_root_increasing(
    g: Callable[[float], float],
    target: float,
    bracket: Bracket,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Solve g(x) = target for increasing g on a positive domain.

    The seed bracket is expanded first: hi doubles (capped at
    BRACKET_EXPANSION_CAP) until g(hi) >= target, and lo shrinks toward
    0+ until g(lo) <= target.  Bisection then contracts the bracket until
    both the residual and the relative bracket width meet the tolerance.
    Overflow in g counts as +inf, so equations growing like exp(x^2) fail
    over to a finite bracket instead of crashing.

    Args:
        g: Strictly increasing function of one positive variable.
        target: Right-hand side value to match.
        bracket: Seed bracket with 0 < lo < hi.
        tol: Stopping criteria: |g(x) - target| <= abs_tol and bracket
            width <= rel_tol * x, within max_iter bisections.

    Returns:
        The root x*.

    Raises:
        InvalidInput: Seed bracket is not strictly positive.
        BracketExpansionFailed: g(hi) < target even at the expansion cap.
        NotBracketed: g(lo) > target even with lo shrunk to its floor.
        NonConvergence: Iteration budget exhausted.
    """
    if bracket.lo <= 0.0:
        raise InvalidInput(f"find_root_increasing requires lo > 0, got {bracket.lo}")
    lo, hi = bracket.lo, bracket.hi
    glo = _eval_clipped(g, lo)
    ghi = _eval_clipped(g, hi)
    while ghi < target:
        if hi >= BRACKET_EXPANSION_CAP:
            raise BracketExpansionFailed(
                f"g({hi}) = {ghi:.6e} < target {target:.6e} at the expansion cap"
            )
        lo, glo = hi, ghi
        hi = min(2.0 * hi, BRACKET_EXPANSION_CAP)
        ghi = _eval_clipped(g, hi)
    while glo > target:
        if lo < 1e-300:
            raise NotBracketed(
                f"g({lo}) = {glo:.6e} > target {target:.6e} with lo at its floor"
            )
        hi, ghi = lo, glo
        lo = 0.25 * lo
        glo = _eval_clipped(g, lo)
    if glo == target:
        return lo
    if ghi == target:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(tol.max_iter):
        gx = _eval_clipped(g, x)
        if gx >= target:
            hi = x
        else:
            lo = x
        mid = 0.5 * (lo + hi)
        if abs(gx - target) <= tol.abs_tol and (hi - lo) <= tol.rel_tol * abs(x):
            return x
        if mid == x:
            # Bracket is at machine resolution; accept if the residual
            # criterion holds, otherwise keep iterating on the other side.
            if abs(gx - target) <= tol.abs_tol:
                return x
        x = mid
    raise NonConvergence(
        f"find_root_increasing: no root to tolerance within {tol.max_iter} bisections"
    )
