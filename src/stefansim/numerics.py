"""Low-level numerical kernels: quadrature and root finding.

The routines here are deliberately self-contained and conservative.  The
adaptive integrator uses an embedded Gauss-Kronrod 7/15 pair (Piessens et
al., QUADPACK, 1983): the 15-point Kronrod value is the estimate and the
absolute Gauss/Kronrod discrepancy is its error bound, which overestimates
the true error for smooth integrands and therefore errs on the side of
extra subdivision.  integrate and integrate_cumulative share one pass,
breadth-first over numpy arrays of active panels, so integrands are always
evaluated on batches of nodes rather than one scalar at a time.  Both meet
one budget, max(abs_tol, rel_tol * |integral|), and both fail with
MaxSubdivisionsExceeded at a depth limit or an active-panel cap rather
than running out of memory.

Root finding works only on (strictly) increasing functions, which is all
the similarity layer ever needs: every transcendental equation in this
problem family has a monotone left-hand side.  A Brent-Dekker iteration
contracts a bracket whose ends keep opposite signs, so the bracket stays a
proof of the root while interpolation takes it to tolerance in a fraction
of the evaluations bisection needs.
"""

from __future__ import annotations

import math
import numbers
import sys
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
_EPS = sys.float_info.epsilon

# Hard cap for upward bracket expansion.  The sourceless and similarity-source
# equations grow like exp(x^2), which overflows a double near x = 27, so a
# root of theirs beyond this cap is unrepresentable anyway.  The scaled
# flux-feedback equation grows only like x^2 log x and stays finite; for it
# the cap is a documented domain limit (e.g. Ste = 1e4, delta = 1e3,
# p = 1e-3 has its root beyond 50).  Failing cleanly beats looping.
BRACKET_EXPANSION_CAP = 50.0

# Limits of an adaptive quadrature pass.  Subdivision is breadth first, so
# every active panel of a round has the same depth: depth 60 means panels
# ~1e-18 times their segment, far below double spacing.  The active panels
# of a round double while a budget is out of reach, so the cap on them,
# PANELS_PER_SEGMENT per segment but never below MIN_PANEL_CAP, is what
# bounds memory (a few hundred bytes per panel) long before depth 60.
MAX_SUBDIVISION_DEPTH = 60
PANELS_PER_SEGMENT = 8
MIN_PANEL_CAP = 1 << 16


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
        if not isinstance(self.max_iter, numbers.Integral):
            raise InvalidInput(f"max_iter must be an integer, got {self.max_iter!r}")
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
    if not np.isfinite(fx).all():
        raise InvalidInput("integrand returned a non-finite value")
    vals_k = half * (fx @ _WK)
    vals_g = half * (fx @ _WG)
    return f, vals_k, np.abs(vals_k - vals_g)


def _integrate_segments(
    f: Callable, a: np.ndarray, b: np.ndarray, total_len: float, tol: Tolerance
) -> np.ndarray:
    """Integrals of f over the segments [a[i], b[i]] (positive lengths
    summing to total_len), in one breadth-first pass over all of them.

    Each round applies the Gauss-Kronrod pair to every active panel,
    accepts the panels whose discrepancy is within their share of the
    budget max(abs_tol, rel_tol * |running total|), shared in proportion
    to panel length, and bisects the rest.  All active panels of a round
    have the same depth, so the round counter is the depth.
    """
    n = a.size
    seg = np.arange(n)
    sums = np.zeros(n)
    depth = 0
    while True:
        f, vals, errs = _gk_panels(f, a, b)
        budget = max(tol.abs_tol, tol.rel_tol * abs(float(sums.sum() + vals.sum())))
        ok = errs <= budget * (b - a) / total_len
        sums += np.bincount(seg[ok], vals[ok], n)
        n_bad = ok.size - int(np.count_nonzero(ok))
        if not n_bad:
            return sums
        cap = max(MIN_PANEL_CAP, PANELS_PER_SEGMENT * n)
        if depth >= MAX_SUBDIVISION_DEPTH or 2 * n_bad > cap:
            raise MaxSubdivisionsExceeded(
                f"quadrature of {n} segment(s): {n_bad} panels in [{a.min()}, {b.max()}] "
                f"at depth {depth} still exceed their share of the error budget {budget:.3e} "
                f"(limits: depth {MAX_SUBDIVISION_DEPTH}, {cap} active panels)"
            )
        bad = ~ok
        a, b, seg = a[bad], b[bad], seg[bad]
        mid = 0.5 * (a + b)
        a, b, seg = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([seg, seg])
        depth += 1


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
        tol: Error budget.

    Returns:
        The integral estimate.

    Raises:
        MaxSubdivisionsExceeded: Subdivision reached depth 60, or the
            active panels outgrew their cap, before meeting the budget.
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
    return sign * float(_integrate_segments(f, np.array([a]), np.array([b]), b - a, tol)[0])


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
        tol: Error budget max(abs_tol, rel_tol * |integral over all
            points|), shared across segments by length as in integrate.

    Returns:
        Array F with F[0] = 0 and F[i] = integral of f over
        [points[0], points[i]].

    Raises:
        InvalidInput: points is not finite and ascending.
        MaxSubdivisionsExceeded: As for integrate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1 or not np.isfinite(pts).all():
        raise InvalidInput("points must be a finite 1-D array with at least one entry")
    lens = np.diff(pts)
    if (lens < 0.0).any():
        raise InvalidInput("points must be ascending")
    seg_vals = np.zeros(lens.size)
    live = lens > 0.0
    if live.any():
        total_len = float(lens.sum())
        seg_vals[live] = _integrate_segments(f, pts[:-1][live], pts[1:][live], total_len, tol)
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
    0+ until g(lo) <= target.  A Brent-Dekker iteration then contracts the
    bracket: inverse quadratic interpolation or a secant step where it
    lands well inside the bracket, bisection otherwise (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4).  Every iterate
    keeps a sign change of g - target between the two bracket ends, so the
    bracket stays a proof that the root lies inside it.  Overflow in g
    counts as +inf, so equations growing like exp(x^2) fail over to a
    finite bracket instead of crashing; while an end of the bracket has an
    infinite value the iteration bisects.

    Args:
        g: Strictly increasing function of one positive variable.
        target: Right-hand side value to match.
        bracket: Seed bracket with 0 < lo < hi.
        tol: Stopping criteria: |g(x) - target| <= abs_tol and bracket
            width <= rel_tol * x, within max_iter iterations.  A bracket
            that collapses to adjacent doubles first also stops the
            iteration, at its end with the smaller residual.

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
    # Residuals f = g - target.  b is the bracket end with the smaller
    # residual, c the other end (f(b) and f(c) differ in sign), and a the
    # previous b, the third point of the interpolation.  step is the last
    # step taken and prev_step the one before it.
    a, fa = lo, glo - target
    b, fb = hi, ghi - target
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(tol.max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        if fb == 0.0 or (abs(fb) <= tol.abs_tol and abs(c - b) <= tol.rel_tol * abs(b)):
            return b
        if b + half in (b, c):
            return b
        # Smallest step: half the width tolerance once the residual meets
        # abs_tol, a couple of ulps while it does not, so that a steep g
        # still converges down to the resolution of a double.
        width_share = 0.5 * tol.rel_tol if abs(fb) <= tol.abs_tol else 0.0
        min_step = max(width_share, 2.0 * _EPS) * abs(b)
        if (
            abs(half) > min_step
            and abs(prev_step) >= min_step
            and abs(fa) > abs(fb)
            and math.isfinite(fa)
            and math.isfinite(fc)
        ):
            s = fb / fa
            if a == c:
                p = 2.0 * half * s
                q = 1.0 - s
            else:
                qa = fa / fc
                r = fb / fc
                p = s * (2.0 * half * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # Accept the interpolated step only if it stays well inside the
            # bracket and shrinks faster than bisection would.
            if 2.0 * p < min(3.0 * half * q - abs(min_step * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        if abs(step) > min_step or abs(half) <= min_step:
            b += step
        else:
            b += math.copysign(min_step, half)
        fb = _eval_clipped(g, b) - target
    raise NonConvergence(
        f"find_root_increasing: no root to tolerance within {tol.max_iter} iterations"
    )
