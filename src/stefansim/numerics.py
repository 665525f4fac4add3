"""Low-level numerical kernels: quadrature and root finding, erf and F.

erf is scipy.special.erf, the vectorized kernel that the Psi kernels call
on arrays of eta.  dawson_integral is F(x), the integral of Dawson's
function from 0 to x, which the flux-feedback formulas need; it is
evaluated pointwise by fixed rules, so it never meets the quadrature's
budget or its caps.

The routines here are deliberately self-contained and conservative.  The
adaptive integrator uses an embedded Gauss-Kronrod 7/15 pair (Piessens et
al., QUADPACK, 1983): the 15-point Kronrod value is the estimate and the
absolute Gauss/Kronrod discrepancy is its error bound, which overestimates
the true error for smooth integrands and therefore errs on the side of
extra subdivision.  Subdivision is one pass, breadth-first over numpy
arrays of active panels, which integrate_cumulative runs over all its
segments and integrate over its one interval.  integrate first applies the
pair to the whole interval on Python floats and returns when that panel
meets its budget, with the bits the pass's first round would give; it
costs one integrand call and no panel arrays.  Integrands are always
evaluated on arrays of nodes, never one scalar at a time.  Every integral
meets one budget, max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|), and the
pass fails with MaxSubdivisionsExceeded at a depth limit or an
active-panel cap rather than running out of memory.

Root finding works only on (strictly) increasing functions, which is all
the similarity layer ever needs: every transcendental equation in this
problem family has a monotone left-hand side.  The caller passes
ln(g / target), so a g far past the largest double needs no special case.
A Brent-Dekker iteration contracts the caller's bracket, whose ends keep
opposite signs, so the bracket stays a proof of the root while
interpolation takes it to ROOT_ABS_TOL and ROOT_REL_TOL in a fraction of
the evaluations bisection needs.

Each routine runs one budget, held as module constants that are read at
call time; no routine takes a tolerance argument.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

import numpy as np
from scipy.special import dawsn, erf

from .errors import (
    InvalidInput,
    MaxSubdivisionsExceeded,
    NonConvergence,
    NotBracketed,
)

SQRT_PI = math.sqrt(math.pi)
_EPS = sys.float_info.epsilon

# Limits of an adaptive quadrature pass.  Subdivision is breadth first, so
# every active panel of a round has the same depth: depth 60 means panels
# ~1e-18 times their segment, far below double spacing.  The active panels
# of a round double while a budget is out of reach, so the cap on them,
# PANELS_PER_SEGMENT per segment but never below MIN_PANEL_CAP, is what
# bounds memory (a few hundred bytes per panel) long before depth 60.
MAX_SUBDIVISION_DEPTH = 60
PANELS_PER_SEGMENT = 8
MIN_PANEL_CAP = 1 << 16


# Error budget of every quadrature pass, max(QUAD_ABS_TOL, QUAD_REL_TOL *
# |integral|): the front equations and the Psi kernels share it.
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-13

# Stopping rule of the root solve: |g(x) - target| <= ROOT_ABS_TOL and
# bracket width <= ROOT_REL_TOL * x, within ROOT_MAX_ITER iterations.
ROOT_ABS_TOL = 1e-10
ROOT_REL_TOL = 1e-12
ROOT_MAX_ITER = 200


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


# Dawson's integral F(x) = integral_0^x D(z) dz, D = scipy.special.dawsn.
# Below _F_FAR it is the table value at the knot j / _F_KNOTS_PER_UNIT
# below x plus one 3-node Gauss-Legendre panel from that knot to x; at and
# above _F_FAR it is the large-x series (dawson_integral).
_F_KNOTS_PER_UNIT = 128
_F_FAR = 10.0
# Gauss-Legendre 3-point rule on [-1, 1]: nodes -a, 0, a with weights 5/9,
# 8/9, 5/9, a = sqrt(3/5).
_GL3_NODE = 0.7745966692414833770358531
_GL3_WEIGHT = 0.5555555555555555555555556
_GL3_CENTER_WEIGHT = 0.8888888888888888888888889
_GL3_NODES = np.array([-_GL3_NODE, 0.0, _GL3_NODE])
_GL3_WEIGHTS = np.array([_GL3_WEIGHT, _GL3_CENTER_WEIGHT, _GL3_WEIGHT])
# lim (F(x) - ln(x) / 2) = gamma/4 + ln(2)/2, and the series coefficients
# (2k-1)!! / (2^{k+2} k), k = 1..13, of x^{-2k} in F(x) - ln(x)/2 - that limit.
_F_FAR_CONST = 0.49087750650535587
_F_FAR_COEFFS = tuple(
    math.prod(range(1, 2 * k, 2)) / (2.0 ** (k + 2) * k) for k in range(1, 14)
)


def _dawson_integral_table() -> tuple[np.ndarray, list[float]]:
    """F at the knots j / _F_KNOTS_PER_UNIT, j = 0 .. _F_FAR * _F_KNOTS_PER_UNIT.

    Each knot interval is integrated by the 3-node rule on four
    sub-panels.  The running sum is compensated (Neumaier), so each knot
    value carries about one rounding, not one per interval below it.
    """
    knots = int(_F_FAR) * _F_KNOTS_PER_UNIT
    half = 0.125 / _F_KNOTS_PER_UNIT
    mids = (np.arange(4 * knots) + 0.5) * (2.0 * half)
    values = dawsn(mids[:, None] + half * _GL3_NODES) @ (half * _GL3_WEIGHTS)
    table = [0.0]
    total = carry = 0.0
    for panel in values.reshape(knots, 4).sum(axis=1).tolist():
        new = total + panel
        carry += (total - new) + panel if total >= panel else (panel - new) + total
        total = new
        table.append(total + carry)
    return np.array(table), table


# The table as a list too, so that the scalar path stays in Python floats.
_F_TABLE, _F_TABLE_LIST = _dawson_integral_table()


def _dawson_integral_far(x):
    """ln(x)/2 + gamma/4 + ln(2)/2 - sum_k (2k-1)!! / (2^{k+2} k x^{2k}), float or array."""
    # 1/x squared, not 1/x^2: x^2 overflows above 1.3e154.
    u = 1.0 / x
    u = u * u
    tail = 0.0
    for c in reversed(_F_FAR_COEFFS):
        tail = (tail + c) * u
    return 0.5 * (np.log(x) if isinstance(x, np.ndarray) else math.log(x)) + _F_FAR_CONST - tail


def _dawson_integral_near(x: np.ndarray) -> np.ndarray:
    """F on an array of x in [0, _F_FAR): table value plus one 3-node panel."""
    j = (x * _F_KNOTS_PER_UNIT).astype(np.intp)
    knot = j * (1.0 / _F_KNOTS_PER_UNIT)
    half = 0.5 * (x - knot)
    mid = knot + half
    step = half * _GL3_NODE
    total = dawsn(mid + step)
    total += dawsn(np.subtract(mid, step, out=step))
    center = dawsn(mid)
    center *= _GL3_CENTER_WEIGHT / _GL3_WEIGHT
    total += center
    half *= _GL3_WEIGHT
    total *= half
    total += _F_TABLE[j]
    return total


def dawson_integral(x):
    """F(x) = integral_0^x D(z) dz of Dawson's function D, for x >= 0.

    Pointwise: each x is evaluated on its own, by a fixed rule, with no
    subdivision and no cap.  Below _F_FAR = 10, F is a table value at the
    knot j/128 below x (built at import) plus one 3-node Gauss-Legendre
    panel over [j/128, x].  At and above it, the large-x series

        F(x) = ln(x)/2 + gamma/4 + ln(2)/2 - sum_{k=1}^{13} (2k-1)!! / (2^{k+2} k x^{2k}),

    whose truncation error is below 2e-20 of F (docs/errata.md, "Scaled
    form").  Agrees with mpmath to 1e-14 relative on [1e-8, 1e4].

    Args:
        x: A float, or an array of floats, each >= 0.

    Returns:
        F(x): a float for a float, an array of x's shape for an array.
    """
    if not isinstance(x, np.ndarray):
        if x >= _F_FAR:
            return _dawson_integral_far(x)
        j = int(x * _F_KNOTS_PER_UNIT)
        knot = j * (1.0 / _F_KNOTS_PER_UNIT)
        half = 0.5 * (x - knot)
        values = dawsn((knot + half) + half * _GL3_NODES)
        return _F_TABLE_LIST[j] + half * float(values @ _GL3_WEIGHTS)
    far = x >= _F_FAR
    if not far.any():
        return _dawson_integral_near(x)
    out = np.empty_like(x, dtype=float)
    out[~far] = _dawson_integral_near(x[~far])
    out[far] = _dawson_integral_far(x[far])
    return out


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
    f: Callable, a: np.ndarray, b: np.ndarray, total_len: float
) -> np.ndarray:
    """Integrals of f over the segments [a[i], b[i]] (positive lengths
    summing to total_len), in one breadth-first pass over all of them.

    Each round applies the Gauss-Kronrod pair to every active panel,
    accepts the panels whose discrepancy is within their share of the
    budget max(QUAD_ABS_TOL, QUAD_REL_TOL * |running total|), shared in
    proportion to panel length, and bisects the rest.  All active panels of
    a round have the same depth, so the round counter is the depth.
    """
    n = a.size
    seg = np.arange(n)
    sums = np.zeros(n)
    depth = 0
    while True:
        f, vals, errs = _gk_panels(f, a, b)
        budget = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(float(sums.sum() + vals.sum())))
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


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Adaptive integral of f over [a, b].

    The first panel is the whole interval, evaluated on Python floats with
    one call of f on its 15 nodes; if its Gauss/Kronrod discrepancy is
    within max(QUAD_ABS_TOL, QUAD_REL_TOL * |value|), that value is the
    result, equal to the bit to what _integrate_segments would return.
    Otherwise the interval goes to _integrate_segments, which evaluates
    that panel again: panels whose discrepancy exceeds their share of the
    error budget (allocated proportionally to panel length) are bisected,
    breadth first, until every panel is accepted.  The final estimated
    error is at most max(QUAD_ABS_TOL, QUAD_REL_TOL * |result|).

    Args:
        f: Integrand.  Preferably accepts numpy arrays; scalar-only
            callables are wrapped transparently at a modest speed cost.
        a: Lower limit.
        b: Upper limit (a <= b for the usual orientation; a > b negates).

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
    half = 0.5 * (b - a)
    f, fx = _call_vectorized(f, 0.5 * (a + b) + half * _NODES)
    if not np.isfinite(fx).all():
        raise InvalidInput("integrand returned a non-finite value")
    vk, vg = half * float(fx @ _WK), half * float(fx @ _WG)
    # The budget and its share (panel length over segment length) are
    # formed as _integrate_segments forms them, whose running total starts
    # at 0.0: a -0.0 panel sums to 0.0 there too.
    total = 0.0 + vk
    if abs(vk - vg) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)) * (b - a) / (b - a):
        return sign * total
    return sign * float(_integrate_segments(f, np.array([a]), np.array([b]), b - a)[0])


def integrate_cumulative(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """Cumulative integrals of f from points[0] to every point.

    All segments between consecutive points are integrated in one batched
    adaptive pass and then prefix-summed, so the values at neighboring
    points share their quadrature history exactly.  That property matters
    when the caller finite-differences the result: independent adaptive
    calls would carry independently rounded errors that do not cancel.
    The budget max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral over all
    points|) is shared across segments by length, as in integrate.

    Args:
        f: Integrand (see integrate for the vectorization contract).
        points: Ascending 1-D array of evaluation points (ties allowed).

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
        seg_vals[live] = _integrate_segments(f, pts[:-1][live], pts[1:][live], total_len)
    out = np.empty(pts.size)
    out[0] = 0.0
    np.cumsum(seg_vals, out=out[1:])
    return out


def find_root_increasing(
    log_ratio: Callable[[float], float], target: float, lo: float, hi: float
) -> float:
    """Solve g(x) = target for positive increasing g on the bracket [lo, hi], in logs.

    The iteration runs on f(x) = log_ratio(x) = ln(g(x) / target), so g
    itself, which may lie far past the largest double, is never formed.
    One sign test, f(lo) <= 0 <= f(hi), which a NaN fails, checks the
    bracket.  A Brent-Dekker iteration then contracts it: inverse quadratic
    interpolation or a secant step where it lands well inside the bracket,
    bisection otherwise (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  Every iterate keeps a sign change of f
    between the two bracket ends, so the bracket stays a proof that the
    root lies inside it.

    ROOT_ABS_TOL bounds g itself: the iteration stops once
    |g(x) - target| = target |expm1(f(x))| <= ROOT_ABS_TOL and the bracket
    width is <= ROOT_REL_TOL * x, or once the bracket collapses to adjacent
    doubles, at its end with the smaller residual; f must be exact enough to
    tell adjacent doubles apart.

    Args:
        log_ratio: f = ln(g / target), for g strictly increasing and
            positive on [lo, hi].
        target: Right-hand side value to match, finite and > 0.
        lo: Lower end of the bracket, finite and > 0.
        hi: Upper end of the bracket, finite and > lo.

    Returns:
        The root x*.

    Raises:
        InvalidInput: The bracket is not finite with 0 < lo < hi, or the
            target is not finite and > 0.
        NotBracketed: f(lo) <= 0 <= f(hi) does not hold.
        NonConvergence: ROOT_MAX_ITER iterations did not meet the stop.
    """
    if not (0.0 < lo < hi and math.isfinite(hi) and 0.0 < target < math.inf):
        raise InvalidInput(f"find_root_increasing requires finite 0 < lo < hi and "
                           f"target > 0, got [{lo}, {hi}] and {target}")
    flo = log_ratio(lo)
    fhi = log_ratio(hi)
    # Written so that NaN fails it too.
    if not (flo <= 0.0 <= fhi):
        raise NotBracketed(f"ln(g / target) is {flo:.6e} at {lo!r} and {fhi:.6e} at "
                           f"{hi!r}: the bracket does not straddle target {target:.6e}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # Residuals f = ln(g / target).  b is the bracket end with the smaller
    # residual, c the other end (f(b) and f(c) differ in sign), and a the
    # previous b, the third point of the interpolation.  step is the last
    # step taken and prev_step the one before it.
    a, fa = lo, flo
    b, fb = hi, fhi
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(ROOT_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        met = target * abs(math.expm1(fb)) <= ROOT_ABS_TOL
        if fb == 0.0 or (met and abs(c - b) <= ROOT_REL_TOL * abs(b)) or b + half in (b, c):
            return b
        # Smallest step: half the width tolerance once the residual meets
        # ROOT_ABS_TOL, a couple of ulps while it does not, so that a steep g
        # still converges down to the resolution of a double.
        width_share = 0.5 * ROOT_REL_TOL if met else 0.0
        min_step = max(width_share, 2.0 * _EPS) * abs(b)
        if abs(half) > min_step and abs(prev_step) >= min_step and abs(fa) > abs(fb):
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
        fb = log_ratio(b)
    raise NonConvergence(
        f"find_root_increasing: no root to tolerance within {ROOT_MAX_ITER} iterations"
    )
