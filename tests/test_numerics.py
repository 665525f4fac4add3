"""Tests for the numerics layer: erf, adaptive quadrature, root finding.

Expected values come from independent oracles implemented inside this
module (Taylor series, Richardson-extrapolated trapezoid sums, plain
bisection) and are frozen as literals where they pin library behavior.
"""

import math

import numpy as np
import pytest

from stefansim.errors import (
    BracketExpansionFailed,
    InvalidInput,
    NotBracketed,
)
from stefansim.numerics import (
    Bracket,
    Tolerance,
    erf,
    find_root_increasing,
    integrate,
    integrate_cumulative,
)

# Frozen oracle values (computed by the reference routines below, then
# pinned so regressions cannot drift them).
ERF_ONE = 0.8427007929497149
INT_EXP_SQ_01 = 1.4626517459071815  # integral of e^(z^2) on [0, 1]
CLASSICAL_LAM = 0.6200626333135928  # root of sqrt(pi) x erf(x) e^(x^2) = 1


def erf_taylor(x: float, terms: int = 40) -> float:
    """Reference erf by Maclaurin series; accurate near the origin."""
    total = 0.0
    term = x
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def trapezoid_richardson(f, a: float, b: float, levels: int = 18) -> float:
    """Reference integral by trapezoid sums + one Richardson sweep."""
    estimates = []
    for lvl in range(8, levels):
        n = 2**lvl
        xs = np.linspace(a, b, n + 1)
        estimates.append(np.trapezoid(f(xs), xs))
    # One extrapolation sweep removes the h^2 term.
    return (4.0 * estimates[-1] - estimates[-2]) / 3.0


class TestErf:
    def test_matches_taylor_series(self):
        for x in (0.0, 0.1, 0.5, 1.0, 1.5):
            assert erf(x) == pytest.approx(erf_taylor(x), abs=1e-14)

    def test_frozen_value(self):
        assert erf(1.0) == pytest.approx(ERF_ONE, abs=1e-15)

    def test_array_and_scalar_paths_agree(self):
        xs = np.array([0.0, 0.3, 1.2, 2.5])
        np.testing.assert_allclose(erf(xs), [erf(float(x)) for x in xs], rtol=0, atol=0)

    def test_odd_function(self):
        assert erf(-0.7) == -erf(0.7)


class TestIntegrate:
    def test_exp_square_frozen(self):
        val = integrate(lambda z: np.exp(z * z), 0.0, 1.0)
        assert val == pytest.approx(INT_EXP_SQ_01, abs=1e-13)

    def test_against_richardson_oracle(self):
        f = lambda z: np.exp(-z * z) * np.cos(3.0 * z)
        want = trapezoid_richardson(lambda z: np.exp(-z * z) * np.cos(3.0 * z), 0.0, 2.0)
        assert integrate(f, 0.0, 2.0) == pytest.approx(want, abs=1e-9)

    def test_polynomial_exact(self):
        # Degree 7 is inside the Gauss component's exactness range.
        val = integrate(lambda z: 7.0 * z**6, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_additivity(self):
        f = lambda z: np.exp(z * z)
        whole = integrate(f, 0.0, 2.0)
        split = integrate(f, 0.0, 0.7) + integrate(f, 0.7, 2.0)
        assert whole == pytest.approx(split, rel=1e-13)

    def test_orientation_antisymmetry(self):
        f = lambda z: z**3 - z
        assert integrate(f, 1.0, 0.0) == pytest.approx(-integrate(f, 0.0, 1.0), rel=1e-14)

    def test_zero_width(self):
        assert integrate(lambda z: np.exp(z), 0.5, 0.5) == 0.0

    def test_steep_integrand(self):
        # Near-singular peak; adaptive subdivision must resolve it.  The
        # antiderivative of 1/sqrt(|z-c|+s) is elementary, so the
        # reference value is exact.
        c, s = 0.3, 1e-8
        f = lambda z: 1.0 / np.sqrt(np.abs(z - c) + s)
        want = 2.0 * (math.sqrt(1.0 - c + s) - math.sqrt(s)) + 2.0 * (
            math.sqrt(c + s) - math.sqrt(s)
        )
        assert integrate(f, 0.0, 1.0) == pytest.approx(want, rel=1e-9)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(InvalidInput):
            integrate(lambda z: np.where(z > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(InvalidInput):
            integrate(lambda z: z, 0.0, math.inf)


class TestIntegrateCumulative:
    def test_matches_individual_segments(self):
        f = lambda z: np.exp(z * z) * np.cos(z)
        points = np.array([0.0, 0.2, 0.5, 1.1, 1.7])
        cum = integrate_cumulative(f, points)
        assert cum[0] == 0.0
        for i in range(1, len(points)):
            assert cum[i] == pytest.approx(
                integrate(f, 0.0, float(points[i])), rel=1e-12, abs=1e-13
            )

    def test_requires_ascending_points(self):
        with pytest.raises(InvalidInput):
            integrate_cumulative(np.exp, np.array([0.0, 1.0, 0.5]))

    def test_single_point(self):
        out = integrate_cumulative(np.exp, np.array([0.3]))
        assert out.shape == (1,) and out[0] == 0.0


def bisect_oracle(g, target, lo, hi, iters=200):
    """Plain bisection reference, independent of the library routine."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFindRootIncreasing:
    def test_classical_front_coefficient(self):
        g = lambda x: math.sqrt(math.pi) * x * math.erf(x) * math.exp(x * x)
        want = bisect_oracle(g, 1.0, 0.1, 1.0)
        assert want == pytest.approx(CLASSICAL_LAM, abs=1e-12)
        got = find_root_increasing(g, 1.0, Bracket(1e-8, 1.0))
        assert got == pytest.approx(CLASSICAL_LAM, abs=1e-10)

    def test_expands_bracket_upward(self):
        got = find_root_increasing(lambda x: x * x, 100.0, Bracket(1e-3, 1.0))
        assert got == pytest.approx(10.0, rel=1e-10)

    def test_shrinks_bracket_downward(self):
        got = find_root_increasing(lambda x: x, 1e-6, Bracket(1.0, 2.0))
        assert got == pytest.approx(1e-6, rel=1e-9)

    def test_not_bracketed_below(self):
        with pytest.raises(NotBracketed):
            find_root_increasing(lambda x: x + 1.0, 0.5, Bracket(1.0, 2.0))

    def test_expansion_cap(self):
        with pytest.raises(BracketExpansionFailed):
            find_root_increasing(math.atan, 2.0, Bracket(0.5, 1.0))

    def test_residual_tolerance_honored(self):
        g = lambda x: x**3
        tol = Tolerance(abs_tol=1e-12, rel_tol=1e-14, max_iter=500)
        root = find_root_increasing(g, 8.0, Bracket(0.5, 4.0), tol)
        assert abs(g(root) - 8.0) <= 1e-12


class TestValidation:
    def test_tolerance_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            Tolerance(abs_tol=0.0)
        with pytest.raises(InvalidInput):
            Tolerance(rel_tol=-1e-9)
        with pytest.raises(InvalidInput):
            Tolerance(max_iter=0)

    def test_bracket_requires_order(self):
        with pytest.raises(InvalidInput):
            Bracket(2.0, 1.0)
        with pytest.raises(InvalidInput):
            Bracket(math.nan, 1.0)
