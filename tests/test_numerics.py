"""Tests for the numerics layer: erf, adaptive quadrature, root finding.

Expected values come from independent oracles implemented inside this
module (Taylor series, Richardson-extrapolated trapezoid sums, plain
bisection) and are frozen as literals where they pin library behavior.
"""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from stefansim.errors import (
    InvalidInput,
    MaxSubdivisionsExceeded,
    NotBracketed,
)
from stefansim import numerics
from stefansim.numerics import (
    MIN_PANEL_CAP,
    PANELS_PER_SEGMENT,
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

    def test_steep_integrand(self, monkeypatch):
        # Near-singular peak; adaptive subdivision must resolve it.  The
        # antiderivative of 1/sqrt(|z-c|+s) is elementary, so the
        # reference value is exact.  At a 1e-13 budget the peak outgrows
        # the active-panel cap, so the pass runs at 1e-10 / 1e-12.
        monkeypatch.setattr(numerics, "QUAD_ABS_TOL", 1e-10)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1e-12)
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

    def test_zero_length_segments(self):
        points = np.array([0.0, 0.0, 0.5, 0.5, 1.0])
        out = integrate_cumulative(np.exp, points)
        np.testing.assert_allclose(out, np.expm1(points), rtol=1e-14, atol=0)
        assert integrate_cumulative(np.exp, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_relative_budget_on_large_integral(self, monkeypatch):
        # The integral is 7.35e9, so an absolute budget of 1e-13 alone is
        # out of reach; the relative term makes it a 1 ms pass.
        monkeypatch.setattr(numerics, "QUAD_ABS_TOL", 1e-13)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1e-13)
        out = run_limited(
            "integrate_cumulative(lambda z: np.exp(z * z), np.linspace(0.0, 5.0, 11))[-1]",
            quad_tol=(1e-13, 1e-13),
        )
        assert out["error"] is None and out["seconds"] < 1.0
        want = integrate(lambda z: np.exp(z * z), 0.0, 5.0)
        assert out["value"] == pytest.approx(want, rel=1e-13)

    def test_scalar_only_integrand(self):
        cum = integrate_cumulative(math.exp, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(cum, [0.0, math.expm1(0.5), math.expm1(1.0)], rtol=1e-13)


# Address-space limit of the child interpreters below: a quadrature pass
# that grows without bound hits it as MemoryError instead of exhausting
# the host.
CHILD_ADDRESS_LIMIT = 1 << 30


def run_limited(call: str, quad_tol: tuple[float, float]) -> dict:
    """Evaluate call in a child interpreter under CHILD_ADDRESS_LIMIT, with
    the quadrature budget (QUAD_ABS_TOL, QUAD_REL_TOL) set to quad_tol.

    Returns {"value": float or None, "error": exception name or None,
    "seconds": wall time of the call alone}.
    """
    script = textwrap.dedent(
        f"""
        import json, resource, time
        resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_LIMIT}, {CHILD_ADDRESS_LIMIT}))
        import numpy as np
        from stefansim import numerics
        from stefansim.numerics import integrate, integrate_cumulative
        numerics.QUAD_ABS_TOL, numerics.QUAD_REL_TOL = {quad_tol!r}
        out = {{"value": None, "error": None}}
        start = time.perf_counter()
        try:
            out["value"] = float({call})
        except Exception as exc:
            out["error"] = type(exc).__name__
        out["seconds"] = time.perf_counter() - start
        print(json.dumps(out))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestBoundedPass:
    # A budget no panel can meet doubles the active panels every round, so
    # without the active-panel cap a pass exhausts memory long before
    # MAX_SUBDIVISION_DEPTH.
    UNREACHABLE = (1e-300, 1e-300)

    @pytest.mark.parametrize(
        "call",
        [
            "integrate(lambda z: np.exp(z * z), 0.0, 5.0)",
            "integrate_cumulative(lambda z: np.exp(z * z), np.linspace(0.0, 5.0, 11))[-1]",
        ],
    )
    def test_unreachable_budget_raises_quickly(self, call):
        out = run_limited(call, quad_tol=self.UNREACHABLE)
        assert out["error"] == MaxSubdivisionsExceeded.__name__
        assert out["seconds"] < 1.0

    def test_cap_scales_with_segment_count(self, monkeypatch):
        # Nearly every one of the 20000 segments holds 2.5 periods and is
        # bisected twice, so the third round holds ~80000 active panels:
        # past MIN_PANEL_CAP, inside PANELS_PER_SEGMENT per segment.
        monkeypatch.setattr(numerics, "QUAD_ABS_TOL", 1e-10)
        monkeypatch.setattr(numerics, "QUAD_REL_TOL", 1e-10)
        n = 20_000
        w = 16.0 * n
        out = integrate_cumulative(lambda z: np.cos(w * z), np.linspace(0.0, 1.0, n + 1))
        assert 4 * n > MIN_PANEL_CAP and 4 <= PANELS_PER_SEGMENT
        assert out[-1] == pytest.approx(math.sin(w) / w, abs=1e-13)


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
    """find_root_increasing takes ln(g / target) and solves g(x) = target."""

    def test_classical_front_coefficient(self):
        g = lambda x: math.sqrt(math.pi) * x * math.erf(x) * math.exp(x * x)
        want = bisect_oracle(g, 1.0, 0.1, 1.0)
        assert want == pytest.approx(CLASSICAL_LAM, abs=1e-12)
        got = find_root_increasing(lambda x: math.log(g(x)), 1.0, 1e-8, 1.0)
        assert got == pytest.approx(CLASSICAL_LAM, abs=1e-10)

    def test_not_bracketed_below(self):
        with pytest.raises(NotBracketed):
            find_root_increasing(lambda x: math.log((x + 1.0) / 0.5), 0.5, 1.0, 2.0)

    def test_not_bracketed_above(self):
        # The bracket is taken as given: no end moves to find the root.
        calls = []

        def log_ratio(x):
            calls.append(x)
            return math.log(x * x / 100.0)

        with pytest.raises(NotBracketed):
            find_root_increasing(log_ratio, 100.0, 1e-3, 1.0)
        assert calls == [1e-3, 1.0]

    @pytest.mark.parametrize("nan_at", ["lo", "hi"])
    def test_nan_end_fails_sign_test(self, nan_at):
        lo, hi = 0.5, 2.0
        bad = lo if nan_at == "lo" else hi
        with pytest.raises(NotBracketed):
            find_root_increasing(lambda x: math.nan if x == bad else math.log(x), 1.0, lo, hi)

    def test_residual_tolerance_honored(self, monkeypatch):
        # ROOT_ABS_TOL bounds g - target itself, not the log residual.
        monkeypatch.setattr(numerics, "ROOT_ABS_TOL", 1e-12)
        monkeypatch.setattr(numerics, "ROOT_REL_TOL", 1e-14)
        monkeypatch.setattr(numerics, "ROOT_MAX_ITER", 500)
        g = lambda x: x**3
        root = find_root_increasing(lambda x: 3.0 * math.log(x / 2.0), 8.0, 0.5, 4.0)
        assert abs(g(root) - 8.0) <= 1e-12

    def test_classical_evaluation_budget(self):
        # Bisection needs ~43 evaluations from this seed; interpolation far fewer.
        calls = []

        def log_ratio(x):
            calls.append(x)
            return 0.5 * math.log(math.pi) + math.log(x) + math.log(math.erf(x)) + x * x

        got = find_root_increasing(log_ratio, 1.0, 1e-8, 1.0)
        assert got == pytest.approx(CLASSICAL_LAM, rel=1e-12)
        assert len(calls) <= 20

    def test_steep_function_resolved_to_ulps(self):
        # Near the root g' = 1e13, so no double meets the residual tolerance;
        # the bracket must collapse to adjacent doubles instead.
        got = find_root_increasing(lambda x: x - math.log(10.0), 1e13, 1e-8, 4.0)
        assert abs(got - math.log(10.0)) <= 4.0 * math.ulp(math.log(10.0))

    def test_g_past_the_largest_double(self):
        # g = e^{x^2} 1e-10 reaches 1e300 at x^2 ~ 713.8, where e^{x^2} is
        # no double; in logs the root is an ordinary solve.
        log_scale = math.log(1e-10) - math.log(1e300)
        got = find_root_increasing(lambda x: x * x + log_scale, 1e300, 1e-8, 32.0)
        assert got == pytest.approx(math.sqrt(math.log(1e300) + math.log(1e10)), rel=1e-12)

    @pytest.mark.parametrize("target", [0.5, 1.0])
    def test_exact_hit_at_bracket_end(self, target):
        assert find_root_increasing(lambda x: math.log(x / target), target, 0.5, 1.0) == target


class TestValidation:
    def test_bracket_requires_order(self):
        with pytest.raises(InvalidInput):
            find_root_increasing(math.log, 0.5, 2.0, 1.0)
        with pytest.raises(InvalidInput):
            find_root_increasing(math.log, 0.5, math.nan, 1.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.inf, math.nan])
    def test_target_must_be_positive(self, target):
        with pytest.raises(InvalidInput):
            find_root_increasing(math.log, target, 0.5, 1.0)
