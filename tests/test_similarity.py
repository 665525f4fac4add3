"""Tests for the similarity layer: front equations, profiles, inverses.

Frozen reference values were produced by independent routes (bisection
oracles in test_numerics, closed-form classical solution) and pinned.
Property-style tests draw seeded random parameters instead of fixed
grids so the whole admissible region gets sampled over time without
flaky randomness.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import dawsn

from stefansim.checks import LAMBDA_RESIDUAL_TOL, run_checks
from stefansim.errors import InvalidInput, OutOfRange
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim import similarity
from stefansim.numerics import erf, find_root_increasing, integrate_cumulative
from stefansim.oracle import OracleConfig
from stefansim.reconstruct import similarity_coordinate, temperature
from stefansim.similarity import (
    SimilaritySolution,
    _phi_inverse_many,
    _phi_inverse_newton,
    _phi_inverse_p1,
    phi_map,
    solve_lambda,
    solve_problem,
    source_model,
    y_from_psi,
)

CLASSICAL_LAM = 0.6200626333135928  # nosource, Ste = 1 (delta-free)
EXP_LAM_111 = 0.6457803612217943  # exponential source, Ste = delta = p = 1
FB_LAM_111_A1 = 0.7819448915151759  # flux feedback, Ste = delta = p = 1, A = 1

UNIT_BD = BoundaryData(theta0=1.0, theta_f=0.0)

# At the dimensionless level the coupling A is passed to source_model;
# lambda0 enters only the physical source field.
FEEDBACK = FluxFeedbackSource(lambda0=0.5)

# A smooth custom source with no closed form in the solver.
CUSTOM_BETA = lambda eta: 0.5 * (1.0 + eta) * np.exp(-eta * eta)

# The exponential source's beta, taken through the quadrature formulas.
HALF_GAUSSIAN = SimilaritySource(lambda eta: 0.5 * np.exp(-eta * eta))
E_SOURCES = [NoSource(), ExponentialSource(), HALF_GAUSSIAN]
E_SOURCE_IDS = ["none", "exponential", "custom"]


def unit_material(ste: float, delta: float, p: float) -> Material:
    return Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / ste, delta=delta, p=p)


def phi_inverse_newton_reference(delta: float, p: float, w: np.ndarray) -> np.ndarray:
    """_phi_inverse_newton as a loop that allocates each iterate, the
    reference for the sweep written in place: the same operations in the
    same order, so the results must be equal to the bit."""
    c = delta / (p + 1.0)
    x = np.minimum(w, 1.0)
    for _ in range(100):
        xp = x**p
        step = (x * (1.0 + c * xp) - w) / (1.0 + delta * xp)
        x = np.clip(x - step, 0.0, 1.0)
        if not np.any(np.abs(step) > 1e-14):
            return x
    raise AssertionError("reference Newton did not converge")


class TestPhi:
    def test_map_and_derivative(self):
        xs = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(
            phi_map(2.0, 3.0, xs), xs + 0.5 * xs**4, rtol=1e-15, atol=0
        )
        # Phi' = 1 + delta x^p, by central differences of Phi.
        h, mid = 1e-6, xs[1:-1]
        slope = (phi_map(2.0, 3.0, mid + h) - phi_map(2.0, 3.0, mid - h)) / (2.0 * h)
        np.testing.assert_allclose(slope, 1.0 + 2.0 * mid**3, rtol=1e-8, atol=0)

    def test_round_trip_random(self):
        # Newton stops once an update moves x by at most 1e-14; it converges
        # quadratically from above, so the x error is far below 1e-13.
        rng = np.random.default_rng(7)
        for _ in range(50):
            delta = float(rng.uniform(0.05, 8.0))
            p = float(rng.uniform(0.3, 4.0))
            x = float(rng.uniform(0.0, 1.0))
            w = phi_map(delta, p, x)
            got = _phi_inverse_many(delta, p, np.array([w]), clamp=True)[0]
            assert got == pytest.approx(x, abs=1e-13)

    @pytest.mark.parametrize("delta", [1e12, 1e30])
    def test_round_trip_where_phi_of_one_dwarfs_phi(self, delta):
        # Phi(1) ~ delta / (p + 1) is far above Phi(y) for most y, so a
        # residual test scaled by Phi(1) would accept y values far from the
        # root; only a stop on the update size holds them to rounding.
        y = np.linspace(0.0, 1.0, 101)
        got = _phi_inverse_many(delta, 20.0, phi_map(delta, 20.0, y), clamp=True)
        np.testing.assert_allclose(got, y, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e6, 1e12, 1e30])
    @pytest.mark.parametrize("p", [0.5, 2.0, 5.0])
    def test_round_trip_at_large_delta(self, p, delta):
        # The same stop at other exponents: a residual test scaled by Phi(1)
        # left errors up to 9e-8 at p = 5, delta = 1e30.
        y = np.linspace(0.0, 1.0, 101)
        got = _phi_inverse_many(delta, p, phi_map(delta, p, y), clamp=True)
        np.testing.assert_allclose(got, y, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e-8, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1e-3, 0.5, 1.0, 1.7, 20.0])
    def test_newton_matches_allocating_reference(self, p, delta):
        top = phi_map(delta, p, 1.0)
        rng = np.random.default_rng(11)
        ws = np.concatenate([[0.0], rng.uniform(0.0, top, 300), [top]])
        for w in (ws, ws[:0], ws[150:151], np.array([0.5 * top, math.nan])):
            got = _phi_inverse_newton(delta, p, w)
            want = phi_inverse_newton_reference(delta, p, w)
            assert np.array_equal(got, want, equal_nan=True)

    def test_quadratic_inverse_matches_generic_at_p1(self):
        for delta in (0.1, 1.0, 5.0):
            top = phi_map(delta, 1.0, 1.0)
            ws = np.linspace(0.0, top, 101)
            quad = _phi_inverse_p1(delta, ws)
            generic = _phi_inverse_newton(delta, 1.0, ws)
            np.testing.assert_allclose(quad, generic, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("delta", [1e100, 1e154, 1.5e154, 1e200, 1e300])
    def test_quadratic_inverse_without_overflow(self, delta):
        # 2 delta w overflows above delta ~ 1.3e154 for w up to Phi(1).
        ws = phi_map(delta, 1.0, np.linspace(0.0, 1.0, 101))
        with np.errstate(all="raise"):
            quad = _phi_inverse_p1(delta, ws)
            generic = _phi_inverse_newton(delta, 1.0, ws)
        np.testing.assert_allclose(quad, generic, rtol=0, atol=1e-12)

    def test_inverse_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            _phi_inverse_many(1.0, 1.0, np.array([2.0]), clamp=True)
        with pytest.raises(OutOfRange):
            _phi_inverse_many(1.0, 1.0, np.array([-1e-3]), clamp=True)

    def test_clamped_inverse_stays_in_unit_interval(self):
        # The p = 1 closed form rounds Phi^{-1}(Phi(1)) to 1 + 2^-52 for
        # about one delta in twenty; the clamped inverse must not.
        rng = np.random.default_rng(3)
        for delta in np.exp(rng.uniform(math.log(0.1), math.log(5.0), 2000)):
            top = np.array([phi_map(float(delta), 1.0, 1.0)])
            assert _phi_inverse_many(float(delta), 1.0, top, clamp=True)[0] <= 1.0
        sol = solve_problem(
            unit_material(1.0, 0.12356865214155405, 1.0), UNIT_BD, ExponentialSource()
        )
        assert sol.y_many([0.0])[0] == 1.0


class TestLambdaEquations:
    def test_classical_frozen(self):
        lam = solve_lambda(source_model(NoSource(), 1.0, 1e-12, 1.0).equation)
        assert lam == pytest.approx(CLASSICAL_LAM, abs=1e-9)

    def test_classical_matches_neumann_form(self):
        # Without a source the delta-dependence sits only in the target,
        # so for delta -> 0 the root solves sqrt(pi) x erf(x) e^{x^2} = Ste.
        for ste in (0.25, 1.0, 3.0):
            lam = solve_lambda(source_model(NoSource(), ste, 1e-13, 2.0).equation)
            lhs = math.sqrt(math.pi) * lam * math.erf(lam) * math.exp(lam * lam)
            assert lhs == pytest.approx(ste * (1.0 + 1e-13 / 3.0), rel=1e-10)

    def test_exponential_frozen(self):
        lam = solve_lambda(source_model(ExponentialSource(), 1.0, 1.0, 1.0).equation)
        assert lam == pytest.approx(EXP_LAM_111, abs=1e-10)

    def test_feedback_frozen(self):
        lam = solve_lambda(source_model(FEEDBACK, 1.0, 1.0, 1.0, 1.0).equation)
        assert lam == pytest.approx(FB_LAM_111_A1, abs=1e-10)

    def test_equation_residual_at_root(self):
        eq = source_model(ExponentialSource(), 2.0, 0.5, 1.5).equation
        lam = solve_lambda(eq)
        assert abs(eq.residual(lam)) <= 1e-10

    @pytest.mark.parametrize("ste", [4e305, 1e306, 1e307])
    @pytest.mark.parametrize("source", E_SOURCES, ids=E_SOURCE_IDS)
    def test_root_near_overflow(self, source, ste):
        # lam^2 lies in (700, 709.78): e^{lam^2} is still a double, so the
        # bracket must close on the root, not on a jump below it.
        eq = source_model(source, ste, 1.0, 1.0).equation
        lam = solve_lambda(eq)
        assert lam * lam > 700.0
        assert abs(eq.residual(lam)) <= LAMBDA_RESIDUAL_TOL
        assert math.isfinite(eq.residual(26.55))

    def test_target_is_phi_at_one(self):
        eq = source_model(NoSource(), 1.0, 3.0, 2.0).equation
        assert eq.target == pytest.approx(phi_map(3.0, 2.0, 1.0), rel=1e-15)

    def test_invalid_groups_rejected(self):
        with pytest.raises(InvalidInput):
            source_model(NoSource(), -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            source_model(FEEDBACK, 1.0, 1.0, 1.0, -0.5)


class TestConsistencyLimits:
    def test_feedback_vanishing_matches_sourceless(self):
        for ste, delta, p in ((0.5, 0.5, 1.0), (1.0, 1.0, 2.0), (2.0, 5.0, 0.5)):
            lam_fb = solve_lambda(source_model(FEEDBACK, ste, delta, p, 1e-10).equation)
            lam_none = solve_lambda(source_model(NoSource(), ste, delta, p).equation)
            assert abs(lam_fb - lam_none) <= 1e-8

    def test_exponential_closed_form_matches_quadrature(self):
        for ste, delta, p in ((0.5, 0.5, 1.0), (1.0, 1.0, 2.0), (5.0, 0.1, 3.0)):
            lam_closed = solve_lambda(source_model(ExponentialSource(), ste, delta, p).equation)
            quadrature = source_model(SimilaritySource(ExponentialSource.beta), ste, delta, p)
            lam_quad = solve_lambda(quadrature.equation)
            assert abs(lam_closed - lam_quad) <= 1e-9

    def test_tiny_beta_matches_sourceless(self):
        beta = lambda eta: 1e-14 * np.exp(-eta * eta)
        lam_small = solve_lambda(source_model(SimilaritySource(beta), 1.0, 1.0, 1.0).equation)
        lam_none = solve_lambda(source_model(NoSource(), 1.0, 1.0, 1.0).equation)
        assert abs(lam_small - lam_none) <= 1e-10


class TestProfiles:
    def test_boundary_values_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ste = float(rng.uniform(0.1, 5.0))
            delta = float(rng.uniform(0.05, 5.0))
            p = float(rng.uniform(0.4, 3.5))
            model = source_model(ExponentialSource(), ste, delta, p)
            lam = solve_lambda(model.equation)
            psi = model.psi(lam)
            assert psi.evaluate_many([0.0])[0] == pytest.approx(
                phi_map(delta, p, 1.0), rel=1e-12
            )
            assert abs(psi.evaluate_many([lam])[0]) <= 1e-8

    def test_profile_strictly_decreasing(self):
        model = source_model(ExponentialSource(), 1.0, 1.0, 0.5)
        lam = solve_lambda(model.equation)
        psi = model.psi(lam)
        etas = np.linspace(0.0, lam, 257)
        vals = psi.evaluate_many(etas)
        assert np.all(np.diff(vals) < 0.0)

    def test_y_profile_endpoints_and_range(self):
        model = source_model(FEEDBACK, 1.0, 1.0, 1.0, 1.0)
        lam = solve_lambda(model.equation)
        etas = np.linspace(0.0, lam, 101)
        y = y_from_psi(model.psi(lam), etas)
        assert y[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(y[-1]) <= 1e-8
        assert np.all(np.diff(y) < 0.0)
        assert np.all((y >= 0.0) & (y <= 1.0))

    def test_classical_profile_matches_erf_form(self):
        model = source_model(NoSource(), 1.0, 1e-12, 1.0)
        lam = solve_lambda(model.equation)
        etas = np.linspace(0.0, lam, 100)
        y = y_from_psi(model.psi(lam), etas)
        want = 1.0 - erf(etas) / math.erf(lam)
        assert np.max(np.abs(y - want)) <= 1e-6

    def test_query_beyond_front_rejected(self):
        model = source_model(ExponentialSource(), 1.0, 1.0, 1.0)
        lam = solve_lambda(model.equation)
        psi = model.psi(lam)
        with pytest.raises(InvalidInput):
            psi.evaluate_many([lam * 1.01])
        with pytest.raises(InvalidInput):
            psi.evaluate_many([-0.01])

    def test_feedback_source_needs_feedback_constructor(self):
        with pytest.raises(InvalidInput):
            source_model(FluxFeedbackSource(lambda0=1.0), 1.0, 1.0, 1.0)
        psi = source_model(FEEDBACK, 1.0, 1.0, 1.0, 1.0).psi(FB_LAM_111_A1)
        assert abs(psi.evaluate_many([FB_LAM_111_A1])[0]) <= 1e-6

    def test_custom_similarity_source(self):
        beta = lambda eta: np.exp(-2.0 * eta * eta)
        model = source_model(SimilaritySource(beta=beta), 1.0, 1.0, 1.0)
        lam = solve_lambda(model.equation)
        psi = model.psi(lam)
        assert abs(psi.evaluate_many([lam])[0]) <= 1e-8

    def test_scalar_only_beta(self):
        # math.exp rejects arrays, so beta is wrapped once by the model.
        material = unit_material(1.0, 1.0, 1.0)
        sol = solve_problem(material, UNIT_BD, SimilaritySource(lambda e: 0.5 * math.exp(-e * e)))
        assert all(r.passed for r in run_checks(sol))
        closed = solve_problem(material, UNIT_BD, ExponentialSource())
        assert abs(sol.lam - closed.lam) <= 1e-12


class TestSlope:
    def test_slope_closed_form_vs_difference(self):
        # Integer p only: for p < 1 the one-sided difference at 0 carries
        # a singular correction term and is tested at the front instead.
        for p in (1.0, 2.0, 3.0):
            lam = solve_lambda(source_model(ExponentialSource(), 1.0, 1.0, p).equation)
            quadrature = source_model(SimilaritySource(ExponentialSource.beta), 1.0, 1.0, p)
            got = quadrature.psi(lam).y_prime0
            h = 1e-6
            etas = np.array([0.0, h, 2.0 * h])
            y = y_from_psi(quadrature.psi(lam), etas)
            fd = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_slope_feedback_form(self):
        model = source_model(FEEDBACK, 1.0, 1.0, 1.0, 1.0)
        lam = solve_lambda(model.equation)
        got = model.psi(lam).y_prime0
        h = 1e-6
        etas = np.array([0.0, h, 2.0 * h])
        y = y_from_psi(model.psi(lam), etas)
        fd = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        assert got == pytest.approx(fd, rel=1e-5)
        assert got < 0.0

    def test_slope_rejects_both_sources(self):
        with pytest.raises(InvalidInput):
            source_model(SimilaritySource(ExponentialSource.beta), 1.0, 1.0, 1.0, 1.0)


class TestSolveProblem:
    def test_assembles_consistent_solution(self):
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, ExponentialSource())
        assert sol.lam == pytest.approx(EXP_LAM_111, abs=1e-9)
        assert abs(sol.lambda_residual()) <= 1e-10
        assert sol.y_many([0.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.y_many([sol.lam])[0] == pytest.approx(0.0, abs=1e-8)
        assert sol.y_prime0 < 0.0

    def test_dispatches_all_sources(self):
        for src in (
            NoSource(),
            ExponentialSource(),
            SimilaritySource(beta=lambda eta: np.exp(-eta * eta)),
            FluxFeedbackSource(lambda0=1.0),
        ):
            sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, src)
            assert sol.lam > 0.0 and abs(sol.lambda_residual()) <= 1e-9

    @pytest.mark.parametrize(
        "source, order",
        [(NoSource(), 2.0), (FEEDBACK, 2.0), (ExponentialSource(), 3.0)],
        ids=["none", "feedback", "exponential"],
    )
    def test_root_below_the_seed(self, source, order):
        # At Ste = 1e-20 the root is about 1e-10.  For small lam the front
        # equations read order * lam^2 / Ste = target (feedback with A = 1).
        ste = 1e-20
        sol = solve_problem(unit_material(ste, 1.0, 1.0), UNIT_BD, source)
        assert sol.lam == pytest.approx(math.sqrt(ste * 1.5 / order), rel=1e-9)
        assert abs(sol.lambda_residual()) <= 1e-10

    def test_y_prime0_closed_form_exponential(self):
        # Exponential: (1 + delta) y'(0) = -(2/Ste) lam (e^{lam^2} + 1).
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, ExponentialSource())
        want = -(2.0 / 1.0) * sol.lam * (math.exp(sol.lam**2) + 1.0) / 2.0
        assert sol.y_prime0 == pytest.approx(want, rel=1e-12)

    def test_solve_exponential_case_helper(self):
        model = source_model(ExponentialSource(), 1.0, 1.0, 1.0)
        lam = solve_lambda(model.equation)
        psi = model.psi(lam)
        y = lambda eta: float(y_from_psi(psi, np.array([eta]))[0])
        assert lam == pytest.approx(EXP_LAM_111, abs=1e-9)
        assert y(0.0) == pytest.approx(1.0, abs=1e-12)
        assert y(lam / 2.0) == pytest.approx(
            float(
                solve_problem(
                    unit_material(1.0, 1.0, 1.0), UNIT_BD, ExponentialSource()
                ).y_many([lam / 2.0])[0]
            ),
            rel=1e-12,
        )

    def test_feedback_quadrature_counts(self, monkeypatch):
        # F is evaluated pointwise (numerics.dawson_integral): neither the
        # front equation nor Psi calls the adaptive quadrature.
        counts = Counter()

        def counted(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)

            return wrapped

        find_root = similarity.find_root_increasing
        monkeypatch.setattr(
            similarity,
            "find_root_increasing",
            lambda g, *args: find_root(counted("root_evals", g), *args),
        )
        for name in ("integrate", "integrate_cumulative"):
            monkeypatch.setattr(similarity, name, counted(name, getattr(similarity, name)))
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, FEEDBACK)
        sol.y_many(np.linspace(0.0, sol.lam, 5))
        assert counts["root_evals"] > 0
        assert counts["integrate"] == counts["integrate_cumulative"] == 0

    def test_feedback_root_past_the_quadrature_cap(self):
        # integrate(dawsn, 0, x) raised MaxSubdivisionsExceeded for x of a
        # few 1e4, so this root (lam ~ 2.3e4) did not solve.
        sol = solve_problem(unit_material(1e10, 1.0, 1.0), UNIT_BD, FEEDBACK)
        eq = sol.model.equation
        assert eq.log_ratio(sol.lam * (1.0 - 1e-10)) < 0.0 < eq.log_ratio(sol.lam * (1.0 + 1e-10))
        psi = sol.psi.evaluate_many(np.array([0.0, sol.lam]))
        assert psi[0] == pytest.approx(eq.target, rel=1e-14)
        assert abs(psi[1]) <= 1e-10

    def test_custom_beta_front_integral_once(self, monkeypatch):
        # psi(lam) takes Ibe(lam) once and derives both the profile's front
        # term and y'(0) from it.
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, SimilaritySource(CUSTOM_BETA))
        limits = []
        integrate = similarity.integrate

        def counted(f, *args):
            limits.append(args)
            return integrate(f, *args)

        monkeypatch.setattr(similarity, "integrate", counted)
        sol.model.psi(sol.lam)
        assert limits == [(0.0, sol.lam)]


class TestScalingLaws:
    def test_lambda_increases_with_ste(self):
        lams = [
            solve_lambda(source_model(ExponentialSource(), ste, 1.0, 1.0).equation)
            for ste in (0.1, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_lambda_increases_with_delta_sourceless(self):
        lams = [
            solve_lambda(source_model(NoSource(), 1.0, d, 1.0).equation)
            for d in (0.1, 1.0, 10.0)
        ]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_lambda_increases_with_feedback(self):
        lams = [
            solve_lambda(source_model(FEEDBACK, 1.0, 1.0, 1.0, A).equation)
            for A in (0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(lams, lams[1:]))


class TestStoredFacts:
    """A solution stores its problem and lam; groups, model and Psi follow."""

    SOURCES = (NoSource(), ExponentialSource(), SimilaritySource(CUSTOM_BETA), FEEDBACK)

    def test_init_fields_are_problem_and_lam(self):
        init = [f.name for f in dataclasses.fields(SimilaritySolution) if f.init]
        assert init == ["material", "boundary", "source", "lam"]

    def test_derived_fields_are_model_and_psi(self):
        derived = [f.name for f in dataclasses.fields(SimilaritySolution) if not f.init]
        assert derived == ["model", "psi"]

    @pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.kind)
    def test_replaced_lam_rebuilds_profile(self, source):
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, source)
        x = sol.lam - 0.05
        moved = dataclasses.replace(sol, lam=x)
        assert moved.psi.lam == x
        assert moved.y_prime0 == sol.model.psi(x).y_prime0
        failed = {r.name for r in run_checks(moved) if not r.passed}
        assert {"lambda_residual", "front_value"} <= failed

    def test_replaced_material_rebuilds_groups(self):
        sol = solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, FEEDBACK)
        material = Material(rho=2.0, c0=3.0, k0=5.0, latent_heat=0.5, delta=2.0, p=1.5)
        moved = dataclasses.replace(sol, material=material)
        want = similarity.problem_model(material, UNIT_BD, FEEDBACK)
        got = moved.model
        assert (got.ste, got.delta, got.p, got.feedback) == (want.ste, 2.0, 1.5, want.feedback)
        # Ste = c0 / latent_heat and A = 2 lambda0 / (rho c0 a), a = sqrt(k0 / (rho c0)).
        assert material.a == math.sqrt(5.0 / 6.0)
        assert (got.ste, got.feedback) == (6.0, 1.0 / (6.0 * material.a))
        assert similarity_coordinate(moved, 1.0, 1.0) == 1.0 / (2.0 * material.a)


class TestHeatSource:
    """heat_source on the oracle's (3, m) eta with columns of times and face gradients."""

    SOURCES = (NoSource(), ExponentialSource(), SimilaritySource(CUSTOM_BETA), FEEDBACK)

    @pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.kind)
    def test_rows_equal_row_calls(self, source):
        material = unit_material(1.3, 2.0, 1.7)
        model = similarity.problem_model(material, UNIT_BD, source)
        eta = np.random.default_rng(2).uniform(0.0, 1.0, (3, 62))
        t = np.array([[0.3], [0.3], [0.25]])
        face = np.array([[-1.1], [-1.2], [-1.3]])
        got = model.heat_source(material, eta, t, face)
        assert got.shape == eta.shape
        for i in range(3):
            want = model.heat_source(material, eta[i], float(t[i, 0]), float(face[i, 0]))
            assert got[i].tobytes() == want.tobytes()

    def test_beta_is_called_on_flat_arrays(self):
        # A beta that iterates over its argument sees the (3, m) eta as one
        # flat array of numbers, as the quadrature passes it.
        material = unit_material(1.3, 2.0, 1.7)
        beta = lambda eta: np.array([0.5 * (1.0 + x) * math.exp(-x * x) for x in eta])
        model = similarity.problem_model(material, UNIT_BD, SimilaritySource(beta))
        array_native = similarity.problem_model(material, UNIT_BD, SimilaritySource(CUSTOM_BETA))
        eta = np.random.default_rng(2).uniform(0.0, 1.0, (3, 62))
        t = np.array([[0.3], [0.3], [0.25]])
        got = model.heat_source(material, eta, t, 1.0)
        assert got.shape == eta.shape
        want = array_native.heat_source(material, eta, t, 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.kind)
    def test_uniform_source_ignores_eta(self, source):
        # A uniform source is H = dtheta/dx(0, t) heat_source(..., t, 1) at
        # every eta, which the oracle takes as one scalar per time.
        material = unit_material(1.3, 2.0, 1.7)
        model = similarity.problem_model(material, UNIT_BD, source)
        assert model.uniform == (source.kind in ("none", "feedback"))
        eta = np.linspace(0.0, 2.0, 9)
        got = model.heat_source(material, eta, 0.4, -0.7)
        if model.uniform:
            unit = model.heat_source(material, np.zeros(1), 0.4, 1.0)[0]
            np.testing.assert_array_equal(got, np.full(9, -0.7 * unit))
        else:
            assert np.unique(got).size == 9


class TestFrontEquationIncreases:
    """A sampled check, not a proof, that each front equation's left-hand
    side increases strictly, which makes lam its unique root."""

    SOURCES = [
        (NoSource(), None),
        (ExponentialSource(), None),
        (SimilaritySource(CUSTOM_BETA), None),
        (FEEDBACK, 1e-4),
        (FEEDBACK, 1.0),
        (FEEDBACK, 1e6),
    ]

    @pytest.mark.parametrize(
        "source, feedback", SOURCES, ids=["none", "exponential", "custom", "A1e-4", "A1", "A1e6"]
    )
    def test_strictly_increasing_on_samples(self, source, feedback):
        xs = np.geomspace(1e-6, 8.0, 200)
        for delta in (1e-3, 1.0, 1e3):
            for p in (1e-3, 1.0, 20.0):
                log_ratio = source_model(source, 1.0, delta, p, feedback).equation.log_ratio
                values = np.array([log_ratio(float(x)) for x in xs])
                assert np.all(np.diff(values) > 0.0), (delta, p)


def _unit_solution():
    return solve_problem(unit_material(1.0, 1.0, 1.0), UNIT_BD, ExponentialSource())


def _unit_psi(source, lam):
    return source_model(source, 1.0, 1.0, 1.0).psi(lam)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: phi_map(1.0, 1.0, -0.5), InvalidInput),
        (lambda: source_model(object(), 1.0, 1.0, 1.0), InvalidInput),
        (lambda: _unit_solution().y_many(np.array([])).shape, (0,)),
        (lambda: similarity_coordinate(_unit_solution(), 0.1, 0.0), InvalidInput),
        (lambda: BoundaryData(theta0=math.nan, theta_f=0.0), InvalidInput),
        (lambda: find_root_increasing(lambda x: x, 0.5, 0.0, 1.0), InvalidInput),
        (lambda: integrate_cumulative(lambda z: z, np.zeros((2, 2))), InvalidInput),
        (lambda: integrate_cumulative(dawsn, np.array([0.0, math.nan, 1.0])), InvalidInput),
        (lambda: integrate_cumulative(dawsn, np.array([0.0, 1.0, math.nan])), InvalidInput),
        # Far above the root a profile coefficient is no double, and the
        # profile at such a lam is refused.
        (lambda: _unit_psi(NoSource(), 27.0), InvalidInput),
        (lambda: _unit_psi(ExponentialSource(), 27.0), InvalidInput),
        (lambda: dataclasses.replace(_unit_solution(), lam=27.0), InvalidInput),
        (lambda: _unit_psi(SimilaritySource(CUSTOM_BETA), 27.0), InvalidInput),
        # e^{lam^2} is a double, but y'(0) or the kernel's erf coefficient is not.
        (lambda: run_checks(dataclasses.replace(_unit_solution(), lam=26.6)), InvalidInput),
        (lambda: _unit_psi(NoSource(), 26.6), InvalidInput),
        (lambda: source_model(NoSource(), 1.0, 5.0, 1.0).psi(26.57), InvalidInput),
        (lambda: _unit_psi(HALF_GAUSSIAN, 26.6), InvalidInput),
        # Integer fields reject floats up front, not deep inside a run.
        (lambda: OracleConfig(n_space=64.0), InvalidInput),
        (lambda: OracleConfig(n_time=256.0), InvalidInput),
        # Time is a scalar; front_position alone takes an array t.
        (lambda: temperature(_unit_solution(), 0.1, np.array([1.0, 2.0])), InvalidInput),
        (lambda: similarity_coordinate(_unit_solution(), 0.1, np.array([1.0, 2.0])), InvalidInput),
    ],
    ids=[
        "phi_map-negative", "source_model-unknown-spec",
        "y_many-empty", "similarity_coordinate-t0", "boundary-nan",
        "find_root-lo-0", "integrate_cumulative-2d", "integrate_cumulative-nan-inside",
        "integrate_cumulative-nan-last", "none-psi-overflow", "exponential-psi-overflow",
        "exponential-replace-overflow", "custom-psi-overflow", "exponential-replace-slope-inf",
        "none-psi-slope-inf", "none-psi-coefficient-inf", "half-gaussian-psi-slope-inf",
        "oracle-n_space-float", "oracle-n_time-float",
        "temperature-t-array",
        "similarity_coordinate-t-array",
    ],
)
def test_edge_contracts(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


@pytest.mark.parametrize(
    "source, delta, lam",
    [
        (NoSource(), 1.0, 26.6),
        (ExponentialSource(), 1.0, 26.6),
        (HALF_GAUSSIAN, 1.0, 26.6),
        # y'(0) = -3.5e307 is a double; the kernel's (sqrt(pi)/Ste) lam e^{lam^2} is not.
        (NoSource(), 5.0, 26.57),
    ],
    ids=["none-slope", "exponential-slope", "half-gaussian-slope", "none-coefficient"],
)
def test_profile_overflow_names_lam(source, delta, lam):
    # Ste = p = 1: e^{lam^2} is a double at each lam, a profile coefficient is not.
    with pytest.raises(InvalidInput, match=rf"^lam = {lam!r} is too large: its profile overflows$"):
        source_model(source, 1.0, delta, 1.0).psi(lam)
