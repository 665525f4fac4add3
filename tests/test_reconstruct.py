"""Tests for mapping similarity solutions back to physical fields."""

import math

import numpy as np
import pytest

from stefansim.errors import InvalidInput, OutOfDomain
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim.reconstruct import (
    fixed_face_flux,
    front_position,
    similarity_coordinate,
    source_field,
    temperature,
)
from stefansim.similarity import solve_problem

MAT = Material(rho=1000.0, c0=4200.0, k0=0.6, latent_heat=334000.0, delta=0.5, p=1.0)
BD = BoundaryData(theta0=285.05, theta_f=273.15)


@pytest.fixture(scope="module")
def sol():
    return solve_problem(MAT, BD, ExponentialSource())


@pytest.fixture(scope="module")
def sol_feedback():
    return solve_problem(MAT, BD, FluxFeedbackSource(lambda0=10.0))


class TestFrontPosition:
    def test_formula_and_zero(self, sol):
        assert front_position(sol, 0.0) == 0.0
        t = 9.0
        want = 2.0 * sol.dimensionless.a * sol.lam * math.sqrt(t)
        assert front_position(sol, t) == pytest.approx(want, rel=1e-15)

    def test_sqrt_scaling(self, sol):
        assert front_position(sol, 4.0) == pytest.approx(
            2.0 * front_position(sol, 1.0), rel=1e-15
        )
        # s(t)^2 / t is the constant 4 a^2 lam^2.
        const = front_position(sol, 3.0) ** 2 / 3.0
        assert front_position(sol, 7.0) ** 2 / 7.0 == pytest.approx(const, rel=1e-12)

    def test_array_input(self, sol):
        ts = np.array([0.0, 1.0, 4.0])
        out = front_position(sol, ts)
        np.testing.assert_allclose(
            out, [front_position(sol, float(t)) for t in ts], rtol=1e-15
        )

    def test_negative_time_rejected(self, sol):
        with pytest.raises(InvalidInput):
            front_position(sol, -1.0)


class TestTemperature:
    def test_boundary_values(self, sol):
        t = 2.0
        s = front_position(sol, t)
        assert temperature(sol, 0.0, t) == pytest.approx(BD.theta0, abs=1e-12)
        assert temperature(sol, s, t) == pytest.approx(BD.theta_f, abs=1e-8)

    def test_within_band(self, sol):
        t = 0.5
        xs = np.linspace(0.0, front_position(sol, t), 257)
        th = temperature(sol, xs, t)
        assert np.all(th >= BD.theta_f - 1e-9)
        assert np.all(th <= BD.theta0 + 1e-9)
        assert np.all(np.diff(th) <= 0.0)

    def test_self_similarity(self, sol):
        # theta(x, t) == theta(alpha x, alpha^2 t).
        t, alpha = 1.3, 2.7
        xs = np.linspace(0.0, front_position(sol, t), 41)
        np.testing.assert_allclose(
            temperature(sol, xs, t),
            temperature(sol, alpha * xs, alpha * alpha * t),
            rtol=0,
            atol=1e-10,
        )

    def test_classical_interior_matches_neumann(self):
        mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1e-12, p=1.0)
        bd = BoundaryData(theta0=1.0, theta_f=0.0)
        classical = solve_problem(mat, bd, NoSource())
        t = 1.0
        x = 0.5 * front_position(classical, t)
        eta = x / (2.0 * math.sqrt(t))
        want = 1.0 - math.erf(eta) / math.erf(classical.lam)
        assert temperature(classical, x, t) == pytest.approx(want, abs=1e-6)

    def test_beyond_front_rejected(self, sol):
        t = 1.0
        s = front_position(sol, t)
        with pytest.raises(OutOfDomain):
            temperature(sol, s * 1.01, t)
        with pytest.raises(OutOfDomain):
            temperature(sol, -0.1, t)

    def test_marginal_overshoot_returns_front_temperature(self, sol):
        t = 1.0
        s = front_position(sol, t)
        assert temperature(sol, s * (1.0 + 1e-10), t) == pytest.approx(
            BD.theta_f, abs=1e-8
        )

    def test_time_must_be_positive(self, sol):
        with pytest.raises(InvalidInput):
            temperature(sol, 0.0, 0.0)


class TestSimilarityCoordinate:
    def test_definition(self, sol):
        t = 4.0
        xs = np.array([0.0, 0.001, 0.002])
        np.testing.assert_allclose(
            similarity_coordinate(sol, xs, t),
            xs / (2.0 * sol.dimensionless.a * math.sqrt(t)),
            rtol=1e-15,
        )

    def test_front_maps_to_lam(self, sol):
        t = 2.0
        eta = similarity_coordinate(sol, front_position(sol, t), t)
        assert eta == pytest.approx(sol.lam, rel=1e-14)


class TestFixedFaceFlux:
    def test_negative_and_scaling(self, sol):
        f1 = fixed_face_flux(sol, 1.0)
        f4 = fixed_face_flux(sol, 4.0)
        assert f1 < 0.0
        assert f1 == pytest.approx(2.0 * f4, rel=1e-14)

    def test_formula(self, sol):
        t = 0.7
        want = (
            (BD.theta0 - BD.theta_f)
            * sol.y_prime0
            / (2.0 * sol.dimensionless.a * math.sqrt(t))
        )
        assert fixed_face_flux(sol, t) == pytest.approx(want, rel=1e-14)

    def test_unit_case(self):
        # a = 1, span = 1, y'(0) = v, t = 0.25 -> flux = v.
        mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1.0, p=1.0)
        bd = BoundaryData(theta0=1.0, theta_f=0.0)
        s = solve_problem(mat, bd, NoSource())
        assert fixed_face_flux(s, 0.25) == pytest.approx(s.y_prime0, rel=1e-14)

    def test_rejects_nonpositive_time(self, sol):
        with pytest.raises(InvalidInput):
            fixed_face_flux(sol, 0.0)


class TestSourceField:
    def test_no_source_is_zero(self):
        s = solve_problem(MAT, BD, NoSource())
        assert source_field(s, 0.0, 1.0) == 0.0
        np.testing.assert_array_equal(
            source_field(s, np.array([0.0, 0.001]), 1.0), [0.0, 0.0]
        )

    def test_similarity_form_at_face(self, sol):
        # beta(0) = 1/2 so H(0, t) = rho l / (2 t).
        t = 0.25
        want = MAT.rho * MAT.latent_heat / (2.0 * t)
        assert source_field(sol, 0.0, t) == pytest.approx(want, rel=1e-14)

    def test_custom_beta_field(self):
        beta = lambda eta: np.exp(-3.0 * eta * eta)
        s = solve_problem(MAT, BD, SimilaritySource(beta=beta))
        t = 0.5
        x = 0.0005
        eta = similarity_coordinate(s, x, t)
        want = MAT.rho * MAT.latent_heat / t * math.exp(-3.0 * eta * eta)
        assert source_field(s, x, t) == pytest.approx(want, rel=1e-12)

    def test_feedback_uniform_in_space_and_negative(self, sol_feedback):
        t = 2.0
        vals = source_field(sol_feedback, np.array([0.0, 0.001, 0.002]), t)
        assert np.all(vals == vals[0])
        assert vals[0] < 0.0
        # product of two 1/sqrt(t) factors: magnitude ~ 1/t.
        assert source_field(sol_feedback, 0.0, 4.0 * t) == pytest.approx(
            vals[0] / 4.0, rel=1e-14
        )

    def test_rejects_nonpositive_time(self, sol):
        with pytest.raises(InvalidInput):
            source_field(sol, 0.0, -2.0)


@pytest.mark.parametrize(
    "source",
    [
        NoSource(),
        ExponentialSource(),
        FluxFeedbackSource(lambda0=0.5),
        SimilaritySource(lambda eta: 0.5 * np.exp(-eta * eta)),
    ],
    ids=lambda source: source.kind,
)
def test_nan_queries_rejected(source):
    # NaN compares false with every bound, so each range check must fail it
    # rather than pass it on to the profile quadrature.
    unit = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1.0, p=1.0)
    s = solve_problem(unit, BoundaryData(theta0=1.0, theta_f=0.0), source)
    with pytest.raises(InvalidInput):
        s.y_many([math.nan])
    with pytest.raises(InvalidInput):
        s.psi.evaluate_many([0.1, math.nan])
    with pytest.raises(OutOfDomain):
        temperature(s, math.nan, 1.0)
    with pytest.raises(OutOfDomain):
        temperature(s, [0.1, math.nan], 1.0)
    with pytest.raises(OutOfDomain):
        source_field(s, [0.1, math.nan], 1.0)
