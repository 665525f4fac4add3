"""Tests for the verification-suite helpers shared by CLI and tests."""

import dataclasses

import numpy as np
import pytest

from stefansim.checks import (
    boundary_checks,
    closed_form_agreement_check,
    front_slope_check,
    lambda_residual_check,
    ode_residual_check,
    oracle_checks,
    profile_shape_checks,
    run_checks,
)
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim.oracle import OracleConfig
from stefansim.similarity import solve_problem

BD = BoundaryData(theta0=1.0, theta_f=0.0)


def solve(ste=1.0, delta=1.0, p=1.0, source=None):
    mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / ste, delta=delta, p=p)
    return solve_problem(mat, BD, source if source is not None else ExponentialSource())


@pytest.fixture(scope="module")
def exp_sol():
    return solve()


SOURCES = (
    NoSource(),
    ExponentialSource(),
    SimilaritySource(beta=lambda eta: np.exp(-eta * eta)),
    FluxFeedbackSource(lambda0=0.5),
)


class TestIndividualChecks:
    @pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.kind)
    def test_all_pass_on_valid_solution(self, source):
        results = run_checks(solve(source=source))
        assert results and all(r.passed for r in results)
        names = {r.name for r in results}
        assert {
            "lambda_residual",
            "fixed_face_value",
            "front_value",
            "front_slope",
            "ode_residual",
            "profile_decreasing",
            "profile_range",
            "psi_decreasing",
            "phi_increasing",
        } <= names
        # Only the exponential source has a redundant closed-form path.
        assert ("closed_form_vs_quadrature" in names) == (source == ExponentialSource())

    def test_agreement_check_only_for_exponential(self, exp_sol):
        assert closed_form_agreement_check(exp_sol) is not None
        assert closed_form_agreement_check(solve(source=NoSource())) is None

    def test_oracle_checks_pass_on_default_grid(self, exp_sol):
        results = oracle_checks(exp_sol, OracleConfig())
        assert all(r.passed for r in results)

    def test_hard_corner_passes(self):
        sol = solve(ste=0.1, delta=5.0, p=0.5, source=FluxFeedbackSource(lambda0=1.0))
        for r in [
            lambda_residual_check(sol),
            *boundary_checks(sol),
            front_slope_check(sol),
            ode_residual_check(sol),
            *profile_shape_checks(sol),
        ]:
            assert r.passed, f"{r.name}: {r.value} > {r.threshold}"


class TestCorruptedSolutionFails:
    def test_perturbed_lambda_detected(self, exp_sol):
        bad = dataclasses.replace(exp_sol, lam=exp_sol.lam + 0.1)
        results = {r.name: r for r in [lambda_residual_check(bad)]}
        assert not results["lambda_residual"].passed

    def test_perturbed_lambda_breaks_front_condition(self, exp_sol):
        # Residual-style checks that rebuild the profile from the stored
        # lam must also notice: the profile no longer vanishes there.
        lam_bad = exp_sol.lam + 0.1
        psi_bad = exp_sol.model.psi(lam_bad)
        assert abs(psi_bad.evaluate(lam_bad)) > 1e-3
