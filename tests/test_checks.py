"""Tests for the verification-suite helpers shared by CLI and tests."""

import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from stefansim.checks import (
    PROFILE_SHAPE_POINTS,
    CheckResult,
    boundary_checks,
    closed_form_agreement_check,
    front_slope_check,
    lambda_residual_check,
    ode_residual_check,
    oracle_checks,
    profile_shape_checks,
    run_checks,
)
from stefansim.errors import StefanError
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim import similarity
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

    def test_agreement_check_solves_only_the_quadrature_equation(self, exp_sol, monkeypatch):
        # sol.lam is already the root of the closed-form equation.
        solves = []
        find_root = similarity.find_root_increasing

        def counted(*args):
            solves.append(args)
            return find_root(*args)

        monkeypatch.setattr(similarity, "find_root_increasing", counted)
        assert all(r.passed for r in run_checks(exp_sol))
        assert len(solves) == 1

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


class TestCheckResult:
    def test_verdict_is_derived(self):
        assert [f.name for f in dataclasses.fields(CheckResult)] == ["name", "value", "threshold"]
        assert CheckResult("x", 1.0, 1.0).passed
        assert not CheckResult("x", 1.5, 1.0).passed
        assert not CheckResult("x", float("nan"), 1.0).passed

    def test_profile_shape_evaluates_psi_once(self, monkeypatch):
        sol = solve(source=FluxFeedbackSource(lambda0=0.5))
        calls = []
        evaluate_many = similarity.PsiProfile.evaluate_many

        def counted(psi, etas):
            calls.append(np.size(etas))
            return evaluate_many(psi, etas)

        monkeypatch.setattr(similarity.PsiProfile, "evaluate_many", counted)
        profile_shape_checks(sol)
        assert calls == [PROFILE_SHAPE_POINTS]


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
        assert abs(psi_bad.evaluate_many([lam_bad])[0]) > 1e-3

    @pytest.mark.parametrize(
        "source", [NoSource(), ExponentialSource(), FluxFeedbackSource(lambda0=0.5)],
        ids=lambda source: source.kind,
    )
    def test_lambda_above_root_reported_not_raised(self, source):
        # Past the root Psi < 0 near the front, beyond the clamp slack of y.
        sol = solve(source=source)
        results = run_checks(dataclasses.replace(sol, lam=1.01 * sol.lam))
        failed = {r.name for r in results if not r.passed}
        assert {"lambda_residual", "front_value", "ode_residual", "profile_range"} <= failed


class TestWideDomainFeedback:
    # The unscaled feedback equation overflowed at large lam: at Ste = 1e4
    # and at some Ste = 1e2 cases it raised MemoryError or
    # MaxSubdivisionsExceeded after seconds, and at Ste = 1e2, p = 1e-3 the
    # root solve raised NonConvergence.  Failed checks are not asserted here.
    @pytest.mark.parametrize(
        "ste, delta, p",
        list(itertools.product((1e-6, 1e-2, 1.0, 1e2, 1e4), (1e-8, 1.0, 1e3), (1e-3, 1.0, 20.0))),
    )
    def test_results_or_typed_error_within_a_second(self, ste, delta, p):
        t0 = time.perf_counter()
        try:
            results = run_checks(solve(ste, delta, p, FluxFeedbackSource(lambda0=0.5)))
        except StefanError:
            pass
        else:
            assert results
        assert time.perf_counter() - t0 < 1.0


# Solves and checks every source kind in a fresh interpreter, then prints
# whether scipy.optimize was ever imported.  Importing it adds ~17 MB of
# resident memory, which no part of the library needs.
FOOTPRINT_SCRIPT = textwrap.dedent(
    """
    import sys
    from stefansim import (
        BoundaryData, ExponentialSource, FluxFeedbackSource, Material, NoSource,
        SimilaritySource, run_checks, solve_problem,
    )
    mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1.0, p=1.0)
    bd = BoundaryData(theta0=1.0, theta_f=0.0)
    sources = (
        NoSource(), ExponentialSource(), FluxFeedbackSource(lambda0=0.5),
        SimilaritySource(lambda eta: 0.5 / (1.0 + eta * eta)),
    )
    for source in sources:
        assert run_checks(solve_problem(mat, bd, source))
    print("scipy.optimize" in sys.modules)
    """
)


def test_library_leaves_scipy_optimize_unimported():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
