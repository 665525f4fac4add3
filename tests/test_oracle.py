"""Tests for the finite-difference moving-boundary solver."""

import ast
import dataclasses
import inspect
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from scipy import special

import stefansim.oracle as oracle
import stefansim.similarity as similarity
from stefansim.checks import oracle_checks
from stefansim.config import reduced_problem
from stefansim.errors import (
    FrontCollapse,
    InvalidInput,
    MismatchedProblem,
    NonConvergence,
    StefanError,
)
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim.numerics import integrate, integrate_cumulative
from stefansim.oracle import OracleConfig, OracleRun, compare, run_oracle_for
from stefansim.reconstruct import front_position, temperature
from stefansim.similarity import solve_problem

BD = BoundaryData(theta0=1.0, theta_f=0.0)


def unit_material(ste=1.0, delta=1.0, p=1.0):
    return Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / ste, delta=delta, p=p)


def problem_of(sol):
    return sol.material, sol.boundary, sol.source


@pytest.fixture(scope="module")
def classical_sol():
    return solve_problem(unit_material(delta=1e-12), BD, NoSource())


@pytest.fixture(scope="module")
def classical_run(classical_sol):
    return run_oracle_for(classical_sol, OracleConfig(n_space=64, n_time=256))


class TestConfigValidation:
    def test_grid_minimums(self):
        with pytest.raises(InvalidInput):
            OracleConfig(n_space=8)
        with pytest.raises(InvalidInput):
            OracleConfig(n_time=4)

    def test_grid_size_capped(self):
        # Each trajectory array holds (n_time + 1) * n_space doubles; a
        # grid past the cap is refused before any array is made.
        with pytest.raises(InvalidInput, match="exceeds 16777216 values"):
            OracleConfig(n_space=10**9)
        with pytest.raises(InvalidInput, match="exceeds 16777216 values"):
            OracleConfig(n_space=16, n_time=2**20)
        assert OracleConfig(n_space=16, n_time=2**20 - 1).n_time == 2**20 - 1

    @pytest.mark.parametrize("kind", ["exponential", "feedback", "none"])
    def test_widest_grid_steps_in_linear_memory(self, kind):
        # The widest grid the cap accepts builds its stepper and one step's
        # system and solve in a few rows of n_space doubles (about 25),
        # not in a matrix of n_space^2.
        cfg = OracleConfig(n_space=2**16, n_time=255)
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        v = np.linspace(1.5, 0.0, cfg.n_space)
        tracemalloc.start()
        try:
            stepper = oracle._Stepper(*problem_of(sol), cfg)
            t0, t1 = stepper.times[:2].tolist()
            s0 = front_position(sol, t0)
            step_system(stepper, v, s0, 1.01 * s0, t0, t1)
            oracle.solve_banded(stepper.system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 8 * cfg.n_space


class TestRunStructure:
    def test_shapes_and_monotone_front(self, classical_run):
        cfg = classical_run.config
        assert classical_run.fields.shape == (cfg.n_time + 1, cfg.n_space)
        assert classical_run.front.shape == (cfg.n_time + 1,)
        assert np.all(np.diff(classical_run.front) > 0.0)

    def test_fields_within_band(self, classical_run):
        assert classical_run.fields.min() >= -1e-6
        assert classical_run.fields.max() <= 1.0 + 1e-6

    def test_initial_state_copied_exactly(self, classical_sol, classical_run):
        s0 = front_position(classical_sol, oracle.T_START)
        want = temperature(classical_sol, classical_run.xi * s0, oracle.T_START)
        np.testing.assert_array_equal(classical_run.fields[0], want)
        assert classical_run.front[0] == s0


class TestAgreement:
    def test_classical_front_coefficient(self, classical_sol, classical_run):
        # s_num(t) / (2 a sqrt(t)) approaches lam at the final time.
        coeff = classical_run.front[-1] / (2.0 * math.sqrt(classical_run.times[-1]))
        assert coeff == pytest.approx(classical_sol.lam, rel=0.01)

    def test_comparison_errors_recorded(self, classical_run):
        assert classical_run.front_rel_err <= 0.02
        assert classical_run.temp_max_err <= 0.02

    def test_refinement_shrinks_error(self, classical_sol, classical_run):
        # Halving h and dt: second order in both.  Four times the steps
        # would not do, since the time error then no longer leads.
        finer = run_oracle_for(classical_sol, OracleConfig(n_space=128, n_time=512))
        ratio = classical_run.front_rel_err / finer.front_rel_err
        assert 3.0 <= ratio <= 5.0

    def test_feedback_source_tracks_solution(self):
        sol = solve_problem(unit_material(), BD, FluxFeedbackSource(lambda0=0.5))
        run = run_oracle_for(sol, OracleConfig(n_space=64, n_time=256))
        assert run.front_rel_err <= 0.02
        assert run.temp_max_err <= 0.03


def tridiagonal(m=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(m - 1), 4.0 + rng.random(m), rng.random(m - 1), rng.random(m)


def banded_system(lower, diag, upper, *rhs):
    """solve_banded's (3 + k, m) buffer of the bands and k right-hand sides."""
    system = np.zeros((3 + len(rhs), diag.size))
    system[0, 1:], system[1], system[2, :-1] = lower, diag, upper
    system[3:] = rhs
    return system


def scipy_banded(lower, diag, upper):
    """The bands in scipy.linalg.solve_banded's (1, 1) layout."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return ab


class TestSolveBanded:
    def test_matches_scipy_solve_banded(self):
        lower, diag, upper, rhs = tridiagonal()
        want = scipy.linalg.solve_banded((1, 1), scipy_banded(lower, diag, upper), rhs)
        got = oracle.solve_banded(banded_system(lower, diag, upper, rhs))
        assert got.shape == (diag.size, 1)
        assert got[:, 0].tobytes() == want.tobytes()

    # entry 3 is the right-hand side.
    @pytest.mark.parametrize("entry", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, entry, bad):
        arrays = list(tridiagonal())
        arrays[entry][3] = bad
        with pytest.raises(StefanError, match="non-finite"):
            oracle.solve_banded(banded_system(*arrays))

    @pytest.mark.parametrize("k", [2, 3])
    def test_many_columns_match_scipy_solve_banded(self, k):
        # The Newton step solves its residual and border columns together,
        # in place: the solution is a view of the buffer's right-hand sides.
        lower, diag, upper, _ = tridiagonal()
        rhs = np.random.default_rng(1).random((k, diag.size))
        want = scipy.linalg.solve_banded((1, 1), scipy_banded(lower, diag, upper), rhs.T)
        system = banded_system(lower, diag, upper, *rhs)
        got = oracle.solve_banded(system)
        assert got.shape == (diag.size, k)
        assert np.shares_memory(got, system)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_border_column_rejected(self, bad):
        lower, diag, upper, _ = tridiagonal()
        rhs = np.ones((3, diag.size))
        rhs[2, 7] = bad
        with pytest.raises(NonConvergence, match="non-finite"):
            oracle.solve_banded(banded_system(lower, diag, upper, *rhs))

    def test_singular_matrix_rejected(self):
        lower, diag, upper, rhs = tridiagonal()
        lower[:] = 0.0
        diag[5] = 0.0
        with pytest.raises(NonConvergence, match="singular"):
            oracle.solve_banded(banded_system(lower, diag, upper, rhs))

    def test_failed_solve_names_the_step_time(self, classical_sol, monkeypatch):
        def singular(lower, diag, upper, rhs, *flags):
            return lower, diag, upper, rhs, 1

        monkeypatch.setattr(oracle, "dgtsv", singular)
        with pytest.raises(NonConvergence, match=r"singular .* at t = "):
            run_oracle_for(classical_sol, OracleConfig(n_space=32, n_time=16))


def counting_heat_source(monkeypatch, calls):
    """Make every source model the oracle builds count its heat_source calls."""
    build = oracle.problem_model

    def counting_model(*problem):
        model = build(*problem)
        heat_source = model.heat_source

        def counted(*args):
            calls["heat_source"] += 1
            return heat_source(*args)

        model.heat_source = counted
        return model

    monkeypatch.setattr(oracle, "problem_model", counting_model)


class TestSweepCounter:
    @pytest.mark.parametrize("kind", ["exponential", "feedback", "none"])
    def test_one_solve_per_sweep(self, monkeypatch, kind):
        # A source that varies along the strip is evaluated once per step,
        # on the three rows H(s), H(s (1 + _SOURCE_DS)) and H at the old
        # level.  A uniform one (none, flux feedback) is evaluated once per
        # run, over the time grid, and enters each step as scalars.  Each
        # step makes one solve_banded call.  Counting changes nothing in
        # the run.
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        cfg = OracleConfig(n_space=64, n_time=256)
        plain = run_oracle_for(sol, cfg)
        calls = {"heat_source": 0, "solve_banded": 0}
        solve = oracle.solve_banded

        def counting_solve(*args):
            calls["solve_banded"] += 1
            return solve(*args)

        counting_heat_source(monkeypatch, calls)
        monkeypatch.setattr(oracle, "solve_banded", counting_solve)
        run = run_oracle_for(sol, cfg)
        per_run = 1 if sol.model.uniform else cfg.n_time
        assert sol.model.uniform == (kind != "exponential")
        assert calls == {"heat_source": per_run, "solve_banded": cfg.n_time}
        assert run.front.tobytes() == plain.front.tobytes()
        assert run.fields.tobytes() == plain.fields.tobytes()


# repr of (front_rel_err, temp_max_err) of a 64 x 256 run at Ste = delta =
# p = 1, pinned so that any change to the step arithmetic shows up here.
# Recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64 with AVX-512 (numpy's
# dispatched float64 kernels).  Another numpy or scipy build or another SIMD
# path can move exp, power and erf in the last ulp, and with them these
# digits, without any change to the scheme.
GOLDEN_ERRORS = {
    "none": ("5.3502432978231824e-05", "5.4944200017441325e-05"),
    "exponential": ("4.624631887363489e-05", "3.7829243610079666e-05"),
    "feedback": ("6.0559764838684534e-05", "7.265027749160657e-05"),
}
# The same errors with interface-mean conductivities, a front gradient of
# theta itself and uniform time steps.  The Kirchhoff fluxes and the steps
# uniform in sqrt(t) may only lower them.
MEAN_CONDUCTIVITY_GOLDEN_ERRORS = {
    "none": (0.001160412198006905, 0.0011943662859375485),
    "exponential": (0.001103600458323225, 0.00090921433027886),
    "feedback": (0.0011822880046266546, 0.0014147936533942633),
}
GOLDEN_SOURCES = {
    "none": NoSource(),
    "exponential": ExponentialSource(),
    "feedback": FluxFeedbackSource(lambda0=0.5),
}


@pytest.fixture(scope="module")
def golden_runs():
    """Each golden case's run and its count of oracle.solve_banded calls."""
    out = {}
    for kind in sorted(GOLDEN_ERRORS):
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        cfg = OracleConfig(n_space=64, n_time=256)
        calls = [0]
        solve = oracle.solve_banded

        def counting_solve(*args):
            calls[0] += 1
            return solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "solve_banded", counting_solve)
            out[kind] = run_oracle_for(sol, cfg), calls[0]
    return out


def bisection_lam(equation):
    """The front coefficient by plain bisection, run until the bracket is one ulp."""
    lo, hi = 1e-8, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if equation.evaluate(mid) < equation.target:
            lo = mid
        else:
            hi = mid


def unscaled_feedback_solution(sol):
    """sol with Psi built from the two unscaled integrals of e^{z^2}.

    Psi(eta) = target - C (A J(eta) + (1 + delta) erf(eta)), with
    C = sqrt(pi) lam e^{lam^2} / (Ste (1 + delta + A E(lam))),
    E(x) = integral_0^x e^{z^2} dz and J(x) = erf(x) E(x) - I(x),
    I(x) = integral_0^x e^{z^2} erf(z) dz: the form the library used before
    its e^{x^2}-scaled Dawson form.
    """
    model, lam = sol.model, sol.lam
    feedback, delta, target = model.feedback, model.delta, model.equation.target

    def exp_sq(z):
        return np.exp(z * z)

    def exp_sq_erf(z):
        return np.exp(z * z) * special.erf(z)

    e_lam = integrate(exp_sq, 0.0, lam)
    coeff = math.sqrt(math.pi) * lam * math.exp(lam * lam) / (
        model.ste * (1.0 + delta + feedback * e_lam)
    )

    def kernel(pts):
        nodes = np.concatenate([[0.0], pts])
        big_e = integrate_cumulative(exp_sq, nodes)[1:]
        big_i = integrate_cumulative(exp_sq_erf, nodes)[1:]
        er = special.erf(pts)
        return target - coeff * (feedback * (er * big_e - big_i) + (1.0 + delta) * er)

    out = dataclasses.replace(sol)
    object.__setattr__(out, "psi", dataclasses.replace(sol.psi, _kernel=kernel))
    return out


def step_system(stepper, v, s_old, s, t0, t1):
    """stepper.step_system at v, with v's own front gradient."""
    return stepper.step_system(v, s_old, s, t0, t1, oracle._front_gradient(v, stepper.h))


def bordered_solve(stepper, v, s_old, s, t0, t1):
    """The field and front update of one bordered solve linearized at (v, s)."""
    system, _, stefan, stefan_w, d_ss = step_system(stepper, v, s_old, s, t0, t1)
    x = oracle.solve_banded(system)
    weights = stepper._border(x, stefan, stefan_w, d_ss)
    return v[1:-1] - x @ weights, weights[1]


def assert_matches_converged_steps(monkeypatch, run):
    """run's errors within 1e-3 relative of a run whose steps are converged.

    For a fixed s the step's equations are linear in w, so the bordered
    solve linearized at (v, s) (step_system, solve_banded, _border) gives
    the field that solves them exactly, and a front update ds that
    vanishes only where that field also meets the Stefan condition.  Each
    step of that run starts from advance's front and finds the root of ds
    by the secant method in s, until an iterate moves w, relative to the
    span, and the front by at most 1e-10.
    """
    advance = oracle._Stepper.advance

    def converged_advance(stepper, v, gradient, fronts, k, t0, t1, out):
        s_prev, _ = advance(stepper, v, gradient, fronts, k, t0, t1, out)
        s_old = float(fronts[k])
        w, ds_prev = bordered_solve(stepper, v, s_old, s_prev, t0, t1)
        s = s_prev + ds_prev
        for _ in range(50):
            w_next, ds = bordered_solve(stepper, v, s_old, s, t0, t1)
            moved = max(np.max(np.abs(w_next - w)) / stepper.span, abs(ds) / s)
            w = w_next
            if moved <= 1e-10:
                out[1:-1] = w
                return s + ds, oracle._front_gradient(out, stepper.h)
            s_prev, ds_prev, s = s, ds, s - ds * (s - s_prev) / (ds - ds_prev)
        raise AssertionError(f"step {k} did not converge")

    monkeypatch.setattr(oracle._Stepper, "advance", converged_advance)
    converged = run_oracle_for(run.solution, run.config)
    assert run.front_rel_err == pytest.approx(converged.front_rel_err, rel=1e-3)
    assert run.temp_max_err == pytest.approx(converged.temp_max_err, rel=1e-3)


class TestGoldenErrors:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_ERRORS))
    def test_errors_pinned(self, golden_runs, kind):
        run, _ = golden_runs[kind]
        got = (repr(run.front_rel_err), repr(run.temp_max_err))
        assert got == GOLDEN_ERRORS[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_ERRORS))
    def test_errors_below_mean_conductivity_scheme(self, golden_runs, kind):
        run, _ = golden_runs[kind]
        front_err, temp_err = MEAN_CONDUCTIVITY_GOLDEN_ERRORS[kind]
        assert run.front_rel_err <= front_err
        assert run.temp_max_err <= temp_err

    @pytest.mark.parametrize("kind", sorted(GOLDEN_ERRORS))
    def test_errors_match_euler_start(self, golden_runs, monkeypatch, kind):
        # Every step started from the explicit Euler front: both starts are
        # exact for a similarity front, so the one update from either lands
        # on the same errors to well below their size.
        run, _ = golden_runs[kind]
        advance = oracle._Stepper.advance

        def euler_start(stepper, v, gradient, fronts, k, t0, t1, out):
            return advance(stepper, v, gradient, fronts[k:k + 1], 0, t0, t1, out)

        monkeypatch.setattr(oracle._Stepper, "advance", euler_start)
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        euler = run_oracle_for(sol, run.config)
        got = (euler.front_rel_err, euler.temp_max_err)
        want = (run.front_rel_err, run.temp_max_err)
        assert got == pytest.approx(want, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_ERRORS))
    def test_errors_match_bisection_lam(self, golden_runs, kind):
        # A bisection root differs from the library's root in the last
        # digits; the errors, relative front and absolute temperature of a
        # unit drop, move by no more than ten times that relative change.
        run, _ = golden_runs[kind]
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        lam = bisection_lam(sol.model.equation)
        shift = abs(lam / sol.lam - 1.0)
        assert shift <= 1e-12
        moved = run_oracle_for(dataclasses.replace(sol, lam=lam), run.config)
        got = (moved.front_rel_err, moved.temp_max_err)
        want = (run.front_rel_err, run.temp_max_err)
        assert got == pytest.approx(want, rel=0.0, abs=10.0 * shift + 1e-15)

    def test_feedback_errors_match_unscaled_form(self, golden_runs):
        # The Dawson profile and the unscaled one agree to ~1e-15, so the
        # comparison of one run against either agrees to rounding.
        run, _ = golden_runs["feedback"]
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES["feedback"])
        got = compare(unscaled_feedback_solution(sol), run)
        assert got == pytest.approx((run.front_rel_err, run.temp_max_err), rel=0.0, abs=1e-14)


class TestCrankNicolsonOrder:
    """Second order in time and space on each golden source."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_golden_run_monotone_and_within_band(self, golden_runs, kind):
        # Crank-Nicolson is not monotone; on these smooth states it must
        # still keep the front advancing and the field inside its drop.
        run, _ = golden_runs[kind]
        assert np.all(np.diff(run.front) > 0.0)
        assert run.fields.min() >= -1e-6
        assert run.fields.max() <= 1.0 + 1e-6

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_refinement_shrinks_error(self, golden_runs, kind):
        # Halving h and dt divides both errors by about four.
        run, _ = golden_runs[kind]
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        finer = run_oracle_for(sol, OracleConfig(n_space=128, n_time=512))
        assert 3.0 <= run.front_rel_err / finer.front_rel_err <= 5.0
        assert 3.0 <= run.temp_max_err / finer.temp_max_err <= 5.0

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_time_error_is_second_order(self, kind):
        # On one space grid the spatial error is common to every run, so the
        # final fronts of dt, dt/2 and dt/4 differ by the time error alone:
        # its differences shrink by about four (two for backward Euler).
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        fronts = [
            run_oracle_for(sol, OracleConfig(n_space=32, n_time=n)).front[-1]
            for n in (32, 64, 128)
        ]
        ratio = abs(fronts[0] - fronts[1]) / abs(fronts[1] - fronts[2])
        assert 3.0 <= ratio <= 5.0


class TestTimeWindow:
    @pytest.mark.parametrize("scale", [100.0, 1e-2])
    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_only_the_ratio_moves_the_errors(self, golden_runs, monkeypatch, kind, scale):
        # The front-fixed problem is invariant under t -> c t, so a window
        # scaled as a whole reproduces the errors: the oracle's state may
        # depend on T_END / T_START alone.
        run, _ = golden_runs[kind]
        monkeypatch.setattr(oracle, "T_START", oracle.T_START * scale)
        monkeypatch.setattr(oracle, "T_END", oracle.T_END * scale)
        scaled = run_oracle_for(run.solution, run.config)
        assert scaled.times[0] == pytest.approx(run.times[0] * scale, rel=1e-15)
        span = BD.theta0 - BD.theta_f
        assert scaled.front_rel_err == pytest.approx(run.front_rel_err, rel=0.0, abs=1e-12)
        assert scaled.temp_max_err / span == pytest.approx(
            run.temp_max_err / span, rel=0.0, abs=1e-12
        )


class TestPredictedFrontStart:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_one_solve_per_step(self, golden_runs, kind):
        run, solves = golden_runs[kind]
        assert solves == run.config.n_time

    # (source, Ste, delta, p), run at 48 x 128.  The probe problems come from
    # a random probe.  Starting the field from a linear extrapolation of the
    # accepted fields collapses the front of all three probe problems;
    # quadratic and cubic field extrapolations collapse most of the six, and
    # a cubic extrapolation of s in place of s^2 collapses feedback-probe.
    LOOSE_PROBLEMS = [
        pytest.param(NoSource(), 1.0, 1.0, 1.0, id="none-unit"),
        pytest.param(ExponentialSource(), 1.0, 1.0, 1.0, id="exponential-unit"),
        pytest.param(FluxFeedbackSource(lambda0=0.5), 1.0, 1.0, 1.0, id="feedback-unit"),
        pytest.param(NoSource(), 3.835, 0.11, 1.613, id="none-probe"),
        pytest.param(ExponentialSource(), 2.528, 2.303, 2.129, id="exponential-probe"),
        pytest.param(
            FluxFeedbackSource(lambda0=0.8625), 4.319, 4.012, 2.493, id="feedback-probe"
        ),
    ]

    @pytest.mark.parametrize("source, ste, delta, p", LOOSE_PROBLEMS)
    def test_single_sweep_steps_stay_stable(self, monkeypatch, source, ste, delta, p):
        # Each step makes one update from its start, so the start is part of
        # the scheme; it must keep the front advancing and the errors those
        # of converged steps.
        cfg = OracleConfig(n_space=48, n_time=128)
        run = run_oracle_for(solve_problem(unit_material(ste, delta, p), BD, source), cfg)
        assert np.all(np.diff(run.front) > 0.0)
        assert_matches_converged_steps(monkeypatch, run)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_golden_one_update_matches_converged_steps(self, golden_runs, monkeypatch, kind):
        run, _ = golden_runs[kind]
        assert_matches_converged_steps(monkeypatch, run)

    # The Picard iteration's lagged front update diverged at the first step
    # of Ste = 100, delta = 10, p = 0.1 for every source.
    @pytest.mark.parametrize(
        "cfg",
        [OracleConfig(n_space=48, n_time=128), OracleConfig()],
        ids=["48x128", "default"],
    )
    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_large_ste_small_p_corner_converges(self, kind, cfg):
        sol = solve_problem(unit_material(100.0, 10.0, 0.1), BD, GOLDEN_SOURCES[kind])
        results = oracle_checks(sol, cfg)
        assert [r.name for r in results] == ["oracle_front_rel_err", "oracle_temp_max_err"]
        assert all(r.passed for r in results)

    def test_coarse_first_step_converges_at_large_ste(self):
        # With uniform time steps the first step moved this front by about
        # 40 % and its sweeps never stagnated; steps uniform in sqrt(t) move
        # it by the same amount every step.
        cfg = OracleConfig(n_space=48, n_time=128)
        sol = solve_problem(unit_material(5.0, 0.145, 0.876), BD, NoSource())
        run = run_oracle_for(sol, cfg)
        exact = np.diff(front_position(sol, run.times))
        assert np.diff(run.front) == pytest.approx(exact, rel=0.05)
        assert run.front_rel_err <= 0.01

    @pytest.mark.parametrize(
        "speed, message",
        [
            (-1e6, r"front position went nonpositive at t = 0\.0244140625$"),
            (0.0, r"front failed to advance: s\(0\.0244140625\) = \S+ <= s\(0\.01\) = \S+$"),
        ],
        ids=["nonpositive", "stalled"],
    )
    def test_front_collapse_raised(self, monkeypatch, speed, message):
        # A front speed patched to drive the front back, or to hold it
        # still, trips the step's two collapse guards.
        monkeypatch.setattr(oracle._Stepper, "front_speed", lambda self, phi, s: speed)
        sol = solve_problem(unit_material(), BD, NoSource())
        with pytest.raises(FrontCollapse, match=message):
            run_oracle_for(sol, OracleConfig(n_space=16, n_time=16))


class TestCompare:
    def test_exact_trajectory_compares_exact(self, classical_sol):
        # The exact trajectory on the run's own grid compares as exact.
        cfg = OracleConfig(n_space=64, n_time=256)
        xi, times = oracle._grid(cfg)
        front = front_position(classical_sol, times)
        fields = np.array(
            [temperature(classical_sol, xi * s, t) for s, t in zip(front, times)], dtype=float
        )
        run = OracleRun(cfg, problem_of(classical_sol), classical_sol, front, fields)
        assert run.front_rel_err == 0.0
        assert run.temp_max_err <= 1e-12
        assert compare(classical_sol, run) == (run.front_rel_err, run.temp_max_err)

    def test_mismatched_problem_rejected(self, classical_sol, classical_run):
        other = solve_problem(unit_material(ste=2.0, delta=1e-12), BD, NoSource())
        with pytest.raises(MismatchedProblem):
            compare(other, classical_run)

    def test_run_invariants_enforced(self, classical_sol):
        cfg = OracleConfig(n_space=64, n_time=16)
        rows = cfg.n_time + 1
        shape = (rows, cfg.n_space)
        problem = problem_of(classical_sol)
        with pytest.raises(FrontCollapse):
            OracleRun(cfg, problem, classical_sol, np.linspace(0.2, 0.1, rows), np.zeros(shape))
        nan_front = np.linspace(0.1, 0.2, rows)
        nan_front[5] = math.nan
        with pytest.raises(FrontCollapse):
            OracleRun(cfg, problem, classical_sol, nan_front, np.zeros(shape))
        with pytest.raises(InvalidInput):
            OracleRun(cfg, problem, classical_sol, np.linspace(0.1, 0.2, rows), np.full(shape, 2.0))

    def test_band_excursion_names_first_step_and_node(self, golden_runs):
        # Two excursions below theta_f; the message names the earlier one,
        # not the worse one.
        run, _ = golden_runs["none"]
        planted = run.fields.copy()
        planted[7, 5] = -0.25
        planted[20, 3] = -0.75
        with pytest.raises(InvalidInput) as info:
            dataclasses.replace(run, fields=planted)
        message = str(info.value)
        assert message.startswith("oracle temperatures leave the [theta_f, theta0] band")
        assert message.endswith(
            f"first at step 7 (t = {run.times[7]:.6g}), node 5 (xi = {run.xi[5]:.6g}), "
            "value -0.25"
        )

    def test_nan_temperature_leaves_the_band(self, golden_runs):
        # Both band comparisons are false for a NaN, so it is tested as not inside.
        run, _ = golden_runs["none"]
        planted = run.fields.copy()
        planted[5, 3] = math.nan
        with pytest.raises(InvalidInput, match=r"first at step 5 .*, node 3 .*, value nan$"):
            dataclasses.replace(run, fields=planted)

    @pytest.mark.parametrize(
        "front_rows, field_shape",
        [(17, (17, 63)), (17, (16, 64)), (16, (17, 64)), (17, (17 * 64,))],
    )
    def test_misshapen_trajectory_rejected(self, classical_sol, front_rows, field_shape):
        # A trajectory off the config's grid is refused with both shapes
        # named, before compare could fail to broadcast it.
        cfg = OracleConfig(n_space=64, n_time=16)
        front = np.linspace(0.1, 0.2, front_rows)
        fields = np.zeros(field_shape)
        with pytest.raises(InvalidInput) as info:
            OracleRun(cfg, problem_of(classical_sol), classical_sol, front, fields)
        assert str(front.shape) in str(info.value)
        assert str(fields.shape) in str(info.value)

    def test_grid(self, monkeypatch):
        # The window is read at call time.
        monkeypatch.setattr(oracle, "T_START", 0.03)
        monkeypatch.setattr(oracle, "T_END", 2.7)
        cfg = OracleConfig(n_space=48, n_time=100)
        xi, times = oracle._grid(cfg)
        assert times.shape == (cfg.n_time + 1,)
        assert (times[0], times[-1]) == (0.03, 2.7)
        steps = np.diff(np.sqrt(times))
        assert steps == pytest.approx(np.full(cfg.n_time, steps.mean()), rel=1e-12)
        np.testing.assert_array_equal(xi, np.linspace(0.0, 1.0, cfg.n_space))

    def test_run_derives_grid(self, classical_sol, classical_run):
        xi, times = oracle._grid(classical_run.config)
        np.testing.assert_array_equal(classical_run.xi, xi)
        np.testing.assert_array_equal(classical_run.times, times)
        init = {f.name for f in dataclasses.fields(OracleRun) if f.init}
        assert init == {"config", "problem", "solution", "front", "fields"}
        assert classical_run.problem == problem_of(classical_sol)

    def test_replaced_solution_is_compared(self, classical_sol, classical_run):
        # The errors follow the stored solution: replacing it with one at
        # another lam gives that solution's comparison of the same trajectory.
        other = dataclasses.replace(classical_sol, lam=classical_sol.lam * (1.0 - 1e-10))
        moved = dataclasses.replace(classical_run, solution=other)
        assert moved.front is classical_run.front
        assert (moved.front_rel_err, moved.temp_max_err) == compare(other, classical_run)

    def test_replaced_with_other_problem_rejected(self, classical_run):
        # The run keeps the problem it was stepped from, so pairing its
        # Ste = 1 trajectory with the Ste = 2 solution is refused, as
        # compare refuses it.
        other = solve_problem(unit_material(ste=2.0, delta=1e-12), BD, NoSource())
        with pytest.raises(MismatchedProblem):
            dataclasses.replace(classical_run, solution=other)
        with pytest.raises(MismatchedProblem):
            OracleRun(
                classical_run.config,
                classical_run.problem,
                other,
                classical_run.front,
                classical_run.fields,
            )

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_lam_above_root_is_measured(self, kind):
        # A lam just above the root makes Psi dip below 0 near the front; the
        # unclamped profile measures the discrepancy instead of raising.
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        run = run_oracle_for(sol, OracleConfig(n_space=32, n_time=16))
        above = dataclasses.replace(sol, lam=sol.lam * (1.0 + 1e-9))
        front_err, temp_err = compare(above, run)
        assert front_err == pytest.approx(run.front_rel_err, rel=0.0, abs=2e-9)
        assert temp_err == pytest.approx(run.temp_max_err, rel=0.0, abs=1e-8)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_blocks_of_rows_match_one_block(self, golden_runs, monkeypatch, kind):
        # The 257 x 64 golden runs take two blocks (256 rows, then 1); in
        # blocks of 10 rows the errors agree to the rounding of the profile values (each block's
        # profile is its own evaluate_many call, and the feedback profile
        # integrates over the block's own nodes), on a unit drop.
        run, _ = golden_runs[kind]
        whole = compare(run.solution, run)
        monkeypatch.setattr(oracle, "_BLOCK_VALUES", 10 * run.config.n_space)
        assert compare(run.solution, run) == pytest.approx(whole, rel=0.0, abs=1e-14)

    def test_one_compare_per_run(self, classical_sol, monkeypatch):
        # The errors come from one call of the module's compare, the call a
        # wrapper of oracle.compare times.
        calls = [0]
        plain = oracle.compare

        def counting(*args):
            calls[0] += 1
            return plain(*args)

        monkeypatch.setattr(oracle, "compare", counting)
        run = run_oracle_for(classical_sol, OracleConfig(n_space=32, n_time=16))
        assert calls[0] == 1
        assert (run.front_rel_err, run.temp_max_err) == plain(classical_sol, run)


def kirchhoff(material, span, y):
    """w = span Phi(y), Phi(y) = y + delta/(p+1) y^{p+1}, written out apart from the oracle."""
    return span * (y + material.delta / (material.p + 1.0) * y ** (material.p + 1.0))


def separate_spatial_terms(stepper, w, s, sdot, t):
    """rho c0 xi (s'/s) w_xi, (k0/s^2) w_xixi and -H at interior nodes.

    The terms of the operator of the Kirchhoff variable w as their own
    formulas: central advection and diffusion, and H from the discrete face
    gradient of theta, w_xi(0) / Phi'(1).
    """
    mat, h, xi_inner = stepper.mat, stepper.h, stepper.xi[1:-1]
    adv = mat.rho * mat.c0 * xi_inner * (sdot / s) * (w[2:] - w[:-2]) / (2.0 * h)
    dif = mat.k0 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h * s * s)
    eta = xi_inner * s / (2.0 * stepper.a * math.sqrt(t))
    face_gradient = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h * (1.0 + mat.delta))
    return adv, dif, -stepper.model.heat_source(mat, eta, t, face_gradient / s)


def separate_spatial_operator(stepper, w, s, sdot, t):
    """rho c0 xi (s'/s) w_xi + (k0/s^2) w_xixi - H at interior nodes."""
    return sum(separate_spatial_terms(stepper, w, s, sdot, t))


def separate_front_speed(stepper, w, s):
    """s' = -k0 w_x(s) / (rho latent_heat) from a 4-point one-sided gradient."""
    mat = stepper.mat
    gradient = (11.0 * w[-1] - 18.0 * w[-2] + 9.0 * w[-3] - 2.0 * w[-4]) / (6.0 * stepper.h)
    return -mat.k0 * gradient / (mat.rho * mat.latent_heat * s)


def old_time_half(stepper, v, s, k):
    """Twice the old-time half of step k from (v, s), the separate formula,
    and the size of the largest sum of the operator's terms.

    The step goes from the grid's time t = times[k] to t1 = times[k + 1],
    and to the similarity front s sqrt(t1 / t).  It is linearized at the
    old field v, where its residual is -(L(v, s1) + L(v, s)) / 2; the
    oracle's old half is what remains once the separate formula's new half
    is taken off.
    """
    t, t1 = stepper.times[k : k + 2].tolist()
    s1 = s * math.sqrt(t1 / t)
    system, sdot_old, *_ = step_system(stepper, v, s, s1, t, t1)
    residual = system[3]
    new = separate_spatial_terms(stepper, v, s1, 2.0 * (s1 - s) / (t1 - t) - sdot_old, t1)
    old = separate_spatial_terms(stepper, v, s, sdot_old, t)
    term_scale = float(np.max(sum(np.abs(term) for term in old + new)))
    return -2.0 * residual - sum(new), sum(old), term_scale


class Step(NamedTuple):
    """The old level (v, s_old) at t0 of a step to t1, and its front speed."""

    v: np.ndarray
    s_old: float
    sdot_old: float
    t0: float
    t1: float


def jacobian(stepper, system):
    """The dense derivative in the interior w of step_system's residual.

    The tridiagonal part and, for the feedback source, its face-gradient
    coupling, col_g (row 5) times d(face gradient)/dw (border row 1).
    """
    jac = np.diag(system[1]) + np.diag(system[0, 1:], -1) + np.diag(system[2, :-1], 1)
    if system.shape[0] == 6:
        jac += np.outer(system[5], stepper.border[1])
    return jac


def step_equations(stepper, w, s, step):
    """The residual at the interior nodes and the Stefan residual at (w, s).

    step_system gives both at the old field v, and their derivatives in w.
    For a fixed s both are linear in w, so R(w) = R(v) + J (w - v) exactly,
    and the Stefan residual moves by stefan_w border[0] . (w - v).
    """
    system, _, stefan, stefan_w, _ = step_system(stepper, step.v, step.s_old, s, step.t0, step.t1)
    dw = (w - step.v)[1:-1]
    row = stefan_w * stepper.border[0]
    return system[3] + jacobian(stepper, system) @ dw, stefan + row @ dw


def separate_step_equations(stepper, w, s, step):
    """step_equations as their own formula.

    rho c0 (w - v) / dt - (L(w, s) + L(v, s_old)) / 2 at the speed
    s' = 2 (s - s_old) / dt - s'_old, and s - s_old - dt (s'(w, s) +
    s'_old) / 2.
    """
    dt = step.t1 - step.t0
    sdot = 2.0 * (s - step.s_old) / dt - step.sdot_old
    residual = stepper.rho_c0 * (w - step.v)[1:-1] / dt - 0.5 * (
        separate_spatial_operator(stepper, w, s, sdot, step.t1)
        + separate_spatial_operator(stepper, step.v, step.s_old, step.sdot_old, step.t0)
    )
    speed = separate_front_speed(stepper, w, s)
    return residual, s - step.s_old - 0.5 * dt * (speed + step.sdot_old)


def central_jacobian(stepper, w, s, step):
    """Central differences of separate_step_equations in the interior w and in s."""
    m = w.size - 2
    jac, row = np.empty((m, m)), np.empty(m)
    dw = 1e-6 * stepper.span
    for j in range(m):
        plus, minus = w.copy(), w.copy()
        plus[j + 1] += dw
        minus[j + 1] -= dw
        (r_plus, s_plus), (r_minus, s_minus) = (
            separate_step_equations(stepper, x, s, step) for x in (plus, minus)
        )
        jac[:, j] = (r_plus - r_minus) / (2.0 * dw)
        row[j] = (s_plus - s_minus) / (2.0 * dw)
    ds = 1e-6 * s
    (r_plus, s_plus), (r_minus, s_minus) = (
        separate_step_equations(stepper, w, x, step) for x in (s + ds, s - ds)
    )
    return jac, row, (r_plus - r_minus) / (2.0 * ds), (s_plus - s_minus) / (2.0 * ds)


def assert_jacobian_matches(sol):
    """Check the linearization of one step of sol's problem on 16 x 16.

    The step is linearized at its old field v, so v itself is perturbed off
    the similarity solution.  At each sample, each block matches central
    differences of the separate formula of the step's equations at (v, s):
    the tridiagonal part (with the feedback source's face-gradient
    coupling, col_g times d(face gradient)/dw), the front column and d_ss,
    and the Stefan row, which is zero but on the last three interior
    nodes.  The residuals at v, and by linearity at the exact new field,
    match the separate formula to rounding.
    """
    cfg = OracleConfig(n_space=16, n_time=16)
    stepper = oracle._Stepper(sol.material, sol.boundary, sol.source, cfg)
    t0, t1 = stepper.times[3:5].tolist()
    s0 = front_position(sol, t0)
    exact_old = stepper.to_kirchhoff(temperature(sol, stepper.xi * s0, t0))
    s1 = front_position(sol, t1)
    exact = stepper.to_kirchhoff(temperature(sol, stepper.xi * s1, t1))
    rng = np.random.default_rng(3)
    m = cfg.n_space - 2
    for _ in range(3):
        s = s1 * rng.uniform(0.97, 1.03)
        v = exact_old.copy()
        v[1:-1] += 0.01 * stepper.span * rng.uniform(-1.0, 1.0, m)
        system, sdot_old, _, stefan_w, d_ss = step_system(stepper, v, s0, s, t0, t1)
        assert sdot_old == pytest.approx(separate_front_speed(stepper, v, s0), rel=1e-12)
        assert system.shape == (6 if sol.source.kind == "feedback" else 5, m)
        step = Step(v, s0, sdot_old, t0, t1)
        jac = jacobian(stepper, system)
        row = stefan_w * stepper.border[0]
        assert not row[:-3].any()
        fd_jac, fd_row, fd_col, fd_d_ss = central_jacobian(stepper, v, s, step)
        for got, want in ((jac, fd_jac), (row, fd_row), (system[4], fd_col)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-7 * np.max(np.abs(want)))
        assert d_ss == pytest.approx(fd_d_ss, rel=1e-9)
        for w in (v, exact):
            got, got_stefan = step_equations(stepper, w, s, step)
            want, want_stefan = separate_step_equations(stepper, w, s, step)
            scale = float(np.max(np.abs(jac) @ np.abs(w - v)[1:-1] + np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
            assert got_stefan == pytest.approx(want_stefan, rel=0.0, abs=1e-12 * s)


# A dimensional problem whose rho c0 (4.2e6) and k0 (0.6) put the advection
# and the diffusion on scales far apart.
DIM_MATERIAL = Material(rho=1000.0, c0=4200.0, k0=0.6, latent_heat=334000.0, delta=0.5, p=0.7)
DIM_BD = BoundaryData(theta0=285.05, theta_f=273.15)


class TestOperator:
    @pytest.mark.parametrize(
        "source",
        [
            NoSource(),
            ExponentialSource(),
            SimilaritySource(lambda eta: (1.0 + eta) * np.exp(-eta * eta) / 2.0),
            FluxFeedbackSource(lambda0=800.0),
        ],
        ids=lambda source: source.kind,
    )
    def test_old_time_half_matches_separate_formula(self, source):
        sol = solve_problem(DIM_MATERIAL, DIM_BD, source)
        cfg = OracleConfig(n_space=64, n_time=256)
        stepper = oracle._Stepper(sol.material, sol.boundary, sol.source, cfg)
        span = DIM_BD.theta0 - DIM_BD.theta_f
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = int(rng.integers(cfg.n_time))
            s = front_position(sol, stepper.times[k]) * rng.uniform(0.8, 1.2)
            y = np.sort(rng.random(cfg.n_space))[::-1]
            y[0], y[-1] = 1.0, 0.0
            got, want, _ = old_time_half(stepper, kirchhoff(DIM_MATERIAL, span, y), s, k)
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_old_time_half_along_golden_run(self, golden_runs, kind):
        # Every accepted state of a golden run but the last.  Near a
        # similarity state the terms nearly cancel, so the rounding scale is
        # the size of the terms, not of the result.
        run, _ = golden_runs[kind]
        sol = run.solution
        stepper = oracle._Stepper(sol.material, sol.boundary, sol.source, run.config)
        for k in range(run.config.n_time):
            v = stepper.to_kirchhoff(run.fields[k])
            got, want, term_scale = old_time_half(stepper, v, run.front[k], k)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * term_scale)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SOURCES))
    def test_jacobian_matches_central_differences(self, kind):
        # delta = 2 makes Phi'(1) = 3 in the feedback source's
        # theta_x(0) = w_x(0) / Phi'(1).
        sol = solve_problem(unit_material(delta=2.0, p=0.7), BD, GOLDEN_SOURCES[kind])
        assert_jacobian_matches(sol)

    @pytest.mark.parametrize(
        "source",
        [
            NoSource(),
            ExponentialSource(),
            SimilaritySource(lambda eta: (1.0 + eta) * np.exp(-eta * eta) / 2.0),
            FluxFeedbackSource(lambda0=800.0),
        ],
        ids=lambda source: source.kind,
    )
    def test_jacobian_matches_central_differences_dimensional(self, source):
        # The same blocks where rho c0 and k0 put the time derivative, the
        # advection and the diffusion on scales far apart.
        assert_jacobian_matches(solve_problem(DIM_MATERIAL, DIM_BD, source))


class TestKirchhoffMap:
    """The oracle's own w = span Phi(y) and its Newton inverse."""

    @pytest.mark.parametrize("p", [1e-3, 1.0, 20.0])
    @pytest.mark.parametrize("delta", [1e-8, 1.0, 1e3])
    def test_inverse_round_trip(self, delta, p):
        # A unit drop from theta_f = 0 makes the temperatures the y values.
        material = unit_material(delta=delta, p=p)
        stepper = oracle._Stepper(material, BD, NoSource(), OracleConfig(n_space=16, n_time=16))
        y = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 1.0 - 1e-12], np.linspace(0.0, 1.0, 199)])
        w = kirchhoff(material, 1.0, y).reshape(17, 12)
        back = stepper.from_kirchhoff(w)
        assert back.shape == w.shape
        np.testing.assert_allclose(back.ravel(), y, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(stepper.to_kirchhoff(back), w, rtol=1e-13, atol=0.0)
        # The similarity layer's inverse, which the oracle may not use, agrees
        # to its own tolerance, which is absolute.
        np.testing.assert_allclose(
            back, similarity._phi_inverse_many(delta, p, w, True), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("delta", [1e12, 1e30])
    @pytest.mark.parametrize("p", [2.0, 20.0])
    def test_inverses_agree_where_phi_of_one_dwarfs_phi(self, p, delta):
        # Phi(1) ~ delta / (p + 1) dwarfs Phi(y) over most of [0, 1]; both
        # inverses stop on the update size, so both hold y to rounding.
        material = unit_material(delta=delta, p=p)
        stepper = oracle._Stepper(material, BD, NoSource(), OracleConfig(n_space=16, n_time=16))
        y = np.linspace(0.0, 1.0, 101)
        w = kirchhoff(material, 1.0, y)
        back = stepper.from_kirchhoff(w)
        np.testing.assert_allclose(back, y, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            similarity._phi_inverse_many(delta, p, w, True), back, rtol=0.0, atol=1e-15
        )

    def test_blocks_of_rows_each_converge(self, monkeypatch):
        # Past _BLOCK_VALUES the rows go in blocks, each with its own stop:
        # each block maps as it maps alone, also when written into w itself.
        monkeypatch.setattr(oracle, "_BLOCK_VALUES", 5 * 16)
        material = unit_material(delta=2.0, p=1.7)
        stepper = oracle._Stepper(material, BD, NoSource(), OracleConfig(n_space=16, n_time=16))
        w = np.random.default_rng(6).uniform(-0.1, 2.0, (17, 16))
        got = stepper.from_kirchhoff(w)
        for start in range(0, 17, 5):
            rows = slice(start, start + 5)
            assert got[rows].tobytes() == stepper.from_kirchhoff(w[rows]).tobytes()
        assert stepper.from_kirchhoff(w, out=w) is w
        assert w.tobytes() == got.tobytes()

    def test_inverse_extends_below_zero(self):
        # Phi is extended by its tangent y below 0, so an undershoot of w
        # maps to the same undershoot of the temperature.
        stepper = oracle._Stepper(unit_material(delta=1e3, p=0.5), BD, NoSource(), OracleConfig())
        w = np.array([-1e-3, -1e-9, 0.0])
        np.testing.assert_array_equal(stepper.from_kirchhoff(w), w)


class TestIndependence:
    """The oracle takes nothing from the similarity layer but its inputs."""

    SOLUTION_ONLY = {"solution", "lam", "psi", "y_prime0", "y_many", "equation"}

    def test_imports_from_similarity(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any("similarity" in alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if "similarity" in (node.module or ""):
                    imported |= names
                else:
                    assert "similarity" not in names
        assert imported == {"SimilaritySolution", "problem_model"}

    def test_no_closed_form_phi_map(self):
        # The oracle builds its own Phi and its inverse from the material; it
        # may not take the similarity layer's phi_map, y_from_psi or any of
        # its Phi inverses (_phi_inverse_many, _phi_inverse_p1, ...), by any
        # route.
        names = set()
        for node in ast.walk(ast.parse(inspect.getsource(oracle))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert not names & {"phi_map", "y_from_psi"}
        assert not {name for name in names if "phi_inverse" in name}

    def test_stepper_reads_no_solution_quantity(self):
        tree = ast.parse(inspect.getsource(oracle._Stepper))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not read & self.SOLUTION_ONLY


# (source kind, Ste, delta, p, feedback) of the 18 seeded verify configs of
# seeds 3 and 101-110 whose oracle checks failed at the former default,
# backward Euler on 128 x 1024 uniform steps with interface-mean
# conductivities; the worst read 4.15 times its threshold.
FORMER_MISSES = [
    ("exponential", 0.11818710754069348, 2.649628004392267, 0.5913422115901557, None),
    ("exponential", 0.4409045573084443, 4.921076229223259, 0.6493640631088082, None),
    ("none", 0.46416439154374806, 3.530997795925275, 0.5713483187626, None),
    ("none", 0.6065364695087798, 2.7704997025274527, 0.6838494043200407, None),
    ("exponential", 0.35253840388478175, 4.591305373457054, 0.5126432144525602, None),
    ("feedback", 0.17135084410127824, 3.2878977961263294, 0.899774676588901, 0.555829918032812),
    ("none", 0.17677494422037113, 4.3725825764311885, 0.8417038855690839, None),
    ("none", 0.3534787948042381, 2.4530613569698874, 0.7144030529174838, None),
    ("none", 0.29116724354066553, 1.289741851537952, 0.5323496346585197, None),
    ("none", 0.2979446413368709, 4.8638149195690925, 1.179906164748595, None),
    ("none", 0.1320514074726403, 1.1985272818514072, 0.5576671806933092, None),
    ("feedback", 0.1661327632433266, 1.94941458444847, 0.5888778648590655, 1.1572590639055353),
    ("none", 0.4182615907200485, 2.541824621819711, 0.5898380919548881, None),
    ("none", 0.11012262258072449, 3.7185883856704427, 1.020685734170057, None),
    ("none", 0.27087371413904304, 3.203970774798992, 0.5109860892155483, None),
    ("exponential", 0.3715756305429213, 4.560165799347803, 0.5783249728524966, None),
    ("none", 1.292616419147048, 3.353408047111828, 0.5463582425690953, None),
    ("none", 1.5922815078591408, 4.777338138696497, 0.6344821684110533, None),
]


@pytest.mark.parametrize(
    "kind, ste, delta, p, feedback",
    FORMER_MISSES,
    ids=[f"{case[0]}-ste{case[1]:.4g}-delta{case[2]:.4g}-p{case[3]:.4g}" for case in FORMER_MISSES],
)
def test_former_seeded_misses_pass_at_default(kind, ste, delta, p, feedback):
    sol = solve_problem(*reduced_problem(ste, delta, p, kind, feedback))
    results = oracle_checks(sol, OracleConfig())
    assert [result.name for result in results] == ["oracle_front_rel_err", "oracle_temp_max_err"]
    assert all(result.passed for result in results)


# (source kind, Ste, delta, p) at delta = 1e3, where y ~ sqrt(2 Phi / delta)
# behind the front is a square-root layer.  Stepped in theta, the oracle
# failed all three at its default grid (front errors to 0.044, temperature
# errors to 0.056); stepped in w, whose differences the layer leaves smooth,
# it passes them.
LARGE_DELTA_CASES = [
    ("none", 0.01, 1e3, 1.0),
    ("exponential", 1.0, 1e3, 20.0),
    ("feedback", 100.0, 1e3, 1.0),
]


@pytest.mark.parametrize("kind, ste, delta, p", LARGE_DELTA_CASES)
def test_large_delta_passes_at_default(kind, ste, delta, p):
    feedback = 1.0 if kind == "feedback" else None
    sol = solve_problem(*reduced_problem(ste, delta, p, kind, feedback))
    results = oracle_checks(sol, OracleConfig())
    assert [result.name for result in results] == ["oracle_front_rel_err", "oracle_temp_max_err"]
    assert all(result.passed for result in results)
