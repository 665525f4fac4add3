"""Tests for the finite-difference moving-boundary solver."""

import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg

import stefansim.oracle as oracle
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
from stefansim.oracle import OracleConfig, OracleRun, compare, run_oracle_for
from stefansim.reconstruct import front_position, temperature
from stefansim.similarity import solve_problem

BD = BoundaryData(theta0=1.0, theta_f=0.0)


def unit_material(ste=1.0, delta=1.0, p=1.0):
    return Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / ste, delta=delta, p=p)


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

    def test_time_window(self):
        with pytest.raises(InvalidInput):
            OracleConfig(t_start=0.0)
        with pytest.raises(InvalidInput):
            OracleConfig(t_start=2.0, t_end=1.0)

    def test_scheme_weight_range(self):
        with pytest.raises(InvalidInput):
            OracleConfig(theta_scheme=0.25)
        with pytest.raises(InvalidInput):
            OracleConfig(theta_scheme=1.5)


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
        cfg = classical_run.config
        s0 = front_position(classical_sol, cfg.t_start)
        want = temperature(classical_sol, classical_run.xi * s0, cfg.t_start)
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
        finer = run_oracle_for(classical_sol, OracleConfig(n_space=128, n_time=1024))
        ratio = classical_run.front_rel_err / finer.front_rel_err
        assert 3.0 <= ratio <= 5.0

    def test_crank_nicolson_scheme_agrees(self, classical_sol):
        run = run_oracle_for(
            classical_sol,
            OracleConfig(n_space=64, n_time=256, theta_scheme=0.5),
        )
        assert run.front_rel_err <= 0.02

    def test_feedback_source_tracks_solution(self):
        sol = solve_problem(unit_material(), BD, FluxFeedbackSource(lambda0=0.5))
        run = run_oracle_for(sol, OracleConfig(n_space=64, n_time=256))
        assert run.front_rel_err <= 0.02
        assert run.temp_max_err <= 0.03


def tridiagonal(m=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(m - 1), 4.0 + rng.random(m), rng.random(m - 1), rng.random(m)


class TestSolveBanded:
    def test_matches_scipy_solve_banded(self):
        lower, diag, upper, rhs = tridiagonal()
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = upper
        ab[1] = diag
        ab[2, :-1] = lower
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        got = oracle.solve_banded(lower, diag, upper, rhs)
        assert got.tobytes() == want.tobytes()

    # entry 3 is the right-hand side.
    @pytest.mark.parametrize("entry", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, entry, bad):
        arrays = list(tridiagonal())
        arrays[entry][3] = bad
        with pytest.raises(StefanError, match="non-finite"):
            oracle.solve_banded(*arrays)

    def test_singular_matrix_rejected(self):
        lower, diag, upper, rhs = tridiagonal()
        lower[:] = 0.0
        diag[5] = 0.0
        with pytest.raises(NonConvergence, match="singular"):
            oracle.solve_banded(lower, diag, upper, rhs)

    def test_failed_solve_names_the_step_time(self, classical_sol, monkeypatch):
        def singular(lower, diag, upper, rhs, *flags):
            return lower, diag, upper, rhs, 1

        monkeypatch.setattr(oracle, "dgtsv", singular)
        with pytest.raises(NonConvergence, match=r"singular .* at t = "):
            run_oracle_for(classical_sol, OracleConfig(n_space=32, n_time=16))


class TestSweepCounter:
    def counted_run(self, monkeypatch, sol, cfg):
        """A run with oracle.solve_banded counted, plus the solves of each step."""
        calls = [0]
        per_step = []
        solve = oracle.solve_banded
        advance = oracle._Stepper.advance

        def counting_solve(*args):
            calls[0] += 1
            return solve(*args)

        def recording_advance(stepper, *args):
            before = calls[0]
            out = advance(stepper, *args)
            per_step.append(calls[0] - before)
            return out

        monkeypatch.setattr(oracle, "solve_banded", counting_solve)
        monkeypatch.setattr(oracle._Stepper, "advance", recording_advance)
        return run_oracle_for(sol, cfg), per_step

    @pytest.mark.parametrize("theta_scheme", [1.0, 0.5])
    def test_one_solve_per_sweep(self, monkeypatch, theta_scheme):
        sol = solve_problem(unit_material(), BD, FluxFeedbackSource(lambda0=0.5))
        cfg = OracleConfig(n_space=64, n_time=256, theta_scheme=theta_scheme)
        plain = run_oracle_for(sol, cfg)
        run, per_step = self.counted_run(monkeypatch, sol, cfg)
        assert len(per_step) == cfg.n_time
        assert all(1 <= k <= cfg.picard_max_iter for k in per_step)
        assert run.front.tobytes() == plain.front.tobytes()
        assert run.fields.tobytes() == plain.fields.tobytes()

    def test_single_sweep_steps_solve_once(self, monkeypatch, classical_sol):
        # A tolerance every sweep meets stops each step after one sweep.
        cfg = OracleConfig(n_space=64, n_time=64, picard_tol=1.0)
        _, per_step = self.counted_run(monkeypatch, classical_sol, cfg)
        assert per_step == [1] * cfg.n_time


# repr of (front_rel_err, temp_max_err) of a 64 x 256 run at Ste = delta =
# p = 1, pinned so that any change to the sweep arithmetic shows up here.
# Recorded with numpy 2.4.6 and scipy 1.17.1 on x86_64 with AVX-512 (numpy's
# dispatched float64 kernels).  Another numpy or scipy build or another SIMD
# path can move exp, power and erf in the last ulp, and with them these
# digits, without any change to the scheme.
GOLDEN_ERRORS = {
    ("none", 1.0): ("0.016397222570188434", "0.01715265444546493"),
    ("none", 0.5): ("0.001160412198006905", "0.0011943662859375485"),
    ("exponential", 1.0): ("0.014944787769553977", "0.012525978501812635"),
    ("exponential", 0.5): ("0.001103600458323225", "0.00090921433027886"),
    ("feedback", 1.0): ("0.016894170609169062", "0.02057633117388678"),
    ("feedback", 0.5): ("0.0011822880046266546", "0.0014147936533942633"),
}
# The Crank-Nicolson errors when the old-time half evaluated its own copy of
# the spatial operator, advection and diffusion differenced separately.  It
# now applies the Picard bands to differences of the old field, which moves
# them by at most 6.6e-13 relative; backward Euler never evaluates it.
SEPARATE_OPERATOR_GOLDEN_ERRORS = {
    ("none", 0.5): (0.0011604121980063828, 0.0011943662859372536),
    ("exponential", 0.5): (0.0011036004583229024, 0.0009092143302782667),
    ("feedback", 0.5): (0.0011822880046261717, 0.0014147936533935486),
}
# The same errors when lam came from plain bisection.  Its lam differed from
# the Brent root by at most 8.3e-13 relative (exponential source), which
# moves the errors by at most 1.4e-9 relative.
BISECTION_GOLDEN_ERRORS = {
    ("none", 1.0): (0.01639722257026269, 0.017152654445263437),
    ("none", 0.5): (0.0011604121980804604, 0.0011943662866086679),
    ("exponential", 1.0): (0.014944787770406526, 0.012525978499611104),
    ("exponential", 0.5): (0.0011036004578136686, 0.0009092143290002994),
    ("feedback", 1.0): (0.016894170609304114, 0.020576331173534534),
    ("feedback", 0.5): (0.0011822880048404662, 0.0014147936550544839),
}
# The flux-feedback lam that bisection found for the golden feedback case.
BISECTION_FEEDBACK_LAM = 0.7819448915152327
# The feedback errors at BISECTION_FEEDBACK_LAM with Psi built from the two
# unscaled integrals of e^{z^2} instead of the Dawson form.  The exact
# profile differs by ~1e-15, so the errors agree to rounding.
UNSCALED_FEEDBACK_GOLDEN_ERRORS = {
    ("feedback", 1.0): (0.016894170609302456, 0.02057633117353214),
    ("feedback", 0.5): (0.0011822880048413117, 0.0014147936550541855),
}
# The same errors when every step started from the explicit Euler front.
# The Picard iteration stagnates at the same fixed point from either start,
# so the two sets differ only at the level of picard_tol.
PARENT_GOLDEN_ERRORS = {
    ("none", 1.0): (0.01639722257238677, 0.01715265444748508),
    ("none", 0.5): (0.0011604121904293416, 0.001194366279052575),
    ("exponential", 1.0): (0.014944787790130934, 0.012525978516223894),
    ("exponential", 0.5): (0.0011036004578136686, 0.0009092143290002994),
    ("feedback", 1.0): (0.0168941706334704, 0.020576331202850063),
    ("feedback", 0.5): (0.0011822880175134775, 0.0014147936692942807),
}
# solve_banded calls (sweeps) of each golden run.  Every step starting from
# the explicit Euler front took 1344, 1327 and 1403 sweeps at theta_scheme 1
# and 1148, 1134 and 1174 at 0.5 (none, exponential, feedback); the
# predicted front start takes 681, 1119 and 1244, and 686, 841 and 872.
SWEEP_BUDGET = {
    ("none", 1.0): 950,
    ("none", 0.5): 890,
    ("exponential", 1.0): 1220,
    ("exponential", 0.5): 980,
    ("feedback", 1.0): 1320,
    ("feedback", 0.5): 1010,
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
    for kind, theta_scheme in sorted(GOLDEN_ERRORS):
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        cfg = OracleConfig(n_space=64, n_time=256, theta_scheme=theta_scheme)
        calls = [0]
        solve = oracle.solve_banded

        def counting_solve(*args):
            calls[0] += 1
            return solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "solve_banded", counting_solve)
            out[kind, theta_scheme] = run_oracle_for(sol, cfg), calls[0]
    return out


class TestGoldenErrors:
    @pytest.mark.parametrize("kind, theta_scheme", sorted(GOLDEN_ERRORS))
    def test_errors_pinned(self, golden_runs, kind, theta_scheme):
        run, _ = golden_runs[kind, theta_scheme]
        got = (repr(run.front_rel_err), repr(run.temp_max_err))
        assert got == GOLDEN_ERRORS[kind, theta_scheme]

    @pytest.mark.parametrize("kind, theta_scheme", sorted(GOLDEN_ERRORS))
    def test_errors_match_euler_start(self, golden_runs, kind, theta_scheme):
        run, _ = golden_runs[kind, theta_scheme]
        got = (run.front_rel_err, run.temp_max_err)
        assert got == pytest.approx(PARENT_GOLDEN_ERRORS[kind, theta_scheme], rel=1e-7)

    @pytest.mark.parametrize("kind, theta_scheme", sorted(GOLDEN_ERRORS))
    def test_errors_match_bisection_lam(self, golden_runs, kind, theta_scheme):
        run, _ = golden_runs[kind, theta_scheme]
        got = (run.front_rel_err, run.temp_max_err)
        assert got == pytest.approx(BISECTION_GOLDEN_ERRORS[kind, theta_scheme], rel=1e-8)

    @pytest.mark.parametrize("kind, theta_scheme", sorted(SEPARATE_OPERATOR_GOLDEN_ERRORS))
    def test_errors_match_separate_operator(self, golden_runs, kind, theta_scheme):
        run, _ = golden_runs[kind, theta_scheme]
        got = (run.front_rel_err, run.temp_max_err)
        want = SEPARATE_OPERATOR_GOLDEN_ERRORS[kind, theta_scheme]
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("kind, theta_scheme", sorted(UNSCALED_FEEDBACK_GOLDEN_ERRORS))
    def test_feedback_errors_match_unscaled_form(self, kind, theta_scheme):
        # Both forms at one lam: the Dawson profile at the lam the unscaled
        # errors were recorded with.
        sol = solve_problem(unit_material(), BD, GOLDEN_SOURCES[kind])
        sol = dataclasses.replace(sol, lam=BISECTION_FEEDBACK_LAM)
        run = run_oracle_for(sol, OracleConfig(n_space=64, n_time=256, theta_scheme=theta_scheme))
        got = (run.front_rel_err, run.temp_max_err)
        want = UNSCALED_FEEDBACK_GOLDEN_ERRORS[kind, theta_scheme]
        assert got == pytest.approx(want, rel=1e-12)


class TestPredictedFrontStart:
    @pytest.mark.parametrize("kind, theta_scheme", sorted(SWEEP_BUDGET))
    def test_sweep_budget(self, golden_runs, kind, theta_scheme):
        _, sweeps = golden_runs[kind, theta_scheme]
        assert sweeps <= SWEEP_BUDGET[kind, theta_scheme]

    # (source, Ste, delta, p), run at 48 x 128.  The probe problems come from
    # a random probe.  Starting the field from a linear extrapolation of the
    # accepted fields collapses the front of all three at theta_scheme 0.5;
    # quadratic and cubic field extrapolations collapse most of the twelve
    # runs, and a cubic extrapolation of s in place of s^2 collapses
    # feedback-probe at 0.5.
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

    @pytest.mark.parametrize("theta_scheme", [1.0, 0.5])
    @pytest.mark.parametrize("source, ste, delta, p", LOOSE_PROBLEMS)
    def test_single_sweep_steps_stay_stable(self, source, ste, delta, p, theta_scheme):
        # picard_tol = 1 accepts every step after one sweep, so the start
        # of the iteration becomes part of the scheme.
        cfg = OracleConfig(n_space=48, n_time=128, theta_scheme=theta_scheme, picard_tol=1.0)
        run = run_oracle_for(solve_problem(unit_material(ste, delta, p), BD, source), cfg)
        assert np.all(np.diff(run.front) > 0.0)

    def test_stagnation_failure_names_step_and_moves(self):
        # The first step of this coarse run moves the front by about 40 %,
        # and its sweeps never stagnate.
        cfg = OracleConfig(n_space=48, n_time=128)
        with pytest.raises(
            NonConvergence,
            match=r"at step 0, t = 0\.017734375: the last sweep moved the field by "
            r"\S+ and the front by \S+ \(relative; picard_tol = 1e-10\)$",
        ):
            run_oracle_for(solve_problem(unit_material(5.0, 0.145, 0.876), BD, NoSource()), cfg)


class TestCompare:
    def test_initialized_never_stepped_is_exact(self, classical_sol):
        cfg = OracleConfig(n_space=64, n_time=256)
        s0 = front_position(classical_sol, cfg.t_start)
        xi = np.linspace(0.0, 1.0, cfg.n_space)
        u0 = np.asarray(temperature(classical_sol, xi * s0, cfg.t_start), dtype=float)
        run = OracleRun(
            config=cfg,
            material=classical_sol.material,
            boundary=classical_sol.boundary,
            source=classical_sol.source,
            xi=xi,
            times=np.array([cfg.t_start]),
            front=np.array([s0]),
            fields=u0[None, :],
            front_rel_err=math.nan,
            temp_max_err=math.nan,
        )
        front_err, temp_err = compare(classical_sol, run)
        assert front_err == 0.0
        assert temp_err <= 1e-12

    def test_mismatched_problem_rejected(self, classical_sol, classical_run):
        other = solve_problem(unit_material(ste=2.0, delta=1e-12), BD, NoSource())
        with pytest.raises(MismatchedProblem):
            compare(other, classical_run)

    def test_run_invariants_enforced(self, classical_sol):
        cfg = OracleConfig(n_space=64, n_time=256)
        xi = np.linspace(0.0, 1.0, cfg.n_space)
        common = dict(
            config=cfg,
            material=classical_sol.material,
            boundary=classical_sol.boundary,
            source=classical_sol.source,
            xi=xi,
            times=np.array([0.01, 0.02]),
            front_rel_err=math.nan,
            temp_max_err=math.nan,
        )
        with pytest.raises(FrontCollapse):
            OracleRun(
                front=np.array([0.2, 0.1]),
                fields=np.zeros((2, cfg.n_space)),
                **common,
            )
        with pytest.raises(InvalidInput):
            OracleRun(
                front=np.array([0.1, 0.2]),
                fields=np.full((2, cfg.n_space), 2.0),
                **common,
            )


def separate_spatial_operator(stepper, u, s, sdot, t):
    """c rho xi (s'/s) u_xi + (1/s^2)(k u_xi)_xi - H at interior nodes.

    The old-time half as its own formula, advection and diffusion
    differenced separately, with H from the discrete face gradient.
    """
    mat, h, xi_inner = stepper.mat, stepper.h, stepper.xi[1:-1]
    fac = stepper._coeff_factor(u)
    c_rho = mat.rho * mat.c0 * fac
    k = mat.k0 * fac
    kf = 0.5 * (k[:-1] + k[1:])
    adv = c_rho[1:-1] * xi_inner * (sdot / s) * (u[2:] - u[:-2]) / (2.0 * h)
    dif = (kf[1:] * (u[2:] - u[1:-1]) - kf[:-1] * (u[1:-1] - u[:-2])) / (h * h * s * s)
    eta = xi_inner * s / (2.0 * stepper.a * math.sqrt(t))
    face_gradient = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    return adv + dif - stepper.model.heat_source(mat, eta, t, face_gradient / s)


# A dimensional problem whose temperatures sit near 273 K, where an operator
# applied to u itself rather than to its differences would lose digits.
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
        cfg = OracleConfig(n_space=64, n_time=256, theta_scheme=0.5)
        stepper = oracle._Stepper(sol.material, sol.boundary, sol.source, cfg)
        span = DIM_BD.theta0 - DIM_BD.theta_f
        rng = np.random.default_rng(11)
        for _ in range(5):
            t = rng.uniform(cfg.t_start, cfg.t_end)
            s = front_position(sol, t) * rng.uniform(0.8, 1.2)
            v = DIM_BD.theta_f + span * np.sort(rng.random(cfg.n_space))[::-1]
            v[0], v[-1] = DIM_BD.theta0, DIM_BD.theta_f
            sdot = stepper.front_speed(v, s)
            _, lo, mid, hi, h_src = stepper._operator(v, s, sdot, t)
            got = lo * (v[:-2] - v[1:-1]) + hi * (v[2:] - v[1:-1]) - h_src
            want = separate_spatial_operator(stepper, v, s, sdot, t)
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
            rounding = 4.0 * np.finfo(float).eps * (np.abs(lo) + np.abs(hi))
            assert np.all(np.abs(mid - (lo + hi)) <= rounding)


class TestIndependence:
    """The oracle takes nothing from the similarity layer but its inputs."""

    SOLUTION_ONLY = {"lam", "psi", "y_prime0", "y_many", "equation"}

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

    def test_stepper_reads_no_solution_quantity(self):
        tree = ast.parse(inspect.getsource(oracle._Stepper))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not read & self.SOLUTION_ONLY
