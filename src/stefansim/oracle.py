"""Independent finite-difference check of the similarity solutions.

The moving-boundary problem is solved directly on the PDE

    rho c(theta) theta_t = (k(theta) theta_x)_x - H(x, t),   0 < x < s(t),
    theta(0, t) = theta0,   theta(s(t), t) = theta_f,
    k0 theta_x(s(t), t) = -rho latent_heat s'(t),

with none of the closed-form machinery: the only contact with the
similarity layer is the initial condition at t_start (the problem needs a
compatible initial state, and criterion is agreement afterwards) and the
final comparison.  The front is immobilized by xi = x / s(t), turning the
domain into the fixed strip [0, 1]:

    rho c(u) [u_t - xi (s'/s) u_xi] = (1/s^2) (k(u) u_xi)_xi - H(xi s, t).

Time stepping is a theta-weighted scheme (default backward Euler,
theta_scheme = 1) whose nonlinear coefficients are resolved by Picard
iteration: coefficients and the front speed are lagged, each sweep solves
one tridiagonal system, and sweeps repeat until the field and front
stagnate to 1e-10 (relative).  Space is second order: conservative
differencing with interface-mean conductivities, central advection, a
4-point one-sided front gradient for the Stefan condition and the 3-point
one-sided fixed-face gradient that the flux-feedback source prescribes.
The flux-feedback source is fed from the discrete field, never from the
closed-form slope, so the comparison stays two-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import FrontCollapse, InvalidInput, MismatchedProblem, NonConvergence
from .model import BoundaryData, Material, SourceSpec, dimensionless_groups
from .numerics import DEFAULT_TOL, Tolerance
from .reconstruct import front_position, temperature
from .similarity import SimilaritySolution, solve_problem, source_model


@dataclass(frozen=True)
class OracleConfig:
    """Grid and scheme parameters for the finite-difference solver.

    Attributes:
        n_space: Spatial nodes on [0, 1] (>= 16).
        n_time: Time steps from t_start to t_end (>= 16).
        t_start: Initialization time, > 0 (the front must have left x = 0).
        t_end: Final time, > t_start.
        theta_scheme: Implicitness weight in [0.5, 1]; 1 is backward
            Euler, 0.5 Crank-Nicolson.
        picard_tol: Relative stagnation tolerance of the Picard sweeps.
        picard_max_iter: Sweep budget per time step.
    """

    n_space: int = 128
    n_time: int = 1024
    t_start: float = 0.01
    t_end: float = 1.0
    theta_scheme: float = 1.0
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self) -> None:
        if self.n_space < 16:
            raise InvalidInput(f"n_space must be >= 16, got {self.n_space}")
        if self.n_time < 16:
            raise InvalidInput(f"n_time must be >= 16, got {self.n_time}")
        if not (0.0 < self.t_start < self.t_end) or not math.isfinite(self.t_end):
            raise InvalidInput(
                f"need 0 < t_start < t_end, got t_start={self.t_start}, t_end={self.t_end}"
            )
        if not 0.5 <= self.theta_scheme <= 1.0:
            raise InvalidInput(f"theta_scheme must be in [0.5, 1], got {self.theta_scheme}")
        if not (self.picard_tol > 0.0 and self.picard_max_iter >= 1):
            raise InvalidInput("picard_tol must be > 0 and picard_max_iter >= 1")


@dataclass(frozen=True)
class OracleRun:
    """Trajectory produced by the finite-difference solver.

    fields[k, i] approximates theta(xi[i] * front[k], times[k]); front[k]
    approximates s(times[k]).  front_rel_err and temp_max_err hold the
    comparison against the similarity solution used for initialization
    (front error relative, temperature error absolute in K).
    """

    config: OracleConfig
    material: Material
    boundary: BoundaryData
    source: SourceSpec
    xi: np.ndarray
    times: np.ndarray
    front: np.ndarray
    fields: np.ndarray
    front_rel_err: float
    temp_max_err: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.front) <= 0.0):
            raise FrontCollapse("oracle front trajectory is not strictly increasing")
        eps = 1e-6 * (self.boundary.theta0 - self.boundary.theta_f)
        if self.fields.min() < self.boundary.theta_f - eps or self.fields.max() > self.boundary.theta0 + eps:
            raise InvalidInput(
                "oracle temperatures leave the [theta_f, theta0] band beyond the 1e-6 slack"
            )


def _front_gradient(u: np.ndarray, h: float) -> float:
    """Third-order one-sided du/dxi at xi = 1."""
    return (11.0 * u[-1] - 18.0 * u[-2] + 9.0 * u[-3] - 2.0 * u[-4]) / (6.0 * h)


def _face_gradient(u: np.ndarray, h: float) -> float:
    """Second-order one-sided du/dxi at xi = 0."""
    return (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)


class _Stepper:
    """One theta-weighted Picard-resolved time step of the front-fixed system."""

    def __init__(self, material: Material, boundary: BoundaryData, source: SourceSpec, cfg: OracleConfig):
        self.mat = material
        self.bd = boundary
        self.cfg = cfg
        self.n = cfg.n_space
        self.xi = np.linspace(0.0, 1.0, self.n)
        self.h = self.xi[1] - self.xi[0]
        self.span = boundary.theta0 - boundary.theta_f
        self.a = math.sqrt(material.k0 / (material.rho * material.c0))
        groups = dimensionless_groups(material, boundary, source)
        self.model = source_model(source, groups.ste, material.delta, material.p, groups.feedback)

    def _coeff_factor(self, u: np.ndarray) -> np.ndarray:
        """1 + delta y^p with y clipped to [0, 1]; shared by k and c."""
        y = np.clip((u - self.bd.theta_f) / self.span, 0.0, 1.0)
        return 1.0 + self.mat.delta * y**self.mat.p

    def _source_interior(self, u: np.ndarray, s: float, t: float) -> np.ndarray:
        """H at the interior nodes, from the discrete state only."""
        eta = self.xi[1:-1] * s / (2.0 * self.a * math.sqrt(t))
        return self.model.heat_source(self.mat, eta, t, _face_gradient(u, self.h) / s)

    def _spatial_operator(self, u: np.ndarray, s: float, sdot: float, t: float) -> np.ndarray:
        """c rho xi (s'/s) u_xi + (1/s^2)(k u_xi)_xi - H at interior nodes."""
        fac = self._coeff_factor(u)
        c_rho = self.mat.rho * self.mat.c0 * fac
        k = self.mat.k0 * fac
        kf = 0.5 * (k[:-1] + k[1:])
        adv = c_rho[1:-1] * self.xi[1:-1] * (sdot / s) * (u[2:] - u[:-2]) / (2.0 * self.h)
        dif = (kf[1:] * (u[2:] - u[1:-1]) - kf[:-1] * (u[1:-1] - u[:-2])) / (
            self.h * self.h * s * s
        )
        return adv + dif - self._source_interior(u, s, t)

    def front_speed(self, u: np.ndarray, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat)."""
        return -self.mat.k0 * _front_gradient(u, self.h) / (self.mat.rho * self.mat.latent_heat * s)

    def advance(
        self, v: np.ndarray, s_old: float, t0: float, t1: float
    ) -> tuple[np.ndarray, float]:
        """Advance one step from (v, s_old) at t0 to t1."""
        cfg = self.cfg
        w = cfg.theta_scheme
        dt = t1 - t0
        h, xi, n = self.h, self.xi, self.n
        sdot_old = self.front_speed(v, s_old)
        if w < 1.0:
            op_old = self._spatial_operator(v, s_old, sdot_old, t0)
        else:
            op_old = 0.0
        c_old = self.mat.rho * self.mat.c0 * self._coeff_factor(v)
        u = v.copy()
        s = s_old + dt * sdot_old
        for _ in range(cfg.picard_max_iter):
            sdot_new = self.front_speed(u, s)
            s_new = s_old + dt * (w * sdot_new + (1.0 - w) * sdot_old)
            if s_new <= 0.0:
                raise FrontCollapse(f"front position went nonpositive at t = {t1}")
            fac = self._coeff_factor(u)
            c_new = self.mat.rho * self.mat.c0 * fac
            k_new = self.mat.k0 * fac
            kf = 0.5 * (k_new[:-1] + k_new[1:])
            cbar = w * c_new + (1.0 - w) * c_old
            coef_time = cbar[1:-1] / dt
            r = sdot_new / s_new
            adv_c = c_new[1:-1] * xi[1:-1] * r / (2.0 * h)
            dif_c = 1.0 / (h * h * s_new * s_new)
            # kf[i-1] couples U_{i-1}, kf[i] couples U_{i+1} (i = 1..n-2).
            sub = -w * (-adv_c + kf[: n - 2] * dif_c)
            sup = -w * (adv_c + kf[1 : n - 1] * dif_c)
            diag = coef_time + w * (kf[: n - 2] + kf[1 : n - 1]) * dif_c
            h_new = self._source_interior(u, s_new, t1)
            rhs = coef_time * v[1:-1] - w * h_new + (1.0 - w) * op_old
            rhs[0] -= sub[0] * self.bd.theta0
            rhs[-1] -= sup[-1] * self.bd.theta_f
            ab = np.zeros((3, n - 2))
            ab[0, 1:] = sup[:-1]
            ab[1, :] = diag
            ab[2, :-1] = sub[1:]
            interior = solve_banded((1, 1), ab, rhs)
            u_new = np.empty(n)
            u_new[0] = self.bd.theta0
            u_new[-1] = self.bd.theta_f
            u_new[1:-1] = interior
            moved = float(np.max(np.abs(u_new - u))) / self.span
            front_moved = abs(s_new - s) / s_new
            u, s = u_new, s_new
            if moved <= cfg.picard_tol and front_moved <= cfg.picard_tol:
                break
        else:
            raise NonConvergence(
                f"Picard sweeps did not stagnate within {cfg.picard_max_iter} "
                f"iterations at t = {t1}"
            )
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return u, s


def run_oracle(
    material: Material,
    boundary: BoundaryData,
    source: SourceSpec,
    cfg: OracleConfig,
    tol: Tolerance = DEFAULT_TOL,
) -> OracleRun:
    """Solve the moving-boundary problem numerically and compare.

    The initial state at cfg.t_start is sampled from the similarity
    solution; everything afterwards is plain finite differences.  The
    returned run carries the comparison errors against that solution.

    Raises:
        NonConvergence: A time step's Picard sweeps failed to stagnate.
        FrontCollapse: The computed front stopped advancing.
    """
    sol = solve_problem(material, boundary, source, tol)
    return run_oracle_for(sol, cfg)


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """run_oracle against an already-computed similarity solution."""
    stepper = _Stepper(sol.material, sol.boundary, sol.source, cfg)
    times = np.linspace(cfg.t_start, cfg.t_end, cfg.n_time + 1)
    fronts = np.empty(cfg.n_time + 1)
    fields = np.empty((cfg.n_time + 1, cfg.n_space))
    s = front_position(sol, cfg.t_start)
    u = np.asarray(temperature(sol, stepper.xi * s, cfg.t_start, exact=True), dtype=float)
    fronts[0] = s
    fields[0] = u
    for k in range(cfg.n_time):
        u, s = stepper.advance(u, s, times[k], times[k + 1])
        fronts[k + 1] = s
        fields[k + 1] = u
    run = OracleRun(
        config=cfg,
        material=sol.material,
        boundary=sol.boundary,
        source=sol.source,
        xi=stepper.xi,
        times=times,
        front=fronts,
        fields=fields,
        front_rel_err=math.nan,
        temp_max_err=math.nan,
    )
    front_err, temp_err = compare(sol, run)
    return OracleRun(
        config=cfg,
        material=sol.material,
        boundary=sol.boundary,
        source=sol.source,
        xi=stepper.xi,
        times=times,
        front=fronts,
        fields=fields,
        front_rel_err=front_err,
        temp_max_err=temp_err,
    )


def compare(sol: SimilaritySolution, run: OracleRun) -> tuple[float, float]:
    """Errors of a finite-difference run against a similarity solution.

    Returns:
        (front_rel_err, temp_max_err): the largest relative front
        discrepancy over the run's times, and the largest absolute
        temperature discrepancy (K) over all nodes and times, comparing on
        the common domain (numerical nodes beyond the exact front compare
        against theta_f, the exact solid-side value).

    Raises:
        MismatchedProblem: The run was produced from a different problem.
    """
    if (
        run.material != sol.material
        or run.boundary != sol.boundary
        or run.source != sol.source
    ):
        raise MismatchedProblem(
            "oracle run and similarity solution describe different problems"
        )
    s_exact = front_position(sol, run.times)
    front_rel_err = float(np.max(np.abs(run.front - s_exact) / s_exact))
    denom = 2.0 * sol.dimensionless.a * np.sqrt(run.times)
    eta = (run.xi[None, :] * run.front[:, None]) / denom[:, None]
    y = sol.y_many(np.clip(eta, 0.0, sol.lam), exact=True)
    theta_exact = sol.boundary.theta_f + (sol.boundary.theta0 - sol.boundary.theta_f) * y
    theta_exact[eta > sol.lam] = sol.boundary.theta_f
    temp_max_err = float(np.max(np.abs(run.fields - theta_exact)))
    return front_rel_err, temp_max_err
