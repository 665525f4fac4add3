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

Time stepping is a theta-weighted scheme (default Crank-Nicolson,
theta_scheme = 0.5; 1 is backward Euler) on times uniform in sqrt(t), so a
similarity front s = 2 lam a sqrt(t) advances by the same amount every
step and the first steps out of t_start stay short (Landau, 1950).  The
nonlinear coefficients are resolved by Picard iteration: coefficients and
the front speed are lagged, each sweep solves one tridiagonal system, and
sweeps repeat until the field and front stagnate to 1e-10 (relative).
Each step's iteration starts from the previous field and from a predicted
front: s^2, quadratic in the step index for a similarity front, is
extrapolated through the last three accepted fronts (the first two steps
take an explicit Euler front step instead).  The field is not
extrapolated: the first sweep's front speed would then come from an
extrapolated gradient, and runs with a loose picard_tol collapse.  The
start sets how many sweeps a step takes; a converged step matches any
other start to the level of picard_tol.

Space is second order in the Kirchhoff form.  k and c share the factor
1 + delta y^p, y = (theta - theta_f) / span with span = theta0 - theta_f,
whose integral Phi(y) = y + delta/(p+1) y^{p+1} is smooth at the front
where y is not (Carslaw & Jaeger, 1959; Alexiades & Solomon, 1993).  The
oracle takes Phi from the material alone.  Each interface conducts with
the secant k0 (Phi(y_{i+1}) - Phi(y_i)) / (y_{i+1} - y_i), so the flux is
the exact difference of the Kirchhoff variable w = span Phi(y); the Stefan
condition takes a 4-point one-sided gradient of w, which is theta_x at the
front because Phi'(0) = 1.  Advection is central.  The flux-feedback source
takes its fixed-face gradient of theta (3-point, one-sided) from the discrete
field, never from the closed-form slope, so the comparison stays two-sided.

Each sweep makes one call to solve_banded, which hands the tridiagonal
system straight to LAPACK gtsv (the routine scipy.linalg.solve_banded
uses for (1, 1) bands) and keeps scipy's guards: a non-finite coefficient
or right-hand side, or a singular matrix, raises NonConvergence, whose
message names the time of the failing step.  The spatial operator is
written once, as the three bands of its stencil (_Stepper._operator): the
Picard sweep takes its matrix from them, and the old-time half applies
them to differences of the old field, weighted by 1 - theta_scheme (backward
Euler skips them).  A run stores its trajectory and the solution it started
from, and derives its grid and errors (OracleRun).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import FrontCollapse, InvalidInput, MismatchedProblem, NonConvergence
from .model import BoundaryData, Material, SourceSpec
from .reconstruct import front_position, temperature
from .similarity import SimilaritySolution, problem_model


@dataclass(frozen=True)
class OracleConfig:
    """Grid and scheme parameters for the finite-difference solver.

    Attributes:
        n_space: Spatial nodes on [0, 1] (>= 16).
        n_time: Time steps from t_start to t_end (>= 16), uniform in
            sqrt(t).
        t_start: Initialization time, > 0 (the front must have left x = 0).
        t_end: Final time, > t_start.
        theta_scheme: Implicitness weight in [0.5, 1]; 0.5 is
            Crank-Nicolson, 1 backward Euler.
        picard_tol: Relative stagnation tolerance of the Picard sweeps.
        picard_max_iter: Sweep budget per time step.
    """

    n_space: int = 64
    n_time: int = 128
    t_start: float = 0.01
    t_end: float = 1.0
    theta_scheme: float = 0.5
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not isinstance(value, numbers.Integral):
                raise InvalidInput(f"{f.name} must be an integer, got {value!r}")
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
    approximates s(times[k]).  Only config, solution, front and fields are
    stored; xi, times = _grid(config) and front_rel_err, temp_max_err =
    compare(solution, run) (relative, and absolute in K) are derived.  The
    solution is the run's only record of its problem: nothing checks it,
    while compare(sol, run) checks sol's problem against it.
    """

    config: OracleConfig
    solution: SimilaritySolution
    front: np.ndarray
    fields: np.ndarray
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)
    front_rel_err: float = field(init=False, compare=False)
    temp_max_err: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        cfg = self.config
        want = ((cfg.n_time + 1,), (cfg.n_time + 1, cfg.n_space))
        if (self.front.shape, self.fields.shape) != want:
            raise InvalidInput(
                f"oracle trajectory has front shape {self.front.shape} and fields shape "
                f"{self.fields.shape}; its config needs {want[0]} and {want[1]}"
            )
        if np.any(np.diff(self.front) <= 0.0):
            raise FrontCollapse("oracle front trajectory is not strictly increasing")
        bd = self.solution.boundary
        eps = 1e-6 * (bd.theta0 - bd.theta_f)
        if self.fields.min() < bd.theta_f - eps or self.fields.max() > bd.theta0 + eps:
            raise InvalidInput(
                "oracle temperatures leave the [theta_f, theta0] band beyond the 1e-6 slack"
            )
        xi, times = _grid(cfg)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "times", times)
        # compare is read as a module global, so a rebound oracle.compare sees this call.
        front_rel_err, temp_max_err = compare(self.solution, self)
        object.__setattr__(self, "front_rel_err", front_rel_err)
        object.__setattr__(self, "temp_max_err", temp_max_err)


def _grid(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi on [0, 1] and n_time + 1 times uniform in sqrt(t), ends exact."""
    times = np.linspace(math.sqrt(cfg.t_start), math.sqrt(cfg.t_end), cfg.n_time + 1) ** 2
    times[0], times[-1] = cfg.t_start, cfg.t_end
    return np.linspace(0.0, 1.0, cfg.n_space), times


def _front_gradient(u: np.ndarray, h: float) -> float:
    """Third-order one-sided du/dxi at xi = 1."""
    u4, u3, u2, u1 = u[-4:].tolist()
    return (11.0 * u1 - 18.0 * u2 + 9.0 * u3 - 2.0 * u4) / (6.0 * h)


def _face_gradient(u: np.ndarray, h: float) -> float:
    """Second-order one-sided du/dxi at xi = 0."""
    u0, u1, u2 = u[:3].tolist()
    return (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h)


def solve_banded(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK gtsv; the arguments may be overwritten.

    lower and upper hold the m - 1 sub- and superdiagonal entries, diag and
    rhs the m diagonal and right-hand-side entries.  This is the routine
    scipy.linalg.solve_banded calls for (1, 1) bands, with the same guards
    and without its per-call input conversion.

    Raises:
        NonConvergence: An entry is not finite, or the matrix is singular.
    """
    if not np.isfinite(np.concatenate((lower, diag, upper, rhs))).all():
        raise NonConvergence("tridiagonal system has a non-finite coefficient or right-hand side")
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info > 0:
        raise NonConvergence(f"tridiagonal system is singular (zero pivot {info})")
    return x


# |y_{i+1} - y_i| at or below which an interface conducts with the mean
# factor instead of the secant of Phi.  The secant's relative rounding error,
# about eps (1 + delta) / |dy|, reaches ~1e-8 (1 + delta) there, and the flux
# across so small a difference is itself of order 1e-8.
_MERGED_DY = 1.5e-8


class _Stepper:
    """One theta-weighted Picard-resolved time step of the front-fixed system."""

    def __init__(self, material: Material, boundary: BoundaryData, source: SourceSpec, cfg: OracleConfig):
        self.mat = material
        self.bd = boundary
        self.cfg = cfg
        self.n = cfg.n_space
        self.xi, self.times = _grid(cfg)
        self.xi_inner = self.xi[1:-1]
        self.h = self.xi[1] - self.xi[0]
        self.span = boundary.theta0 - boundary.theta_f
        groups, self.model = problem_model(material, boundary, source)
        self.a = groups.a
        self.rho_c0 = material.rho * material.c0
        self.rho_l = material.rho * material.latent_heat

    def _coefficients(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """y clipped to [0, 1], the factor 1 + delta y^p of k and c, and Phi(y).

        Phi(y) = y + delta/(p+1) y^{p+1} is the integral of the factor.  One
        call per sweep serves both the front speed and the operator.
        """
        y = (u - self.bd.theta_f) / self.span
        # np.clip without its wrapper; a -0.0 that clip would make +0.0
        # gives the factor 1.0 either way.
        np.maximum(y, 0.0, out=y)
        np.minimum(y, 1.0, out=y)
        excess = self.mat.delta * y**self.mat.p
        phi = y + y * excess / (self.mat.p + 1.0)
        return y, 1.0 + excess, phi

    def _conductivity(self, coeffs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Interface conductivities k0 (Phi(y_{i+1}) - Phi(y_i)) / (y_{i+1} - y_i).

        Wherever y stays in [0, 1] they make k (u_{i+1} - u_i) =
        k0 (w_{i+1} - w_i): the flux is the exact difference of
        w = span Phi(y).  Where the nodes nearly merge the mean factor
        stands in.  coeffs is _coefficients(u).
        """
        y, fac, phi = coeffs
        dy = y[1:] - y[:-1]
        factor = 0.5 * (fac[:-1] + fac[1:])
        np.divide(phi[1:] - phi[:-1], dy, out=factor, where=np.abs(dy) > _MERGED_DY)
        return self.mat.k0 * factor

    def _operator(
        self, u: np.ndarray, coeffs: tuple[np.ndarray, ...], s: float, sdot: float, t: float
    ) -> tuple[np.ndarray, ...]:
        """Stencil of c rho xi (s'/s) u_xi + (1/s^2)(k u_xi)_xi - H.

        coeffs is _coefficients(u).  Returns (rho c, lo, mid, hi, H), all at
        the interior nodes, with the operator lo u_{i-1} - mid u_i +
        hi u_{i+1} - H and mid = lo + hi up to rounding.  H comes from the
        discrete state only.
        """
        rho_c = self.rho_c0 * coeffs[1][1:-1]
        kf = self._conductivity(coeffs)
        adv = rho_c * self.xi_inner * (sdot / s) / (2.0 * self.h)
        dif = 1.0 / (self.h * self.h * s * s)
        # kf[i-1] couples u_{i-1}, kf[i] couples u_{i+1} (i = 1..n-2).
        lo = kf[:-1] * dif - adv
        hi = adv + kf[1:] * dif
        eta = self.xi_inner * s / (2.0 * self.a * math.sqrt(t))
        source = self.model.heat_source(self.mat, eta, t, _face_gradient(u, self.h) / s)
        return rho_c, lo, (kf[:-1] + kf[1:]) * dif, hi, source

    def front_speed(self, phi: np.ndarray, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat).

        theta_x at the front is the gradient of w = span Phi(y), since
        Phi'(0) = 1; phi is Phi(y) at the nodes.
        """
        return -self.mat.k0 * self.span * _front_gradient(phi, self.h) / (self.rho_l * s)

    def advance(
        self, v: np.ndarray, fronts: np.ndarray, k: int, t0: float, t1: float
    ) -> tuple[np.ndarray, float]:
        """Advance step k from (v, fronts[k]) at t0 to t1.

        fronts[:k + 1] are the fronts accepted so far, at times uniform in
        sqrt(t).  The Picard iteration starts from the field v and, for
        k >= 2, from the front sqrt(3 s_k^2 - 3 s_{k-1}^2 + s_{k-2}^2): s is
        linear in the step index for a similarity front, so this quadratic
        extrapolation of s^2 is exact for it and leaves the first sweep only
        the discretization error to correct.  Steps 0 and 1 start from the
        explicit Euler front s_k + dt s'(v).

        With picard_tol = 1 every step takes one sweep, so the start becomes
        part of the scheme.  Starts that amplify a step-to-step oscillation
        more strongly then let Crank-Nicolson runs collapse that pass from
        the Euler start: a cubic extrapolation of s (15-fold, against
        7-fold here), and any extrapolation of the field, whose first sweep
        would take the front speed from an extrapolated gradient (an
        Adams-Bashforth-type front update).
        """
        cfg = self.cfg
        s_old = fronts[k]
        weight = cfg.theta_scheme
        dt = t1 - t0
        theta0, theta_f = self.bd.theta0, self.bd.theta_f
        coeffs = self._coefficients(v)
        sdot_old = self.front_speed(coeffs[2], s_old)
        if weight < 1.0:
            # On differences of v the advection terms cancel (lo + hi = mid)
            # and a common temperature such as 273 K drops out before rounding.
            rho_c, lo, _, hi, source = self._operator(v, coeffs, s_old, sdot_old, t0)
            c_old_part = (1.0 - weight) * rho_c
            rhs_old = (1.0 - weight) * (lo * (v[:-2] - v[1:-1]) + hi * (v[2:] - v[1:-1]) - source)
        else:
            # Backward Euler has no old-time terms.
            c_old_part = rhs_old = 0.0
        v_inner = v[1:-1]
        u = v.copy()
        if k >= 2:
            s = math.sqrt(3.0 * s_old**2 - 3.0 * fronts[k - 1] ** 2 + fronts[k - 2] ** 2)
        else:
            s = s_old + dt * sdot_old
        for _ in range(cfg.picard_max_iter):
            coeffs = self._coefficients(u)
            sdot_new = self.front_speed(coeffs[2], s)
            s_new = s_old + dt * (weight * sdot_new + (1.0 - weight) * sdot_old)
            if s_new <= 0.0:
                raise FrontCollapse(f"front position went nonpositive at t = {t1}")
            rho_c, lo, mid, hi, source = self._operator(u, coeffs, s_new, sdot_new, t1)
            coef_time = (weight * rho_c + c_old_part) / dt
            sub = -weight * lo
            sup = -weight * hi
            diag = coef_time + weight * mid
            rhs = coef_time * v_inner - weight * source + rhs_old
            rhs[0] -= sub[0] * theta0
            rhs[-1] -= sup[-1] * theta_f
            u_new = np.empty(self.n)
            u_new[0] = theta0
            u_new[-1] = theta_f
            try:
                u_new[1:-1] = solve_banded(sub[1:], diag, sup[:-1], rhs)
            except NonConvergence as exc:
                raise NonConvergence(f"{exc} at t = {t1}") from exc
            moved = float(np.maximum.reduce(np.abs(u_new - u))) / self.span
            front_moved = abs(s_new - s) / s_new
            u, s = u_new, s_new
            if moved <= cfg.picard_tol and front_moved <= cfg.picard_tol:
                break
        else:
            raise NonConvergence(
                f"Picard sweeps did not stagnate within {cfg.picard_max_iter} "
                f"iterations at step {k}, t = {t1}: the last sweep moved the field "
                f"by {moved:.3g} and the front by {front_moved:.3g} "
                f"(relative; picard_tol = {cfg.picard_tol:g})"
            )
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return u, s


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """Solve the moving-boundary problem of sol numerically and compare.

    The initial state at cfg.t_start is sampled from the similarity
    solution; everything afterwards is plain finite differences.  The
    returned run keeps sol, and with it the comparison errors against sol.

    Raises:
        NonConvergence: A time step's Picard sweeps failed to stagnate.
        FrontCollapse: The computed front stopped advancing.
    """
    stepper = _Stepper(sol.material, sol.boundary, sol.source, cfg)
    fronts = np.empty(cfg.n_time + 1)
    fields = np.empty((cfg.n_time + 1, cfg.n_space))
    fronts[0] = front_position(sol, cfg.t_start)
    fields[0] = temperature(sol, stepper.xi * fronts[0], cfg.t_start)
    for k, (t0, t1) in enumerate(zip(stepper.times[:-1], stepper.times[1:])):
        fields[k + 1], fronts[k + 1] = stepper.advance(fields[k], fronts, k, t0, t1)
    return OracleRun(cfg, sol, fronts, fields)


def compare(sol: SimilaritySolution, run: OracleRun) -> tuple[float, float]:
    """Errors of a finite-difference run against a similarity solution.

    Returns:
        (front_rel_err, temp_max_err): the largest relative front
        discrepancy over the run's times, and the largest absolute
        temperature discrepancy (K) over all nodes and times, comparing on
        the common domain (numerical nodes beyond the exact front compare
        against theta_f, the exact solid-side value).

    Raises:
        MismatchedProblem: sol poses another problem than run.solution
            (another lam is allowed).
    """
    ran = run.solution
    if (ran.material, ran.boundary, ran.source) != (sol.material, sol.boundary, sol.source):
        raise MismatchedProblem("oracle run and similarity solution describe different problems")
    s_exact = front_position(sol, run.times)
    front_rel_err = float(np.max(np.abs(run.front - s_exact) / s_exact))
    denom = 2.0 * sol.dimensionless.a * np.sqrt(run.times)
    eta = (run.xi[None, :] * run.front[:, None]) / denom[:, None]
    y = sol.y_many(np.clip(eta, 0.0, sol.lam))
    theta_exact = sol.boundary.theta_f + (sol.boundary.theta0 - sol.boundary.theta_f) * y
    theta_exact[eta > sol.lam] = sol.boundary.theta_f
    temp_max_err = float(np.max(np.abs(run.fields - theta_exact)))
    return front_rel_err, temp_max_err
