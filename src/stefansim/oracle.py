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
step and the first steps out of t_start stay short (Landau, 1950).  Each
step's nonlinear equations in the unknowns (interior field, front) are
solved by Newton's method, until an update moves the field and the front
by at most _NEWTON_TOL = 1e-10 (relative); a step takes about two
iterations.  The equations are the field's theta-weighted balance at the
interior nodes and the Stefan condition s - s_old =
dt (theta s' + (1 - theta) s'_old), with s' from the front gradient.
Each iteration starts from the previous field and from a predicted front:
s^2, quadratic in the step index for a similarity front, is extrapolated
through the last three accepted fronts (the first two steps take an
explicit Euler front step instead).  The field is not extrapolated: the
first iteration's front speed would then come from an extrapolated
gradient, and runs with a loose tolerance collapse.  A converged step
matches any other start to the level of the tolerance.

Space is second order in the Kirchhoff form.  k and c share the factor
1 + delta y^p, y = (theta - theta_f) / span with span = theta0 - theta_f,
whose integral Phi(y) = y + delta/(p+1) y^{p+1} is smooth at the front
where y is not (Carslaw & Jaeger, 1959; Alexiades & Solomon, 1993).  The
oracle takes Phi from the material alone.  The flux through each interface
is k0 span (Phi(y_{i+1}) - Phi(y_i)) / (h s), the exact difference of the
Kirchhoff variable w = span Phi(y); the Stefan condition takes a 4-point
one-sided gradient of w, which is theta_x at the front because
Phi'(0) = 1.  Advection is central.  The flux-feedback source takes its
fixed-face gradient of theta (3-point, one-sided) from the discrete field,
never from the closed-form slope, so the comparison stays two-sided.

The spatial operator is written once (_Stepper._operator) and serves both
the old-time half, weighted by 1 - theta_scheme (backward Euler skips it),
and the residual.  The Jacobian (_Stepper._linearize) is tridiagonal in
the field, with Phi'(y_j) in the diffusion and Phi''(y_i) through rho c(u),
bordered by the front (a column in s, and the Stefan row on the last three
nodes) and, for the flux-feedback source, by the face gradient, which
feeds every node.  Each iteration makes one call to solve_banded with the
residual and the border columns as right-hand sides, then solves the
1 x 1 or 2 x 2 border in closed form.  solve_banded hands the system
straight to LAPACK gtsv (the routine scipy.linalg.solve_banded uses for
(1, 1) bands) and keeps scipy's guards: a non-finite coefficient or
right-hand side, or a singular matrix, raises NonConvergence, whose
message names the time of the failing step.  A run stores the problem it
was stepped from, its trajectory and the solution it is compared with,
and derives its grid and errors (OracleRun).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import NamedTuple

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
    """

    n_space: int = 64
    n_time: int = 128
    t_start: float = 0.01
    t_end: float = 1.0
    theta_scheme: float = 0.5

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


@dataclass(frozen=True)
class OracleRun:
    """Trajectory produced by the finite-difference solver.

    fields[k, i] approximates theta(xi[i] * front[k], times[k]); front[k]
    approximates s(times[k]).  problem is the (material, boundary, source)
    the trajectory was stepped from, and solution the closed form it is
    compared with.  Only these five are stored; xi, times = _grid(config)
    and front_rel_err, temp_max_err = compare(solution, run) (relative, and
    absolute in K) are derived.  compare checks the solution's problem
    against problem, so a run built, or replaced, with a solution of
    another problem raises MismatchedProblem; another lam is allowed.
    """

    config: OracleConfig
    problem: tuple[Material, BoundaryData, SourceSpec]
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
        bd = self.problem[1]
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

    lower and upper hold the m - 1 sub- and superdiagonal entries and diag
    the m diagonal entries.  rhs holds m right-hand-side entries, or is an
    (m, k) array whose k columns are solved together (in Fortran order it
    is not copied).  This is the routine scipy.linalg.solve_banded calls
    for (1, 1) bands, with the same guards and without its per-call input
    conversion.

    Raises:
        NonConvergence: An entry is not finite, or the matrix is singular.
    """
    if not np.isfinite(np.concatenate((lower, diag, upper, rhs.ravel(order="K")))).all():
        raise NonConvergence("tridiagonal system has a non-finite coefficient or right-hand side")
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info > 0:
        raise NonConvergence(f"tridiagonal system is singular (zero pivot {info})")
    return x


# The smallest normal double.
_TINY = np.finfo(float).tiny
# Relative change of s in the one-sided difference that gives dH/ds, the
# one Jacobian term not written out: a similarity source may be any beta.
_SOURCE_DS = 1e-8
# d(front gradient)/d(Phi_j) at nodes n-4, n-3, n-2, times 6h (_front_gradient).
_FRONT_ROW = np.array([-2.0, 9.0, -18.0])
# A step is accepted once a Newton update moves the field (relative to the
# span) and the front by at most _NEWTON_TOL, within _NEWTON_MAX_ITER updates.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


class _Level(NamedTuple):
    """What a step's equations take from its old level, with its new time and length."""

    v: np.ndarray  # the old field
    s: float  # the old front
    sdot: float  # its speed, from the old field
    heat: np.ndarray | float  # (1 - theta) rho c(v) / dt; 0 for backward Euler
    value: np.ndarray | float  # (1 - theta) times the operator at the old level
    t: float  # the new time
    dt: float


class _Stepper:
    """One theta-weighted, Newton-resolved time step of the front-fixed system."""

    def __init__(self, material: Material, boundary: BoundaryData, source: SourceSpec, cfg: OracleConfig):
        self.mat = material
        self.bd = boundary
        self.cfg = cfg
        self.n = cfg.n_space
        self.xi, self.times = _grid(cfg)
        self.xi_inner = self.xi[1:-1]
        self.h = self.xi[1] - self.xi[0]
        self.xi_2h = self.xi_inner / (2.0 * self.h)
        # d(face gradient)/du at nodes 1, 2 (_face_gradient).
        self.face_row = np.array([2.0, -0.5]) / self.h
        self.span = boundary.theta0 - boundary.theta_f
        self.model = problem_model(material, boundary, source)
        self.a = material.a
        self.rho_c0 = material.rho * material.c0
        self.rho_l = material.rho * material.latent_heat

    def _coefficients(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """y clipped to [0, 1], the factor 1 + delta y^p of k and c, and Phi(y).

        Phi(y) = y + delta/(p+1) y^{p+1} is the integral of the factor, so
        the factor is Phi'(y).  One call per field serves its front speed,
        operator and Jacobian, in this step and, once accepted, the next.
        """
        y = (u - self.bd.theta_f) / self.span
        # np.clip without its wrapper; a -0.0 that clip would make +0.0
        # gives the factor 1.0 either way.
        np.maximum(y, 0.0, out=y)
        np.minimum(y, 1.0, out=y)
        excess = self.mat.delta * y**self.mat.p
        phi = y + y * excess / (self.mat.p + 1.0)
        return y, 1.0 + excess, phi

    def _source(self, s: float, t: float, face: float) -> np.ndarray:
        """H at the interior nodes, for the front s and the face gradient du/dxi at xi = 0."""
        eta = self.xi_inner * (s / (2.0 * self.a * math.sqrt(t)))
        return self.model.heat_source(self.mat, eta, t, face / s)

    def _operator(
        self, u: np.ndarray, coeffs: tuple[np.ndarray, ...], s: float, sdot: float, t: float
    ) -> tuple[np.ndarray, ...]:
        """c rho xi (s'/s) u_xi + (1/s^2)(k u_xi)_xi - H at the interior nodes.

        coeffs is _coefficients(u).  Advection is central.  Diffusion is the
        second difference of the Kirchhoff variable w = span Phi(y), so the
        flux through each interface is k0 (w_{i+1} - w_i) / (h s), the
        secant-conductivity flux wherever y stays in [0, 1].  H comes from
        the discrete state only.  Returns (value, rho c, xi u_xi,
        (1/s^2)(k u_xi)_xi, H): the value and the parts the Jacobian reuses.
        """
        _, fac, phi = coeffs
        rho_c = self.rho_c0 * fac[1:-1]
        grad = self.xi_2h * (u[2:] - u[:-2])
        dphi = phi[1:] - phi[:-1]
        diffused = (self.mat.k0 * self.span / (self.h * self.h * s * s)) * (dphi[1:] - dphi[:-1])
        source = self._source(s, t, _face_gradient(u, self.h))
        return rho_c * grad * (sdot / s) + diffused - source, rho_c, grad, diffused, source

    def front_speed(self, phi: np.ndarray, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat).

        theta_x at the front is the gradient of w = span Phi(y), since
        Phi'(0) = 1; phi is Phi(y) at the nodes.
        """
        return -self.mat.k0 * self.span * _front_gradient(phi, self.h) / (self.rho_l * s)

    def _old_level(
        self, v: np.ndarray, coeffs: tuple[np.ndarray, ...], s_old: float, t0: float, t1: float
    ) -> _Level:
        """What the step from (v, s_old) at t0 to t1 takes from its old level; coeffs are v's."""
        weight = self.cfg.theta_scheme
        dt = t1 - t0
        sdot = self.front_speed(coeffs[2], s_old)
        if weight == 1.0:
            # Backward Euler has no old-time terms.
            return _Level(v, s_old, sdot, 0.0, 0.0, t1, dt)
        value, rho_c, *_ = self._operator(v, coeffs, s_old, sdot, t0)
        return _Level(v, s_old, sdot, ((1.0 - weight) / dt) * rho_c, (1.0 - weight) * value, t1, dt)

    def _linearize(
        self, u: np.ndarray, coeffs: tuple[np.ndarray, ...], s: float, old: _Level
    ) -> tuple:
        """The step's equations at (u, s) and their Jacobian; coeffs are u's.

        The unknowns are the interior field and the front.  The advection
        takes the front speed that the Stefan condition gives s,
        s' = (s - s_old) / (theta dt) - (1 - theta) s'_old / theta; it is
        the gradient's speed wherever that condition holds.  Returns
        (lower, diag, upper, cols, stefan, row_s, d_ss):

        - cols[0], the residual at the interior nodes: rho c-weighted
          (u - v) / dt, minus theta times the operator at (u, s) and
          1 - theta times it at the old level;
        - lower, diag, upper: its tridiagonal derivative in u;
        - cols[1]: its derivative in s;
        - cols[2], for a source linear in the face gradient g (flux
          feedback) only: its derivative in g, which enters through
          dg/du = (2, -1/2) / h at nodes 1, 2 (self.face_row);
        - stefan = s - s_old - dt (theta s'(u, s) + (1 - theta) s'_old), with
          s'(u, s) = front_speed, and its derivatives row_s in u at the
          last three interior nodes and d_ss in s.
        """
        w = self.cfg.theta_scheme
        t, dt = old.t, old.dt
        y, fac, phi = coeffs
        sdot = (s - old.s) / (w * dt) - (1.0 - w) / w * old.sdot
        value, rho_c, grad, diffused, source = self._operator(u, coeffs, s, sdot, t)
        du = u[1:-1] - old.v[1:-1]
        heat = (w / dt) * rho_c + old.heat
        cols = np.empty((2 if self.model.feedback is None else 3, self.n - 2))
        np.multiply(heat, du, out=cols[0])
        cols[0] -= w * value
        cols[0] -= old.value

        # Node j enters the diffusion through Phi'(y_j) (kd, negated here);
        # the advection couples i -/+ 1 through its speed.
        neg_kd = (-w * self.mat.k0 / (self.h * self.h * s * s)) * fac
        adv = (w * sdot / s) * self.xi_2h * rho_c
        lower = adv[1:] + neg_kd[1:-2]
        upper = neg_kd[2:-1] - adv[:-1]
        # rho c(u_i) adds Phi''(y_i) = p (Phi'(y_i) - 1) / y_i.  At y = 0,
        # where it is infinite for p < 1, the floor takes it as 0.
        curv = fac[1:-1] - 1.0
        curv /= np.maximum(y[1:-1], _TINY)
        scale = self.mat.p * w * self.rho_c0 / self.span
        curv *= du * (scale / dt) - grad * (scale * sdot / s)
        diag = heat - 2.0 * neg_kd[1:-1]
        diag += curv

        # s scales the diffusion by 1/s^2 and the advection by s'/s, and
        # moves H through eta and the face gradient's 1/s.
        bumped = self._source(s * (1.0 + _SOURCE_DS), t, _face_gradient(u, self.h))
        bumped -= source
        bumped *= w / (_SOURCE_DS * s)
        bumped += (2.0 * w / s) * diffused
        np.subtract(bumped, ((1.0 / dt - w * sdot / s) / s) * rho_c * grad, out=cols[1])
        if self.model.feedback is not None:
            cols[2] = w * self._source(s, t, 1.0)

        front = self.front_speed(phi, s)
        stefan = s - old.s - dt * (w * front + (1.0 - w) * old.sdot)
        row_s = (dt * w * self.mat.k0 / (self.rho_l * s * 6.0 * self.h)) * _FRONT_ROW * fac[-4:-1]
        return lower, diag, upper, cols, stefan, row_s, 1.0 + dt * w * front / s

    def _border(self, x: np.ndarray, stefan: float, row_s: np.ndarray, d_ss: float) -> tuple:
        """(1, ds) or (1, ds, dg): the weights of x's columns in -du.

        x = A^{-1} [residual, col_s, col_g] for the tridiagonal part A of
        _linearize's Jacobian, so a Newton update is du = -x @ (1, ds, dg).
        Put into the Stefan row (last three nodes) and, for a feedback
        source, into dg = face_row . du (first two nodes), it leaves a
        1 x 1 or 2 x 2 system in the front update ds and the face-gradient
        update dg, solved here by Cramer's rule.
        """
        a0, a_s, *a_g = (row_s @ x[-3:]).tolist()
        pivot = d_ss - a_s
        if not a_g:
            if not pivot:
                raise NonConvergence("bordered system is singular")
            return 1.0, (a0 - stefan) / pivot
        g0, g_s, g_g = (self.face_row @ x[:2]).tolist()
        det = pivot * (1.0 + g_g) + a_g[0] * g_s
        if not det:
            raise NonConvergence("bordered system is singular")
        ds = ((a0 - stefan) * (1.0 + g_g) - a_g[0] * g0) / det
        return 1.0, ds, -(pivot * g0 + g_s * (a0 - stefan)) / det

    def advance(
        self, v: np.ndarray, coeffs: tuple, fronts: np.ndarray, k: int, t0: float, t1: float
    ) -> tuple[np.ndarray, float, tuple]:
        """Advance step k from (v, fronts[k]) at t0 to t1 by Newton's method.

        fronts[:k + 1] are the fronts accepted so far, at times uniform in
        sqrt(t).  The iteration starts from the field v and, for k >= 2,
        from the front sqrt(3 s_k^2 - 3 s_{k-1}^2 + s_{k-2}^2): s is linear
        in the step index for a similarity front, so this quadratic
        extrapolation of s^2 is exact for it and leaves the first iteration
        only the discretization error to correct.  Steps 0 and 1 start from
        the explicit Euler front s_k + dt s'(v).

        Each iteration linearizes the step (_linearize) and makes one
        solve_banded call: the tridiagonal part against the residual and
        the border columns (the front, and the face gradient of a
        flux-feedback source).  The 1 x 1 or 2 x 2 border that remains is
        solved in closed form (_border).  The step is accepted once an
        update moves the field and the front by at most _NEWTON_TOL
        (relative); the accepted front is then the Stefan condition's on
        the accepted field, which moves a converged front by rounding.
        coeffs is _coefficients(v); the accepted field's are returned with
        it and its front, for the next step.

        With a tolerance of 1 every step takes one iteration, so the start
        becomes part of the scheme.  Starts that amplify a step-to-step
        oscillation more strongly then let Crank-Nicolson runs collapse
        that pass from the Euler start: a cubic extrapolation of s (15-fold,
        against 7-fold here), and any extrapolation of the field, whose
        front speed would come from an extrapolated gradient (an
        Adams-Bashforth-type front update).
        """
        s_old = fronts[k]
        old = self._old_level(v, coeffs, s_old, t0, t1)
        u = v.copy()
        if k >= 2:
            s = math.sqrt(3.0 * s_old**2 - 3.0 * fronts[k - 1] ** 2 + fronts[k - 2] ** 2)
        else:
            s = s_old + old.dt * old.sdot
        for _ in range(_NEWTON_MAX_ITER):
            if s <= 0.0:
                raise FrontCollapse(f"front position went nonpositive at t = {t1}")
            lower, diag, upper, cols, stefan, row_s, d_ss = self._linearize(u, coeffs, s, old)
            try:
                x = solve_banded(lower, diag, upper, cols.T)
                weights = self._border(x, stefan, row_s, d_ss)
            except NonConvergence as exc:
                raise NonConvergence(f"{exc} at t = {t1}") from exc
            step = x @ weights
            ds = weights[1]
            u[1:-1] -= step
            s += ds
            coeffs = self._coefficients(u)
            moved = float(np.maximum.reduce(np.abs(step))) / self.span
            front_moved = abs(ds) / s
            if moved <= _NEWTON_TOL and front_moved <= _NEWTON_TOL:
                break
        else:
            raise NonConvergence(
                f"Newton iterations did not stagnate within {_NEWTON_MAX_ITER} "
                f"iterations at step {k}, t = {t1}: the last iteration moved the field "
                f"by {moved:.3g} and the front by {front_moved:.3g} "
                f"(relative; tolerance {_NEWTON_TOL:g})"
            )
        weight = self.cfg.theta_scheme
        sdot = self.front_speed(coeffs[2], s)
        s = s_old + old.dt * (weight * sdot + (1.0 - weight) * old.sdot)
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return u, s, coeffs


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """Solve the moving-boundary problem of sol numerically and compare.

    The initial state at cfg.t_start is sampled from the similarity
    solution; everything afterwards is plain finite differences.  The
    returned run keeps sol's problem and sol, and with them the comparison
    errors against sol.

    Raises:
        NonConvergence: A time step's Newton iteration failed to stagnate.
        FrontCollapse: The computed front stopped advancing.
    """
    problem = (sol.material, sol.boundary, sol.source)
    stepper = _Stepper(*problem, cfg)
    fronts = np.empty(cfg.n_time + 1)
    fields = np.empty((cfg.n_time + 1, cfg.n_space))
    fronts[0] = front_position(sol, cfg.t_start)
    fields[0] = temperature(sol, stepper.xi * fronts[0], cfg.t_start)
    coeffs = stepper._coefficients(fields[0])
    for k, (t0, t1) in enumerate(zip(stepper.times[:-1], stepper.times[1:])):
        step = stepper.advance(fields[k], coeffs, fronts, k, t0, t1)
        fields[k + 1], fronts[k + 1], coeffs = step
    return OracleRun(cfg, problem, sol, fronts, fields)


def compare(sol: SimilaritySolution, run: OracleRun) -> tuple[float, float]:
    """Errors of a finite-difference run against a similarity solution.

    Returns:
        (front_rel_err, temp_max_err): the largest relative front
        discrepancy over the run's times, and the largest absolute
        temperature discrepancy (K) over all nodes and times, comparing on
        the common domain (numerical nodes beyond the exact front compare
        against theta_f, the exact solid-side value).

    Raises:
        MismatchedProblem: sol poses another problem than the one the run
            was stepped from (another lam is allowed).
    """
    if run.problem != (sol.material, sol.boundary, sol.source):
        raise MismatchedProblem("oracle run and similarity solution describe different problems")
    s_exact = front_position(sol, run.times)
    front_rel_err = float(np.max(np.abs(run.front - s_exact) / s_exact))
    denom = 2.0 * sol.material.a * np.sqrt(run.times)
    eta = (run.xi[None, :] * run.front[:, None]) / denom[:, None]
    y = sol.y_many(np.clip(eta, 0.0, sol.lam))
    theta_exact = sol.boundary.theta_f + (sol.boundary.theta0 - sol.boundary.theta_f) * y
    theta_exact[eta > sol.lam] = sol.boundary.theta_f
    temp_max_err = float(np.max(np.abs(run.fields - theta_exact)))
    return front_rel_err, temp_max_err
