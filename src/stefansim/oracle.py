"""Independent finite-difference check of the similarity solutions.

The moving-boundary problem is solved directly on the PDE

    rho c(theta) theta_t = (k(theta) theta_x)_x - H(x, t),   0 < x < s(t),
    theta(0, t) = theta0,   theta(s(t), t) = theta_f,
    k0 theta_x(s(t), t) = -rho latent_heat s'(t),

with none of the closed-form machinery: the only contact with the
similarity layer is the initial condition at T_START (the problem needs a
compatible initial state, and criterion is agreement afterwards) and the
final comparison.

k and c share the factor 1 + delta y^p, y = (theta - theta_f) / span with
span = theta0 - theta_f, whose integral is Phi(y) = y + delta/(p+1) y^{p+1}.
In the Kirchhoff variable w = span Phi(y), k theta_x = k0 w_x and
rho c theta_t = rho c0 w_t (Carslaw & Jaeger, 1959; Alexiades & Solomon,
1993); the oracle takes Phi from the material alone.  The front is
immobilized by xi = x / s(t), turning the domain into the strip [0, 1]:

    rho c0 [w_t - xi (s'/s) w_xi] = (k0/s^2) w_xixi - H(xi s, t),
    w(0) = span Phi(1),   w(1) = 0,   s' = -k0 w_xi(1) / (rho latent_heat s),

the last because Phi'(0) = 1.  This is linear in w, and so is the
flux-feedback source, through theta_x(0) = w_xi(0) / (s Phi'(1)).  w is
smooth through the square-root layer that y has behind the front where
delta y^p >> 1.  Space is second order: advection and diffusion are
central differences of w, the Stefan condition takes a 4-point one-sided
front gradient, and the flux-feedback source a 3-point one-sided face
gradient of the discrete field, never the closed-form slope, so the
comparison stays two-sided.

Time stepping is Crank-Nicolson (Crank & Nicolson, 1947) on times uniform
in sqrt(t), so a similarity front s = 2 lam a sqrt(t) advances by the same
amount every step and the first steps out of T_START stay short (Landau,
1950).  The unknowns of a step are the interior w and the front.  Its
equations, the balance at the interior nodes averaged over the old and new
levels and the Stefan condition s - s_old = dt (s' + s'_old) / 2, are
solved by Newton's method from the previous field and a predicted front
(_Stepper.advance), until an update moves w (relative to span) and the
front by at most _NEWTON_TOL = 1e-10; a step takes about two iterations.
For a given s the equations are linear in w, so Newton meets only the
front's nonlinearity.

The spatial operator is written once (_Stepper._operator) and serves both
the old-time half and the residual.  The Jacobian (_Stepper._linearize) is
tridiagonal in w, with bands that are scalars times xi, bordered by the
front (a column in s, and the Stefan row on the last three nodes) and, for
the flux-feedback source, by the face gradient, which feeds every node.
Each iteration makes one call to solve_banded with the residual and the
border columns as right-hand sides, then solves the 1 x 1 or 2 x 2 border
in closed form.  solve_banded hands the system straight to LAPACK gtsv (the routine
scipy.linalg.solve_banded uses for (1, 1) bands) and keeps scipy's guards:
a non-finite coefficient or right-hand side, or a singular matrix, raises
NonConvergence, whose message names the time of the failing step.

The trajectory of w is mapped to temperatures once, at the end, by the
oracle's own Newton on Phi(y) = w / span (_Stepper.from_kirchhoff), not by
the similarity layer's inverse.  A run stores the problem it was stepped
from, its trajectory and the solution it is compared with, and derives its
grid and errors (OracleRun).
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


# The run starts at T_START, from the similarity solution, and steps to
# T_END.  The discrete front-fixed problem is invariant under t -> c t, so
# only the ratio T_END / T_START moves the errors.
T_START = 0.01
T_END = 1.0

# Largest (n_time + 1) * n_space of a grid: each trajectory array of a run
# holds that many doubles, 128 MiB at the cap.
MAX_GRID_VALUES = 1 << 24


@dataclass(frozen=True)
class OracleConfig:
    """Grid parameters for the finite-difference solver.

    Attributes:
        n_space: Spatial nodes on [0, 1] (>= 16).
        n_time: Time steps from T_START to T_END (>= 16), uniform in
            sqrt(t).

    (n_time + 1) * n_space may not exceed MAX_GRID_VALUES.
    """

    n_space: int = 64
    n_time: int = 128

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Integral):
                raise InvalidInput(f"{f.name} must be an integer, got {value!r}")
        if self.n_space < 16:
            raise InvalidInput(f"n_space must be >= 16, got {self.n_space}")
        if self.n_time < 16:
            raise InvalidInput(f"n_time must be >= 16, got {self.n_time}")
        if (self.n_time + 1) * self.n_space > MAX_GRID_VALUES:
            raise InvalidInput(
                f"grid of n_space = {self.n_space} by n_time + 1 = {self.n_time + 1} "
                f"exceeds {MAX_GRID_VALUES} values"
            )


@dataclass(frozen=True)
class OracleRun:
    """Trajectory produced by the finite-difference solver.

    fields[k, i] approximates theta(xi[i] * front[k], times[k]); front[k]
    approximates s(times[k]).  run_oracle_for steps the Kirchhoff variable
    w and maps rows 1 to n_time to temperatures once, at the end; row 0 is
    the initial state sampled from the solution.  problem is the
    (material, boundary, source) the trajectory was stepped from, and
    solution the closed form it is compared with.  Only these five are
    stored; xi, times = _grid(config) and front_rel_err, temp_max_err =
    compare(solution, run) (relative, and absolute in K) are derived.
    compare checks the solution's problem against problem, so a run built,
    or replaced, with a solution of another problem raises
    MismatchedProblem; another lam is allowed.  Temperatures outside
    [theta_f, theta0] by more than 1e-6 of the span raise InvalidInput
    naming the first step that leaves the band, its time, node, xi and
    value.
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
        xi, times = _grid(cfg)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "times", times)
        bd = self.problem[1]
        eps = 1e-6 * (bd.theta0 - bd.theta_f)
        outside = (self.fields < bd.theta_f - eps) | (self.fields > bd.theta0 + eps)
        if outside.any():
            k, i = np.argwhere(outside)[0].tolist()
            raise InvalidInput(
                "oracle temperatures leave the [theta_f, theta0] band beyond the 1e-6 slack: "
                f"first at step {k} (t = {times[k]:.6g}), node {i} (xi = {xi[i]:.6g}), "
                f"value {self.fields[k, i]:.6g}"
            )
        # compare is read as a module global, so a rebound oracle.compare sees this call.
        front_rel_err, temp_max_err = compare(self.solution, self)
        object.__setattr__(self, "front_rel_err", front_rel_err)
        object.__setattr__(self, "temp_max_err", temp_max_err)


def _grid(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi on [0, 1] and n_time + 1 times uniform in sqrt(t) from T_START to T_END."""
    times = np.linspace(math.sqrt(T_START), math.sqrt(T_END), cfg.n_time + 1) ** 2
    times[0], times[-1] = T_START, T_END
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


# Relative change of s in the one-sided difference that gives dH/ds, the
# one Jacobian term not written out: a similarity source may be any beta.
_SOURCE_DS = 1e-8
# d(front gradient)/dw_j at nodes n-4, n-3, n-2, times 6h (_front_gradient).
_FRONT_ROW = np.array([-2.0, 9.0, -18.0])
# A step is accepted once a Newton update moves the field (relative to the
# span) and the front by at most _NEWTON_TOL, within _NEWTON_MAX_ITER updates,
# and the map back to temperatures once no y moves by more than _INVERSE_TOL.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50
_INVERSE_TOL = 1e-14
_INVERSE_MAX_ITER = 100


class _Level(NamedTuple):
    """What a step's equations take from its old level, with its new time and length."""

    v: np.ndarray  # the old field of w
    s: float  # the old front
    sdot: float  # its speed, from the old field
    value: np.ndarray  # half the operator at the old level
    t: float  # the new time
    dt: float


class _Stepper:
    """One Crank-Nicolson, Newton-resolved time step of the front-fixed system in w."""

    def __init__(self, material: Material, boundary: BoundaryData, source: SourceSpec, cfg: OracleConfig):
        self.mat = material
        self.bd = boundary
        self.n = cfg.n_space
        self.xi, self.times = _grid(cfg)
        self.xi_inner = self.xi[1:-1]
        self.h = self.xi[1] - self.xi[0]
        self.xi_2h = self.xi_inner / (2.0 * self.h)
        # d(face gradient)/dw at nodes 1, 2 (_face_gradient).
        self.face_row = np.array([2.0, -0.5]) / self.h
        self.span = boundary.theta0 - boundary.theta_f
        self.model = problem_model(material, boundary, source)
        self.a = material.a
        self.rho_c0 = material.rho * material.c0
        self.rho_l = material.rho * material.latent_heat

    def to_kirchhoff(self, u: np.ndarray) -> np.ndarray:
        """w = span Phi(y) of temperatures u, with y clipped to [0, 1]."""
        y = np.clip((u - self.bd.theta_f) / self.span, 0.0, 1.0)
        return self.span * (y + y * (self.mat.delta * y**self.mat.p) / (self.mat.p + 1.0))

    def from_kirchhoff(self, w: np.ndarray) -> np.ndarray:
        """Temperatures of a field (or trajectory) of w, by Newton on Phi(y) = w / span.

        Phi is convex and increasing, and Phi(y) >= y, so the iterates from
        min(w / span, 1) fall monotonically onto the root (where w / span >
        Phi(1), after a first step past it).  Below 0, where Phi is extended
        by its tangent y, y = w / span.
        """
        delta, p = self.mat.delta, self.mat.p
        z = w / self.span
        y = np.minimum(z, 1.0)
        for _ in range(_INVERSE_MAX_ITER):
            excess = delta * np.maximum(y, 0.0) ** p
            step = (y + y * excess / (p + 1.0) - z) / (1.0 + excess)
            y -= step
            if not np.any(np.abs(step) > _INVERSE_TOL):
                return self.bd.theta_f + self.span * y
        raise NonConvergence(f"Phi(y) = w / span unsolved after {_INVERSE_MAX_ITER} iterations")

    def _source(self, s: float, t: float, face: float) -> np.ndarray:
        """H at the interior nodes, for the front s and the face gradient dw/dxi at xi = 0.

        The temperature gradient there is theta_x = w_xi / (s Phi'(1)).
        """
        eta = self.xi_inner * (s / (2.0 * self.a * math.sqrt(t)))
        return self.model.heat_source(self.mat, eta, t, face / (s * (1.0 + self.mat.delta)))

    def _operator(self, w: np.ndarray, s: float, sdot: float, t: float) -> tuple[np.ndarray, ...]:
        """rho c0 xi (s'/s) w_xi + (k0/s^2) w_xixi - H at the interior nodes.

        Advection and diffusion are central differences of w, and H comes
        from the discrete state only.  Returns (value, xi w_xi,
        (k0/s^2) w_xixi, H): the value and the parts the Jacobian reuses.
        """
        grad = self.xi_2h * (w[2:] - w[:-2])
        dw = w[1:] - w[:-1]
        diffused = (self.mat.k0 / (self.h * self.h * s * s)) * (dw[1:] - dw[:-1])
        source = self._source(s, t, _face_gradient(w, self.h))
        return (self.rho_c0 * sdot / s) * grad + diffused - source, grad, diffused, source

    def front_speed(self, w: np.ndarray, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat).

        theta_x at the front is w_x there, since Phi'(0) = 1.
        """
        return -self.mat.k0 * _front_gradient(w, self.h) / (self.rho_l * s)

    def _old_level(self, v: np.ndarray, s_old: float, t0: float, t1: float) -> _Level:
        """What the step from (v, s_old) at t0 to t1 takes from its old level."""
        sdot = self.front_speed(v, s_old)
        value = self._operator(v, s_old, sdot, t0)[0]
        return _Level(v, s_old, sdot, 0.5 * value, t1, t1 - t0)

    def _linearize(self, w: np.ndarray, s: float, old: _Level) -> tuple:
        """The step's equations at (w, s) and their Jacobian.

        The advection takes the front speed that the Stefan condition gives
        s, s' = 2 (s - s_old) / dt - s'_old; it is the gradient's speed
        wherever that condition holds.  Returns (lower, diag, upper, cols,
        stefan, row_s, d_ss):

        - cols[0], the residual at the interior nodes: rho c0 (w - v) / dt,
          minus half the operator at (w, s) and half of it at the old level;
        - lower, diag, upper: its tridiagonal derivative in w;
        - cols[1]: its derivative in s;
        - cols[2], for a source linear in the face gradient g = w_xi(0)
          (flux feedback) only: its derivative in g, which enters through
          dg/dw = (2, -1/2) / h at nodes 1, 2 (self.face_row);
        - stefan = s - s_old - dt (s'(w, s) + s'_old) / 2, with
          s'(w, s) = front_speed, and its derivatives row_s in w at the
          last three interior nodes and d_ss in s.
        """
        t, dt = old.t, old.dt
        sdot = 2.0 * (s - old.s) / dt - old.sdot
        value, grad, diffused, source = self._operator(w, s, sdot, t)
        heat = self.rho_c0 / dt
        cols = np.empty((2 if self.model.feedback is None else 3, self.n - 2))
        np.subtract(w[1:-1], old.v[1:-1], out=cols[0])
        cols[0] *= heat
        cols[0] -= 0.5 * value
        cols[0] -= old.value

        kd = 0.5 * self.mat.k0 / (self.h * self.h * s * s)
        adv = (0.5 * self.rho_c0 * sdot / s) * self.xi_2h
        lower = adv[1:] - kd
        upper = -kd - adv[:-1]
        diag = np.full(self.n - 2, heat + 2.0 * kd)

        # s scales the diffusion by 1/s^2 and the advection by s'/s, and
        # moves H through eta and the face gradient's 1/s.
        bumped = self._source(s * (1.0 + _SOURCE_DS), t, _face_gradient(w, self.h))
        bumped -= source
        bumped *= 0.5 / (_SOURCE_DS * s)
        bumped += (1.0 / s) * diffused
        np.subtract(bumped, ((1.0 / dt - 0.5 * sdot / s) * self.rho_c0 / s) * grad, out=cols[1])
        if self.model.feedback is not None:
            cols[2] = 0.5 * self._source(s, t, 1.0)

        front = self.front_speed(w, s)
        stefan = s - old.s - 0.5 * dt * (front + old.sdot)
        row_s = (0.5 * dt * self.mat.k0 / (self.rho_l * s * 6.0 * self.h)) * _FRONT_ROW
        return lower, diag, upper, cols, stefan, row_s, 1.0 + 0.5 * dt * front / s

    def _border(self, x: np.ndarray, stefan: float, row_s: np.ndarray, d_ss: float) -> tuple:
        """(1, ds) or (1, ds, dg): the weights of x's columns in -dw.

        x = A^{-1} [residual, col_s, col_g] for the tridiagonal part A of
        _linearize's Jacobian, so a Newton update is dw = -x @ (1, ds, dg).
        Put into the Stefan row (last three nodes) and, for a feedback
        source, into dg = face_row . dw (first two nodes), it leaves a
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
        self, v: np.ndarray, fronts: np.ndarray, k: int, t0: float, t1: float
    ) -> tuple[np.ndarray, float]:
        """Advance step k from (v, fronts[k]) at t0 to t1 by Newton's method.

        v is the field of w, and fronts[:k + 1] are the fronts accepted so
        far, at times uniform in sqrt(t).  s is linear in sqrt(t), and so in
        the step index, for a similarity front.  The iteration starts from
        v and, for k >= 2, from the front sqrt(3 s_k^2 - 3 s_{k-1}^2 +
        s_{k-2}^2), a quadratic extrapolation of s^2 that is exact for a
        similarity front.  Steps 0 and 1 start from the explicit Euler front
        in sqrt(t), s_k + (sqrt(t1) - sqrt(t0)) 2 sqrt(t0) s'(v), also exact
        for it; an Euler step in t overshoots it, by 9e-5 relative on the
        golden runs, and costs each of those steps a third iteration.

        Each iteration linearizes the step (_linearize), makes one
        solve_banded call against the residual and the border columns, and
        solves the 1 x 1 or 2 x 2 border in closed form (_border).  The step
        is accepted once an update moves w (relative to span, so by at least
        as much as the temperature, since Phi' >= 1) and the front by at most
        _NEWTON_TOL; the accepted front is then the Stefan condition's on the
        accepted field.  Returns the accepted field and front.

        With a tolerance of 1 every step takes one iteration, so the start
        becomes part of the scheme.  Starts that amplify a step-to-step
        oscillation more strongly then let Crank-Nicolson runs collapse: a
        cubic extrapolation of s, and any extrapolation of the field, whose
        front speed would come from an extrapolated gradient.
        """
        s_old = fronts[k]
        old = self._old_level(v, s_old, t0, t1)
        w = v.copy()
        if k >= 2:
            s = math.sqrt(3.0 * s_old**2 - 3.0 * fronts[k - 1] ** 2 + fronts[k - 2] ** 2)
        else:
            root_t0 = math.sqrt(t0)
            s = s_old + 2.0 * (math.sqrt(t1) - root_t0) * root_t0 * old.sdot
        for _ in range(_NEWTON_MAX_ITER):
            if s <= 0.0:
                raise FrontCollapse(f"front position went nonpositive at t = {t1}")
            lower, diag, upper, cols, stefan, row_s, d_ss = self._linearize(w, s, old)
            try:
                x = solve_banded(lower, diag, upper, cols.T)
                weights = self._border(x, stefan, row_s, d_ss)
            except NonConvergence as exc:
                raise NonConvergence(f"{exc} at t = {t1}") from exc
            step = x @ weights
            ds = weights[1]
            w[1:-1] -= step
            s += ds
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
        s = s_old + 0.5 * old.dt * (self.front_speed(w, s) + old.sdot)
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return w, s


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """Solve the moving-boundary problem of sol numerically and compare.

    The initial state at T_START is sampled from the similarity
    solution and mapped to w; everything afterwards is plain finite
    differences in w, mapped back to temperatures once, for the whole
    trajectory, at the end.  The returned run keeps sol's problem and sol,
    and with them the comparison errors against sol.

    Raises:
        NonConvergence: A time step's Newton iteration failed to stagnate,
            or the map back to temperatures did not converge.
        FrontCollapse: The computed front stopped advancing.
    """
    problem = (sol.material, sol.boundary, sol.source)
    stepper = _Stepper(*problem, cfg)
    fronts = np.empty(cfg.n_time + 1)
    fields = np.empty((cfg.n_time + 1, cfg.n_space))
    kirchhoff = np.empty_like(fields)
    fronts[0] = front_position(sol, T_START)
    fields[0] = temperature(sol, stepper.xi * fronts[0], T_START)
    kirchhoff[0] = stepper.to_kirchhoff(fields[0])
    # The boundary values are exact: w(0) = span Phi(1) and w(1) = 0.
    ends = np.array([sol.boundary.theta0, sol.boundary.theta_f])
    kirchhoff[0, [0, -1]] = stepper.to_kirchhoff(ends)
    for k, (t0, t1) in enumerate(zip(stepper.times[:-1], stepper.times[1:])):
        kirchhoff[k + 1], fronts[k + 1] = stepper.advance(kirchhoff[k], fronts, k, t0, t1)
    fields[1:] = stepper.from_kirchhoff(kirchhoff[1:])
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
    # Unclamped, as ode_residual_check reads it: a lam above the root gives
    # Psi values just below 0 near the front, which are measured, not refused.
    y = sol.y_many(np.clip(eta, 0.0, sol.lam), clamp=False)
    theta_exact = sol.boundary.theta_f + (sol.boundary.theta0 - sol.boundary.theta_f) * y
    theta_exact[eta > sol.lam] = sol.boundary.theta_f
    temp_max_err = float(np.max(np.abs(run.fields - theta_exact)))
    return front_rel_err, temp_max_err
