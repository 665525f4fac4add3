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
equations are the balance at the interior nodes averaged over the old and
new levels, and the Stefan condition s - s_old = dt (s' + s'_old) / 2.  For
a given s they are linear in w, so only the front is nonlinear.  A step is
linearly implicit (_Stepper.advance): it makes one Newton update from the
previous field and a predicted front that is exact for a similarity front,
then takes the Stefan condition's front on the new field.  This is the
linearized Crank-Nicolson step of Lees (Math. Comp. 20 (1966) 516) and
Douglas & Dupont (SIAM J. Numer. Anal. 7 (1970) 575), second order like the
fully implicit one.  Against steps iterated to convergence it moves the
errors by under 1e-6 of their value on smooth problems.

A step's array work is two small products into buffers the stepper keeps
(_Stepper.step_system), each linear in the grid size.  The step is
linearized at the old field, so one product of two fixed difference
weights with the field's three-node windows gives the advection row
xi w_xi and the second difference, which its old level and its
linearization share, as do the one-sided face and front gradients.  The
residual is minus the mean of the spatial operator at the two levels.
The Jacobian is tridiagonal in w, with bands that are scalars times
(xi, 1), bordered by the front (a column in s, and the Stefan row on the
last three nodes) and, for the flux-feedback source, by the face
gradient, which feeds every node.  One product of a small matrix of
scalar weights with the rows gives the three bands and the residual and
border columns in one buffer.  A source that varies along the strip adds
the rows H at the front, at a bump of it and at the old level, from one
heat_source call per step.  A uniform one (none and
flux feedback, SourceModel.uniform) adds no row: its H per unit face
gradient is tabulated over the run's times by one call, and enters each
step as scalar weights of the constant row.  Each step makes one call to
solve_banded on that buffer, then solves the 1 x 1 or 2 x 2 border in
closed form.  solve_banded hands the system straight to LAPACK gtsv (the
routine scipy.linalg.solve_banded uses for (1, 1) bands) and keeps scipy's
guards: a non-finite coefficient or right-hand side, or a singular matrix,
raises NonConvergence, whose message names the time of the failing step.

The trajectory of w is mapped to temperatures once, at the end and in
place, by the oracle's own Newton on Phi(y) = w / span
(_Stepper.from_kirchhoff), not by the similarity layer's inverse.  That map
and compare work over blocks of rows, so a run's memory is one trajectory
array and a few blocks.  A run stores the problem it was stepped from, its
trajectory and the solution it is compared with, and derives its grid and
errors (OracleRun).
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


# The run starts at T_START, from the similarity solution, and steps to
# T_END.  The discrete front-fixed problem is invariant under t -> c t, so
# only the ratio T_END / T_START moves the errors.
T_START = 0.01
T_END = 1.0

# Largest (n_time + 1) * n_space of a grid.  A run holds one trajectory
# array of that many doubles, 128 MiB at the cap, with the band check's
# boolean masks and blocks of _BLOCK_VALUES values besides: a 64 x 32768
# verify peaks about 1.3 trajectory arrays above a 64 x 128 one.
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
    MismatchedProblem; another lam is allowed.  A front that does not
    strictly increase (or holds a NaN) raises FrontCollapse.  Temperatures
    outside [theta_f, theta0] by more than 1e-6 of the span, or NaN, raise
    InvalidInput naming the first step that leaves the band, its time,
    node, xi and value.
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
        if not np.all(np.diff(self.front) > 0.0):
            raise FrontCollapse("oracle front trajectory is not strictly increasing")
        xi, times = _grid(cfg)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "times", times)
        bd = self.problem[1]
        eps = 1e-6 * (bd.theta0 - bd.theta_f)
        # Written as "not inside" so that a NaN, which compares false, is outside.
        outside = ~((self.fields >= bd.theta_f - eps) & (self.fields <= bd.theta0 + eps))
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


def _face_gradient(u: np.ndarray, h: float) -> float:
    """Second-order one-sided du/dxi at xi = 0."""
    u0, u1, u2 = u[:3].tolist()
    return (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h)


def _front_gradient(u: np.ndarray, h: float) -> float:
    """Third-order one-sided du/dxi at xi = 1."""
    u4, u3, u2, u1 = u[-4:].tolist()
    return (11.0 * u1 - 18.0 * u2 + 9.0 * u3 - 2.0 * u4) / (6.0 * h)


def solve_banded(system: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK gtsv, in place in system.

    system is a C-ordered (3 + k, m) buffer.  Row 0 holds the subdiagonal
    in its entries 1 to m - 1, row 1 the m diagonal entries and row 2 the
    superdiagonal in its entries 0 to m - 2; rows 3 onward are k
    right-hand sides, solved together.  Every entry is overwritten, and the
    solution comes back as the (m, k) transpose of the right-hand-side rows
    (a view in Fortran order, so nothing is copied).  This is the routine
    scipy.linalg.solve_banded calls for (1, 1) bands, with the same guards
    and without its per-call input conversion.

    Raises:
        NonConvergence: An entry of system (the two unused corners
            included) is not finite, or the matrix is singular.
    """
    if not np.isfinite(system).all():
        raise NonConvergence("tridiagonal system has a non-finite coefficient or right-hand side")
    _, _, _, x, info = dgtsv(
        system[0, 1:], system[1], system[2, :-1], system[3:].T, True, True, True, True
    )
    if info > 0:
        raise NonConvergence(f"tridiagonal system is singular (zero pivot {info})")
    return x


# Relative change of s in the one-sided difference that gives dH/ds for a
# source that varies along the strip: a similarity source may be any beta.
_SOURCE_DS = 1e-8
# d(front gradient)/dw_j at nodes n-4, n-3, n-2, times 6h (_front_gradient).
_FRONT_ROW = np.array([-2.0, 9.0, -18.0])
# Over the three-node windows (w_{i-1}, w_i, w_{i+1}) of the interior
# nodes: the central difference times 2h, and the second difference times h^2.
_DIFFERENCES = np.array([[-1.0, 0.0, 1.0], [1.0, -2.0, 1.0]])
# The map back to temperatures stops once no y moves by more than _INVERSE_TOL.
_INVERSE_TOL = 1e-14
_INVERSE_MAX_ITER = 100
# from_kirchhoff and compare take a trajectory in blocks of rows of at most
# this many values (and at least one row), so their temporaries stay a few
# blocks however long the run.  The default 129 x 64 grid is one block.
_BLOCK_VALUES = 1 << 14


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices over rows rows of width values, each of at most _BLOCK_VALUES values or one row."""
    step = max(1, _BLOCK_VALUES // max(1, width))
    return [slice(start, start + step) for start in range(0, rows, step)]


class _Stepper:
    """One linearly implicit Crank-Nicolson time step of the front-fixed system in w.

    A step's array work is two products into buffers the stepper keeps
    (step_system), and its memory is a few rows of the grid.  One, of the
    fixed (2, 3) weights _DIFFERENCES with the three-node windows of the
    old field v (self.windows, m = n - 2 interior nodes), gives rows 0 and
    1 of the (7, m) buffer self.rows: the central difference, scaled to
    xi w_xi by one product with xi_2h, and the second difference of v.
    Rows 2 to 4 hold H at the new front s, at s (1 + _SOURCE_DS) and at
    the old level; rows 5 and 6 are the constant basis xi_2h and 1.  The other, of (3 + k, 7) scalar weights
    with the rows, gives the three bands and the k = 2 or 3 right-hand
    sides in self.system, which solve_banded solves in place.

    A source that varies along the strip writes rows 2 to 4 with one
    heat_source call per step.  A uniform one (SourceModel.uniform: none
    and flux feedback) leaves them at zero and costs no array work per
    step: H = theta_x(0) H(theta_x = 1) enters as scalar weights of row 6,
    with H(theta_x = 1) tabulated over the run's times by one heat_source
    call (self.unit_source).
    """

    def __init__(self, material: Material, boundary: BoundaryData, source: SourceSpec, cfg: OracleConfig):
        self.mat = material
        self.bd = boundary
        self.n = cfg.n_space
        self.xi, self.times = _grid(cfg)
        self.xi_inner = self.xi[1:-1]
        self.h = self.xi[1] - self.xi[0]
        self.xi_2h = self.xi_inner / (2.0 * self.h)
        self.span = boundary.theta0 - boundary.theta_f
        self.model = problem_model(material, boundary, source)
        self.a = material.a
        self.rho_c0 = material.rho * material.c0
        self.rho_l = material.rho * material.latent_heat
        self.k0_h2 = material.k0 / (self.h * self.h)
        # Phi'(1), so that theta_x(0) = w_xi(0) / (s Phi'(1)).
        self.phi1 = 1.0 + material.delta
        m = self.n - 2
        # The old field is copied into self.field, whose (3, m) view
        # self.windows holds the three-node window of each interior node.
        self.field = np.zeros(self.n)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.field, 3).T
        self.rows = np.zeros((7, m))
        self.rows[5] = self.xi_2h
        self.rows[6] = 1.0
        self.weights = np.zeros((5 if self.model.feedback is None else 6, 7))
        self.system = np.empty((self.weights.shape[0], m))
        # The border rows, over the interior nodes: _FRONT_ROW, which the
        # Stefan residual's derivative in w is a multiple of, and for flux
        # feedback d(face gradient)/dw at nodes 1, 2 (_face_gradient).
        self.border = np.zeros((self.weights.shape[0] - 4, m))
        self.border[0, -3:] = _FRONT_ROW
        if self.model.feedback is not None:
            self.border[1, :2] = np.array([2.0, -0.5]) / self.h
        # H per unit theta_x(0) of a uniform source, keyed by the grid's times.
        self.unit_source: dict[float, float] | None = None
        if self.model.uniform:
            unit = self.model.heat_source(self.mat, np.zeros_like(self.times), self.times, 1.0)
            self.unit_source = dict(zip(self.times.tolist(), unit.tolist()))
        else:
            # H(s) and H at the old level weigh 1/2 in the residual.
            self.weights[3, 2] = self.weights[3, 4] = 0.5
            # Three (3, 1) columns over the rows of H: the factor of xi in
            # eta, the time and theta_x(0), filled through one flat view.
            heat_args = np.empty((3, 3, 1))
            self.heat_args = heat_args.reshape(9)
            self.eta_scale, self.heat_t, self.heat_theta_x = heat_args
            self.eta = np.empty((3, m))

    def to_kirchhoff(self, u: np.ndarray) -> np.ndarray:
        """w = span Phi(y) of temperatures u, with y clipped to [0, 1]."""
        y = np.clip((u - self.bd.theta_f) / self.span, 0.0, 1.0)
        return self.span * (y + y * (self.mat.delta * y**self.mat.p) / (self.mat.p + 1.0))

    def from_kirchhoff(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Temperatures of a field (or trajectory) of w, by Newton on Phi(y) = w / span.

        Phi is convex and increasing, and Phi(y) >= y, so the iterates from
        min(w / span, 1) fall monotonically onto the root (where w / span >
        Phi(1), after a first step past it).  Below 0, where Phi is extended
        by its tangent y, y = w / span.  The rows are taken in blocks of at
        most _BLOCK_VALUES values, each with its own temporaries and its
        own stop, and written into out (a new array, or w itself).
        """
        delta, p, span = self.mat.delta, self.mat.p, self.span
        out = np.empty_like(w) if out is None else out
        # w[:1].size is the number of values in a row (1 for a single field).
        for rows in _blocks(len(w), w[:1].size):
            z = w[rows] / span
            y = np.minimum(z, 1.0)
            for _ in range(_INVERSE_MAX_ITER):
                excess = delta * np.maximum(y, 0.0) ** p
                step = (y + y * excess / (p + 1.0) - z) / (1.0 + excess)
                y -= step
                if not np.any(np.abs(step) > _INVERSE_TOL):
                    break
            else:
                raise NonConvergence(
                    f"Phi(y) = w / span unsolved after {_INVERSE_MAX_ITER} iterations"
                )
            out[rows] = self.bd.theta_f + span * y
        return out

    def front_speed(self, gradient: float, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat) of the front gradient dw/dxi.

        theta_x at the front is w_x = w_xi / s there, since Phi'(0) = 1.
        """
        return -self.mat.k0 * gradient / (self.rho_l * s)

    def step_system(
        self, v: np.ndarray, s_old: float, s: float, t0: float, t1: float, gradient: float
    ) -> tuple:
        """The system of the step from (v, s_old) at t0 to t1, linearized at (v, s).

        gradient is v's front gradient _front_gradient(v, h), which advance
        carries over from the step that wrote v.

        The residual at the interior nodes is rho c0 (w - v) / dt -
        (L(w, s) + L(v, s_old)) / 2 with L = rho c0 xi (s'/s) w_xi +
        (k0/s^2) w_xixi - H.  The advection takes the front speed that the
        Stefan condition gives s, s' = 2 (s - s_old) / dt - s'_old; it is
        the gradient's speed wherever that condition holds.  At w = v the
        residual is -(L(v, s) + L(v, s_old)) / 2.  The Jacobian is
        tridiagonal in w, bordered by the front and, for flux feedback, by
        the face gradient g = dw/dxi at xi = 0, which feeds every node
        through dg/dw = (2, -1/2) / h at nodes 1, 2 (self.border[1]).

        Writes self.system, in solve_banded's layout, as one product of
        self.weights with self.rows (_Stepper): rows 0 to 2 are the lower,
        diagonal and upper bands of the derivative in w, row 3 the residual
        at (v, s), row 4 its derivative in s and, for flux feedback only,
        row 5 its derivative in g.  Returns (system, sdot_old, stefan,
        stefan_w, d_ss): s'_old = front_speed of v at s_old; stefan = s -
        s_old - dt (s'(v, s) + s'_old) / 2, and its derivatives in w,
        stefan_w self.border[0] (_FRONT_ROW on the last three interior
        nodes), and d_ss in s.
        """
        dt = t1 - t0
        h, k0_h2, rho_c0, phi1 = self.h, self.k0_h2, self.rho_c0, self.phi1
        rows = self.rows
        np.copyto(self.field, v)
        np.dot(_DIFFERENCES, self.windows, out=rows[:2])
        rows[0] *= self.xi_2h
        face = _face_gradient(v, h)
        sdot_old = self.front_speed(gradient, s_old)
        sdot = 2.0 * (s - s_old) / dt - sdot_old
        kd = 0.5 * k0_h2 / (s * s)
        adv = 0.5 * rho_c0 * sdot / s
        # Rows 0 and 1 weigh in the residual and in its derivative in s: s
        # scales the diffusion by 1/s^2 and the advection by s'/s, and moves
        # H through eta and the face gradient's 1/s.  The bands are the
        # basis (xi_2h, 1), rows 5 and 6, times scalars.
        c = self.weights
        c[0, 5], c[0, 6] = adv, -kd
        c[1, 6] = rho_c0 / dt + 2.0 * kd
        c[2, 5], c[2, 6] = -adv, -kd
        c[3, 0] = -0.5 * rho_c0 * (sdot / s + sdot_old / s_old)
        c[3, 1] = -0.5 * k0_h2 * (1.0 / (s * s) + 1.0 / (s_old * s_old))
        c[4, 0] = -(1.0 / dt - 0.5 * sdot / s) * rho_c0 / s
        c[4, 1] = k0_h2 / (s * s * s)
        if self.unit_source is not None:
            # H = g H(g = 1) at every node, with H(g = 1) proportional to
            # 1/s through theta_x(0) = g / (s Phi'(1)): H, dH/dg and dH/ds =
            # -H/s are scalars on row 6.
            per_g = self.unit_source[t1] / (s * phi1)
            per_g_old = self.unit_source[t0] / (s_old * phi1)
            c[3, 6] = 0.5 * face * (per_g + per_g_old)
            c[4, 6] = -0.5 * face * per_g / s
            if self.model.feedback is not None:
                c[5, 6] = 0.5 * per_g
        else:
            # One heat_source call on the three rows' eta, with their times
            # and theta_x(0) as columns: H(s), H(s (1 + _SOURCE_DS)) and H
            # at the old level.
            bump = s * (1.0 + _SOURCE_DS)
            eta1, eta0 = 2.0 * self.a * math.sqrt(t1), 2.0 * self.a * math.sqrt(t0)
            self.heat_args[:] = (
                s / eta1, bump / eta1, s_old / eta0,
                t1, t1, t0,
                face / (s * phi1), face / (bump * phi1), face / (s_old * phi1),
            )
            np.multiply(self.eta_scale, self.xi_inner, out=self.eta)
            H = self.model.heat_source(self.mat, self.eta, self.heat_t, self.heat_theta_x)
            rows[2:5] = H
            c[4, 3] = 0.5 / (_SOURCE_DS * s)
            c[4, 2] = -c[4, 3]
        np.dot(c, rows, out=self.system)

        # s'(v, s): the front gradient of v is the old level's.
        speed = sdot_old * s_old / s
        stefan = s - s_old - 0.5 * dt * (speed + sdot_old)
        stefan_w = 0.5 * dt * self.mat.k0 / (self.rho_l * s * 6.0 * h)
        return self.system, sdot_old, stefan, stefan_w, 1.0 + 0.5 * dt * speed / s

    def _border(self, x: np.ndarray, stefan: float, stefan_w: float, d_ss: float) -> tuple:
        """(1, ds) or (1, ds, dg): the weights of x's columns in -dw.

        x = A^{-1} [residual, col_s, col_g] for the tridiagonal part A of
        step_system's Jacobian, so the Newton update is dw = -x @ (1, ds, dg).
        Put into the Stefan row (stefan_w self.border[0]) and, for a
        feedback source, into dg = self.border[1] . dw, by one product
        with self.border, it leaves a 1 x 1 or 2 x 2 system in the front
        update ds and the face-gradient update dg, solved here by Cramer's
        rule.
        """
        front, *face = (self.border @ x).tolist()
        a0, a_s, *a_g = [stefan_w * a for a in front]
        pivot = d_ss - a_s
        if not a_g:
            if not pivot:
                raise NonConvergence("bordered system is singular")
            return 1.0, (a0 - stefan) / pivot
        g0, g_s, g_g = face[0]
        det = pivot * (1.0 + g_g) + a_g[0] * g_s
        if not det:
            raise NonConvergence("bordered system is singular")
        ds = ((a0 - stefan) * (1.0 + g_g) - a_g[0] * g0) / det
        return 1.0, ds, -(pivot * g0 + g_s * (a0 - stefan)) / det

    def advance(
        self, v: np.ndarray, gradient: float, fronts: np.ndarray, k: int, t0: float, t1: float,
        out: np.ndarray,
    ) -> tuple[float, float]:
        """Advance step k from (v, fronts[k]) at t0 to t1 by one bordered solve.

        v is the field of w, gradient its front gradient _front_gradient(v,
        h), and fronts[:k + 1] are the fronts accepted so far, at times
        uniform in sqrt(t).  s is linear in sqrt(t), and so in the step
        index, for a similarity front.  The step is linearized at v
        and, for k >= 2, at the front sqrt(3 s_k^2 - 3 s_{k-1}^2 +
        s_{k-2}^2), a quadratic extrapolation of s^2 that is exact for a
        similarity front.  Steps 0 and 1 start from the explicit Euler front
        in sqrt(t), s_k + (sqrt(t1) - sqrt(t0)) 2 sqrt(t0) s'(v), also exact
        for it; an Euler step in t overshoots it, by 9e-5 relative on the
        golden runs.

        One Newton update follows: step_system, one solve_banded call on
        its system, and the 1 x 1 or 2 x 2 border in closed form (_border).
        The updated field's interior is written into out, whose two
        boundary values the caller sets.  Returns the Stefan condition's
        front on that field, s_old + dt (s'(w) + s'_old) / 2, and the
        field's front gradient, which the next step takes as its gradient.
        The equations are linear in w for a fixed s, so the update leaves
        only the front's nonlinearity unresolved.

        The start is part of the scheme.  Starts that amplify a step-to-step
        oscillation more strongly let Crank-Nicolson runs collapse: a cubic
        extrapolation of s, and any extrapolation of the field, whose front
        speed would come from an extrapolated gradient.
        """
        if k >= 2:
            s_2, s_1, s_old = fronts[k - 2 : k + 1].tolist()
            s = math.sqrt(3.0 * s_old**2 - 3.0 * s_1**2 + s_2**2)
        else:
            s_old = float(fronts[k])
            root_t0 = math.sqrt(t0)
            speed = self.front_speed(gradient, s_old)
            s = s_old + 2.0 * (math.sqrt(t1) - root_t0) * root_t0 * speed
        if s <= 0.0:
            raise FrontCollapse(f"front position went nonpositive at t = {t1}")
        system, sdot_old, stefan, stefan_w, d_ss = self.step_system(v, s_old, s, t0, t1, gradient)
        try:
            x = solve_banded(system)
            weights = self._border(x, stefan, stefan_w, d_ss)
        except NonConvergence as exc:
            raise NonConvergence(f"{exc} at t = {t1}") from exc
        np.subtract(v[1:-1], np.dot(x, weights), out=out[1:-1])
        gradient = _front_gradient(out, self.h)
        speed = self.front_speed(gradient, s + weights[1])
        s = s_old + 0.5 * (t1 - t0) * (speed + sdot_old)
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return s, gradient


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """Solve the moving-boundary problem of sol numerically and compare.

    The initial state at T_START is sampled from the similarity
    solution and mapped to w; everything afterwards is plain finite
    differences in w, mapped back to temperatures once, for the whole
    trajectory, at the end, in place: the run holds one trajectory array.
    The returned run keeps sol's problem and sol, and with them the
    comparison errors against sol.

    Raises:
        NonConvergence: A time step's bordered system was singular or not
            finite, or the map back to temperatures did not converge.
        FrontCollapse: The computed front stopped advancing.
    """
    problem = (sol.material, sol.boundary, sol.source)
    stepper = _Stepper(*problem, cfg)
    fronts = np.empty(cfg.n_time + 1)
    fields = np.empty((cfg.n_time + 1, cfg.n_space))
    fronts[0] = front_position(sol, T_START)
    first = temperature(sol, stepper.xi * fronts[0], T_START)
    fields[0] = stepper.to_kirchhoff(first)
    # The boundary values are exact, w(0) = span Phi(1) and w(1) = 0, and
    # set once for every row; each step writes its row's interior.
    ends = np.array([sol.boundary.theta0, sol.boundary.theta_f])
    fields[:, [0, -1]] = stepper.to_kirchhoff(ends)
    times = stepper.times.tolist()
    gradient = _front_gradient(fields[0], stepper.h)
    for k, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
        fronts[k + 1], gradient = stepper.advance(
            fields[k], gradient, fronts, k, t0, t1, fields[k + 1]
        )
    stepper.from_kirchhoff(fields[1:], out=fields[1:])
    fields[0] = first
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
    bd = sol.boundary
    block_errs = []
    # Block by block, so the temporaries stay a few blocks (_BLOCK_VALUES).
    for rows in _blocks(len(run.times), len(run.xi)):
        eta = (run.xi[None, :] * run.front[rows, None]) / denom[rows, None]
        # Unclamped, as ode_residual_check reads it: a lam above the root gives
        # Psi values just below 0 near the front, which are measured, not refused.
        y = sol.y_many(np.clip(eta, 0.0, sol.lam), clamp=False)
        theta_exact = bd.theta_f + (bd.theta0 - bd.theta_f) * y
        theta_exact[eta > sol.lam] = bd.theta_f
        block_errs.append(np.max(np.abs(run.fields[rows] - theta_exact)))
    return front_rel_err, float(np.max(block_errs))
