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

The step is linearized at the old field, so its old level and its
linearization share one pass of differences of that field, one front
gradient and one face gradient (_Stepper._old_level), and the residual is
minus the mean of the spatial operator at the two levels.  The residual and
the border columns are one product of a few scalar weights with those
differences and two _source calls' rows, H at the old level and, from one
call, H at the front and at a bump of it (_Stepper._linearize).  The
Jacobian is tridiagonal in w, with bands that are scalars times xi (a
second small product), bordered by the front (a column in s, and the Stefan
row on the last three nodes) and, for the flux-feedback source, by the face
gradient, which feeds every node.  Each step makes one call to solve_banded
with the residual and the border columns as right-hand sides, then solves
the 1 x 1 or 2 x 2 border in closed form.  solve_banded hands the system
straight to LAPACK gtsv (the routine scipy.linalg.solve_banded uses for
(1, 1) bands) and keeps scipy's guards: a non-finite coefficient or
right-hand side, or a singular matrix, raises NonConvergence, whose message
names the time of the failing step.

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


# Relative change of s in the one-sided difference that gives dH/ds for the
# sources other than flux feedback: a similarity source may be any beta.
_SOURCE_DS = 1e-8
# d(front gradient)/dw_j at nodes n-4, n-3, n-2, times 6h (_front_gradient).
_FRONT_ROW = np.array([-2.0, 9.0, -18.0])
# The map back to temperatures stops once no y moves by more than _INVERSE_TOL.
_INVERSE_TOL = 1e-14
_INVERSE_MAX_ITER = 100


class _Level(NamedTuple):
    """What a step's equations take from its old level, with its new time and length."""

    v: np.ndarray  # the old field of w, where the step is linearized
    s: float  # the old front
    sdot: float  # its speed, from the old field
    face: float  # the old field's face gradient dw/dxi at xi = 0
    t: float  # the new time
    dt: float


class _Stepper:
    """One linearly implicit Crank-Nicolson time step of the front-fixed system in w.

    A step writes its array work once, into the five rows of self.rows:
    xi w_xi and the second difference of the old field (rows 0 and 1), H
    at the linearization front s and at s (1 + _SOURCE_DS) (rows 2 and 3;
    H(g = 1) and zero for flux feedback), and H at the old level (row 4).
    Its right-hand sides are one small product of scalar weights with these
    rows, and its bands one of scalars with the basis (xi_2h, 1)
    (_linearize).
    """

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
        self.rows = np.zeros((5, self.n - 2))
        # Two rows of xi whose eta at the front s are those of s and s (1 + _SOURCE_DS).
        self.xi_bump = np.array([[1.0], [1.0 + _SOURCE_DS]]) * self.xi_inner
        # The three bands are the (3, 2) band_weights times this basis.
        self.basis = np.vstack((self.xi_2h, np.ones(self.n - 2)))
        self.band_weights = np.zeros((3, 2))
        # cols is weights times rows (_linearize), which sets the entries
        # that change from step to step.
        self.weights = np.zeros((2 if self.model.feedback is None else 3, 5))
        self.weights[0, 2:] = 0.5, 0.0, 0.5
        if self.model.feedback is not None:
            self.weights[2, 2] = 0.5

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

    def _source(self, s: float, t: float, face: float, xi: np.ndarray) -> np.ndarray:
        """H at the nodes xi for the front s and the face gradient dw/dxi at xi = 0.

        The temperature gradient there is theta_x = w_xi / (s Phi'(1)).  xi
        is self.xi_inner, or self.xi_bump for two rows, H(s) and
        H(s (1 + _SOURCE_DS)), from one heat_source call on their flattened
        eta.
        """
        eta = xi * (s / (2.0 * self.a * math.sqrt(t)))
        theta_x = face / (s * (1.0 + self.mat.delta))
        return self.model.heat_source(self.mat, eta.ravel(), t, theta_x).reshape(eta.shape)

    def front_speed(self, w: np.ndarray, s: float) -> float:
        """Stefan condition s' = -k0 theta_x(s, t) / (rho latent_heat).

        theta_x at the front is w_x there, since Phi'(0) = 1.
        """
        return -self.mat.k0 * _front_gradient(w, self.h) / (self.rho_l * s)

    def _old_level(self, v: np.ndarray, s_old: float, t0: float, t1: float) -> _Level:
        """What the step from (v, s_old) at t0 to t1 takes from its old level.

        Writes the rows that the step's linearization at v shares with the
        old level: xi w_xi = xi_2h (v[2:] - v[:-2]) (row 0), the second
        difference of v (row 1) and H at (s_old, t0) (row 4, the one
        _source call of the old level).
        """
        rows = self.rows
        np.subtract(v[2:], v[:-2], out=rows[0])
        rows[0] *= self.xi_2h
        dw = v[1:] - v[:-1]
        np.subtract(dw[1:], dw[:-1], out=rows[1])
        face = _face_gradient(v, self.h)
        rows[4] = self._source(s_old, t0, face, self.xi_inner)
        return _Level(v, s_old, self.front_speed(v, s_old), face, t1, t1 - t0)

    def _linearize(self, s: float, old: _Level) -> tuple:
        """The step's equations at (old.v, s) and their Jacobian.

        The residual at the interior nodes is rho c0 (w - v) / dt -
        (L(w, s) + L(v, s_old)) / 2 with L = rho c0 xi (s'/s) w_xi +
        (k0/s^2) w_xixi - H.  The advection takes the front speed that the
        Stefan condition gives s, s' = 2 (s - s_old) / dt - s'_old; it is
        the gradient's speed wherever that condition holds.  At w = v the
        residual is -(L(v, s) + L(v, s_old)) / 2.  One _source call writes
        rows 2 and 3 of self.rows (_Stepper); _old_level wrote the others.
        Returns (lower, diag, upper, cols, stefan, row_s, d_ss):

        - cols, one product of (2, 5) or (3, 5) scalar weights with
          self.rows: cols[0], the residual; cols[1], its derivative in s;
          and, for flux feedback only, cols[2], its derivative in g, which
          enters through dg/dw = (2, -1/2) / h at nodes 1, 2
          (self.face_row);
        - lower, diag, upper: the tridiagonal derivative in w, row views of
          one product of (3, 2) scalars with the basis (xi_2h, 1);
        - stefan = s - s_old - dt (s'(v, s) + s'_old) / 2, with
          s'(w, s) = front_speed, and its derivatives row_s in w at the
          last three interior nodes and d_ss in s.
        """
        t, dt, s_old = old.t, old.dt, old.s
        sdot = 2.0 * (s - s_old) / dt - old.sdot
        k0_h2 = self.mat.k0 / (self.h * self.h)
        rho_c0 = self.rho_c0
        # The weights of the rows in the residual (c[0]) and in its
        # derivative in s (c[1]): s scales the diffusion by 1/s^2 and the
        # advection by s'/s, and moves H through eta and the face
        # gradient's 1/s.  H(s) and H at the old level weigh 1/2 in the
        # residual, and for flux feedback H(g = 1) weighs 1/2 in c[2].
        c = self.weights
        c[0, 0] = -0.5 * rho_c0 * (sdot / s + old.sdot / s_old)
        c[0, 1] = -0.5 * k0_h2 * (1.0 / (s * s) + 1.0 / (s_old * s_old))
        c[1, 0] = -(1.0 / dt - 0.5 * sdot / s) * rho_c0 / s
        c[1, 1] = k0_h2 / (s * s * s)
        if self.model.feedback is None:
            self.rows[2:4] = self._source(s, t, old.face, self.xi_bump)
            c[1, 3] = 0.5 / (_SOURCE_DS * s)
            c[1, 2] = -c[1, 3]
        else:
            # H = g H(g = 1) is uniform and linear in g, and H(g = 1) is
            # proportional to 1/s: one call gives H, dH/dg and dH/ds = -H/s.
            self.rows[2] = self._source(s, t, 1.0, self.xi_inner)
            c[0, 2] = 0.5 * old.face
            c[1, 2] = -0.5 * old.face / s
        cols = c @ self.rows

        kd = 0.5 * k0_h2 / (s * s)
        adv = 0.5 * rho_c0 * sdot / s
        b = self.band_weights
        b[0, 0], b[2, 0] = adv, -adv
        b[0, 1] = b[2, 1] = -kd
        b[1, 1] = rho_c0 / dt + 2.0 * kd
        bands = b @ self.basis

        # s'(v, s): the front gradient of v is the old level's.
        front = old.sdot * s_old / s
        stefan = s - s_old - 0.5 * dt * (front + old.sdot)
        row_s = (0.5 * dt * self.mat.k0 / (self.rho_l * s * 6.0 * self.h)) * _FRONT_ROW
        return bands[0, 1:], bands[1], bands[2, :-1], cols, stefan, row_s, 1.0 + 0.5 * dt * front / s

    def _border(self, x: np.ndarray, stefan: float, row_s: np.ndarray, d_ss: float) -> tuple:
        """(1, ds) or (1, ds, dg): the weights of x's columns in -dw.

        x = A^{-1} [residual, col_s, col_g] for the tridiagonal part A of
        _linearize's Jacobian, so the Newton update is dw = -x @ (1, ds, dg).
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
        self, v: np.ndarray, fronts: np.ndarray, k: int, t0: float, t1: float, out: np.ndarray
    ) -> float:
        """Advance step k from (v, fronts[k]) at t0 to t1 by one bordered solve.

        v is the field of w, and fronts[:k + 1] are the fronts accepted so
        far, at times uniform in sqrt(t).  s is linear in sqrt(t), and so in
        the step index, for a similarity front.  The step is linearized at v
        and, for k >= 2, at the front sqrt(3 s_k^2 - 3 s_{k-1}^2 +
        s_{k-2}^2), a quadratic extrapolation of s^2 that is exact for a
        similarity front.  Steps 0 and 1 start from the explicit Euler front
        in sqrt(t), s_k + (sqrt(t1) - sqrt(t0)) 2 sqrt(t0) s'(v), also exact
        for it; an Euler step in t overshoots it, by 9e-5 relative on the
        golden runs.

        One Newton update follows: _old_level, _linearize, one solve_banded
        call against the residual and the border columns, and the 1 x 1 or
        2 x 2 border in closed form (_border).  The updated field's interior
        is written into out, whose two boundary values the caller sets; the
        returned front is the Stefan condition's on that field, s_old + dt
        (s'(w) + s'_old) / 2.  The equations are linear in w for a fixed s,
        so the update leaves only the front's nonlinearity unresolved.

        The start is part of the scheme.  Starts that amplify a step-to-step
        oscillation more strongly let Crank-Nicolson runs collapse: a cubic
        extrapolation of s, and any extrapolation of the field, whose front
        speed would come from an extrapolated gradient.
        """
        s_old = fronts[k]
        old = self._old_level(v, s_old, t0, t1)
        if k >= 2:
            s = math.sqrt(3.0 * s_old**2 - 3.0 * fronts[k - 1] ** 2 + fronts[k - 2] ** 2)
        else:
            root_t0 = math.sqrt(t0)
            s = s_old + 2.0 * (math.sqrt(t1) - root_t0) * root_t0 * old.sdot
        if s <= 0.0:
            raise FrontCollapse(f"front position went nonpositive at t = {t1}")
        lower, diag, upper, cols, stefan, row_s, d_ss = self._linearize(s, old)
        try:
            x = solve_banded(lower, diag, upper, cols.T)
            weights = self._border(x, stefan, row_s, d_ss)
        except NonConvergence as exc:
            raise NonConvergence(f"{exc} at t = {t1}") from exc
        np.subtract(v[1:-1], x @ weights, out=out[1:-1])
        s = s_old + 0.5 * old.dt * (self.front_speed(out, s + weights[1]) + old.sdot)
        if s <= s_old:
            raise FrontCollapse(
                f"front failed to advance: s({t1}) = {s} <= s({t0}) = {s_old}"
            )
        return s


def run_oracle_for(sol: SimilaritySolution, cfg: OracleConfig) -> OracleRun:
    """Solve the moving-boundary problem of sol numerically and compare.

    The initial state at T_START is sampled from the similarity
    solution and mapped to w; everything afterwards is plain finite
    differences in w, mapped back to temperatures once, for the whole
    trajectory, at the end.  The returned run keeps sol's problem and sol,
    and with them the comparison errors against sol.

    Raises:
        NonConvergence: A time step's bordered system was singular or not
            finite, or the map back to temperatures did not converge.
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
    # The boundary values are exact, w(0) = span Phi(1) and w(1) = 0, and
    # set once for every row; each step writes its row's interior.
    ends = np.array([sol.boundary.theta0, sol.boundary.theta_f])
    kirchhoff[:, [0, -1]] = stepper.to_kirchhoff(ends)
    for k, (t0, t1) in enumerate(zip(stepper.times[:-1], stepper.times[1:])):
        fronts[k + 1] = stepper.advance(kirchhoff[k], fronts, k, t0, t1, kirchhoff[k + 1])
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
