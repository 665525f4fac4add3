"""Closed-form similarity reduction of the melting problem.

With theta(x, t) = theta_f + (theta0 - theta_f) * y(eta), eta = x / (2 a
sqrt(t)) and s(t) = 2 a lam sqrt(t), the PDE problem collapses to a
two-point ODE problem for y on [0, lam]:

    2 eta (1 + delta y^p) y' + [(1 + delta y^p) y']' = r(eta),
    y(0) = 1,   y(lam) = 0,   y'(lam) = -2 lam / Ste,

where r = (4/Ste) beta(eta) for the bulk similarity source, r = A y'(0)
for the flux-feedback source (A the feedback coupling) and r = 0 without a
source.  One integration with the factor exp(eta^2) and a second from 0 to
eta turn this into a scalar transcendental equation for lam plus an
explicit formula for the integrated profile

    Psi(eta) = Phi(y(eta)),    Phi(x) = x + delta/(p+1) * x^(p+1),

so the profile itself is y = Phi^{-1}(Psi).  Everything in this module
works at the dimensionless level (Ste, delta, p, beta or A); the mapping
to physical quantities lives in reconstruct.

The y'(0) formulas drop out of the first integration evaluated at lam:

    (1 + delta) y'(0) = -(2/Ste) (lam e^{lam^2} + 2 I[beta e^{xi^2}](lam))
    y'(0) = -2 lam / (Ste (e^{-lam^2} (1 + delta) + A D(lam)))   (flux feedback)

with D(x) = e^{-x^2} integral_0^x e^{z^2} dz Dawson's function.  The
flux-feedback front equation, y'(0) and Psi are divided through by
e^{lam^2}, so they hold only bounded terms: with F(x) the integral of D
from 0 to x,

    lam solves   2 x (A F(x) + (1 + delta) (sqrt(pi)/2) erf(x))
                 / (Ste (e^{-x^2} (1 + delta) + A D(x))) = 1 + delta/(p+1),
    Psi(eta) = 1 + delta/(p+1)
               + y'(0) (A F(eta) + (1 + delta) (sqrt(pi)/2) erf(eta))

(docs/errata.md, "Scaled form").  For the exponential source
beta(eta) = e^{-eta^2}/2 every integral collapses:

    lam solves   (sqrt(pi)/Ste) x erf(x) (e^{x^2} + 1)
                  - (1 - e^{-x^2})/Ste = 1 + delta/(p+1),
    Psi(eta) = 1 + delta/(p+1)
               - (sqrt(pi) lam (e^{lam^2} + 1)/Ste) erf(eta)
               + (1 - e^{-eta^2})/Ste.

Each reduced equation has a strictly increasing left-hand side, so lam is
the unique root, and the closed-form bracket that the Brent-Dekker solve
contracts around it (docs/errata.md, "Brackets") is a proof of existence.
An e^{x^2} that overflows reads +inf, so the proof holds up to
lam^2 ~ 709.78; a root past that raises OutOfRange.

The per-source formulas live on one SourceModel subclass per source kind;
source_model is the only place that maps a source spec to its formulas, and
problem_model the only place that maps a physical problem to its groups.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import dawsn

from .errors import InvalidInput, NonConvergence, OutOfRange, StefanError
from .model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
    SourceSpec,
    _require_positive,
)
from .numerics import (
    SQRT_PI,
    _call_vectorized,
    _eval_clipped,
    erf,
    find_root_increasing,
    integrate,
    integrate_cumulative,
)

# Psi values may stray this far outside [0, Phi(1)] from rounding before
# inversion rejects them; strays inside the band clamp to the boundary.
PSI_CLAMP_SLACK = 1e-9

# Lower end of every front-equation bracket (docs/errata.md, "Brackets").
_BRACKET_LO = 1e-300


def _finite(value: float) -> float:
    """value, which a float product may have overflowed to inf: OverflowError then."""
    if not math.isfinite(value):
        raise OverflowError
    return value


def _check_groups(ste: float, delta: float, p: float) -> None:
    for name, value in (("ste", ste), ("delta", delta), ("p", p)):
        _require_positive(name, value)


def phi_map(delta: float, p: float, x):
    """Phi(x) = x + delta/(p+1) * x^(p+1), the nonlinear profile map.

    Strictly increasing on x >= 0; Psi(eta) = Phi(y(eta)).

    Args:
        delta: Coefficient amplitude, > 0.
        p: Coefficient exponent, > 0.
        x: Point or array of points, >= 0.

    Returns:
        Phi(x), matching the shape of x.
    """
    _check_groups(1.0, delta, p)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise InvalidInput("phi_map is defined for x >= 0")
    out = xa * (1.0 + (delta / (p + 1.0)) * xa**p)
    return float(out) if np.isscalar(x) else out


def _phi_inverse_p1(delta: float, w: np.ndarray) -> np.ndarray:
    """The root form 2 w / (1 + sqrt(1 + 2 delta w)) of Phi^{-1} at p = 1."""
    return 2.0 * w / (1.0 + np.sqrt(1.0 + 2.0 * delta * w))


def _phi_inverse_newton(delta: float, p: float, w: np.ndarray) -> np.ndarray:
    """Generic Phi^{-1} for w in [0, Phi(1)], any p > 0.

    Newton from above: Phi is convex, so starting at min(w, 1) >= root
    gives monotone, globally convergent iterates.  It stops once no update
    moves x by more than 1e-14: a residual test scaled by Phi(1) would
    accept x far from the root wherever Phi(x) << Phi(1).  _phi_inverse_many
    uses it for p != 1; at p = 1 it is the independent check on the
    quadratic closed form.
    """
    c = delta / (p + 1.0)
    x = np.minimum(w, 1.0)
    for _ in range(100):
        xp = x**p
        step = (x * (1.0 + c * xp) - w) / (1.0 + delta * xp)
        x = np.clip(x - step, 0.0, 1.0)
        if not np.any(np.abs(step) > 1e-14):
            return x
    raise NonConvergence("phi inverse Newton did not reach tolerance in 100 sweeps")


def _phi_inverse_many(delta: float, p: float, w: np.ndarray, clamp: bool) -> np.ndarray:
    """Vectorized Phi^{-1} on [0, Phi(1)].

    With clamp=True, values within PSI_CLAMP_SLACK of the range boundary
    clamp to it, values further out raise OutOfRange and the result lies
    in [0, 1].  With clamp=False the inverse is extended linearly beyond
    both ends (slope 1/Phi'(0) = 1 below, 1/Phi'(1) above), which
    finite-difference checks at the front rely on: the extension keeps
    the composed profile smooth across the tiny negative Psi values a
    rounded root residual can produce.
    """
    top = 1.0 + delta / (p + 1.0)
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    if clamp:
        if np.any(w < -PSI_CLAMP_SLACK) or np.any(w > top + PSI_CLAMP_SLACK):
            worst = float(w.min()) if np.any(w < -PSI_CLAMP_SLACK) else float(w.max())
            raise OutOfRange(
                f"profile value {worst!r} outside [0, {top!r}] beyond the clamp slack"
            )
        w = np.clip(w, 0.0, top)
        mid = np.ones_like(w, dtype=bool)
    else:
        low = w < 0.0
        high = w > top
        out[low] = w[low]
        out[high] = 1.0 + (w[high] - top) / (1.0 + delta)
        mid = ~(low | high)
    wm = w[mid]
    if p == 1.0:
        out[mid] = _phi_inverse_p1(delta, wm)
    else:
        out[mid] = _phi_inverse_newton(delta, p, wm)
    if clamp:
        # The quadratic form can round Phi^{-1}(Phi(1)) to 1 + 2^-52.
        np.clip(out, 0.0, 1.0, out=out)
    return out


@dataclass(frozen=True)
class LambdaEquation:
    """Reduced transcendental equation phi(x) = target for the front coefficient.

    Attributes:
        evaluate: Strictly increasing left-hand side on x > 0; +inf where it overflows.
        target: Right-hand side 1 + delta/(p+1).
        label: Human-readable equation name for error messages.
        bracket: (lo, hi) with evaluate(lo) <= target <= evaluate(hi).
    """

    evaluate: Callable[[float], float]
    target: float
    label: str
    bracket: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluate", partial(_eval_clipped, self.evaluate))


def solve_lambda(eq: LambdaEquation) -> float:
    """Root of a reduced equation, by one Brent-Dekker solve on its bracket.

    Failures are re-raised with the equation's label attached so callers
    (and CLI users) see which reduced equation could not be solved.
    """
    try:
        return find_root_increasing(eq.evaluate, eq.target, *eq.bracket)
    except StefanError as exc:
        raise type(exc)(f"solving {eq.label}: {exc}") from exc


@dataclass(frozen=True)
class PsiProfile:
    """Integrated profile Psi(eta) = Phi(y(eta)) on [0, lam].

    Decreases strictly from Phi(1) = 1 + delta/(p+1) at eta = 0
    to (up to the front-equation residual) 0 at eta = lam.  y_prime0 is
    the fixed-face slope y'(0) (negative); it comes from the same first
    integral at lam as the profile.

    evaluate_many computes every requested point in one batched pass whose
    quadrature segments are shared between neighboring points, so
    differences of nearby values stay accurate; take every point of a
    finite difference from a single evaluate_many call.
    """

    lam: float
    delta: float
    p: float
    y_prime0: float
    _kernel: Callable[[np.ndarray], np.ndarray]

    def evaluate_many(self, etas) -> np.ndarray:
        arr = np.asarray(etas, dtype=float)
        flat = arr.ravel()
        slack = 1e-9 * max(1.0, self.lam)
        # Written so that NaN fails it too.
        if not np.all((flat >= -slack) & (flat <= self.lam + slack)):
            raise InvalidInput(
                f"profile query outside [0, {self.lam!r}] beyond the rounding slack"
            )
        flat = np.clip(flat, 0.0, self.lam)
        order = np.argsort(flat, kind="stable")
        vals = np.empty_like(flat)
        vals[order] = self._kernel(flat[order])
        return vals.reshape(arr.shape)


def y_from_psi(psi: PsiProfile, etas, clamp: bool = True) -> np.ndarray:
    """Profile values y = Phi^{-1}(Psi(eta)) for an array of eta."""
    w = psi.evaluate_many(etas)
    return _phi_inverse_many(psi.delta, psi.p, w, clamp)


class SourceModel:
    """The per-source parts of the similarity reduction at fixed (Ste, delta, p).

    source_model builds the subclass for a source spec and holds the groups
    it was built at: ste, delta, p, and feedback, the coupling A of the
    flux-feedback source (None for the other sources).  Every formula that
    differs between sources is a member, so the solver, the checks,
    reconstruct and the oracle never test the spec's type:

    * equation: reduced equation whose root is the front coefficient lam,
      with its bracket (_BRACKET_LO, _hi(target));
    * psi(lam): integrated profile Psi at front coefficient lam, carrying
      the fixed-face slope y'(0) as psi(lam).y_prime0 (InvalidInput where
      e^{lam^2}, y'(0) or a coefficient of Psi overflows);
    * ode_rhs(etas, y_prime0): right-hand side r(eta) of the reduced ODE;
    * heat_source(material, eta, t, face_gradient): physical source H at
      similarity coordinates eta and time t, given the fixed-face
      temperature gradient dtheta/dx(0, t), with eta's shape.  t and
      face_gradient may be arrays that broadcast to eta's shape (the
      oracle asks for three rows of eta at once, with a column of their
      times).  It never reads lam, Psi or y'(0), so the oracle can feed it
      its own discrete face gradient;
    * uniform: True when H does not vary along the strip (does not depend
      on eta) and is proportional to the face gradient, so that H =
      dtheta/dx(0, t) heat_source(material, eta, t, 1) at every eta (no
      source and flux feedback).  The oracle then takes H as a scalar per
      time step.

    The CSV label of a source is the kind attribute of its spec.
    """

    label = ""
    feedback: float | None = None
    uniform = False

    def __init__(self, source: SourceSpec, ste: float, delta: float, p: float) -> None:
        _check_groups(ste, delta, p)
        self.source = source
        self.ste, self.delta, self.p = ste, delta, p
        target = 1.0 + delta / (p + 1.0)
        self.equation = LambdaEquation(
            self._lhs, target, f"front equation ({self.label})", (_BRACKET_LO, self._hi(target))
        )

    def _hi(self, target: float) -> float:
        """An x with LHS(x) >= target, for no source or beta >= 0 (docs/errata.md, "Brackets")."""
        log_s = math.log(self.ste) + math.log(target)
        return math.sqrt(min(self.ste * target, max(1.0, log_s)))

    def psi(self, lam: float) -> PsiProfile:
        try:
            return self._psi(lam)
        except OverflowError:
            raise InvalidInput(f"lam = {lam!r} is too large: its profile overflows") from None


class _NoSourceModel(SourceModel):
    """r = 0: (sqrt(pi)/Ste) x erf(x) e^{x^2} = 1 + delta/(p+1)."""

    label = "no source"
    uniform = True

    def _lhs(self, x: float) -> float:
        return (SQRT_PI / self.ste) * x * math.erf(x) * math.exp(x * x)

    def _psi(self, lam: float) -> PsiProfile:
        target = self.equation.target
        coeff = _finite((SQRT_PI / self.ste) * lam * math.exp(lam * lam))
        slope = _finite(-(2.0 / (self.ste * (1.0 + self.delta))) * (lam * math.exp(lam * lam)))

        def kernel(pts: np.ndarray) -> np.ndarray:
            return target - coeff * erf(pts)

        return PsiProfile(lam, self.delta, self.p, slope, kernel)

    def ode_rhs(self, etas: np.ndarray, y_prime0: float) -> np.ndarray:
        return np.zeros_like(etas)

    def heat_source(
        self, material: Material, eta: np.ndarray, t: float | np.ndarray,
        face_gradient: float | np.ndarray,
    ) -> np.ndarray:
        return np.zeros_like(eta)


class _SimilarityModel(SourceModel):
    """r = (4/Ste) beta(eta), H = (rho latent_heat / t) beta(eta).

    LHS = (sqrt(pi)/Ste) x erf(x) e^{x^2}
          + (2 sqrt(pi)/Ste) * integral_0^x e^{xi^2} erf(xi) beta(xi) dxi,
    Psi(eta) = target - (sqrt(pi)/Ste) erf(eta) B
               + (2 sqrt(pi)/Ste) (erf(eta) Ibe(eta) - Ibee(eta)),
    Ibe(x)  = integral_0^x beta e^{xi^2} dxi,
    Ibee(x) = integral_0^x beta e^{xi^2} erf(xi) dxi,
    B = lam e^{lam^2} + 2 Ibe(lam).
    """

    label = "similarity source"

    def __init__(self, source: SourceSpec, ste: float, delta: float, p: float) -> None:
        # ode_rhs and heat_source call beta on arrays too, so a scalar-only
        # beta is wrapped once here rather than in every quadrature pass.
        self.beta, _ = _call_vectorized(source.beta, np.array([0.25, 0.5]))
        super().__init__(source, ste, delta, p)

    def _lhs(self, x: float) -> float:
        head = (SQRT_PI / self.ste) * x * math.erf(x) * math.exp(x * x)
        return head + (2.0 * SQRT_PI / self.ste) * integrate(self._f_bee, 0.0, x)

    def _f_be(self, z: np.ndarray) -> np.ndarray:
        return self.beta(z) * np.exp(z * z)

    def _f_bee(self, z: np.ndarray) -> np.ndarray:
        return self.beta(z) * np.exp(z * z) * erf(z)

    def _psi(self, lam: float) -> PsiProfile:
        target, ste = self.equation.target, self.ste
        # math.exp raises OverflowError before the quadrature can overflow in numpy.
        head = lam * math.exp(lam * lam)
        b_coeff = head + 2.0 * integrate(self._f_be, 0.0, lam)
        slope = _finite(-(2.0 / (ste * (1.0 + self.delta))) * b_coeff)
        # The kernel's erf(eta) coefficient, which it multiplies out per point.
        _finite((SQRT_PI / ste) * b_coeff)

        def kernel(pts: np.ndarray) -> np.ndarray:
            nodes = np.concatenate([[0.0], pts])
            ibe = integrate_cumulative(self._f_be, nodes)[1:]
            ibee = integrate_cumulative(self._f_bee, nodes)[1:]
            er = erf(pts)
            return (
                target
                - (SQRT_PI / ste) * er * b_coeff
                + (2.0 * SQRT_PI / ste) * (er * ibe - ibee)
            )

        return PsiProfile(lam, self.delta, self.p, slope, kernel)

    def ode_rhs(self, etas: np.ndarray, y_prime0: float) -> np.ndarray:
        return (4.0 / self.ste) * self.beta(etas)

    def heat_source(
        self, material: Material, eta: np.ndarray, t: float | np.ndarray,
        face_gradient: float | np.ndarray,
    ) -> np.ndarray:
        # beta is called on flat arrays only, as the quadrature calls it.
        beta = self.beta(eta.reshape(-1)).reshape(eta.shape)
        return (material.rho * material.latent_heat / t) * beta


class _ExponentialModel(_SimilarityModel):
    """beta(eta) = e^{-eta^2}/2, whose integrals all have closed forms.

    LHS = (sqrt(pi)/Ste) x erf(x) (e^{x^2} + 1) - (1 - e^{-x^2})/Ste.
    """

    label = "exponential source"

    def _lhs(self, x: float) -> float:
        return (SQRT_PI / self.ste) * x * math.erf(x) * (math.exp(x * x) + 1.0) + math.expm1(
            -x * x
        ) / self.ste

    def _psi(self, lam: float) -> PsiProfile:
        target, ste = self.equation.target, self.ste
        coeff = _finite((SQRT_PI / ste) * lam * (math.exp(lam * lam) + 1.0))
        slope = _finite(-(2.0 / (ste * (1.0 + self.delta))) * lam * (math.exp(lam * lam) + 1.0))

        def kernel(pts: np.ndarray) -> np.ndarray:
            return target - coeff * erf(pts) - np.expm1(-pts * pts) / ste

        return PsiProfile(lam, self.delta, self.p, slope, kernel)


class _FeedbackModel(SourceModel):
    """r = A y'(0), H = (lambda0 / sqrt(t)) dtheta/dx(0, t), coupling A = feedback.

    Every term is bounded: the formulas are the e^{x^2}-scaled front
    equation of docs/errata.md, written with Dawson's function
    D(x) = e^{-x^2} integral_0^x e^{z^2} dz (0 <= D < 0.55 for x >= 0):

    LHS = 2 x (A F(x) + (1 + delta) (sqrt(pi)/2) erf(x)) / (Ste den(x)),
    Psi(eta) = target + y'(0) (A F(eta) + (1 + delta) (sqrt(pi)/2) erf(eta)),
    y'(0) = -2 lam / (Ste den(lam)),
    den(x) = e^{-x^2} (1 + delta) + A D(x),
    F(x) = integral_0^x D(z) dz.
    """

    label = "flux-feedback source"
    uniform = True

    def __init__(
        self, source: SourceSpec, ste: float, delta: float, p: float, feedback: float
    ) -> None:
        self.feedback = _require_positive("feedback", feedback)
        super().__init__(source, ste, delta, p)
        self._erf_coeff = (1.0 + delta) * (SQRT_PI / 2.0)

    def _hi(self, target: float) -> float:
        """An x with LHS(x) >= target, in logs throughout (docs/errata.md, "Brackets")."""
        log_s = math.log(self.ste) + math.log(target)
        if log_s <= -1.0:
            return math.exp(0.5 * (log_s + 1.0))
        log_a, log_d = math.log(self.feedback), math.log1p(self.delta)
        # ln N1, N1 = A F(1) + (1 + delta) (sqrt(pi)/2) erf(1); F(1) = 0.36972... rounded down.
        log_n = float(np.logaddexp(log_a + math.log(0.3697),
                                   log_d + math.log(0.5 * SQRT_PI * math.erf(1.0))))
        return max(math.sqrt(max(1.0, log_s + log_d - log_n)),
                   math.exp(0.5 * (log_s + log_a - log_n)))

    def _den(self, x: float) -> float:
        return math.exp(-x * x) * (1.0 + self.delta) + self.feedback * float(dawsn(x))

    def _lhs(self, x: float) -> float:
        f = integrate(dawsn, 0.0, x)
        return 2.0 * x * (self.feedback * f + self._erf_coeff * math.erf(x)) / (
            self.ste * self._den(x)
        )

    def _psi(self, lam: float) -> PsiProfile:
        feedback, erf_coeff, target = self.feedback, self._erf_coeff, self.equation.target
        slope = -2.0 * lam / (self.ste * self._den(lam))

        def kernel(pts: np.ndarray) -> np.ndarray:
            nodes = np.concatenate([[0.0], pts])
            f = integrate_cumulative(dawsn, nodes)[1:]
            return target + slope * (feedback * f + erf_coeff * erf(pts))

        return PsiProfile(lam, self.delta, self.p, slope, kernel)

    def ode_rhs(self, etas: np.ndarray, y_prime0: float) -> np.ndarray:
        return np.full_like(etas, self.feedback * y_prime0)

    def heat_source(
        self, material: Material, eta: np.ndarray, t: float | np.ndarray,
        face_gradient: float | np.ndarray,
    ) -> np.ndarray:
        return np.full_like(eta, self.source.lambda0 / np.sqrt(t) * face_gradient)


def source_model(
    source: SourceSpec, ste: float, delta: float, p: float, feedback: float | None = None
) -> SourceModel:
    """The source model of a source spec at dimensionless groups (Ste, delta, p).

    Args:
        source: One of the four source specs.
        ste, delta, p: Dimensionless groups, each finite and > 0.
        feedback: Coupling A = 2 lambda0 / (rho c0 a) of the flux-feedback
            source; required for that source and rejected for the others.

    Raises:
        InvalidInput: Malformed groups, coupling or source spec.
    """
    if isinstance(source, FluxFeedbackSource):
        return _FeedbackModel(source, ste, delta, p, feedback)
    if feedback is not None:
        raise InvalidInput(f"feedback coupling given for a non-feedback source {source!r}")
    if isinstance(source, NoSource):
        return _NoSourceModel(source, ste, delta, p)
    if isinstance(source, ExponentialSource):
        return _ExponentialModel(source, ste, delta, p)
    if isinstance(source, SimilaritySource):
        return _SimilarityModel(source, ste, delta, p)
    raise InvalidInput(f"unknown source spec {source!r}")


def problem_model(material: Material, boundary: BoundaryData, source: SourceSpec) -> SourceModel:
    """The source model of a physical problem, at its dimensionless groups.

    The one map from a problem to its groups: the Stefan number
    Ste = c0 (theta0 - theta_f) / latent_heat, the factor (delta, p) and,
    for the flux-feedback source, the coupling A = 2 lambda0 / (rho c0 a).

    Raises:
        InvalidInput: The diffusivity scale material.a, Ste or A is 0 or
            not finite (each field valid, but a group under- or overflows).
    """
    a = _require_positive("a", material.a)
    ste = material.c0 * (boundary.theta0 - boundary.theta_f) / material.latent_heat
    feedback = None
    if isinstance(source, FluxFeedbackSource):
        feedback = 2.0 * source.lambda0 / (material.rho * material.c0 * a)
    return source_model(source, ste, material.delta, material.p, feedback)


@dataclass(frozen=True)
class SimilaritySolution:
    """Explicit solution of a melting problem in similarity variables.

    Only the problem and lam are stored; the rest is derived from them at
    construction, so dataclasses.replace(sol, lam=x) is the consistent
    solution at x.  Equality and hashing compare the stored fields.

    Attributes:
        material, boundary, source: The problem definition.
        lam: Front coefficient; s(t) = 2 a lam sqrt(t), with a = material.a.
        model: Source model problem_model(material, boundary, source)
            (derived); it holds the groups ste and feedback, and
            model.equation is the reduced equation whose root lam is.
        psi: Exact integrated profile model.psi(lam) (derived); the
            fixed-face slope y_prime0 is read from it.
    """

    material: Material
    boundary: BoundaryData
    source: SourceSpec
    lam: float
    model: SourceModel = field(init=False, repr=False, compare=False)
    psi: PsiProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        model = problem_model(self.material, self.boundary, self.source)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "psi", model.psi(self.lam))

    @property
    def y_prime0(self) -> float:
        """Fixed-face slope y'(0) (negative), carried by the profile."""
        return self.psi.y_prime0

    def lambda_residual(self) -> float:
        """Signed defect of lam in its reduced equation."""
        equation = self.model.equation
        return equation.evaluate(self.lam) - equation.target

    def y_many(self, etas, clamp: bool = True) -> np.ndarray:
        """Profile y = Phi^{-1}(Psi(eta)) at an array of eta in [0, lam].

        clamp selects how Psi values rounded past [0, Phi(1)] invert; see
        _phi_inverse_many.
        """
        return y_from_psi(self.psi, etas, clamp)


def solve_problem(
    material: Material, boundary: BoundaryData, source: SourceSpec
) -> SimilaritySolution:
    """Solve a melting problem in similarity form.

    Args:
        material: Liquid-phase constants.
        boundary: Fixed-face and phase-change temperatures.
        source: One of the four source models.

    Returns:
        The SimilaritySolution at the root lam of the reduced equation,
        solved to numerics.ROOT_ABS_TOL and ROOT_REL_TOL.

    Raises:
        InvalidInput: Malformed problem data.
        OutOfRange: The root is past the e^{x^2} overflow, lam^2 ~ 709.78.
        MaxSubdivisionsExceeded / NotBracketed / NonConvergence: Front
            coefficient could not be evaluated, bracketed or resolved.
    """
    model = problem_model(material, boundary, source)
    return SimilaritySolution(material, boundary, source, solve_lambda(model.equation))
