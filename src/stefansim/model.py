"""Problem data for the one-phase melting problem.

A problem is the triple (Material, BoundaryData, source spec).  The liquid
occupies 0 < x < s(t) with the fixed face held at theta0 above the phase
change temperature theta_f, and both the thermal conductivity and the
specific heat grow with temperature through the same dimensionless factor

    1 + delta * y**p,    y = (theta - theta_f) / (theta0 - theta_f),

so y is the normalized temperature in [0, 1].  Four source models are
supported: no source, a bulk source prescribed in similarity form
H = (rho * latent_heat / t) * beta(x / (2 a sqrt(t))), the exponential
special case beta(eta) = exp(-eta^2) / 2 of that family, and a source
proportional to the instantaneous heat flux at the fixed face,
H = (lambda0 / sqrt(t)) * dtheta/dx(0, t).  Each source spec carries its
kind, the label that config files and CSV output use for it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import ClassVar, Union

import numpy as np

from .errors import InvalidInput

# Queries are allowed to stray this far (relative to theta0 - theta_f)
# outside [theta_f, theta0] before being rejected; strays inside the slack
# band clamp to the nearest endpoint.
TEMPERATURE_RANGE_SLACK = 1e-9


def _require_finite(name: str, value) -> float:
    """value as a float, for any finite real number (numpy scalars too)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise InvalidInput(f"{name} must be finite, got {value!r}")
    return float(value)


def _require_positive(name: str, value) -> float:
    """value as a float, for any finite real number > 0 (numpy scalars too).

    The float conversion keeps a numpy float32 from carrying single
    precision into every group computed from the stored value.
    """
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
        raise InvalidInput(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Material:
    """Material constants of the liquid phase.

    Attributes:
        rho: Density (kg/m^3), > 0.
        c0: Specific heat at the phase-change temperature (J/(kg K)), > 0.
        k0: Conductivity at the phase-change temperature (W/(m K)), > 0.
        latent_heat: Latent heat per unit mass (J/kg), > 0.
        delta: Amplitude of the nonlinear coefficient factor, > 0.
        p: Exponent of the nonlinear coefficient factor, > 0.
    """

    rho: float
    c0: float
    k0: float
    latent_heat: float
    delta: float
    p: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _require_positive(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class BoundaryData:
    """Fixed-face and phase-change temperatures (K), with theta0 > theta_f."""

    theta0: float
    theta_f: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _require_finite(f.name, getattr(self, f.name)))
        if not self.theta0 > self.theta_f:
            raise InvalidInput(
                f"theta0 must exceed theta_f, got theta0={self.theta0}, theta_f={self.theta_f}"
            )


@dataclass(frozen=True)
class NoSource:
    """No internal heat source."""

    kind: ClassVar[str] = "none"


@dataclass(frozen=True)
class SimilaritySource:
    """Bulk source H(x, t) = (rho * latent_heat / t) * beta(x / (2 a sqrt(t))).

    beta must be nonnegative and locally integrable near 0, and
    beta(eta) * exp(eta^2) must be integrable at infinity; those are caller
    obligations (callables cannot be checked for decay at construction).
    beta should accept numpy arrays; scalar-only callables are wrapped
    transparently where needed.
    """

    kind: ClassVar[str] = "custom"
    beta: Callable


@dataclass(frozen=True)
class ExponentialSource:
    """The similarity-form source with beta(eta) = exp(-eta^2) / 2.

    Kept as its own variant because every integral it induces has a closed
    form, which the solver uses instead of quadrature.
    """

    kind: ClassVar[str] = "exponential"

    @staticmethod
    def beta(eta):
        return 0.5 * np.exp(-np.square(eta))


@dataclass(frozen=True)
class FluxFeedbackSource:
    """Source H(x, t) = (lambda0 / sqrt(t)) * dtheta/dx(0, t), x-independent.

    lambda0 > 0 makes H negative (the fixed-face gradient is negative), so
    this source heats the liquid in proportion to the instantaneous heat
    flux entering at the fixed face.
    """

    kind: ClassVar[str] = "feedback"
    lambda0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda0", _require_positive("lambda0", self.lambda0))


SourceSpec = Union[NoSource, SimilaritySource, ExponentialSource, FluxFeedbackSource]


@dataclass(frozen=True)
class Dimensionless:
    """Dimensionless groups of a problem.

    Attributes:
        ste: Stefan number c0 * (theta0 - theta_f) / latent_heat.
        a: Diffusivity scale sqrt(k0 / (rho c0)) (m / s^(1/2)); the front
            moves as s(t) = 2 a lam sqrt(t).
        feedback: Coupling 2 lambda0 / (rho c0 a) of the flux-feedback
            source; None for the other source models.
    """

    ste: float
    a: float
    feedback: float | None = None

    def __post_init__(self) -> None:
        _require_positive("ste", self.ste)
        _require_positive("a", self.a)
        if self.feedback is not None:
            _require_positive("feedback", self.feedback)


def dimensionless_groups(
    material: Material, boundary: BoundaryData, source: SourceSpec
) -> Dimensionless:
    """Collect the dimensionless groups governing a problem."""
    a = math.sqrt(material.k0 / (material.rho * material.c0))
    feedback = None
    if isinstance(source, FluxFeedbackSource):
        feedback = 2.0 * source.lambda0 / (material.rho * material.c0 * a)
    return Dimensionless(
        ste=material.c0 * (boundary.theta0 - boundary.theta_f) / material.latent_heat,
        a=a,
        feedback=feedback,
    )


def _normalized_temperature(material: Material, boundary: BoundaryData, theta):
    """Map theta to y = (theta - theta_f)/(theta0 - theta_f), clamped to [0, 1].

    Raises InvalidInput if theta strays outside [theta_f, theta0] by more
    than TEMPERATURE_RANGE_SLACK * (theta0 - theta_f).
    """
    span = boundary.theta0 - boundary.theta_f
    y = (np.asarray(theta, dtype=float) - boundary.theta_f) / span
    slack = TEMPERATURE_RANGE_SLACK
    if np.any(y < -slack) or np.any(y > 1.0 + slack):
        raise InvalidInput(
            f"temperature outside [{boundary.theta_f}, {boundary.theta0}] "
            f"beyond the {slack:g} relative slack"
        )
    return np.clip(y, 0.0, 1.0)


def conductivity(material: Material, boundary: BoundaryData, theta):
    """Thermal conductivity k0 * (1 + delta * y**p) at temperature theta.

    Accepts scalars or arrays; the result matches the input shape.
    """
    y = _normalized_temperature(material, boundary, theta)
    out = material.k0 * (1.0 + material.delta * y**material.p)
    return float(out) if np.isscalar(theta) else out


def specific_heat(material: Material, boundary: BoundaryData, theta):
    """Specific heat c0 * (1 + delta * y**p) at temperature theta.

    Shares the nonlinear factor with conductivity, which is what makes the
    similarity reduction exact.
    """
    y = _normalized_temperature(material, boundary, theta)
    out = material.c0 * (1.0 + material.delta * y**material.p)
    return float(out) if np.isscalar(theta) else out
