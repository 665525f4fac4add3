"""Problem data for the one-phase melting problem.

A problem is the triple (Material, BoundaryData, source spec).  The liquid
occupies 0 < x < s(t) with the fixed face held at theta0 above the phase
change temperature theta_f, and both the thermal conductivity and the
specific heat grow with temperature through the same dimensionless factor

    1 + delta * y**p,    y = (theta - theta_f) / (theta0 - theta_f),

so y is the normalized temperature in [0, 1].  The factor is evaluated
where it is used: by the similarity layer through its integral Phi and by
the oracle through its Kirchhoff map, never here.  Four source models are
supported: no source, a bulk source prescribed in similarity form
H = (rho * latent_heat / t) * beta(x / (2 a sqrt(t))), the exponential
special case beta(eta) = exp(-eta^2) / 2 of that family, and a source
proportional to the instantaneous heat flux at the fixed face,
H = (lambda0 / sqrt(t)) * dtheta/dx(0, t).  Each source spec carries its
kind, the label that config files and CSV output use for it.

The diffusivity scale a is a property of the material; the groups Ste and
A, which also need the boundary or the source, are computed once per
problem by similarity.problem_model and held by its source model.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import ClassVar, Union

import numpy as np

from .errors import InvalidInput


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
        a: Diffusivity scale sqrt(k0 / (rho c0)) (m / s^(1/2)), derived;
            the front moves as s(t) = 2 a lam sqrt(t).
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

    @property
    def a(self) -> float:
        """sqrt(k0 / (rho c0)); inf where rho c0 underflows to 0.

        Not checked here: problem_model rejects a = 0 or inf as a solver
        error of the problem, not as malformed material data.
        """
        rho_c0 = self.rho * self.c0
        return math.sqrt(self.k0 / rho_c0) if rho_c0 > 0.0 else math.inf


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
