"""Similarity solutions of a one-phase Stefan problem with nonlinear
thermal coefficients and heat sources, plus a finite-difference
moving-boundary solver used to verify them.

Public API is re-exported from the submodules; see README.md for an
overview and the cli module for the command-line entry points.
"""

from .checks import CheckResult, run_checks
from .errors import (
    BracketExpansionFailed,
    ConfigError,
    FrontCollapse,
    InvalidInput,
    MaxSubdivisionsExceeded,
    MismatchedProblem,
    NonConvergence,
    NotBracketed,
    OutOfDomain,
    OutOfRange,
    StefanError,
)
from .model import (
    BoundaryData,
    Dimensionless,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
    SourceSpec,
    conductivity,
    diffusivity,
    dimensionless_groups,
    feedback_coefficient,
    specific_heat,
    stefan_number,
)
from .numerics import Tolerance, erf, integrate, integrate_cumulative
from .oracle import OracleConfig, OracleRun, compare, run_oracle_for
from .reconstruct import (
    fixed_face_flux,
    front_position,
    similarity_coordinate,
    source_field,
    temperature,
)
from .similarity import (
    LambdaEquation,
    PsiProfile,
    SimilaritySolution,
    SourceModel,
    phi_inverse_quadratic,
    phi_map,
    phi_map_deriv,
    solve_lambda,
    solve_problem,
    source_model,
)

__all__ = [
    "BoundaryData",
    "BracketExpansionFailed",
    "CheckResult",
    "ConfigError",
    "Dimensionless",
    "ExponentialSource",
    "FluxFeedbackSource",
    "FrontCollapse",
    "InvalidInput",
    "LambdaEquation",
    "Material",
    "MaxSubdivisionsExceeded",
    "MismatchedProblem",
    "NoSource",
    "NonConvergence",
    "NotBracketed",
    "OracleConfig",
    "OracleRun",
    "OutOfDomain",
    "OutOfRange",
    "PsiProfile",
    "SimilaritySolution",
    "SimilaritySource",
    "SourceModel",
    "SourceSpec",
    "StefanError",
    "Tolerance",
    "compare",
    "conductivity",
    "diffusivity",
    "dimensionless_groups",
    "erf",
    "feedback_coefficient",
    "fixed_face_flux",
    "front_position",
    "integrate",
    "integrate_cumulative",
    "phi_inverse_quadratic",
    "phi_map",
    "phi_map_deriv",
    "run_checks",
    "run_oracle_for",
    "similarity_coordinate",
    "solve_lambda",
    "solve_problem",
    "source_field",
    "source_model",
    "specific_heat",
    "stefan_number",
    "temperature",
]
