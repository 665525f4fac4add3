"""Similarity solutions of a one-phase Stefan problem with nonlinear
thermal coefficients and heat sources, plus a finite-difference
moving-boundary solver used to verify them.

The top level holds what a caller builds, calls, gets back and catches;
everything else is importable from its submodule.  See README.md for an
overview and the cli module for the command-line entry points.
"""

from .checks import CheckResult, run_checks
from .errors import (
    ConfigError,
    FrontCollapse,
    InvalidInput,
    MaxSubdivisionsExceeded,
    NonConvergence,
    NotBracketed,
    OutOfDomain,
    OutOfRange,
    StefanError,
)
from .model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from .oracle import OracleConfig, OracleRun, run_oracle_for
from .reconstruct import front_position, temperature
from .similarity import SimilaritySolution, solve_lambda, solve_problem, source_model

__all__ = [
    "BoundaryData",
    "CheckResult",
    "ConfigError",
    "ExponentialSource",
    "FluxFeedbackSource",
    "FrontCollapse",
    "InvalidInput",
    "Material",
    "MaxSubdivisionsExceeded",
    "NoSource",
    "NonConvergence",
    "NotBracketed",
    "OracleConfig",
    "OracleRun",
    "OutOfDomain",
    "OutOfRange",
    "SimilaritySolution",
    "SimilaritySource",
    "StefanError",
    "front_position",
    "run_checks",
    "run_oracle_for",
    "solve_lambda",
    "solve_problem",
    "source_model",
    "temperature",
]
