"""Run-configuration files: flat dotted-key text, strictly validated.

A config file is a sequence of `key = value` lines with `#` comments.
Keys are dotted (`material.rho`); unknown or duplicated keys are hard
errors so a misspelled physics parameter can never silently fall back to
a default.  Two problem modes exist:

* dimensional: `material.*`, `boundary.*` and `source.*` give the
  physical problem;
* dimensionless (`problem.dimensionless = true`): `problem.ste`,
  `problem.delta`, `problem.p` (plus `source.feedback` for the
  flux-feedback source) give the reduced problem directly; internally it
  is realized as rho = c0 = k0 = 1, theta0 = 1, theta_f = 0,
  latent_heat = 1/Ste, lambda0 = feedback/2.

Sweeps (`sweep.ste`, `sweep.delta`, `sweep.p`, `sweep.feedback`) list
parameter values and are available in dimensionless mode only; a swept
parameter may omit its base value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError
from .model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SourceSpec,
)
from .numerics import Tolerance
from .oracle import OracleConfig

_FLOAT_KEYS = {
    "material.rho",
    "material.c0",
    "material.k0",
    "material.latent_heat",
    "material.delta",
    "material.p",
    "boundary.theta0",
    "boundary.theta_f",
    "source.lambda0",
    "source.feedback",
    "problem.ste",
    "problem.delta",
    "problem.p",
    "solver.abs_tol",
    "solver.rel_tol",
    "oracle.t_start",
    "oracle.t_end",
    "oracle.theta_scheme",
    "oracle.picard_tol",
}
_INT_KEYS = {
    "solver.max_iter",
    "oracle.n_space",
    "oracle.n_time",
    "oracle.picard_max_iter",
}
_BOOL_KEYS = {"problem.dimensionless", "oracle.enabled"}
_STRING_KEYS = {"source.kind", "output.dir"}
_LIST_KEYS = {"sweep.ste", "sweep.delta", "sweep.p", "sweep.feedback"}
_KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STRING_KEYS | _LIST_KEYS

# Source kinds a config may name.  Only the flux-feedback spec has a
# parameter: lambda0, or the coupling source.feedback in reduced form.
_SOURCE_KINDS = {cls.kind: cls for cls in (NoSource, ExponentialSource, FluxFeedbackSource)}


def _takes_feedback(kind: str) -> bool:
    return bool(fields(_SOURCE_KINDS[kind]))


@dataclass(frozen=True)
class DimensionlessProblem:
    """Reduced problem parameters as given in a dimensionless config.

    ste/delta/p/feedback are None when the config sweeps them instead of
    fixing a base value.
    """

    ste: Optional[float]
    delta: Optional[float]
    p: Optional[float]
    kind: str
    feedback: Optional[float]


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, already validated.

    material/boundary/source are None exactly when the config is a sweep
    that omits base values for swept parameters; reduced holds the
    dimensionless base values that were given.
    """

    material: Optional[Material]
    boundary: Optional[BoundaryData]
    source: Optional[SourceSpec]
    dimensionless: bool
    reduced: Optional[DimensionlessProblem]
    tol: Tolerance
    oracle: Optional[OracleConfig]
    sweep: dict[str, list[float]]
    out_dir: Optional[str]


def parse_config_text(text: str) -> dict[str, str]:
    """Raw `key = value` pairs from config text.

    Raises:
        ConfigError: Malformed lines, unknown keys, duplicate keys.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def load_config(path: str) -> RunConfig:
    """Parse and validate the config file at path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return build_run_config(parse_config_text(text))


def _get_float(raw: dict[str, str], key: str) -> Optional[float]:
    if key not in raw:
        return None
    try:
        value = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw[key]!r}")
    return value


def _get_int(raw: dict[str, str], key: str) -> Optional[int]:
    if key not in raw:
        return None
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from exc


def _get_bool(raw: dict[str, str], key: str, default: bool) -> bool:
    if key not in raw:
        return default
    value = raw[key].lower()
    if value not in ("true", "false"):
        raise ConfigError(f"{key}: expected true or false, got {raw[key]!r}")
    return value == "true"


def _get_list(raw: dict[str, str], key: str) -> Optional[list[float]]:
    if key not in raw:
        return None
    items = [piece.strip() for piece in raw[key].split(",")]
    if any(not piece for piece in items):
        raise ConfigError(f"{key}: empty entry in list {raw[key]!r}")
    try:
        values = [float(piece) for piece in items]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number list: {raw[key]!r}") from exc
    if any(not math.isfinite(v) for v in values):
        raise ConfigError(f"{key}: entries must be finite")
    return values


def _require(raw: dict[str, str], key: str) -> float:
    value = _get_float(raw, key)
    if value is None:
        raise ConfigError(f"missing required config key {key!r}")
    return value


def reduced_problem(
    ste: float, delta: float, p: float, kind: str, feedback: Optional[float]
) -> tuple[Material, BoundaryData, SourceSpec]:
    """Realize dimensionless parameters as a concrete problem.

    Unit density, heat capacity and conductivity with a unit temperature
    drop make a = 1 and Ste = 1/latent_heat, so latent_heat = 1/Ste; the
    feedback coupling 2 lambda0 / (rho c0 a) = feedback gives
    lambda0 = feedback / 2.
    """
    material = Material(
        rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / ste, delta=delta, p=p
    )
    boundary = BoundaryData(theta0=1.0, theta_f=0.0)
    spec = _SOURCE_KINDS[kind]
    if not _takes_feedback(kind):
        return material, boundary, spec()
    if feedback is None:
        raise ConfigError("source.kind = feedback requires source.feedback")
    return material, boundary, spec(lambda0=feedback / 2.0)


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Validated RunConfig from raw key-value pairs.

    Raises:
        ConfigError: Missing/inconsistent keys.
        InvalidInput: A parameter violates a model invariant.
    """
    dimensionless = _get_bool(raw, "problem.dimensionless", False)
    kind = raw.get("source.kind")
    if kind is None:
        raise ConfigError("missing required config key 'source.kind'")
    if kind not in _SOURCE_KINDS:
        raise ConfigError(
            f"source.kind: expected one of {', '.join(_SOURCE_KINDS)}, got {kind!r}"
        )

    sweep: dict[str, list[float]] = {}
    for key in sorted(_LIST_KEYS):
        values = _get_list(raw, key)
        if values is not None:
            sweep[key.split(".", 1)[1]] = sorted(values)
    if sweep and not dimensionless:
        raise ConfigError("sweep.* keys require problem.dimensionless = true")
    takes_feedback = _takes_feedback(kind)
    if "feedback" in sweep and not takes_feedback:
        raise ConfigError("sweep.feedback requires source.kind = feedback")

    if dimensionless:
        for key in ("material.rho", "material.c0", "material.k0",
                    "material.latent_heat", "material.delta", "material.p",
                    "boundary.theta0", "boundary.theta_f", "source.lambda0"):
            if key in raw:
                raise ConfigError(f"{key} not allowed when problem.dimensionless = true")
        base: dict[str, Optional[float]] = {}
        for name, key in (
            ("ste", "problem.ste"),
            ("delta", "problem.delta"),
            ("p", "problem.p"),
            ("feedback", "source.feedback"),
        ):
            value = _get_float(raw, key)
            required = name != "feedback" or takes_feedback
            if value is None and required and name not in sweep:
                raise ConfigError(f"missing required config key {key!r}")
            base[name] = value
        if not takes_feedback and base["feedback"] is not None:
            raise ConfigError("source.feedback requires source.kind = feedback")
        reduced = DimensionlessProblem(
            ste=base["ste"], delta=base["delta"], p=base["p"],
            kind=kind, feedback=base["feedback"],
        )
        complete = all(
            getattr(reduced, name) is not None
            for name in ("ste", "delta", "p")
        ) and (not takes_feedback or reduced.feedback is not None)
        if complete:
            material, boundary, source = reduced_problem(
                reduced.ste, reduced.delta, reduced.p, kind, reduced.feedback
            )
        else:
            material = boundary = source = None
    else:
        for key in ("problem.ste", "problem.delta", "problem.p", "source.feedback"):
            if key in raw:
                raise ConfigError(f"{key} requires problem.dimensionless = true")
        material = Material(
            rho=_require(raw, "material.rho"),
            c0=_require(raw, "material.c0"),
            k0=_require(raw, "material.k0"),
            latent_heat=_require(raw, "material.latent_heat"),
            delta=_require(raw, "material.delta"),
            p=_require(raw, "material.p"),
        )
        boundary = BoundaryData(
            theta0=_require(raw, "boundary.theta0"),
            theta_f=_require(raw, "boundary.theta_f"),
        )
        if takes_feedback:
            source = _SOURCE_KINDS[kind](lambda0=_require(raw, "source.lambda0"))
        elif "source.lambda0" in raw:
            raise ConfigError("source.lambda0 requires source.kind = feedback")
        else:
            source = _SOURCE_KINDS[kind]()
        reduced = None

    def _given(value, default):
        return default if value is None else value

    tol = Tolerance(
        abs_tol=_given(_get_float(raw, "solver.abs_tol"), 1e-10),
        rel_tol=_given(_get_float(raw, "solver.rel_tol"), 1e-12),
        max_iter=_given(_get_int(raw, "solver.max_iter"), 200),
    )

    oracle: Optional[OracleConfig]
    if _get_bool(raw, "oracle.enabled", True):
        defaults = OracleConfig()
        oracle = OracleConfig(
            n_space=_given(_get_int(raw, "oracle.n_space"), defaults.n_space),
            n_time=_given(_get_int(raw, "oracle.n_time"), defaults.n_time),
            t_start=_given(_get_float(raw, "oracle.t_start"), defaults.t_start),
            t_end=_given(_get_float(raw, "oracle.t_end"), defaults.t_end),
            theta_scheme=_given(
                _get_float(raw, "oracle.theta_scheme"), defaults.theta_scheme
            ),
            picard_tol=_given(_get_float(raw, "oracle.picard_tol"), defaults.picard_tol),
            picard_max_iter=_given(
                _get_int(raw, "oracle.picard_max_iter"), defaults.picard_max_iter
            ),
        )
    else:
        for key in raw:
            if key.startswith("oracle.") and key != "oracle.enabled":
                raise ConfigError(f"{key} given but oracle.enabled = false")
        oracle = None

    return RunConfig(
        material=material,
        boundary=boundary,
        source=source,
        dimensionless=dimensionless,
        reduced=reduced,
        tol=tol,
        oracle=oracle,
        sweep=sweep,
        out_dir=raw.get("output.dir"),
    )
