"""Run-configuration files: flat dotted-key text, strictly validated.

A config file is a sequence of `key = value` lines with `#` comments.
Keys are dotted (`material.rho`); unknown or duplicated keys are hard
errors so a misspelled physics parameter can never silently fall back to
a default.  The keys of the `material`, `boundary`, `solver` and `oracle`
sections are the fields of Material, BoundaryData, Tolerance and
OracleConfig, and take their types from them; `solver.*` and `oracle.*`
keys are optional and default to those dataclasses' defaults.  Two
problem modes exist:

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

# Source kinds a config may name.  Only the flux-feedback spec has a
# parameter: lambda0, or the coupling source.feedback in reduced form.
_SOURCE_KINDS = {cls.kind: cls for cls in (NoSource, ExponentialSource, FluxFeedbackSource)}


def _keys(section: str, cls: type) -> list[str]:
    """The keys of a section that builds cls: one `section.field` per field."""
    return [f"{section}.{f.name}" for f in fields(cls)]


# The dimensional problem's keys, rejected in dimensionless mode.
_PHYSICAL_KEYS = [
    *_keys("material", Material),
    *_keys("boundary", BoundaryData),
    *(key for spec in _SOURCE_KINDS.values() for key in _keys("source", spec)),
]
# Reduced-problem parameters and their keys, in dimensionless mode only.
_REDUCED_KEYS = {"ste": "problem.ste", "delta": "problem.delta", "p": "problem.p",
                 "feedback": "source.feedback"}
_LIST_KEYS = {"sweep.ste", "sweep.delta", "sweep.p", "sweep.feedback"}
_KNOWN_KEYS = {
    *_PHYSICAL_KEYS, *_keys("solver", Tolerance), *_keys("oracle", OracleConfig),
    *_REDUCED_KEYS.values(), *_LIST_KEYS,
    "source.kind", "problem.dimensionless", "oracle.enabled", "output.dir",
}


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
    dimensionless base values that were given, and is None exactly for a
    dimensional config.
    """

    material: Optional[Material]
    boundary: Optional[BoundaryData]
    source: Optional[SourceSpec]
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


# Field annotations are strings: every module uses `from __future__ import annotations`.
_PARSERS = {"float": _get_float, "int": _get_int}


def _section(raw: dict[str, str], section: str, cls: type, required: bool = False) -> dict:
    """Values given for the fields of cls as `section.field` keys, by field name.

    Each is parsed as its field's annotated type; fields without a key keep
    their dataclass default, or raise ConfigError in field order when required.
    """
    values = {}
    for field, key in zip(fields(cls), _keys(section, cls)):
        value = _PARSERS[field.type](raw, key)
        if value is not None:
            values[field.name] = value
        elif required:
            raise ConfigError(f"missing required config key {key!r}")
    return values


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
        for key in _PHYSICAL_KEYS:
            if key in raw:
                raise ConfigError(f"{key} not allowed when problem.dimensionless = true")
        needed = [name for name in _REDUCED_KEYS if name != "feedback" or takes_feedback]
        base: dict[str, Optional[float]] = {}
        for name, key in _REDUCED_KEYS.items():
            base[name] = _get_float(raw, key)
            if base[name] is None and name in needed and name not in sweep:
                raise ConfigError(f"missing required config key {key!r}")
        if not takes_feedback and base["feedback"] is not None:
            raise ConfigError("source.feedback requires source.kind = feedback")
        reduced = DimensionlessProblem(kind=kind, **base)
        if all(base[name] is not None for name in needed):
            material, boundary, source = reduced_problem(kind=kind, **base)
        else:
            material = boundary = source = None
    else:
        for key in _REDUCED_KEYS.values():
            if key in raw:
                raise ConfigError(f"{key} requires problem.dimensionless = true")
        material = Material(**_section(raw, "material", Material, required=True))
        boundary = BoundaryData(**_section(raw, "boundary", BoundaryData, required=True))
        spec = _SOURCE_KINDS[kind]
        if not takes_feedback and "source.lambda0" in raw:
            raise ConfigError("source.lambda0 requires source.kind = feedback")
        source = spec(**_section(raw, "source", spec, required=True))
        reduced = None

    tol = Tolerance(**_section(raw, "solver", Tolerance))

    oracle: Optional[OracleConfig] = None
    if _get_bool(raw, "oracle.enabled", True):
        oracle = OracleConfig(**_section(raw, "oracle", OracleConfig))
    else:
        for key in raw:
            if key.startswith("oracle.") and key != "oracle.enabled":
                raise ConfigError(f"{key} given but oracle.enabled = false")

    return RunConfig(
        material=material,
        boundary=boundary,
        source=source,
        reduced=reduced,
        tol=tol,
        oracle=oracle,
        sweep=sweep,
        out_dir=raw.get("output.dir"),
    )
