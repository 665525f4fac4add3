"""Run-configuration files: flat dotted-key text, strictly validated.

A config file is a sequence of `key = value` lines with `#` comments.
Keys are dotted (`material.rho`); unknown or duplicated keys are hard
errors so a misspelled physics parameter can never silently fall back to
a default.  Each key is a field of the dataclass it builds and takes its
type from it: `material.*`, `boundary.*`, `oracle.*` and `source.lambda0`
are the fields of Material, BoundaryData, OracleConfig and
FluxFeedbackSource; `oracle.*` take the OracleConfig defaults.  No key
sets a solver tolerance, the oracle's time window or the output
directory, which only the command line's --out sets.  The reduced keys
are the fields of DimensionlessProblem: `problem.ste`, `problem.delta`,
`problem.p` and `source.feedback`, each with a list key `sweep.<field>`.  They are realized
as rho = c0 = k0 = 1, theta0 = 1, theta_f = 0, latent_heat = 1/Ste,
lambda0 = feedback/2.  A sweep is built into a list of DimensionlessProblem,
and a swept parameter may omit its base key.

Three switches decide which keys a config may give:

* `problem.dimensionless` false (default): the physical keys, all required;
* `problem.dimensionless = true`: the reduced keys; the base key of each
  parameter the source takes is required unless it is swept;
* `source.kind = feedback`: `source.lambda0`, `source.feedback`, `sweep.feedback`;
* `oracle.enabled` true (default): the `oracle.*` field keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SourceSpec,
    _require_positive,
)
from .oracle import OracleConfig

# Source kinds a config may name.  Only the flux-feedback spec has a
# parameter: lambda0, or the coupling source.feedback in reduced form.
_SOURCE_KINDS = {cls.kind: cls for cls in (NoSource, ExponentialSource, FluxFeedbackSource)}


def _keys(section: str, cls: type) -> list[str]:
    """The keys of a section that builds cls: one `section.field` per field."""
    return [f"{section}.{f.name}" for f in fields(cls)]


@dataclass(frozen=True)
class DimensionlessProblem:
    """One reduced problem of a dimensionless config.

    Each field but kind is a parameter with the base key `<section>.<field>`
    (section `problem` unless its metadata names another) and the list key
    `sweep.<field>`.  feedback is None for sources other than flux feedback.
    """

    ste: float
    delta: float
    p: float
    kind: str
    feedback: Optional[float] = field(default=None, metadata={"section": "source"})


# Base key of each reduced parameter.
_BASE_KEYS = {f.name: f"{f.metadata.get('section', 'problem')}.{f.name}"
              for f in fields(DimensionlessProblem) if f.name != "kind"}
# The keys each switch admits: the physical problem's in dimensional mode,
# the reduced problem's base and sweep keys in dimensionless mode, the
# coupling's with the feedback kind, the oracle's fields while it is enabled.
_PHYSICAL_KEYS = [
    *_keys("material", Material),
    *_keys("boundary", BoundaryData),
    *(key for spec in _SOURCE_KINDS.values() for key in _keys("source", spec)),
]
_REDUCED_KEYS = [*_BASE_KEYS.values(), *(f"sweep.{name}" for name in _BASE_KEYS)]
_FEEDBACK_KEYS = [*_keys("source", FluxFeedbackSource), _BASE_KEYS["feedback"], "sweep.feedback"]
_ORACLE_KEYS = _keys("oracle", OracleConfig)
_KNOWN_KEYS = {
    *_PHYSICAL_KEYS, *_REDUCED_KEYS, *_ORACLE_KEYS,
    "source.kind", "problem.dimensionless", "oracle.enabled",
}


def _source_spec(kind: str) -> type:
    if kind not in _SOURCE_KINDS:
        raise ConfigError(
            f"source.kind: expected one of {', '.join(_SOURCE_KINDS)}, got {kind!r}"
        )
    return _SOURCE_KINDS[kind]


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, already validated.

    material/boundary/source are None exactly when the config is a sweep
    that omits base values for swept parameters.  sweep holds the cases of
    a sweep in lexicographic (ste, delta, p, feedback) order, base values
    filling the axes not swept; it is empty for any other config.
    """

    material: Optional[Material]
    boundary: Optional[BoundaryData]
    source: Optional[SourceSpec]
    oracle: Optional[OracleConfig]
    sweep: list[DimensionlessProblem]


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


def _section(raw: dict[str, str], section: str, cls: type) -> dict:
    """Values given for the fields of cls as `section.field` keys, by field name.

    Each is parsed as its field's annotated type; fields without a key keep
    their dataclass default.
    """
    values = {}
    for f, key in zip(fields(cls), _keys(section, cls)):
        value = _PARSERS[f.type](raw, key)
        if value is not None:
            values[f.name] = value
    return values


def reduced_problem(
    ste: float, delta: float, p: float, kind: str, feedback: Optional[float]
) -> tuple[Material, BoundaryData, SourceSpec]:
    """Realize dimensionless parameters as a concrete problem.

    Unit density, heat capacity and conductivity with a unit temperature
    drop make a = 1 and Ste = 1/latent_heat, so latent_heat = 1/Ste; the
    feedback coupling 2 lambda0 / (rho c0 a) = feedback gives
    lambda0 = feedback / 2.

    Raises:
        ConfigError: An unknown kind, or a coupling given to another kind
            than feedback or missing for it.
        InvalidInput: ste, 1/ste or another parameter violates a model invariant.
    """
    spec = _source_spec(kind)
    latent_heat = _require_positive("1/ste", 1.0 / _require_positive("ste", ste))
    material = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=latent_heat, delta=delta, p=p)
    boundary = BoundaryData(theta0=1.0, theta_f=0.0)
    if not fields(spec):
        if feedback is not None:
            raise ConfigError("source.feedback requires source.kind = feedback")
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
    spec = _source_spec(kind)
    takes_feedback = bool(fields(spec))
    oracle_enabled = _get_bool(raw, "oracle.enabled", True)

    # A switch that is off rejects the keys it admits.  The physical rule
    # comes first, so source.lambda0 in dimensionless mode is "not allowed".
    scopes = (
        (_PHYSICAL_KEYS, not dimensionless, "not allowed when problem.dimensionless = true"),
        (_REDUCED_KEYS, dimensionless, "requires problem.dimensionless = true"),
        (_FEEDBACK_KEYS, takes_feedback, "requires source.kind = feedback"),
        (_ORACLE_KEYS, oracle_enabled, "given but oracle.enabled = false"),
    )
    for key in raw:
        for keys, admitted, message in scopes:
            if key in keys and not admitted:
                raise ConfigError(f"{key} {message}")

    if dimensionless:
        required = [key for name, key in _BASE_KEYS.items() if f"sweep.{name}" not in raw
                    and (takes_feedback or name != "feedback")]
    else:
        required = [*_keys("material", Material), *_keys("boundary", BoundaryData),
                    *_keys("source", spec)]
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")

    sweep: list[DimensionlessProblem] = []
    if dimensionless:
        base = {name: _get_float(raw, key) for name, key in _BASE_KEYS.items()}
        swept = {name: sorted(values) for name in _BASE_KEYS
                 if (values := _get_list(raw, f"sweep.{name}")) is not None}
        if swept:
            axes = (swept.get(name, [value]) for name, value in base.items())
            sweep = [DimensionlessProblem(kind=kind, **dict(zip(base, values)))
                     for values in itertools.product(*axes)]
        if all(base[name] is not None for name in swept):
            material, boundary, source = reduced_problem(kind=kind, **base)
        else:
            material = boundary = source = None
    else:
        material = Material(**_section(raw, "material", Material))
        boundary = BoundaryData(**_section(raw, "boundary", BoundaryData))
        source = spec(**_section(raw, "source", spec))

    return RunConfig(
        material=material,
        boundary=boundary,
        source=source,
        oracle=OracleConfig(**_section(raw, "oracle", OracleConfig)) if oracle_enabled else None,
        sweep=sweep,
    )
