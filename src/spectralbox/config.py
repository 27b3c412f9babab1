"""Config parsing for the batch runner.

Configs are YAML documents (key-value with nested tables).  Parsing is
strict: duplicate keys are errors naming the key, unknown keys are errors,
and integer-tuple table keys serialize as comma-joined integers
("1,-2": 0.25).  The full schema is documented in the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .cocycles import PhaseSequence
from .diffraction import GaussianTestFunction, QuasiPeriodicModel, TrigComponent
from .model import (
    ClassA2D,
    ClassB2D,
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    SpectralBoxError,
    SpectrumSpec,
    ToleranceConfig,
    Tower,
    Tower3D,
    TranslatedLattice,
    UnitCube,
)
from .tiling import check_window

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

COMMANDS = (
    "verify-pair",
    "build-spectrum",
    "check-cocycle",
    "simulate-groups",
    "check-tiling",
    "diffraction",
    "root-scan",
)


class ConfigError(SpectralBoxError):
    """Schema violation or unparsable config text."""


class _StrictLoader(yaml.SafeLoader):
    pass


def _no_duplicates(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise ConfigError(
                f"duplicate key {key!r} at line {key_node.start_mark.line + 1}"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _no_duplicates
)


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a table of key-value pairs")
    return obj


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: "
            f"{sorted(allowed)}"
        )


def _int(value, where: str) -> int:
    """An integer config value; a non-finite or fractional number is an error."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: {value!r} is not an integer")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {value!r} is not an integer") from exc


def _parse_tuple_key(key, where: str) -> tuple[int, ...]:
    try:
        return tuple(_int(part, where) for part in str(key).split(","))
    except ConfigError as exc:
        raise ConfigError(
            f"{where}: table key {key!r} is not comma-joined integers"
        ) from exc


def _parse_int_function(section, arity: int, where: str) -> IntFunction:
    section = _require_mapping(section, where)
    _check_keys(section, {"default", "table"}, where)
    table = {}
    for key, value in _require_mapping(section.get("table", {}), f"{where}.table").items():
        tup = _parse_tuple_key(key, where)
        if len(tup) != arity:
            raise ConfigError(
                f"{where}: key {key!r} has {len(tup)} indices, expected {arity}"
            )
        table[tup] = float(value)
    try:
        return IntFunction(arity, float(section.get("default", 0.0)), table)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_phase_sequence(section, where: str) -> PhaseSequence:
    section = _require_mapping(section, where)
    _check_keys(section, {"default", "table"}, where)
    table = {}
    for key, value in _require_mapping(section.get("table", {}), f"{where}.table").items():
        table[_int(key, f"{where}.table")] = float(value)
    try:
        return PhaseSequence.from_phases(table, float(section.get("default", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_window(section, dimension: int, where: str) -> LatticeWindow:
    section = _require_mapping(section, where)
    _check_keys(section, {"radius", "ranges"}, where)
    if "radius" in section:
        return LatticeWindow.centered(
            _int(section["radius"], f"{where}.radius"), dimension
        )
    if "ranges" in section:
        ranges = tuple(
            (_int(lo, f"{where}.ranges"), _int(hi, f"{where}.ranges"))
            for lo, hi in section["ranges"]
        )
        if len(ranges) != dimension:
            raise ConfigError(
                f"{where}: {len(ranges)} ranges given, expected {dimension}"
            )
        return LatticeWindow(ranges)
    raise ConfigError(f"{where}: needs either 'radius' or 'ranges'")


_DOMAIN_KEYS = {
    "unit-cube": {"kind", "dimension"},
    "interval-union": {"kind", "intervals"},
}


def _parse_domain(section, where: str) -> Domain:
    section = _require_mapping(section, where)
    kind = section.get("kind")
    _check_keys(
        section, _DOMAIN_KEYS.get(kind, {"kind", "dimension", "intervals"}), where
    )
    try:
        if kind == "unit-cube":
            return UnitCube(_int(section.get("dimension", 2), f"{where}.dimension"))
        if kind == "interval-union":
            intervals = tuple(
                (float(a), float(b)) for a, b in section.get("intervals", ())
            )
            return Domain((IntervalUnion(intervals),))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}.kind must be 'unit-cube' or 'interval-union', got {kind!r}"
    )


def _parse_spectrum(section, where: str) -> SpectrumSpec:
    section = _require_mapping(section, where)
    _check_keys(
        section,
        {"family", "alpha", "alpha_vector", "beta", "gamma", "levels", "points"},
        where,
    )
    family = section.get("family")
    try:
        if family == "translated-lattice":
            vec = section.get("alpha_vector")
            if vec is None:
                vec = [float(section.get("alpha", 0.0))]
            return TranslatedLattice(tuple(float(v) for v in vec))
        if family == "class-a":
            return ClassA2D(
                float(section.get("alpha", 0.0)),
                _parse_int_function(section.get("beta", {}), 1, f"{where}.beta"),
            )
        if family == "class-b":
            return ClassB2D(
                float(section.get("alpha", 0.0)),
                _parse_int_function(section.get("beta", {}), 1, f"{where}.beta"),
            )
        if family == "tower3d":
            return Tower3D(
                _parse_int_function(section.get("beta", {}), 1, f"{where}.beta"),
                _parse_int_function(section.get("gamma", {}), 2, f"{where}.gamma"),
            )
        if family == "tower":
            levels = [
                _parse_int_function(entry, k, f"{where}.levels[{k}]")
                for k, entry in enumerate(section.get("levels", ()))
            ]
            return Tower(tuple(levels))
        if family == "explicit":
            pts = np.array(section.get("points", ()), dtype=float)
            return ExplicitSpectrum(pts)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}.family must be one of translated-lattice, class-a, "
        f"class-b, tower, tower3d, explicit; got {family!r}"
    )


def _parse_tolerances(section, where: str) -> ToleranceConfig:
    section = _require_mapping(section, where)
    allowed = {"eq_tol", "num_tol", "grid_n", "quad_n"}
    _check_keys(section, allowed, where)
    kwargs: dict[str, Any] = {}
    for key in allowed & set(section):
        kwargs[key] = (
            _int(section[key], f"{where}.{key}")
            if key.endswith("_n")
            else float(section[key])
        )
    try:
        return ToleranceConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_components(entries, where: str) -> QuasiPeriodicModel:
    comps = []
    for i, entry in enumerate(entries):
        entry = _require_mapping(entry, f"{where}[{i}]")
        _check_keys(
            entry, {"period", "coeffs", "cosine_amplitude", "harmonic"},
            f"{where}[{i}]",
        )
        period = float(entry["period"])
        if "cosine_amplitude" in entry:
            comps.append(
                TrigComponent.cosine(
                    period,
                    float(entry["cosine_amplitude"]),
                    _int(entry.get("harmonic", 1), f"{where}[{i}].harmonic"),
                )
            )
            continue
        coeffs = {}
        for key, value in _require_mapping(
            entry.get("coeffs", {}), f"{where}[{i}].coeffs"
        ).items():
            index = _int(key, f"{where}[{i}].coeffs")
            if isinstance(value, (list, tuple)):
                coeffs[index] = complex(float(value[0]), float(value[1]))
            else:
                coeffs[index] = complex(float(value), 0.0)
        try:
            comps.append(TrigComponent(period, coeffs))
        except ValueError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from exc
    try:
        return QuasiPeriodicModel(tuple(comps))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed run description: one command, typed inputs, tolerances."""

    command: str
    seed: int
    tolerances: ToleranceConfig
    domain: Any = None
    spectrum: Any = None
    window: Any = None
    cocycle: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    tiling: dict = field(default_factory=dict)
    diffraction: dict = field(default_factory=dict)
    rootscan: dict = field(default_factory=dict)


_TOP_KEYS = {
    "command",
    "seed",
    "tolerances",
    "domain",
    "spectrum",
    "window",
    "cocycle",
    "groups",
    "tiling",
    "diffraction",
    "rootscan",
}


def parse_config(text: str) -> RunConfig:
    """Deterministic parse of a YAML config; unknown keys are errors."""
    try:
        raw = yaml.load(text, Loader=_StrictLoader)
    except ConfigError:
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{loc}: {exc}") from exc
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )
    cfg = RunConfig(
        command=command,
        seed=_int(raw.get("seed", 0), "seed"),
        tolerances=_parse_tolerances(raw.get("tolerances", {}), "tolerances"),
    )
    if "domain" in raw:
        cfg.domain = _parse_domain(raw["domain"], "domain")
    if "spectrum" in raw:
        cfg.spectrum = _parse_spectrum(raw["spectrum"], "spectrum")
    if cfg.domain is not None and cfg.spectrum is not None:
        if cfg.domain.dimension != cfg.spectrum.dimension:
            raise ConfigError(
                f"domain: dimension {cfg.domain.dimension} differs from the "
                f"spectrum's dimension {cfg.spectrum.dimension}"
            )
    if "window" in raw:
        dim = cfg.spectrum.dimension if cfg.spectrum is not None else 2
        cfg.window = _parse_window(raw["window"], dim, "window")

    if "cocycle" in raw:
        section = _require_mapping(raw["cocycle"], "cocycle")
        _check_keys(section, {"a", "b", "window"}, "cocycle")
        cfg.cocycle = {
            "a": _parse_phase_sequence(section.get("a", {}), "cocycle.a"),
            "b": _parse_phase_sequence(section.get("b", {}), "cocycle.b"),
            "window": _parse_window(section.get("window", {"radius": 8}), 2, "cocycle.window"),
        }
    if "groups" in raw:
        section = _require_mapping(raw["groups"], "groups")
        _check_keys(
            section,
            {"a", "b", "window", "phases", "grid_n", "times", "sub_radius",
             "n_random", "leakage_tol"},
            "groups",
        )
        phases = section.get("phases", [0.0, 0.0])
        cfg.groups = {
            "a": _parse_phase_sequence(section.get("a", {}), "groups.a"),
            "b": _parse_phase_sequence(section.get("b", {}), "groups.b"),
            "window": _parse_window(section.get("window", {"radius": 8}), 2, "groups.window"),
            "phases": (float(phases[0]), float(phases[1])),
            "grid_n": _int(section.get("grid_n", 64), "groups.grid_n"),
            "times": [float(t) for t in section.get("times", [0.125, 0.25, 0.375, 0.5, 0.625])],
            "sub_radius": _int(section.get("sub_radius", 2), "groups.sub_radius"),
            "n_random": _int(section.get("n_random", 4), "groups.n_random"),
            "leakage_tol": float(section.get("leakage_tol", 1e-6)),
        }
        for key in ("phases", "times", "leakage_tol"):
            if not np.all(np.isfinite(cfg.groups[key])):
                raise ConfigError(f"groups.{key}: {cfg.groups[key]} is not finite")
    if "tiling" in raw:
        section = _require_mapping(raw["tiling"], "tiling")
        _check_keys(section, {"window", "resolution"}, "tiling")
        cfg.tiling = {
            "window": _int(section.get("window", 4), "tiling.window"),
            "resolution": _int(section.get("resolution", 64), "tiling.resolution"),
        }
        dim = cfg.spectrum.dimension if cfg.spectrum is not None else 2
        try:
            check_window(cfg.tiling["window"], cfg.tiling["resolution"], dim)
        except ValueError as exc:
            raise ConfigError(f"tiling: {exc}") from exc
    if "diffraction" in raw:
        section = _require_mapping(raw["diffraction"], "diffraction")
        _check_keys(
            section,
            {"components", "test_function", "lambda_window", "k_radius"},
            "diffraction",
        )
        model = _parse_components(
            section.get("components", ()), "diffraction.components"
        )
        tf = _require_mapping(
            section.get("test_function", {}), "diffraction.test_function"
        )
        _check_keys(tf, {"center", "widths"}, "diffraction.test_function")
        center = tuple(float(v) for v in tf.get("center", (0.0, 0.0)))
        widths = tuple(float(v) for v in tf.get("widths", (1.0, 1.0)))
        cfg.diffraction = {
            "model": model,
            "test_function": GaussianTestFunction(center, widths),
            "lambda_window": _int(
                section.get("lambda_window", 200), "diffraction.lambda_window"
            ),
            "k_radius": _int(section.get("k_radius", 12), "diffraction.k_radius"),
        }
    if "rootscan" in raw:
        section = _require_mapping(raw["rootscan"], "rootscan")
        _check_keys(section, {"coefficients", "samples"}, "rootscan")
        coeffs = []
        for value in section.get("coefficients", ()):
            if isinstance(value, (list, tuple)):
                coeffs.append(complex(float(value[0]), float(value[1])))
            else:
                coeffs.append(complex(float(value), 0.0))
        if not coeffs:
            raise ConfigError("rootscan.coefficients: needs at least one entry")
        if not np.all(np.isfinite(coeffs)):
            raise ConfigError(f"rootscan.coefficients: {coeffs} is not finite")
        samples = _int(section.get("samples", 100_000), "rootscan.samples")
        if samples < 16:
            raise ConfigError(f"rootscan.samples: {samples} is below 16")
        cfg.rootscan = {"coefficients": coeffs, "samples": samples}
    _validate_required(cfg)
    return cfg


_REQUIRED = {
    "verify-pair": ("domain", "spectrum", "window"),
    "build-spectrum": ("spectrum", "window"),
    "check-cocycle": ("cocycle",),
    "simulate-groups": ("groups",),
    "check-tiling": ("spectrum", "tiling"),
    "diffraction": ("diffraction",),
    "root-scan": ("rootscan",),
}


def _validate_required(cfg: RunConfig) -> None:
    for name in _REQUIRED[cfg.command]:
        value = getattr(cfg, name.replace("-", "_"))
        if value is None or value == {}:
            raise ConfigError(
                f"command {cfg.command!r} requires a {name!r} section"
            )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
