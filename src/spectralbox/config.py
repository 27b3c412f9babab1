"""Config parsing for the batch runner.

Configs are YAML documents (key-value with nested tables).  Parsing is
strict: duplicate keys are errors naming the key, unknown keys are errors,
a section, family key or window form the command does not read is an
error, and integer-tuple table keys serialize as comma-joined integers
("1,-2": 0.25).  Every value goes through a typed reader (`_int`, `_real`,
`_reals`, `_complex`) that names the offending field; a constructor's
ValueError or TypeError becomes a ConfigError naming its section.  The
full schema is documented in the cli module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .cocycles import check_identity_window, seam_twisted
from .diffraction import GaussianTestFunction, QuasiPeriodicModel, TrigComponent
from .diffraction import check_diffraction_size
from .exponentials import check_pair_size, check_scan_size
from .groups import check_sweep_grid
from .model import (
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    SpectralBoxError,
    SpectrumSpec,
    Tower,
    UnitCube,
)
from .tiling import check_window

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]

# The sections each command reads, as (required, optional), and the
# tolerances it reads, which a tolerances section may set; any other is an
# error.  A command that reads a window or a tiling requires the spectrum
# whose dimension sizes it.
COMMANDS = {
    "verify-pair": (("domain", "spectrum", "window"), ("tiling",), ("eq_tol", "num_tol")),
    "build-spectrum": (("spectrum", "window"), (), ()),
    "check-cocycle": (("cocycle",), (), ("eq_tol",)),
    "simulate-groups": (("groups",), (), ("eq_tol", "num_tol")),
    "check-tiling": (("spectrum", "tiling"), (), ()),
    "diffraction": (("diffraction",), (), ()),
    "root-scan": (("rootscan",), (), ("num_tol",)),
}
# the default of each tolerance: eq_tol guards closed-form identities,
# num_tol quadrature and grid comparisons
TOLERANCES = {"eq_tol": 1e-10, "num_tol": 1e-8}


class ConfigError(SpectralBoxError):
    """Schema violation or unparsable config text."""


# libyaml's parser where PyYAML has it: the same values, several times faster
class _StrictLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    pass


def _no_duplicates(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        # deep: a list or table key is filled in before the message shows it
        key = loader.construct_object(key_node, deep=True)
        line = key_node.start_mark.line + 1
        try:
            duplicate = key in mapping
        except TypeError as exc:  # a list or table as a key
            raise ConfigError(f"key {key!r} at line {line} is not a scalar") from exc
        if duplicate:
            raise ConfigError(f"duplicate key {key!r} at line {line}")
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


def _at_least(number, lo, where: str):
    if lo is not None and number < lo:
        raise ConfigError(f"{where}: {number!r} is below {lo}")
    return number


def _int(value, where: str, lo: int | None = None) -> int:
    """An integer config value; a non-finite or fractional number is an error."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: {value!r} is not an integer")
    try:
        number = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {value!r} is not an integer") from exc
    return _at_least(number, lo, where)


def _real(value, where: str, lo: float | None = None, finite: bool = True) -> float:
    """A real config value; a non-finite one is an error unless `finite` is off."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {value!r} is not a real number") from exc
    if finite and not math.isfinite(number):
        raise ConfigError(f"{where}: {number!r} is not finite")
    return _at_least(number, lo, where)


def _list(value, where: str, count: int | None = None) -> list:
    """A config list, of exactly `count` entries when a count is given."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: {value!r} is not a list")
    if count is not None and len(value) != count:
        raise ConfigError(f"{where}: expected {count} entries, got {value!r}")
    return list(value)


def _reals(value, where: str, count: int | None = None, **bounds) -> list[float]:
    return [_real(v, where, **bounds) for v in _list(value, where, count)]


def _complex(value, where: str) -> complex:
    """A complex config value, written re or [re, im]."""
    if isinstance(value, (list, tuple)):
        return complex(*_reals(value, where, 2))
    return complex(_real(value, where), 0.0)


def _required(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _parse_tuple_key(key, arity: int, where: str) -> tuple[int, ...]:
    parts = key.split(",") if isinstance(key, str) else [key]
    try:
        tup = tuple(_int(part, where) for part in parts)
    except ConfigError as exc:
        raise ConfigError(
            f"{where}: key {key!r} is not an integer or comma-joined integers"
        ) from exc
    if len(tup) != arity:
        raise ConfigError(
            f"{where}: key {key!r} has {len(tup)} indices, expected {arity}"
        )
    return tup


def _parse_table(section, arity: int, where: str) -> tuple[float, dict]:
    """Default and table of a {default, table} section, keyed by index tuples."""
    section = _require_mapping(section, where)
    _check_keys(section, {"default", "table"}, where)
    table = {
        _parse_tuple_key(key, arity, f"{where}.table"): _real(value, f"{where}.table")
        for key, value in _require_mapping(
            section.get("table", {}), f"{where}.table"
        ).items()
    }
    return _real(section.get("default", 0.0), f"{where}.default"), table


def _parse_int_function(section, arity: int, where: str) -> IntFunction:
    """A {default, table} phase table; every value must lie in [0, 1)."""
    default, table = _parse_table(section, arity, where)
    try:
        return IntFunction(arity, default, table)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_window(section, dimension: int, where: str) -> LatticeWindow:
    section = _require_mapping(section, where)
    _check_keys(section, {"radius", "ranges"}, where)
    if len(section) != 1:
        raise ConfigError(f"{where}: needs exactly one of 'radius' and 'ranges'")
    if "radius" in section:
        return LatticeWindow.centered(
            _int(section["radius"], f"{where}.radius"), dimension
        )
    at = f"{where}.ranges"
    return LatticeWindow(tuple(
        tuple(_int(v, at) for v in _list(pair, at, 2))
        for pair in _list(section["ranges"], at, dimension)
    ))


def _parse_spectrum_window(section: dict, cfg: "RunConfig") -> LatticeWindow:
    """The spectrum's window; for verify-pair its Gram must fit in memory."""
    spec = cfg.spectrum
    window = _parse_window(section, spec.dimension, "window")
    # an explicit spectrum is its own finite set, sized where it is parsed
    if cfg.command == "verify-pair" and not isinstance(spec, ExplicitSpectrum):
        check_pair_size(window.cardinality, spec.dimension)
    return window


# Every section parser takes the section's table and the config parsed so
# far; `parse_config` turns a constructor's ValueError or TypeError into a
# ConfigError naming the section.

# the keys of each domain kind and of each spectrum family
_DOMAIN_KEYS = {
    "unit-cube": {"kind", "dimension"},
    "interval-union": {"kind", "intervals"},
}
_SPECTRUM_KEYS = {
    "translated-lattice": {"family", "alpha", "alpha_vector"},
    "class-a": {"family", "alpha", "beta"},
    "class-b": {"family", "alpha", "beta"},
    "tower": {"family", "levels"},
    "tower3d": {"family", "beta", "gamma"},
    "explicit": {"family", "points"},
}


def _variant(section: dict, key: str, keys: dict, where: str) -> str:
    """The section's `key` value, one of `keys`; the section may hold only
    the keys listed for it."""
    name = section.get(key)
    if name not in keys:
        raise ConfigError(
            f"{where}.{key} must be one of {', '.join(keys)}; got {name!r}"
        )
    _check_keys(section, keys[name], f"a {name} {where}")
    return name


def _parse_domain(section: dict, cfg: "RunConfig") -> Domain:
    if _variant(section, "kind", _DOMAIN_KEYS, "domain") == "unit-cube":
        return UnitCube(_int(section.get("dimension", 2), "domain.dimension"))
    where = "domain.intervals"
    return Domain((IntervalUnion(tuple(
        tuple(_reals(pair, where, 2, finite=False))
        for pair in _list(section.get("intervals", ()), where)
    )),))


def _parse_spectrum(section: dict, cfg: "RunConfig") -> SpectrumSpec:
    family = _variant(section, "family", _SPECTRUM_KEYS, "spectrum")

    def alpha() -> float:
        return _real(section.get("alpha", 0.0), "spectrum.alpha")

    def offset() -> IntFunction:
        value = alpha()
        if not 0.0 <= value < 1.0:
            raise ValueError(f"alpha {value} outside [0,1)")
        return IntFunction.constant(value)

    def level(key: str, arity: int) -> IntFunction:
        return _parse_int_function(section.get(key, {}), arity, f"spectrum.{key}")

    if family == "translated-lattice":
        if "alpha" in section and "alpha_vector" in section:
            raise ConfigError(
                "spectrum: needs at most one of 'alpha' and 'alpha_vector'"
            )
        where = "spectrum.alpha_vector"
        offsets = _reals(section.get("alpha_vector", [alpha()]), where)
        if not offsets:
            raise ConfigError(f"{where}: needs at least one entry")
        # alpha + Z^d is the tower of constant levels alpha_j mod 1, the zero
        # level twisted by -alpha_j; a remainder that rounds to 1.0 (a tiny
        # negative alpha_j) is stored as 0.0
        return Tower(tuple(
            seam_twisted(IntFunction(j), -a) for j, a in enumerate(offsets)
        ))
    if family == "class-a":
        return Tower((offset(), level("beta", 1)))
    if family == "class-b":
        return Tower((offset(), level("beta", 1)), (1, 0))
    if family == "tower3d":
        zero = IntFunction.constant(0.0)
        return Tower((zero, level("beta", 1), level("gamma", 2)))
    if family == "tower":
        levels = _list(section.get("levels", ()), "spectrum.levels")
        return Tower(tuple(
            _parse_int_function(entry, k, f"spectrum.levels[{k}]")
            for k, entry in enumerate(levels)
        ))
    points = _list(section.get("points", ()), "spectrum.points")
    spec = ExplicitSpectrum([_reals(p, "spectrum.points") for p in points])
    if cfg.command == "verify-pair":
        check_pair_size(len(spec.points), spec.dimension)
    return spec


def _parse_tolerances(section: dict, cfg: "RunConfig") -> dict:
    """The command's tolerances: the section's values over the defaults."""
    _check_keys(section, set(cfg.tolerances), "tolerances")
    # the least positive float as the bound: a tolerance of 0 is an error
    return {**cfg.tolerances, **{
        key: _real(value, f"tolerances.{key}", lo=math.ulp(0.0))
        for key, value in section.items()
    }}


def _shift_window(section: dict, where: str) -> LatticeWindow:
    """A 2-D window with room for a nonzero shift on each axis."""
    window = _parse_window(section.get("window", {"radius": 8}), 2, where)
    if any(hi == lo for lo, hi in window.ranges):
        raise ConfigError(
            f"{where}: need at least two indices per axis for a nonzero shift"
        )
    return window


def _parse_cocycle(section: dict, cfg: "RunConfig") -> dict:
    _check_keys(section, {"a", "b", "window"}, "cocycle")
    window = _shift_window(section, "cocycle.window")
    check_identity_window(window)
    return {
        "a": _parse_int_function(section.get("a", {}), 1, "cocycle.a"),
        "b": _parse_int_function(section.get("b", {}), 1, "cocycle.b"),
        "window": window,
    }


def _parse_groups(section: dict, cfg: "RunConfig") -> dict:
    _check_keys(
        section,
        {"a", "b", "window", "phases", "grid_n", "times", "sub_radius",
         "n_random", "leakage_tol"},
        "groups",
    )
    times = section.get("times", [0.125, 0.25, 0.375, 0.5, 0.625])
    if times == []:
        raise ConfigError("groups.times: needs at least one entry")
    groups = {
        "a": _parse_int_function(section.get("a", {}), 1, "groups.a"),
        "b": _parse_int_function(section.get("b", {}), 1, "groups.b"),
        "window": _shift_window(section, "groups.window"),
        "phases": tuple(_reals(section.get("phases", [0.0, 0.0]), "groups.phases", 2)),
        "grid_n": _int(section.get("grid_n", 64), "groups.grid_n", lo=1),
        "times": _reals(times, "groups.times", lo=0),
        "sub_radius": _int(section.get("sub_radius", 2), "groups.sub_radius", lo=0),
        "n_random": _int(section.get("n_random", 4), "groups.n_random", lo=0),
        "leakage_tol": _real(section.get("leakage_tol", 1e-6), "groups.leakage_tol", lo=0),
    }
    check_sweep_grid(groups["window"], groups["grid_n"], groups["times"])
    # the probes: the window's modes with |m|, |n| <= sub_radius, and the
    # random ones
    r, ranges = groups["sub_radius"], groups["window"].ranges
    if groups["n_random"] == 0 and any(hi < -r or r < lo for lo, hi in ranges):
        raise ConfigError(
            "groups.n_random: 0 random probes, and no window mode lies within "
            f"sub_radius {r} of the origin: no probes to sweep"
        )
    # indicator coefficients need the spectral check's time in [0, 1]
    s0 = groups["times"][0]
    if s0 > 1:
        raise ConfigError(f"groups.times: {s0!r}, the spectral check's time, is above 1")
    return groups


def _parse_tiling(section: dict, cfg: "RunConfig") -> dict:
    # verify-pair, the one command with a domain, has a tiling line on I^2 only
    if cfg.domain not in (None, UnitCube(2)):
        raise ConfigError("tiling: verify-pair checks a tiling only on a 2-D unit cube")
    _check_keys(section, {"window", "resolution"}, "tiling")
    tiling = {
        "window": _int(section.get("window", 4), "tiling.window"),
        "resolution": _int(section.get("resolution", 64), "tiling.resolution"),
    }
    check_window(tiling["window"], tiling["resolution"], cfg.spectrum.dimension)
    return tiling


def _parse_component(entry, where: str) -> TrigComponent:
    entry = _require_mapping(entry, where)
    _check_keys(entry, {"period", "coeffs", "cosine_amplitude", "harmonic"}, where)
    period = _real(_required(entry, "period", where), f"{where}.period")
    if "cosine_amplitude" in entry:
        return TrigComponent.cosine(
            period,
            _real(entry["cosine_amplitude"], f"{where}.cosine_amplitude"),
            _int(entry.get("harmonic", 1), f"{where}.harmonic"),
        )
    coeffs = _require_mapping(entry.get("coeffs", {}), f"{where}.coeffs")
    return TrigComponent(period, {
        _int(key, f"{where}.coeffs"): _complex(value, f"{where}.coeffs")
        for key, value in coeffs.items()
    })


def _parse_diffraction(section: dict, cfg: "RunConfig") -> dict:
    _check_keys(
        section, {"components", "test_function", "lambda_window", "k_radius"},
        "diffraction",
    )
    where = "diffraction.components"
    components = _list(section.get("components", ()), where)
    at = "diffraction.test_function"
    tf = _require_mapping(section.get("test_function", {}), at)
    _check_keys(tf, {"center", "widths"}, at)
    diffraction = {
        "model": QuasiPeriodicModel(tuple(
            _parse_component(entry, f"{where}[{i}]")
            for i, entry in enumerate(components)
        )),
        "test_function": GaussianTestFunction(
            tuple(_reals(tf.get("center", (0.0, 0.0)), f"{at}.center", 2)),
            tuple(_reals(tf.get("widths", (1.0, 1.0)), f"{at}.widths", 2)),
        ),
        "lambda_window": _int(
            section.get("lambda_window", 200), "diffraction.lambda_window", lo=0
        ),
        "k_radius": _int(section.get("k_radius", 12), "diffraction.k_radius", lo=0),
    }
    check_diffraction_size(**diffraction)
    return diffraction


def _parse_rootscan(section: dict, cfg: "RunConfig") -> dict:
    _check_keys(section, {"coefficients", "samples"}, "rootscan")
    where = "rootscan.coefficients"
    coeffs = [_complex(v, where) for v in _list(section.get("coefficients", ()), where)]
    if not coeffs:
        raise ConfigError(f"{where}: needs at least one entry")
    samples = _int(section.get("samples", 100_000), "rootscan.samples", lo=16)
    check_scan_size(len(coeffs) - 1, samples)
    return {"coefficients": coeffs, "samples": samples}


@dataclass
class RunConfig:
    """Parsed run description: one command, typed inputs, its tolerances."""

    command: str
    seed: int
    tolerances: dict = field(default_factory=dict)
    domain: Any = None
    spectrum: Any = None
    window: Any = None
    cocycle: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    tiling: dict = field(default_factory=dict)
    diffraction: dict = field(default_factory=dict)
    rootscan: dict = field(default_factory=dict)


# Section parsers in parse order.  A missing required section fails in its
# place, so the spectrum is parsed before the window and the tiling sized
# by its dimension.
_SECTIONS = {
    "tolerances": _parse_tolerances,
    "domain": _parse_domain,
    "spectrum": _parse_spectrum,
    "window": _parse_spectrum_window,
    "cocycle": _parse_cocycle,
    "groups": _parse_groups,
    "tiling": _parse_tiling,
    "diffraction": _parse_diffraction,
    "rootscan": _parse_rootscan,
}


def parse_config(text: str) -> RunConfig:
    """Deterministic parse of a YAML config; keys it does not read are errors."""
    try:
        raw = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{loc}: {exc}") from exc
    raw = _require_mapping(raw, "config")
    command = raw.get("command")
    try:
        required, optional, tolerances = COMMANDS[command]
    except (KeyError, TypeError) as exc:  # TypeError: a list or table
        raise ConfigError(
            f"command must be one of {', '.join(COMMANDS)}; got {command!r}"
        ) from exc
    if tolerances:
        optional += ("tolerances",)
    _check_keys(raw, {"command", "seed", *required, *optional}, f"a {command} config")
    seed = _int(raw.get("seed", 0), "seed")
    cfg = RunConfig(command, seed, {key: TOLERANCES[key] for key in tolerances})
    for name, parse in _SECTIONS.items():
        # verify-pair's tiling line on I^2 takes the defaults without a section
        if name == "tiling" and cfg.domain == UnitCube(2):
            raw.setdefault(name, {})
        if name in raw:
            try:
                setattr(cfg, name, parse(_require_mapping(raw[name], name), cfg))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        # no step reads a window for an explicit set
        elif name in required and not (
            name == "window" and isinstance(cfg.spectrum, ExplicitSpectrum)
        ):
            raise ConfigError(f"command {command!r} requires a {name!r} section")
    # a command that reads the domain requires the spectrum
    if cfg.domain is not None and cfg.domain.dimension != cfg.spectrum.dimension:
        raise ConfigError(
            f"domain: dimension {cfg.domain.dimension} differs from the "
            f"spectrum's dimension {cfg.spectrum.dimension}"
        )
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
