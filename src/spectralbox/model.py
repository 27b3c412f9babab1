"""Shared domain types and the candidate-spectrum families.

Everything here is an immutable value object: domains carrying Lebesgue
measure, windowed index sets, tolerance settings, and the parametrized
families of frequency sets that the rest of the package analyzes.  A
domain is one type, the product of 1-D interval-union factors; UnitCube(d)
builds the product of d unit intervals.  All exponentials in the package
use the normalization e(x) = exp(i*2*pi*lam.x), so spectra live on the same
scale as the frequency parameters stored here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

import numpy as np

__all__ = [
    "SpectralBoxError",
    "ArityMismatchError",
    "WindowCapError",
    "MAX_WINDOW_CARDINALITY",
    "IntervalUnion",
    "Domain",
    "UnitCube",
    "IntFunction",
    "LatticeWindow",
    "ToleranceConfig",
    "TranslatedLattice",
    "Tower",
    "ExplicitSpectrum",
    "SpectrumSpec",
    "spectrum_points",
    "enumerate_spectrum",
    "spectrum_difference_set",
]


class SpectralBoxError(Exception):
    """Base class for errors raised by this package."""


class ArityMismatchError(SpectralBoxError):
    """Argument count / dimension does not match the declared arity."""


class WindowCapError(SpectralBoxError):
    """A lattice window has more than MAX_WINDOW_CARDINALITY points."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint open intervals with finite endpoints."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ValueError("interval union needs at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"interval ({a}, {b}) has a non-finite endpoint")
            if not a < b:
                raise ValueError(f"interval ({a}, {b}) has left >= right")
        ordered = sorted(ivs)
        for (_, b0), (a1, _) in zip(ordered, ordered[1:]):
            if a1 < b0:
                raise ValueError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(ordered))

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)


@dataclass(frozen=True)
class Domain:
    """The product of 1-D interval-union factors, factor j on axis j."""

    factors: tuple[IntervalUnion, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("domain needs at least one factor")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def measure(self) -> float:
        return math.prod(f.measure for f in self.factors)


def UnitCube(dimension: int) -> Domain:
    """The unit cube (0,1)^d as the product of d unit intervals."""
    if dimension < 1:
        raise ValueError("cube dimension must be >= 1")
    return Domain((IntervalUnion(((0.0, 1.0),)),) * dimension)


# ---------------------------------------------------------------------------
# Integer-argument functions, windows, tolerances
# ---------------------------------------------------------------------------


def _normalize_key(key, arity: int) -> tuple[int, ...]:
    if arity == 0:
        raise ValueError("arity-0 functions take no table entries")
    if isinstance(key, (int, np.integer)):
        tup = (int(key),)
    else:
        tup = tuple(int(k) for k in key)
    if len(tup) != arity:
        raise ArityMismatchError(
            f"table key {key!r} has {len(tup)} indices, expected {arity}"
        )
    return tup


@dataclass(frozen=True)
class IntFunction:
    """Total function on integer tuples with values in [0,1).

    A finite table plus a default value outside the table; this keeps
    otherwise arbitrary phase functions serializable and reproducible.
    Arity 0 denotes a constant (the default value).
    """

    arity: int
    default: float = 0.0
    table: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if not 0.0 <= self.default < 1.0:
            raise ValueError(f"default {self.default} outside [0,1)")
        normalized = {}
        for key, value in dict(self.table).items():
            tup = _normalize_key(key, self.arity)
            value = float(value)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"table value {value} at {tup} outside [0,1)")
            normalized[tup] = value
        object.__setattr__(self, "table", normalized)

    def __call__(self, *indices: int) -> float:
        if len(indices) != self.arity:
            raise ArityMismatchError(
                f"called with {len(indices)} indices, expected {self.arity}"
            )
        return self.table.get(tuple(int(i) for i in indices), self.default)

    @classmethod
    def constant(cls, value: float) -> "IntFunction":
        return cls(arity=0, default=value)


MAX_WINDOW_CARDINALITY = 10**6


@dataclass(frozen=True)
class LatticeWindow:
    """Per-axis inclusive integer ranges; the finite stand-in for Z^d."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rng = tuple((int(lo), int(hi)) for lo, hi in self.ranges)
        if not rng:
            raise ValueError("window needs at least one axis")
        for lo, hi in rng:
            if lo > hi:
                raise ValueError(f"window range ({lo},{hi}) has low > high")
        object.__setattr__(self, "ranges", rng)
        if self.cardinality > MAX_WINDOW_CARDINALITY:
            raise WindowCapError(
                f"window cardinality {self.cardinality} exceeds cap "
                f"{MAX_WINDOW_CARDINALITY}"
            )

    @classmethod
    def centered(cls, radius: int, dimension: int) -> "LatticeWindow":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return cls(tuple((-radius, radius) for _ in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self.ranges)

    @property
    def cardinality(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.ranges)

    def axis_indices(self, axis: int) -> np.ndarray:
        lo, hi = self.ranges[axis]
        return np.arange(lo, hi + 1)

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Window tuples in lexicographic order (deterministic)."""
        return itertools.product(
            *(range(lo, hi + 1) for lo, hi in self.ranges)
        )


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances, used package-wide: eq_tol guards closed-form
    identities, num_tol quadrature/grid comparisons."""

    eq_tol: float = 1e-10
    num_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0 < self.eq_tol < math.inf and 0 < self.num_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


# ---------------------------------------------------------------------------
# Spectrum families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslatedLattice:
    """alpha + Z^d: the shifted integer lattice."""

    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if not self.alpha:
            raise ValueError("alpha must have at least one coordinate")
        if not all(math.isfinite(a) for a in self.alpha):
            raise ValueError(f"alpha {self.alpha} has a non-finite entry")

    @property
    def dimension(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class Tower:
    """Staircase family in d dimensions, the one type for every staircase.

    Coordinate j is levels[j](k_0, ..., k_{j-1}) + k_j, where k_j is the
    window index on output axis axis_order[j] and the coordinate is written
    to that axis.  Level j must be a function of exactly j integer
    arguments, level 0 the constant offset; axis_order defaults to the
    identity.
    """

    levels: tuple[IntFunction, ...]
    axis_order: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("tower needs at least one level")
        for k, fn in enumerate(self.levels):
            if fn.arity != k:
                raise ArityMismatchError(
                    f"tower level {k} has arity {fn.arity}, expected {k}"
                )
        d = len(self.levels)
        order = tuple(
            range(d) if self.axis_order is None else map(int, self.axis_order)
        )
        if sorted(order) != list(range(d)):
            raise ValueError(
                f"axis_order {order} is not a permutation of 0..{d - 1}"
            )
        object.__setattr__(self, "axis_order", order)

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def points_at(self, indices: np.ndarray, period: Optional[int]) -> np.ndarray:
        """Points at integer window tuples, an (n, d) array in row order.

        Row i of `indices` holds the window index on each output axis.
        With `period`, level tables are read N-periodically: their
        arguments are reduced modulo `period`.  Each level is called once
        per distinct argument tuple, in lexicographic order: a tuple is
        keyed by its mixed-radix code over the box its columns span, which
        for the rows of an index box (or their residues) holds no more
        codes than the box has rows.
        """
        k = np.asarray(indices, dtype=int)[:, self.axis_order]
        out = np.empty(k.shape, dtype=float)
        if k.shape[0] == 0:
            return out
        for j, fn in enumerate(self.levels):
            if j == 0:
                shift = fn()
            else:
                args = k[:, :j] if period is None else k[:, :j] % period
                low = args.min(axis=0)
                dims = tuple(args.max(axis=0) - low + 1)
                codes, inverse = np.unique(
                    np.ravel_multi_index((args - low).T, dims), return_inverse=True
                )
                keys = np.stack(np.unravel_index(codes, dims), axis=1) + low
                values = np.array([fn(*key) for key in keys.tolist()])
                shift = values[inverse.reshape(-1)]
            out[:, self.axis_order[j]] = shift + k[:, j]
        return out


@dataclass(frozen=True)
class ExplicitSpectrum:
    """A finite, explicitly listed frequency set."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("explicit spectrum needs at least one point")
        if pts.ndim != 2:
            raise ValueError("explicit spectrum points must be a (P, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("explicit spectrum points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


SpectrumSpec = Union[TranslatedLattice, Tower, ExplicitSpectrum]


def spectrum_points(
    spec: SpectrumSpec, ranges: tuple[tuple[int, int], ...], period: Optional[int]
) -> np.ndarray:
    """The family's points at the index tuples of a box, in row order.

    `ranges` holds an inclusive integer range per output axis.  With
    `period` N the family is read on the N-torus: tower tables take their
    arguments modulo N, and a lattice offset is reduced modulo 1, which
    leaves alpha + Z^d unchanged.  ExplicitSpectrum ignores the box: it is
    already a finite set.
    """
    if isinstance(spec, ExplicitSpectrum):
        return np.array(spec.points, copy=True)
    if len(ranges) != spec.dimension:
        raise ArityMismatchError(
            f"window has {len(ranges)} axes, spectrum family needs "
            f"{spec.dimension}"
        )
    grids = np.meshgrid(*(np.arange(lo, hi + 1) for lo, hi in ranges), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    if isinstance(spec, TranslatedLattice):
        alpha = spec.alpha if period is None else np.mod(spec.alpha, 1.0)
        return idx + np.asarray(alpha, dtype=float)
    return spec.points_at(idx, period)


def enumerate_spectrum(
    spec: SpectrumSpec, window: Optional[LatticeWindow]
) -> np.ndarray:
    """The family's points over the window, an (cardinality, d) array; an
    ExplicitSpectrum needs no window."""
    return spectrum_points(spec, () if window is None else window.ranges, None)


def spectrum_difference_set(points: np.ndarray) -> np.ndarray:
    """All ordered pairwise differences lam - lam' over distinct points.

    Duplicates are retained (callers may dedupe); a list of n points yields
    n*(n-1) difference vectors.  Raises on empty input.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("difference set of an empty point list")
    n = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    mask = ~np.eye(n, dtype=bool)
    return diffs[mask].reshape(n * (n - 1), pts.shape[1])
