"""Shared domain types and the candidate-spectrum families.

Everything here is an immutable value object: domains carrying Lebesgue
measure, windowed index sets, and the frequency sets that the rest of the
package analyzes.  A domain is one type, the product of 1-D interval-union
factors; UnitCube(d) builds the product of d unit intervals.  A frequency
set is one of two types: a Tower, the one staircase family (the lattice
alpha + Z^d is the tower of constant levels alpha_j mod 1), or an
ExplicitSpectrum, a listed point set; each gives its points over an index
box by points_on.  IntFunction.on_box is the one reader of a phase table
over a box, for a tower's points and its boundary eigenvalues alike.  All
exponentials in the package use the normalization e(x) = exp(i*2*pi*lam.x),
so spectra live on the same scale as the frequency parameters stored here.
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
    "Tower",
    "ExplicitSpectrum",
    "SpectrumSpec",
    "enumerate_spectrum",
    "spectrum_difference_set",
]


class SpectralBoxError(Exception):
    """Base class for errors raised by this package."""


class ArityMismatchError(SpectralBoxError):
    """Argument count / dimension does not match the declared arity."""


class WindowCapError(SpectralBoxError):
    """A lattice window has more than MAX_WINDOW_CARDINALITY points."""


def group_codes(codes: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(codes, return_inverse=True), the inverse shaped as codes,
    for integer codes in [0, span): the package's one grouping rule.  A
    span of at most 16 codes an entry is marked in a table of flags and
    ranked, with no sort; a wider one is sorted."""
    if span > 16 * codes.size:
        keys, inverse = np.unique(codes, return_inverse=True)
        return keys, inverse.reshape(codes.shape)
    present = np.zeros(span, dtype=bool)
    present[codes] = True
    keys = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.int32 if span < 2**31 else np.intp)
    rank[keys] = np.arange(keys.size)
    return keys.astype(codes.dtype, copy=False), np.take(rank, codes)


def group_bits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """group_codes of the float64 bit patterns of values over a 2^64 span,
    the keys viewed as float64: -0.0 is not 0.0, NaN payloads stay apart,
    and on non-negative values bit order is value order."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    keys, inverse = group_codes(bits, 2**64)
    return keys.view(np.float64), inverse


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
# Integer-argument functions and windows
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
    if not all(-(2**63) <= k < 2**63 for k in tup):  # on_box reads keys as int64
        raise ValueError(f"table key {key!r} has an index outside int64")
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

    def on_box(
        self, ranges: tuple[tuple[int, int], ...], axes: tuple[int, ...], period=None
    ) -> np.ndarray:
        """The value at every index tuple of an inclusive box, the one
        reader of a table over a box.

        Argument i is the index on box axis axes[i], modulo `period` when
        one is given.  The array has the box's length on `axes` and 1 on
        every other axis.  The default fills it and each table entry inside
        the box (or its residues) is placed; the function is never called.
        """
        if len(axes) != self.arity:
            raise ArityMismatchError(f"{self.arity} arguments read off {len(axes)} axes")
        spans = [ranges[a] for a in axes]
        if period is not None:
            residues = [np.arange(lo, hi + 1) % period for lo, hi in spans]
            spans = [(int(r.min()), int(r.max())) for r in residues]
        lows = [lo for lo, _ in spans]
        values = np.full([hi - lo + 1 for lo, hi in spans], self.default)
        if self.table:
            keys = np.array(list(self.table)) - lows
            inside = np.all((keys >= 0) & (keys < values.shape), axis=1)
            values[tuple(keys[inside].T)] = np.array(list(self.table.values()))[inside]
        if period is not None:
            values = values[np.ix_(*(r - lo for r, lo in zip(residues, lows)))]
        if self.arity > 1:
            values = values.transpose(np.argsort(axes))
        return np.expand_dims(values, [a for a in range(len(ranges)) if a not in axes])

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


# ---------------------------------------------------------------------------
# Spectrum families
# ---------------------------------------------------------------------------


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

    def points_on(
        self, ranges: tuple[tuple[int, int], ...], period: Optional[int] = None
    ) -> np.ndarray:
        """Points at every index tuple of an inclusive box, a
        (cardinality, d) array in the box's row-major order.

        `ranges` holds an inclusive integer range per output axis.  With
        `period` N the tower is read on the N-torus: level tables take
        their arguments modulo N.  Coordinate axis_order[j] is level j's
        box array (IntFunction.on_box) plus that axis's index.
        """
        d = self.dimension
        if len(ranges) != d:
            raise ArityMismatchError(
                f"window has {len(ranges)} axes, spectrum family needs {d}"
            )
        index = np.ix_(*(np.arange(lo, hi + 1) for lo, hi in ranges))
        out = np.empty([hi - lo + 1 for lo, hi in ranges] + [d])
        for j, level in enumerate(self.levels):
            axis = self.axis_order[j]
            values = level.on_box(ranges, self.axis_order[:j], period)
            out[..., axis] = values + index[axis]
        return out.reshape(-1, d)


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

    def points_on(self, ranges, period=None) -> np.ndarray:
        """A copy of the points: the set is already finite, so the box and
        the period are not read."""
        return np.array(self.points, copy=True)


SpectrumSpec = Union[Tower, ExplicitSpectrum]


def enumerate_spectrum(
    spec: SpectrumSpec, window: Optional[LatticeWindow]
) -> np.ndarray:
    """The family's points over the window, an (cardinality, d) array; an
    ExplicitSpectrum needs no window."""
    return spec.points_on(() if window is None else window.ranges)


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
