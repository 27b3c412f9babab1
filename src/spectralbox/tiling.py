"""Finite-torus tiling checks for cube translates, plus figure output.

A candidate translation set covers the torus window [0,N)^d with half-open
unit cubes; the multiplicity map counts covering translates per sample
point.  Samples that land on a cube face (measure zero) are excluded from
verdicts.  Tables indexing the translation families are used N-periodically
inside the window, a desk-scale surrogate for the full-space statement,
and reports label it as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .model import SpectralBoxError, SpectrumSpec, Tower
from .reporting import write_svg

MAX_SAMPLES = 2**24  # multiplicity map samples, 128 MiB of int64 counts
_FACE_EPS = 1e-9  # samples this close to a cube face are excluded

__all__ = [
    "torus_translates",
    "MultiplicityMap",
    "multiplicity_map",
    "check_window",
    "MAX_SAMPLES",
    "TilingReport",
    "tiling_verdict",
    "emit_tiling_svg",
]


def torus_translates(spec: SpectrumSpec, torus_n: int, pad: int = 1) -> np.ndarray:
    """Translation points covering [0,N)^d, padded `pad` cubes beyond.

    The family is read N-periodically, see `Tower.points_on`.
    """
    if torus_n < 1:
        raise ValueError("torus window must be >= 1")
    box = ((-pad, torus_n + pad - 1),) * spec.dimension
    return spec.points_on(box, torus_n)


@dataclass(frozen=True)
class MultiplicityMap:
    """Covering counts over the sampled torus window."""

    counts: np.ndarray
    face_mask: np.ndarray

    def off_face_counts(self) -> np.ndarray:
        return self.counts[~self.face_mask]


def check_window(torus_n: int, resolution: int, dimension: int) -> None:
    """Raise ValueError unless a multiplicity map of this size is sensible.

    The window must hold at least one unit cube, the resolution at least
    8 samples per unit, and the map at most MAX_SAMPLES samples.
    """
    if torus_n < 1:
        raise ValueError("torus window must be >= 1")
    if resolution < 8:
        raise ValueError("resolution below 8 samples per unit is too coarse")
    samples = (torus_n * resolution) ** dimension
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"a {dimension}-D window of {torus_n} units at resolution "
            f"{resolution} has {samples} samples, more than {MAX_SAMPLES}"
        )


def _axis_spans(axis: np.ndarray, coords: np.ndarray, resolution: int):
    """Sample range [lo, hi) and face hits of every translate on one axis.

    The expressions are those of the full-grid mask, evaluated on the
    res + 5 samples around each translate's coordinate, which always hold
    its half-open unit range.  Returns lo, hi, the face flags of the
    covered samples as a (P, res + 5) array whose row i holds sample lo[i]
    at column first[i], and first.
    """
    n = axis.size
    width = resolution + 5
    # a translate beyond [-2, N + 1] covers no sample; clipping keeps the
    # index arithmetic finite for far-away points
    near = np.clip(coords, -2.0, n / resolution + 1.0)
    start = np.floor(near * resolution).astype(int) - 2
    idx = start[:, None] + np.arange(width)
    u = axis[np.clip(idx, 0, n - 1)] - coords[:, None]
    inside = (u >= 0.0) & (u < 1.0) & (idx >= 0) & (idx < n)
    face = (np.abs(u) < _FACE_EPS) | (np.abs(u - 1.0) < _FACE_EPS)
    first = np.argmax(inside, axis=1)
    lo = start + first
    hi = lo + np.count_nonzero(inside, axis=1)
    return lo, hi, face & inside, first


def multiplicity_map(
    spec: SpectrumSpec, torus_n: int, resolution: int
) -> MultiplicityMap:
    """Count covering translates at half-cell sample points.

    `spec` is a spectrum family, periodized over the window, or an
    ExplicitSpectrum of translation points, in any dimension.  Resolution
    is samples per unit length; the limits of `check_window` apply.
    Sample i on each axis sits at (i + 0.5) / resolution.  A translate p
    covers the samples with 0 <= x_j - p_j < 1 on every axis j, and the
    covered ones within 1e-9 of a face are flagged.  Each translate
    touches only its own block of at most resolution^d samples, so the
    cost is P * resolution^d plus one pass over the map.
    """
    check_window(torus_n, resolution, spec.dimension)
    points = torus_translates(spec, torus_n)
    d = points.shape[1]
    n_samples = torus_n * resolution
    axis = (np.arange(n_samples) + 0.5) / resolution
    counts = np.zeros((n_samples,) * d, dtype=int)
    on_face = np.zeros((n_samples,) * d, dtype=bool)
    spans = [
        _axis_spans(axis, points[:, j], resolution) for j in range(d)
    ]
    los = np.stack([s[0] for s in spans], axis=1)
    his = np.stack([s[1] for s in spans], axis=1)
    hits = np.stack([s[2].any(axis=1) for s in spans], axis=1)
    for i in np.flatnonzero(np.all(his > los, axis=1)).tolist():
        block = tuple(map(slice, los[i].tolist(), his[i].tolist()))
        counts[block] += 1
        for j in np.flatnonzero(hits[i]).tolist():
            _, _, face, first = spans[j]
            row = face[i, first[i] : first[i] + his[i, j] - los[i, j]]
            shape = [1] * d
            shape[j] = row.size
            on_face[block] |= row.reshape(shape)
    return MultiplicityMap(counts, on_face)


@dataclass(frozen=True)
class TilingReport:
    tiles: bool
    overlap_fraction: float
    gap_fraction: float
    n_excluded: int


def tiling_verdict(mp: MultiplicityMap) -> TilingReport:
    """Tiles iff every off-face sample is covered exactly once.  A map with
    no off-face sample judges nothing, an input error (SpectralBoxError)."""
    counts = mp.off_face_counts()
    total = counts.size
    if total == 0:
        raise SpectralBoxError("no off-face samples to judge")
    gaps = int(np.count_nonzero(counts == 0))
    overlaps = int(np.count_nonzero(counts >= 2))
    return TilingReport(
        tiles=bool(gaps == 0 and overlaps == 0),
        overlap_fraction=overlaps / total,
        gap_fraction=gaps / total,
        n_excluded=int(np.count_nonzero(mp.face_mask)),
    )


_UNIT = 54  # pixels per unit length, matching the familiar figure scale


def _fmt(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def emit_tiling_svg(
    spec: SpectrumSpec, torus_n: int, sink: Union[str, IO[bytes], None] = None
) -> bytes:
    """Deterministic SVG of the translated unit squares over the window.

    Staircases are annotated with the successive differences of their
    level-1 shift between neighboring columns (rows when level 0 lies on
    the second axis), in the style of staggered-tiling diagrams.
    """
    points = torus_translates(spec, torus_n)
    if points.shape[1] != 2:
        raise ValueError("tiling figures are two-dimensional")
    lo, hi = -1.0, torus_n + 1.0
    span = hi - lo
    size = span * _UNIT

    def sx(x: float) -> float:
        return (x - lo) * _UNIT

    def sy(y: float) -> float:
        return (hi - y) * _UNIT  # flip: SVG y grows downward

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<rect x="0" y="0" width="{_fmt(size)}" height="{_fmt(size)}" '
        'fill="white"/>',
    ]
    order = np.lexsort((points[:, 1], points[:, 0]))
    for p in points[order]:
        parts.append(
            f'<rect x="{_fmt(sx(p[0]))}" y="{_fmt(sy(p[1] + 1.0))}" '
            f'width="{_fmt(_UNIT)}" height="{_fmt(_UNIT)}" fill="none" '
            'stroke="black" stroke-width="1"/>'
        )
    if isinstance(spec, Tower):
        offset, shift = spec.levels
        for m in range(0, torus_n - 1):
            d = shift((m + 1) % torus_n) - shift(m % torus_n)
            label = f"d{m} = {_fmt(d)}"
            along = offset() + m + 1.0
            if spec.axis_order[0] == 0:
                tx, ty = sx(along), sy(torus_n + 0.3)
            else:
                tx, ty = sx(torus_n + 0.1), sy(along)
            parts.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" font-size="11" '
                f'font-family="monospace" fill="black">{label}</text>'
            )
    return write_svg(parts, sink)
