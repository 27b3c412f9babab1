"""Sampled complex states on uniform periodic grids over the unit box.

Samples sit at i/n on each axis, with no right endpoint: the quadrature is
the rectangle rule, and shifted exponential modes stay exactly orthogonal
on the grid, which is what the group actions and probes rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridState",
    "fft_mode_indices",
    "grid_norm",
    "twisted_analysis",
    "twisted_synthesis",
]


@dataclass(frozen=True)
class GridState:
    """A complex-valued function sampled at i/n on each axis of I^d."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")

    @property
    def dimension(self) -> int:
        return self.values.ndim

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return np.arange(n) / n

    def axis_weights(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return np.full(n, 1.0 / n)

    def weight_tensor(self) -> np.ndarray:
        """Product quadrature weights, one entry per sample."""
        w = self.axis_weights(0)
        for axis in range(1, self.dimension):
            w = np.multiply.outer(w, self.axis_weights(axis))
        return w

    def _check_same_grid(self, other: "GridState") -> None:
        if other.values.shape != self.values.shape:
            raise ValueError("grid shapes differ")

    def inner(self, other: "GridState") -> complex:
        """Quadrature of conj(self) * other with this grid's weights."""
        self._check_same_grid(other)
        return complex(
            np.sum(self.weight_tensor() * np.conj(self.values) * other.values)
        )

    def norm(self) -> float:
        return grid_norm(self.weight_tensor(), self.values)

    def scaled(self, factor: complex) -> "GridState":
        return GridState(self.values * factor)

    def __add__(self, other: "GridState") -> "GridState":
        self._check_same_grid(other)
        return GridState(self.values + other.values)

    def __sub__(self, other: "GridState") -> "GridState":
        self._check_same_grid(other)
        return GridState(self.values - other.values)


def grid_norm(weights: np.ndarray, values: np.ndarray) -> float:
    """Quadrature L2 norm of raw samples under the given weight tensor."""
    return float(np.sqrt(np.sum(weights * np.abs(values) ** 2).real))


def fft_mode_indices(n: int) -> np.ndarray:
    """Integer mode labels in numpy FFT order: 0..n/2-1, -n/2..-1."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


@lru_cache(maxsize=256)
def _phase(n: int, shift: float, sign: int) -> np.ndarray:
    """exp(sign*i*2*pi*shift*j/n) for j < n, computed once (read-only)."""
    j = np.arange(n)
    phase = np.exp(sign * 2j * np.pi * shift * j / n)
    phase.flags.writeable = False
    return phase


def _along(vector: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """`vector` shaped to broadcast along `axis` of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = vector.size
    return vector.reshape(shape)


def twisted_analysis(values: np.ndarray, axis: int, shift: float) -> np.ndarray:
    """Coefficients of `values` against exp(i*2*pi*(k+shift)*x) along `axis`.

    Samples are assumed at x = j/n, as on a GridState.  The returned
    array holds coefficients in FFT mode order; for band-limited data the
    analysis is exact (shifted modes stay exactly orthogonal on the grid).
    Any other axes are batch axes.  At shift 0 the phase is exactly one
    and the multiply is skipped.
    """
    n = values.shape[axis]
    if shift:
        values = values * _along(_phase(n, shift, -1), values.ndim, axis)
    return np.fft.fft(values, axis=axis) / n


def twisted_synthesis(coeffs: np.ndarray, axis: int, shift: float) -> np.ndarray:
    """Inverse of twisted_analysis (same mode ordering)."""
    n = coeffs.shape[axis]
    values = np.fft.ifft(coeffs, axis=axis) * n
    if shift:
        values *= _along(_phase(n, shift, 1), values.ndim, axis)
    return values
