"""Geometry of uniform periodic grids over the unit box.

A grid state is a complex ndarray of samples at i/n on each axis, with no
right endpoint.  The quadrature is the rectangle rule, with one constant
weight per grid, and shifted exponential modes stay exactly orthogonal on
the grid, which is what the group actions and probes rely on.  The
sample positions, the weight and the norm are grid_coords, grid_weight
and grid_norm.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "fft_mode_indices",
    "grid_coords",
    "grid_norm",
    "grid_weight",
    "twisted_analysis",
    "twisted_synthesis",
]


def grid_coords(n: int) -> np.ndarray:
    """Sample positions i/n, i < n, of one grid axis."""
    return np.arange(n) / n


def grid_weight(shape: tuple) -> float:
    """Rectangle-rule weight of every sample of a grid of this shape."""
    w = 1.0
    for n in shape:
        w *= 1.0 / n
    return w


def grid_norm(values: np.ndarray) -> float:
    """Quadrature L2 norm of the samples of a grid state."""
    w = grid_weight(values.shape)
    return float(np.sqrt(np.sum(w * np.abs(values) ** 2)))


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

    Samples are assumed at x = j/n, as on every grid state.  The returned
    array holds coefficients in FFT mode order; for band-limited data the
    analysis is exact (shifted modes stay exactly orthogonal on the grid).
    Any other axes are batch axes.  At shift 0 the phase is exactly one
    and the multiply is skipped.  The scaling multiplies the real and
    imaginary parts by 1/n, which gives the bits of numpy's complex
    division by n but for the sign of a zero part.
    """
    n = values.shape[axis]
    if shift:
        values = values * _along(_phase(n, shift, -1), values.ndim, axis)
    coeffs = np.fft.fft(values, axis=axis)
    coeffs.view(float)[...] *= 1.0 / n
    return coeffs


def twisted_synthesis(coeffs: np.ndarray, axis: int, shift: float) -> np.ndarray:
    """Inverse of twisted_analysis (same mode ordering)."""
    n = coeffs.shape[axis]
    values = np.fft.ifft(coeffs, axis=axis)
    values *= n
    if shift:
        values *= _along(_phase(n, shift, 1), values.ndim, axis)
    return values
