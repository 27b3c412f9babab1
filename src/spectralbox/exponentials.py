"""Box transforms of exponentials: zero sets, Gram matrices, completeness.

The central object is the complex function F(z) = integral over the domain
of exp(i*2*pi*z.x); orthogonality of two exponentials e_a, e_b is exactly
membership of a-b in its zero set.  A domain is a product of 1-D interval
unions, so F is the product over the axes of the factor transforms, each a
closed-form sum of L*exp(i*pi*z*(a+b))*sin(pi*z*L)/(pi*z*L) over the
factor's intervals (a, b) of length L; the unit cube has one unit interval
per axis.  A Gauss-Legendre quadrature route is kept alongside as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .grid import grid_coords, grid_norm, grid_weight
from .model import (
    ArityMismatchError,
    Domain,
    IntervalUnion,
    LatticeWindow,
    SpectrumSpec,
    UnitCube,
    enumerate_spectrum,
)

__all__ = [
    "eval_F_omega",
    "f_omega_quadrature",
    "in_zero_set_cube_many",
    "GramMatrix",
    "gram_matrix",
    "OrthogonalityReport",
    "orthogonality_verdict",
    "PLATEAU_THRESHOLD",
    "CompletenessReport",
    "completeness_probe",
    "RootScanReport",
    "unit_circle_root_scan",
]


def _sinc_pi(z: np.ndarray) -> np.ndarray:
    """sin(pi z)/(pi z) on complex arrays, = 1 at z = 0."""
    z = np.asarray(z, dtype=complex)
    w = np.pi * z
    small = np.abs(w) < 1e-6
    safe = np.where(small, 1.0, w)
    out = np.sin(safe) / safe
    # two series terms keep full double precision inside the cutoff
    series = 1.0 - w**2 / 6.0 + w**4 / 120.0
    return np.where(small, series, out)


def _factor_transform(factor: IntervalUnion, z: np.ndarray) -> np.ndarray:
    """Transform of a 1-D interval union, elementwise over the array z."""
    # midpoint-factored antiderivative: length * e^{i pi z (a+b)} *
    # sin(pi z L)/(pi z L); free of the cancellation the raw difference
    # quotient suffers near z = 0.  The sum starts from its first term, not
    # from 0, so a one-interval factor is its term exactly, signed zeros too.
    terms = (
        (b - a) * np.exp(1j * np.pi * z * (a + b)) * _sinc_pi(z * (b - a))
        for a, b in factor.intervals
    )
    return sum(terms, next(terms))


def _check_arity(domain: Domain, z: np.ndarray) -> None:
    if z.shape[-1] != domain.dimension:
        raise ArityMismatchError(
            f"z has {z.shape[-1]} coordinates, domain dimension is "
            f"{domain.dimension}"
        )


def eval_F_omega(domain: Domain, z: Sequence[complex]) -> complex | np.ndarray:
    """Exact transform of the domain's indicator at frequency vector z.

    z is one vector (a complex number is returned) or a (..., d) stack (an
    array of shape (...) is returned).  The transform of a product domain
    is the product of its factor transforms.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_arity(domain, z)
    factors = np.stack(
        [_factor_transform(f, z[..., j]) for j, f in enumerate(domain.factors)],
        axis=-1,
    )
    out = np.prod(factors, axis=-1)
    return complex(out) if z.ndim == 1 else out


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl_segment(f, a: float, b: float, quad_n: int) -> complex:
    nodes, weights = _leggauss(quad_n)
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    w = 0.5 * (b - a) * weights
    return complex(np.sum(w * f(x)))


def f_omega_quadrature(
    domain: Domain, z: Sequence[complex], quad_n: int = 2048
) -> complex:
    """Quadrature oracle for eval_F_omega (independent of the closed forms).

    The domain is a product, so Gauss-Legendre with quad_n nodes is applied
    per interval of each factor, and the factor integrals are multiplied.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_arity(domain, z)
    acc = 1.0 + 0.0j
    for zj, factor in zip(z, domain.factors):
        acc *= sum(
            _gl_segment(lambda x: np.exp(2j * np.pi * zj * x), a, b, quad_n)
            for a, b in factor.intervals
        )
    return complex(acc)


def in_zero_set_cube_many(
    d: int, zs: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Membership of each row of a (P, d) array in the cube's zero set.

    A point is in the zero set iff some coordinate sits within tol of a
    nonzero integer (real part near the integer, imaginary part near
    zero).  The tolerance accommodates floating-point spectra assembled
    from tables.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    if zs.shape[-1] != d:
        raise ArityMismatchError(
            f"expected {d} coordinates, got {zs.shape[-1]}"
        )
    re = zs.real
    nearest = np.round(re)
    hits = (
        (np.abs(zs.imag) <= tol)
        & (np.abs(re - nearest) <= tol)
        & (nearest != 0)
    )
    return np.any(hits, axis=-1)


@dataclass(frozen=True)
class GramMatrix:
    """Inner-product matrix of exponentials labeled by spectrum points."""

    entries: np.ndarray
    labels: np.ndarray
    domain: Domain

    def max_offdiag(self) -> float:
        off = self.entries.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.max(np.abs(off))) if off.size else 0.0

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


def gram_matrix(domain: Domain, points: np.ndarray) -> GramMatrix:
    """Gram matrix G[j,k] = F(point_k - point_j); diagonal is the measure."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("gram matrix of an empty point list")
    entries = eval_F_omega(domain, pts[None, :, :] - pts[:, None, :])
    return GramMatrix(entries=entries, labels=pts, domain=domain)


@dataclass(frozen=True)
class OrthogonalityReport:
    is_orthogonal: bool
    worst_offdiag: float
    witness: Optional[tuple[np.ndarray, np.ndarray]]
    n_points: int


def orthogonality_verdict(
    gram: GramMatrix, tol: float = 1e-10
) -> OrthogonalityReport:
    """Pairwise-orthogonality check of the exponentials a Gram labels."""
    pts = gram.labels
    off = np.abs(gram.entries)
    np.fill_diagonal(off, 0.0)
    worst = float(off.max()) if off.size else 0.0
    if worst < tol or pts.shape[0] == 1:
        return OrthogonalityReport(True, worst, None, pts.shape[0])
    j, k = np.unravel_index(int(np.argmax(off)), off.shape)
    return OrthogonalityReport(False, worst, (pts[j], pts[k]), pts.shape[0])


# the ratio above which rendered reports say a probe looks complete; a
# documented heuristic, not a theorem
PLATEAU_THRESHOLD = 0.95


@dataclass(frozen=True)
class CompletenessReport:
    """Captured-energy ratios; totality is a limit, never a boolean.

    Reports compare the ratios with PLATEAU_THRESHOLD, a heuristic.
    """

    ratios: tuple[float, ...]


def completeness_probe(
    domain: Domain,
    spec: SpectrumSpec,
    window: LatticeWindow,
    test_functions: Sequence[np.ndarray],
) -> CompletenessReport:
    """Parseval ratio sum |<e_lam, f>|^2 / (|f|^2 * measure) per test state.

    Each test state is a grid state: samples at i/n on each axis, which
    must be finite.  Ratios increase toward 1 with the window when the
    family is total; missing frequencies leave a plateau strictly below 1.
    Only unit-cube domains carry the grid sampling this probe relies on.
    """
    if domain != UnitCube(domain.dimension):
        raise TypeError("completeness probe requires a unit-cube domain")
    pts = enumerate_spectrum(spec, window)
    ratios = []
    for f in test_functions:
        f = np.asarray(f, dtype=complex)
        if f.ndim != domain.dimension:
            raise ArityMismatchError("test function dimension mismatch")
        if not np.all(np.isfinite(f)):
            raise ValueError("test function values must be finite")
        norm2 = grid_norm(f) ** 2
        if norm2 <= 0.0:
            raise ValueError("zero-norm test function")
        # <e_lam, f> = sum_x w(x) f(x) prod_j conj(exp(i 2 pi lam_j x_j)):
        # weight the samples once, then contract one axis at a time with
        # that axis's (points, samples) phase matrix, axis 0 as one matmul
        first, *rest = (
            np.exp(2j * np.pi * pts[:, ax, None] * grid_coords(n)).conj()
            for ax, n in enumerate(f.shape)
        )
        weighted = grid_weight(f.shape) * f
        coeffs = (first @ weighted.reshape(weighted.shape[0], -1)).reshape(
            pts.shape[:1] + weighted.shape[1:]
        )
        for phases in rest:
            coeffs = np.einsum("pi...,pi->p...", coeffs, phases)
        # summed in point order, as a per-point accumulation would
        captured = float(np.cumsum(np.abs(coeffs) ** 2)[-1])
        ratios.append(captured / (norm2 * domain.measure))
    return CompletenessReport(tuple(ratios))


_SCAN_CHUNK = 2**16  # angles evaluated at once by the root scan


@dataclass(frozen=True)
class RootScanReport:
    min_modulus: float
    argmin_angle: float
    samples: int


def _poly_on_circle(coefficients: np.ndarray, theta: np.ndarray) -> np.ndarray:
    z = np.exp(1j * theta)
    acc = np.zeros_like(z)
    for c in coefficients[::-1]:
        acc = acc * z + c
    return acc


def unit_circle_root_scan(
    coefficients: Sequence[complex], samples: int = 4096
) -> RootScanReport:
    """Minimum modulus of a polynomial on |z| = 1, coarse-to-fine.

    Coefficients are ascending (constant term first).  An equispaced scan
    locates the coarse minimum; golden-section refinement around it returns
    a stable minimum, which is all that is needed for a positive lower
    bound with margin (no root finder involved).
    """
    coeffs = np.asarray(list(coefficients), dtype=complex)
    if coeffs.size == 0:
        raise ValueError("empty coefficient list")
    if samples < 16:
        raise ValueError("samples must be >= 16")
    # the scan runs in fixed chunks of angles, so its memory does not grow
    # with `samples`; the first-occurrence argmin is kept across chunks
    minima, angles = [], []
    for start in range(0, samples, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, samples)
        theta = 2.0 * np.pi * np.arange(start, stop) / samples
        mods = np.abs(_poly_on_circle(coeffs, theta))
        i = int(np.argmin(mods))
        minima.append(mods[i])
        angles.append(theta[i])
    best = int(np.argmin(minima))
    coarse, theta0 = minima[best], angles[best]
    delta = 2.0 * np.pi / samples
    lo, hi = theta0 - delta, theta0 + delta

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = abs(_poly_on_circle(coeffs, np.array([c]))[0])
    fd = abs(_poly_on_circle(coeffs, np.array([d]))[0])
    for _ in range(120):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = abs(_poly_on_circle(coeffs, np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = abs(_poly_on_circle(coeffs, np.array([d]))[0])
    angle = c if fc < fd else d
    refined = min(fc, fd)
    if refined <= coarse:
        return RootScanReport(float(refined), float(angle % (2 * np.pi)), samples)
    return RootScanReport(float(coarse), float(theta0), samples)
