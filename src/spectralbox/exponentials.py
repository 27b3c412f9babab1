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
from .model import ArityMismatchError, Domain, IntervalUnion, UnitCube
from .model import group_bits, group_codes

# no function here calls it, but perfbench/spans.py wraps it by its name in
# this module, so the name stays bound
from .model import enumerate_spectrum  # noqa: F401

__all__ = [
    "eval_F_omega",
    "f_omega_quadrature",
    "in_zero_set_cube_many",
    "GramMatrix",
    "gram_matrix",
    "check_pair_size",
    "OrthogonalityReport",
    "orthogonality_verdict",
    "PLATEAU_THRESHOLD",
    "CompletenessReport",
    "completeness_probe",
    "RootScanReport",
    "unit_circle_root_scan",
    "check_scan_size",
    "MAX_SCAN_TERMS",
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
    """Inner-product matrix of exponentials labeled by spectrum points.

    entries is table[index]: table holds one value per distinct tuple of
    per-axis difference codes, and index the tuple of each entry.
    axes holds, per axis, (differences, code, slot): the distinct
    differences of the axis's distinct coordinates, the index of each
    such difference into them, and the coordinate slot of each point, so
    the axis coordinate of point_k - point_j is
    differences[code[slot[j], slot[k]]].
    """

    entries: np.ndarray
    labels: np.ndarray
    table: np.ndarray
    index: np.ndarray
    axes: tuple


def gram_matrix(domain: Domain, points: np.ndarray) -> GramMatrix:
    """Gram matrix G[j,k] = F(point_k - point_j); diagonal is the measure.

    Equal, bit for bit, to eval_F_omega on the P x P x d table of
    differences, but each axis's factor transform runs once per distinct
    difference, and the factors are multiplied once per distinct tuple of
    them.  Every grouping is model's one rule: group_bits groups an axis's
    coordinates, then the u x u table of differences of the u distinct
    ones, and group_codes folds the axes one at a time into a dense code
    per entry, over the span of the codes so far times the axis's count
    of differences, so a code stays below P^2 times that count.  A
    difference is the same float subtraction as in the dense table and
    the transform is elementwise, so every factor is that of the dense
    table; the factors of a tuple are multiplied as eval_F_omega
    multiplies them.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("gram matrix of an empty point list")
    _check_arity(domain, pts)
    axes, factors = [], []
    for factor, column in zip(domain.factors, pts.T):
        coords, slot = group_bits(column)
        diffs, code = group_bits(coords[None, :] - coords[:, None])
        # fewer than P^2 < 2^31 differences at any P whose Gram fits in memory
        axes.append((diffs, code.astype(np.int32), slot))
        factors.append(_factor_transform(factor, diffs.astype(complex)))
    # the first axis's codes are dense: a difference is one of two points
    (diffs, code, slot), *rest = axes
    key, parts = np.take(code[slot], slot, axis=1), np.arange(diffs.size)[:, None]
    for diffs, code, slot in rest:
        # each entry's mixed-radix code after this axis, made dense
        entry = np.take(code[slot], slot, axis=1)
        seen, key = group_codes(key.astype(np.intp, copy=False) * diffs.size + entry,
                                parts.shape[0] * diffs.size)
        parts = np.column_stack((parts[seen // diffs.size], seen % diffs.size))
    stacked = np.empty(parts.shape, dtype=complex)
    for a, f in enumerate(factors):
        stacked[:, a] = np.take(f, parts[:, a])
    table = np.prod(stacked, axis=-1)
    return GramMatrix(
        entries=np.take(table, key), labels=pts, table=table, index=key,
        axes=tuple(axes),
    )


# verify-pair's Gram, its codes and the writer of gram.txt: 192 + 48 d
# bytes per entry of the P x P table covers the worst case measured.  Peak
# RSS over the import baseline at P = 1 331 was 33-49 B for lattice windows
# (d = 1-3), 76 B for a random class-a window, and 162/191/235/335 B for
# explicit sets whose coordinate differences all differ, d = 1/2/3/4
# (x86-64, glibc, numpy 2.4).  The explicit sets set the price, through
# the sort in gram_matrix's fold; the writer streams gram.txt in blocks
# and stays below that peak
MAX_PAIR_BYTES = 2**30


def check_pair_size(points: int, dimension: int) -> None:
    """Raise ValueError unless a verify-pair run fits MAX_PAIR_BYTES."""
    need = points * points * (192 + 48 * dimension)
    if need > MAX_PAIR_BYTES:
        raise ValueError(
            f"{points} points in dimension {dimension} need up to {need} bytes "
            f"for the Gram matrix, its codes and its text, more than "
            f"{MAX_PAIR_BYTES}"
        )


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
    domain: Domain, points: np.ndarray, test_functions: Sequence[np.ndarray]
) -> CompletenessReport:
    """Parseval ratio sum |<e_lam, f>|^2 / (|f|^2 * measure) per test state,
    over the (P, d) frequency array `points`.

    Each test state is a grid state: samples at i/n on each axis, which
    must be finite.  Ratios increase toward 1 with the window when the
    family is total; missing frequencies leave a plateau strictly below 1.
    Only unit-cube domains carry the grid sampling this probe relies on.
    """
    if domain != UnitCube(domain.dimension):
        raise TypeError("completeness probe requires a unit-cube domain")
    slots = [group_bits(column) for column in points.T]
    phases_of: dict = {}  # the per-axis (points, samples) phases per grid shape
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
        if f.shape not in phases_of:
            # exp per distinct coordinate, gathered to the points' rows
            phases_of[f.shape] = [
                np.exp(2j * np.pi * coords[:, None] * grid_coords(n)).conj()[slot]
                for (coords, slot), n in zip(slots, f.shape)
            ]
        # <e_lam, f> = sum_x w(x) f(x) prod_j conj(exp(i 2 pi lam_j x_j)):
        # weight the samples once, then contract one axis at a time with
        # that axis's (points, samples) phase matrix, axis 0 as one matmul
        first, *rest = phases_of[f.shape]
        weighted = grid_weight(f.shape) * f
        coeffs = (first @ weighted.reshape(weighted.shape[0], -1)).reshape(
            points.shape[:1] + weighted.shape[1:]
        )
        for phases in rest:
            coeffs = np.einsum("pi...,pi->p...", coeffs, phases)
        # summed in point order, as a per-point accumulation would
        captured = float(np.cumsum(np.abs(coeffs) ** 2)[-1])
        ratios.append(captured / (norm2 * domain.measure))
    return CompletenessReport(tuple(ratios))


_SCAN_CHUNK = 2**16  # angles evaluated at once by the root scan
_SCAN_STRIDE = 128  # samples from one knot of the root scan to the next
# Horner steps of root-scan's rescan of 2 * samples angles, degree + 1 an
# angle, when |p| is constant on the circle and no interval can be skipped.
# At the cap, scan and rescan took 1.7 s at degree 6 and 9.5 s at degree 0,
# where exp dominates (one core, x86-64); a degree-6 scan of 10^6 samples
# needs 1.4e7
MAX_SCAN_TERMS = 2**27


@dataclass(frozen=True)
class RootScanReport:
    min_modulus: float
    argmin_angle: float
    samples: int


def check_scan_size(degree: int, samples: int) -> None:
    """Raise ValueError unless root-scan's rescan fits MAX_SCAN_TERMS."""
    terms = 2 * samples * (degree + 1)
    if terms > MAX_SCAN_TERMS:
        raise ValueError(
            f"{samples} samples of a degree-{degree} polynomial need {terms} "
            f"Horner steps for the rescan at twice the samples, more than "
            f"{MAX_SCAN_TERMS}"
        )


def _poly_on_circle(coefficients: np.ndarray, theta: np.ndarray) -> np.ndarray:
    z = np.exp(1j * theta)
    acc = np.zeros_like(z)
    for c in coefficients[::-1]:
        acc = acc * z + c
    return acc


def _angles(indices: np.ndarray, samples: int) -> np.ndarray:
    return 2.0 * np.pi * indices / samples


def _first_min(a: tuple, b: tuple) -> tuple:
    """Of two (modulus, index, angle) entries, the one np.argmin picks over
    their moduli in index order: the smaller, the earlier on a tie, a NaN."""
    pair = sorted((a, b), key=lambda entry: entry[1])
    return pair[int(np.argmin([entry[0] for entry in pair]))]


def _knot_batch(
    coeffs: np.ndarray, lo: int, samples: int, best: tuple, lipschitz: float,
    slack: float,
) -> tuple[tuple, np.ndarray]:
    """Knots from index lo, every _SCAN_STRIDE-th and the last, at most
    _SCAN_CHUNK + 1 of them: `best` updated with their first least modulus,
    and the runs [a, b] of samples, knot to knot, whose bound can reach it."""
    hi = min(lo + _SCAN_CHUNK * _SCAN_STRIDE, samples - 1)
    knots = np.append(np.arange(lo, hi, _SCAN_STRIDE), hi)
    theta = _angles(knots, samples)
    f = np.abs(_poly_on_circle(coeffs, theta))
    i = int(np.argmin(f))
    best = _first_min(best, (f[i], int(knots[i]), theta[i]))
    lower = 0.5 * (f[:-1] + f[1:] - lipschitz * np.diff(theta)) - slack
    live = np.concatenate(([False], ~(lower > best[0]), [False]))
    return best, knots[np.flatnonzero(live[1:] != live[:-1])].reshape(-1, 2)


def _scan_minimum(coeffs: np.ndarray, samples: int) -> tuple[float, float]:
    """First least |p| over the angles 2 pi j / samples, and its angle.

    Equal, bit for bit, to evaluating every angle, though only the knots
    and the samples a bound cannot exclude are evaluated, by the same
    expression.  |p(e^{it})| is Lipschitz in t with L = sum j |c_j|, so
    between knots at angles t_a < t_b it is at least
    (|p|(t_a) + |p|(t_b) - L (t_b - t_a)) / 2; the computed angles increase
    with the index.  A computed |p| is within (4 n + 6) u sum |c_j| + 5 u L
    of the exact value at its angle (degree n, u = 2^-53: the complex
    Horner steps, exp and the modulus).  `slack` is over five times what a
    knot, a sample and the bound's own rounding can add up to, so a sample
    between knots whose bound exceeds the least modulus found so far lies
    above it, and skipping it changes neither the minimum nor its first
    index.  A NaN bound skips nothing, and neither does a coefficient sum
    past 2^1000, where Horner could overflow.
    """
    n = coeffs.size - 1
    moduli = np.abs(coeffs)
    lipschitz = float(np.arange(n + 1) @ moduli)
    scale = (n + 2) * (float(moduli.sum()) + lipschitz)
    slack = 32 * np.finfo(float).eps * scale if scale < 2.0**1000 else np.inf
    best = (np.inf, samples, np.inf)  # loses to any sample
    for lo in range(0, samples - 1, _SCAN_CHUNK * _SCAN_STRIDE):
        best, runs = _knot_batch(coeffs, lo, samples, best, lipschitz, slack)
        # each run as the dense scan runs, in chunks, in index order
        for a, b in runs:
            for start in range(a, b + 1, _SCAN_CHUNK):
                stop = min(start + _SCAN_CHUNK, b + 1)
                theta = _angles(np.arange(start, stop), samples)
                mods = np.abs(_poly_on_circle(coeffs, theta))
                i = int(np.argmin(mods))
                best = _first_min(best, (mods[i], start + i, theta[i]))
    return best[0], best[2]


def unit_circle_root_scan(
    coefficients: Sequence[complex], samples: int = 4096
) -> RootScanReport:
    """Minimum modulus of a polynomial on |z| = 1, coarse-to-fine.

    Coefficients are ascending (constant term first).  An equispaced scan
    of `samples` angles locates the coarse minimum.  Every _SCAN_STRIDE-th
    angle is evaluated, and of the others only those that the Lipschitz
    bound L = sum j |c_j|, less a rounding slack of
    32 eps (degree + 2) (sum |c_j| + L), cannot place above the least
    modulus found so far (see _scan_minimum).  The coarse minimum and its
    angle, the first on ties, are therefore those of evaluating every
    angle, bit for bit, and memory stays within about _SCAN_CHUNK angles
    for any `samples`.  Golden-section refinement around the coarse
    minimum returns a stable minimum, which is all that is needed for a
    positive lower bound with margin (no root finder involved).
    """
    coeffs = np.asarray(list(coefficients), dtype=complex)
    if coeffs.size == 0:
        raise ValueError("empty coefficient list")
    if samples < 16:
        raise ValueError("samples must be >= 16")
    coarse, theta0 = _scan_minimum(coeffs, samples)
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
