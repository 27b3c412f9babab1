"""Induced one-parameter unitary groups on the unit square, two ways.

The exact realization reads U(t) off the quasi-periodic extension of a
grid state along one axis, made through the boundary unitary, a
DiagonalBoundary over a phase table (IntFunction) or a MatrixBoundary;
eigenrelation_check reads a DiagonalBoundary's own table and shift.  The
spectral realization assembles the same operator as a truncated matrix
over a window of shifted product Fourier modes, mixing indicator Fourier
coefficients with the boundary eigenvalues.

Convention, fixed once and used everywhere: the action is
(U(t) f)(x) = f(x + t) with the extension f(u + 1) = B f(u), which gives
e_{alpha+m} (x) g the eigenvalue exp(i*2*pi*(alpha+m)*t) under a scalar
boundary operator exp(i*2*pi*alpha) I.  With basis phases (alpha, beta)
both zero, commutativity of the two axis groups is exactly the 2-D
cocycle property of the eigenvalue sequences; nonzero basis phases twist
the sequences by the seam factors exp(-i*2*pi*alpha), exp(-i*2*pi*beta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .cocycles import BoundaryEigenvalues, _lift_box
from .grid import (
    fft_mode_indices,
    grid_coords,
    grid_norm,
    grid_weight,
    twisted_analysis,
    twisted_synthesis,
)
from .model import IntFunction, LatticeWindow, SpectralBoxError

MAX_SPECTRAL_BYTES = 2**28  # the dense spectral matrix, 256 MiB of complex128
MAX_SWEEP_BYTES = 2**28  # the most grid states one check holds, complex128
MAX_SPECTRAL_PROBES = 8  # the probes the spectral check moves as one stack

__all__ = [
    "IncommensurateTimeError",
    "TruncationLeakageError",
    "indicator_fourier_coeffs",
    "DiagonalBoundary",
    "MatrixBoundary",
    "group_action_grid",
    "grid_group_action",
    "TruncatedOperator",
    "group_matrix_spectral",
    "check_sweep_grid",
    "synthesize_window_state",
    "project_to_window",
    "commutator_norm",
    "default_probe_coefficients",
    "EigenRelationReport",
    "eigenrelation_check",
]


class IncommensurateTimeError(SpectralBoxError, ValueError):
    """Translation time is not an integer multiple of the grid step."""


class TruncationLeakageError(SpectralBoxError):
    """A truncated column loses more mass than the acknowledged threshold."""

    def __init__(self, leakage: float, threshold: float):
        super().__init__(
            f"max column leakage {leakage:.3e} exceeds threshold "
            f"{threshold:.3e}; enlarge the window or acknowledge the "
            f"truncation explicitly"
        )
        self.leakage = leakage
        self.threshold = threshold


# ---------------------------------------------------------------------------
# Indicator coefficients
# ---------------------------------------------------------------------------


def _indicator_coeff_closed(s: float, k: np.ndarray) -> np.ndarray:
    out = np.empty(k.shape, dtype=complex)
    zero = k == 0
    out[zero] = s
    kk = k[~zero]
    out[~zero] = (np.exp(2j * np.pi * kk * s) - 1.0) / (2j * np.pi * kk)
    return out


def _indicator_coeff_grid(steps: int, grid_n: int, k: np.ndarray) -> np.ndarray:
    # right-endpoint Riemann sum: under the seam reflection u = 1 - x the
    # wrapped slab's left-endpoint samples {1-s, ..., 1-1/n} become the
    # right-endpoint samples {1/n, ..., s} of (0, s], and this is the
    # discretization under which the matrix equals the projected grid action
    j = np.arange(1, steps + 1)
    return np.array(
        [np.sum(np.exp(2j * np.pi * kk * j / grid_n)) / grid_n for kk in k],
        dtype=complex,
    )


def indicator_fourier_coeffs(
    s: float, k_range: Sequence[int], grid_n: Optional[int] = None
) -> np.ndarray:
    """Fourier coefficients of the sub-interval indicator chi_(0,s) on I.

    Entry j belongs to the j-th distinct k of k_range in ascending order:
    integral_0^s exp(+i*2*pi*k*x) dx, the k-sign convention under which
    the spectral matrix assembly reproduces the grid action.  With grid_n
    set they are the grid's own (right-endpoint discrete) analysis at that
    resolution, which converges to the continuum values as grid_n grows.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s} outside [0, 1]")
    ks = np.array(sorted({int(k) for k in k_range}), dtype=int)
    if grid_n is None:
        return _indicator_coeff_closed(float(s), ks)
    return _indicator_coeff_grid(_steps_for(s, grid_n), grid_n, ks)


def _steps_for(t: float, grid_n: int) -> int:
    steps = round(t * grid_n)
    if abs(t * grid_n - steps) > 1e-9:
        raise IncommensurateTimeError(
            f"time {t} is not a multiple of the grid step 1/{grid_n}"
        )
    return int(steps)


# ---------------------------------------------------------------------------
# Boundary operators on grid lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalBoundary:
    """Boundary unitary diagonal on the shift-twisted Fourier modes: the
    mode n + shift has the eigenvalue exp(i*2*pi*phases(n))."""

    phases: IntFunction
    shift: float = 0.0
    _eig_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def eigenvalue_array(self, n: int) -> np.ndarray:
        """Eigenvalues on the n grid modes in FFT order (cached, read-only)."""
        eig = self._eig_cache.get(n)
        if eig is None:
            modes = fft_mode_indices(n)
            lo = int(modes.min())
            box = ((lo, int(modes.max())),)
            eig = _lift_box(self.phases.on_box(box, (0,)))[modes - lo]
            eig.flags.writeable = False
            self._eig_cache[n] = eig
        return eig

    def apply(self, lines: np.ndarray, axis: int, power: int = 1) -> np.ndarray:
        """Apply the operator (to the given integer power) along `axis`."""
        if power == 0:
            return lines
        coeffs = twisted_analysis(lines, axis, self.shift)
        eig = self.eigenvalue_array(lines.shape[axis]) ** power
        shape = [1] * lines.ndim
        shape[axis] = lines.shape[axis]
        coeffs = coeffs * eig.reshape(shape)
        return twisted_synthesis(coeffs, axis, self.shift)


@dataclass(frozen=True)
class MatrixBoundary:
    """Dense boundary unitary on a window of shifted Fourier modes.

    Modes outside the window pass through unchanged, so the operator is
    only faithful on states band-limited to the window.
    """

    matrix: np.ndarray
    mode_window: tuple[int, int]
    shift: float = 0.0

    def __post_init__(self) -> None:
        lo, hi = self.mode_window
        size = hi - lo + 1
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (size, size):
            raise ValueError("matrix shape does not match the mode window")
        object.__setattr__(self, "matrix", mat)

    def apply(self, lines: np.ndarray, axis: int, power: int = 1) -> np.ndarray:
        if power == 0:
            return lines
        n = lines.shape[axis]
        coeffs = np.moveaxis(twisted_analysis(lines, axis, self.shift), axis, -1)
        modes = fft_mode_indices(n)
        lo, hi = self.mode_window
        sel = np.nonzero((modes >= lo) & (modes <= hi))[0]
        order = np.argsort(modes[sel])
        sel = sel[order]
        mat = np.linalg.matrix_power(self.matrix, power)
        # one matrix-vector product per line, so a line's bits do not
        # depend on how many lines share the call (a tensordot's do)
        coeffs[..., sel] = (mat @ coeffs[..., sel, None])[..., 0]
        return twisted_synthesis(np.moveaxis(coeffs, -1, axis), axis, self.shift)


Boundary = Union[DiagonalBoundary, MatrixBoundary]


def _rows(ax: int, start: int, stop: int) -> tuple:
    """Index of the rows [start, stop) along the grid axis ax, -2 or -1."""
    return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - ax)


def _runs(steps: Sequence[int], n: int) -> list[list[int]]:
    """The extension rows [lo, hi) that the windows [s, s + n) of `steps`
    cover, one run per chain of windows that overlap or touch, ascending."""
    runs: list[list[int]] = []
    for s in sorted(steps):
        if runs and s <= runs[-1][1]:
            runs[-1][1] = s + n
        else:
            runs.append([s, s + n])
    return runs


def grid_group_action(
    axis: int, times: Sequence[float], boundary: Boundary
) -> Callable[[np.ndarray], list[np.ndarray]]:
    """U_axis(t) on grid states for every t in `times`, exactly: each image
    is a view of the state's quasi-periodic extension.

    `axis` is 1-based.  Every t must be a nonnegative multiple of the grid
    step (exactness is the point of this realization; no interpolation).
    axis and times are checked here, once; the map takes one (n, n) state
    or a stack (..., n, n) of them, whose grid axes are the last two, and
    returns a list with one image per time.

    Row s of the extension f(u + 1) = B f(u) along the translated axis is
    row s % n moved through B^(s // n), and U(t) is the n rows from t n.
    Windows that overlap or touch share one extension, which holds only
    their rows; windows apart get their own.  B transforms the lines
    along the other axis, each on its own, once per power and extension,
    so every row moved is one that one call per time moves, and the
    images are bit-equal to those calls.  Images share their extension's
    memory, so they are read-only.
    """
    if axis not in (1, 2):
        raise ValueError(f"axis {axis} out of range for I^2")
    times = tuple(times)
    if not times:
        raise ValueError("need at least one time")
    if any(t < 0 for t in times):
        raise ValueError("t must be nonnegative (compose inverses externally)")
    # the translated axis and the one the boundary transforms along
    ax, other = (-2, -1) if axis == 1 else (-1, -2)

    def act(values: np.ndarray) -> list[np.ndarray]:
        values = np.asarray(values, dtype=complex)
        if values.ndim < 2:
            raise ValueError("grid group actions are implemented on I^2")
        n = values.shape[ax]
        steps = [_steps_for(t, n) for t in times]
        images = [None] * len(times)
        for lo, hi in _runs(steps, n):
            shape = list(values.shape)
            shape[ax] = hi - lo
            ext = np.empty(shape, dtype=complex)
            for power in range(lo // n, (hi - 1) // n + 1):
                start, stop = max(lo, power * n), min(hi, (power + 1) * n)
                rows = values[_rows(ax, start - power * n, stop - power * n)]
                ext[_rows(ax, start - lo, stop - lo)] = boundary.apply(rows, other, power)
            ext.flags.writeable = False
            for k, s in enumerate(steps):
                if lo <= s < hi:
                    images[k] = ext[_rows(ax, s - lo, s - lo + n)]
        return images

    return act


def group_action_grid(
    f: np.ndarray, axis: int, t: float, boundary: Boundary
) -> np.ndarray:
    """U_axis(t) applied to the one state f: the family of the one time t."""
    return grid_group_action(axis, (t,), boundary)(f)[0]


# ---------------------------------------------------------------------------
# Spectral (truncated matrix) realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix of an axis group over a window of shifted product modes."""

    matrix: np.ndarray
    window: LatticeWindow
    max_leakage: float

    def labels(self) -> list[tuple[int, int]]:
        return [tuple(idx) for idx in self.window.indices()]

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        """The matrix applied to a vector or to each row of a stack."""
        # a batched matrix-vector product, bit-equal to matrix @ row for
        # each row (stack @ matrix.T is not)
        return (self.matrix @ vec[..., None])[..., 0]


def group_matrix_spectral(
    axis: int,
    t: float,
    eigs: BoundaryEigenvalues,
    phases: tuple[float, float],
    grid_n: Optional[int] = None,
    leakage_tol: float = 1e-6,
) -> TruncatedOperator:
    """Assemble the axis group in the basis E(m,n) = e_{m+alpha} x e_{n+beta}
    over the window of `eigs`, the seam-twisted pair.

    eigs holds a'_n = a_n exp(-i*2*pi*alpha) and b'_m = b_m
    exp(-i*2*pi*beta), the pair cocycles.seam_twisted makes from the phase
    tables and the basis phases.  For axis 1 the column of E(m,n) is
      exp(i*2*pi*(m+alpha)*t) * (q_k + a'_n p_k)
    at row E(m+k,n), with p the sub-interval indicator coefficients and
    q their complements; axis 2 swaps roles (b'_m, beta).  Commuting-class
    sequences telescope the coefficients and leak nothing; for generic
    sequences the 1/k coefficient tails make truncation loss unavoidable,
    so the per-column leakage (1 - kept mass) is measured and any excess
    over leakage_tol raises TruncationLeakageError rather than truncating
    silently.  With grid_n set the coefficients are the grid's own, which
    makes the matrix exactly the window-projection of the grid action.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    # axis 1 moves along m with phase alpha and reads a' on n; axis 2 mirrors it
    shift = float(phases[axis - 1])
    move_idx = eigs.window.axis_indices(axis - 1)
    eig = eigs.values[axis - 1].ravel()
    base_phase = np.exp(2j * np.pi * (move_idx + shift) * t)
    # basis position of E(m, n), row-major over the window
    index = np.arange(eigs.window.cardinality).reshape(
        [hi - lo + 1 for lo, hi in eigs.window.ranges]
    )

    diffs = move_idx[:, None] - move_idx[None, :]  # row mode minus col mode
    k_all = np.arange(diffs.min(), diffs.max() + 1)
    p = indicator_fourier_coeffs(t, k_all, grid_n)
    # the complementary indicator's coefficients, delta_{k0} - p_k
    q = -p
    q[k_all == 0] = 1.0 - p[k_all == 0]
    p_tab = p[diffs - k_all[0]]  # [row_move, col_move]
    q_tab = q[diffs - k_all[0]]

    matrix = np.zeros((index.size, index.size), dtype=complex)
    max_leakage = 0.0
    for j, ev in enumerate(eig):
        block = (q_tab + ev * p_tab) * base_phase[None, :]
        mass = np.sum(np.abs(block) ** 2, axis=0)
        max_leakage = max(max_leakage, float((1.0 - mass).max()))
        rows = index[:, j] if axis == 1 else index[j]
        matrix[np.ix_(rows, rows)] = block
    if max_leakage > leakage_tol:
        raise TruncationLeakageError(max_leakage, leakage_tol)
    return TruncatedOperator(matrix, eigs.window, max_leakage)


def _check_window_fits(window: LatticeWindow, grid_n: int) -> None:
    for lo, hi in window.ranges:
        if hi - lo + 1 > grid_n:
            raise ValueError(
                f"window range ({lo},{hi}) does not fit in {grid_n} grid "
                "modes; modes would alias"
            )


def check_sweep_grid(
    window: LatticeWindow, grid_n: int, times: Sequence[float]
) -> None:
    """Raise ValueError unless a grid_n sweep can run over `window`.

    The window must fit in grid_n modes without aliasing, every time must
    be a multiple of the grid step 1/grid_n, and the window's dense
    spectral matrix, cardinality^2 complex entries, must fit in
    MAX_SPECTRAL_BYTES.  The larger of the sweep's peak and the spectral
    check's stack of MAX_SPECTRAL_PROBES probes must fit in MAX_SWEEP_BYTES.
    Per probe, the sweep (commutator_norm over two grid_group_action
    families of T = len(times) times) peaks while xs moves the stack of
    Y-images.  It then holds the extensions of both image stacks, each T R
    rows of grid_n, where R is the rows the windows cover (T grid_n when
    none overlap); T differences; the stack; and a DiagonalBoundary
    transform's temporaries, priced as three arrays the size of the stack
    (2.4 under tracemalloc).  That is 16 (2 T R + 5 T grid_n) grid_n bytes.
    """
    _check_window_fits(window, grid_n)
    steps = [_steps_for(t, grid_n) for t in times]
    rows = sum(hi - lo for lo, hi in _runs(steps, grid_n))
    sweep = 16 * len(times) * (2 * rows + 5 * grid_n) * grid_n
    if 16 * window.cardinality**2 > MAX_SPECTRAL_BYTES:
        raise ValueError(
            f"the spectral matrix of a {window.cardinality}-mode window "
            f"needs more than {MAX_SPECTRAL_BYTES} bytes"
        )
    if max(sweep, 16 * MAX_SPECTRAL_PROBES * grid_n**2) > MAX_SWEEP_BYTES:
        held = (
            f"the sweep's two extensions of {len(times)} x {rows} rows and "
            f"{5 * len(times)} working states"
            if sweep >= 16 * MAX_SPECTRAL_PROBES * grid_n**2
            else f"the spectral check's {MAX_SPECTRAL_PROBES} probes"
        )
        raise ValueError(
            f"{held} of a {grid_n}^2 grid need more than {MAX_SWEEP_BYTES} bytes"
        )


def _window_cells(window: LatticeWindow, n: int) -> tuple:
    """Index of the window's modes on the last two axes of n x n grid
    coefficients in FFT order, every leading axis kept."""
    _check_window_fits(window, n)
    return (Ellipsis, *np.ix_(window.axis_indices(0) % n, window.axis_indices(1) % n))


def synthesize_window_state(
    vec: np.ndarray,
    phases: tuple[float, float],
    window: LatticeWindow,
    grid_n: int,
) -> np.ndarray:
    """Grid samples of sum_{(m,n)} vec[m,n] e_{m+alpha} x e_{n+beta}: vec's
    last axis holds the window's coefficients row-major, and any leading
    axes are a stack of states."""
    alpha, beta = phases
    vec = np.asarray(vec, dtype=complex)
    coeffs = np.zeros(vec.shape[:-1] + (grid_n, grid_n), dtype=complex)
    sizes = tuple(hi - lo + 1 for lo, hi in window.ranges)
    coeffs[_window_cells(window, grid_n)] = vec.reshape(vec.shape[:-1] + sizes)
    return twisted_synthesis(twisted_synthesis(coeffs, -2, alpha), -1, beta)


def project_to_window(
    state: np.ndarray,
    phases: tuple[float, float],
    window: LatticeWindow,
) -> np.ndarray:
    """Window coefficients, row-major on the last axis, of a grid state or
    of a stack of them along leading axes, in the shifted product basis.

    Exact for anything the grid can represent: the shifted modes stay
    exactly orthogonal under the discrete inner product.
    """
    alpha, beta = phases
    coeffs = twisted_analysis(twisted_analysis(state, -2, alpha), -1, beta)
    cells = coeffs[_window_cells(window, state.shape[-1])]
    return cells.reshape(cells.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# Commutators and eigenrelations
# ---------------------------------------------------------------------------


def _checked_probes(probes: Iterable) -> Iterator[tuple]:
    """Yield (values, grid_norm of values) per probe, checked.

    Probes are taken one at a time, so a generator of probes is never held
    in memory whole.
    """
    for p in probes:
        values = np.asarray(p)
        if not np.all(np.isfinite(values)):
            raise ValueError("probe values must be finite")
        den = grid_norm(values)
        if den == 0.0:
            raise ValueError("zero-norm probe")
        yield values, den


_UNIT = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # the least subnormal


def _norm_slack(terms: int) -> float:
    """Relative slack of commutator_norm's bound over `terms` real squares:
    the sums' errors gamma_terms and gamma_{terms/2} (gamma_m = m u / (1 -
    m u)), 11 u for a modulus squared and weighted, and four roundings."""
    return (2 * terms + 16) * _UNIT


def commutator_norm(
    xs: Callable, ys: Callable, probes: Iterable
) -> np.ndarray:
    """Table of max over probes of |X_i Y_j p - Y_j X_i p| / |p|.

    xs and ys are operator families: each maps a state, or a stack of
    states along leading axes, to a list with one image per member, as
    grid_group_action(axis, times, boundary) does for its times on grid
    states, or to one array of them; truncated matrices `ops` on
    coefficient vectors make one as `lambda v: [op(v) for op in ops]`.
    Entry [i, j] belongs to the pair (member i of xs, member j of ys).
    Every probe is checked for finite values once and measured by
    grid_norm, which on a coefficient vector is the RMS norm, a scale the
    ratio does not see.

    A probe costs four family calls: xs and ys move the probe, ys moves
    the stack of X-images and xs the stack of Y-images.  The differences
    of one X member, one per Y member, go to a buffer every probe reuses.
    One pass S = sum(re^2 + im^2) over the N = 2 p.size parts of a
    difference bounds its ratio by sqrt(w S (1 + slack) + 4 N 2^-1074) /
    |p| (1 + 8 u) + 4 2^-1074, with u = 2^-53, slack = (2 N + 16) u
    (_norm_slack) and the subnormal terms for underflow.  Only entries
    whose bound is not below the running max get the exact ratio
    sqrt(sum(w |d|^2)) / |p|, in grid_norm's summation order, so the
    table is bit-equal to one grid_norm per pair.  A NaN difference has a
    NaN bound, so its NaN propagates into its entry instead of reading as
    zero.  `probes` may be any iterable, a generator included: probes are
    read one at a time.  A probe's images are dropped before the next
    probe's are made, so the sweep holds one probe's at a time, the peak
    that check_sweep_grid prices.
    """
    table = diff = None
    for values, den in _checked_probes(probes):
        yx = ys(np.stack(xs(values)))  # yx[j][i] = Y_j X_i p
        xy = xs(np.stack(ys(values)))  # xy[i][j] = X_i Y_j p
        if table is None:
            table = np.zeros((len(xy), len(yx)))
        if diff is None or diff.shape[1:] != values.shape:
            axes = tuple(range(-values.ndim, 0))
            w = grid_weight(values.shape)
            diff = np.empty((len(yx),) + values.shape, dtype=complex)
            parts = diff.view(float).reshape(len(yx), -1)
            scale = w * (1 + _norm_slack(parts.shape[1]))
            floor = 4 * parts.shape[1] * _TINY
        for i, row in enumerate(table):
            for j, images in enumerate(yx):
                np.subtract(xy[i][j], images[i], out=diff[j])
            root = np.sqrt(np.vecdot(parts, parts) * scale + floor)
            bound = root / den * (1 + 8 * _UNIT) + 4 * _TINY
            undecided = np.flatnonzero(~(bound < row))
            if undecided.size:
                # grid_norm of each difference, summed in the same order
                norms = np.sqrt(np.sum(w * np.abs(diff[undecided]) ** 2, axis=axes))
                row[undecided] = np.maximum(row[undecided], norms / den)
        del yx, xy, images
    if table is None:
        raise ValueError("empty probe list")
    return table


def default_probe_coefficients(
    window: LatticeWindow,
    sub_radius: int = 4,
    n_random: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Basis states of a centered subwindow plus random unit-norm states,
    one row each over the window's modes in row-major order.  A random row
    draws its real, then its imaginary part, and is divided by its
    np.linalg.norm, bit for bit."""
    rng = rng or np.random.default_rng(0)
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    size = m_idx.size * n_idx.size
    near = (np.abs(m_idx)[:, None] <= sub_radius) & (np.abs(n_idx) <= sub_radius)
    cells = np.flatnonzero(near)
    basis = np.zeros((cells.size, size), dtype=complex)
    basis[np.arange(cells.size), cells] = 1.0
    draws = rng.standard_normal((n_random, 2, size))
    vecs = draws[:, 0] + 1j * draws[:, 1]
    # np.linalg.norm's sum of a complex vector, the dots of its strided
    # real and imaginary parts, made row by row
    norms = np.sqrt(np.vecdot(vecs.real, vecs.real) + np.vecdot(vecs.imag, vecs.imag))
    return np.concatenate([basis, vecs / norms[:, None]])


@dataclass(frozen=True)
class EigenRelationReport:
    max_residual: float


def eigenrelation_check(
    boundary: DiagonalBoundary,
    samples: Sequence[tuple[float, int, int]],
    grid_n: int,
) -> EigenRelationReport:
    """Residuals of the axis-1 eigenrelation on sampled eigenfunctions.

    With phi = boundary.phases and beta = boundary.shift, the boundary
    operator is diagonal on e_{n+beta} with eigenvalues exp(i*2*pi*phi(n)),
    and the state e_{m+phi(n)} x e_{n+beta} must satisfy
      U_x(s) E = exp(i*2*pi*(m+phi(n))*s) E
    exactly (up to roundoff) in the grid_n realization.
    """
    phi, beta = boundary.phases, boundary.shift
    worst = 0.0
    x = grid_coords(grid_n)
    for s, m, n in samples:
        freq_x = m + phi(int(n))
        freq_y = n + beta
        state = np.exp(2j * np.pi * freq_x * x)[:, None] * np.exp(
            2j * np.pi * freq_y * x
        )[None, :]
        moved = group_action_grid(state, 1, s, boundary)
        expected = state * np.exp(2j * np.pi * freq_x * s)
        worst = max(worst, grid_norm(moved - expected) / grid_norm(state))
    return EigenRelationReport(float(worst))
