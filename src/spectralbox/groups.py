"""Induced one-parameter unitary groups on the unit square, two ways.

The exact realization translates grid samples along one axis and
transports the wrapped slab through the boundary unitary, a
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

from .cocycles import BoundaryEigenvalues, _lift_window
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
MAX_SWEEP_BYTES = 2**28  # commutator_norm's Y X images of one probe, complex128

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
            eig = _lift_window(self.phases, [(lo, int(modes.max()))])[modes - lo]
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


def _plan(times: tuple, n: int, ax: int) -> tuple[list, list]:
    """How the images of `times` on n rows along the grid axis ax are made.

    Per time, (full, rem) = divmod(steps, n): output rows i >= n - rem are
    input rows i + rem - n, which crossed the seam full + 1 times, and
    rows i < n - rem are input rows i + rem, which crossed it full times.
    The input rows a nonzero boundary power moves for any time are
    merged into disjoint runs [lo, hi).  Returns the runs as (key, power,
    index), and per time its pieces (output index, key, index into that
    run's block), where the key (0, 0) is the input itself.
    """
    pieces_of = []  # per time: (power, first input row, stop, first output row)
    for t in times:
        full, rem = divmod(_steps_for(t, n), n)
        pieces = [(full, rem, n, 0)]
        if rem:
            pieces.append((full + 1, 0, rem, n - rem))
        pieces_of.append(pieces)
    runs: dict[int, list] = {0: [[0, n]]}
    for power, start, stop, _ in sorted(p for ps in pieces_of for p in ps):
        if power not in runs:
            runs[power] = [[start, stop]]
        elif start <= runs[power][-1][1]:
            runs[power][-1][1] = max(runs[power][-1][1], stop)
        else:
            runs[power].append([start, stop])
    sources = [
        ((power, lo), power, _rows(ax, lo, hi))
        for power, spans in runs.items()
        if power
        for lo, hi in spans
    ]

    def piece(power: int, start: int, stop: int, out: int) -> tuple:
        lo = next(lo for lo, hi in runs[power] if lo <= start < hi)
        return (
            _rows(ax, out, out + stop - start),
            (power, lo),
            _rows(ax, start - lo, stop - lo),
        )

    assembly = [[piece(*p) for p in pieces] for pieces in pieces_of]
    return sources, assembly


def grid_group_action(
    axis: int, times: Sequence[float], boundary: Boundary
) -> Callable[[np.ndarray], list[np.ndarray]]:
    """U_axis(t) on grid states for every t in `times`, exactly: translate,
    twist the wrap.

    `axis` is 1-based.  Every t must be a nonnegative multiple of the grid
    step (exactness is the point of this realization; no interpolation).
    Rows that cross the seam are transported through the boundary
    operator, once per full crossing.  axis and times are checked here,
    once; the map takes one (n, n) state or a stack (..., n, n) of them,
    whose grid axes are the last two, and returns a list with one new
    image per time.

    The boundary transforms the lines along the other axis, each on its
    own, so the rows that one boundary power moves for any of the times
    are transformed once, as disjoint runs of rows, and every time takes
    its rows from those results: the images are bit-equal to one call per
    time, and no row is transformed that one call per time would not.
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
    plans: dict = {}  # the _plan of the times per grid size n

    def act(values: np.ndarray) -> list[np.ndarray]:
        values = np.asarray(values, dtype=complex)
        if values.ndim < 2:
            raise ValueError("grid group actions are implemented on I^2")
        n = values.shape[ax]
        if n not in plans:
            plans[n] = _plan(times, n, ax)
        sources, pieces_of = plans[n]
        blocks = {(0, 0): values}
        for key, power, index in sources:
            blocks[key] = boundary.apply(values[index], other, power)
        images = []
        for pieces in pieces_of:
            out = np.empty_like(values)
            for out_index, key, index in pieces:
                out[out_index] = blocks[key][index]
            images.append(out)
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
    over the window of `eigs`.

    For axis 1 the column of E(m,n) is
      exp(i*2*pi*(m+alpha)*t) * (q_k + exp(-i*2*pi*alpha) a_n p_k)
    at row E(m+k,n), with p the sub-interval indicator coefficients and
    q their complements; axis 2 swaps roles (b_m, beta).  Commuting-class
    sequences telescope the coefficients and leak nothing; for generic
    sequences the 1/k coefficient tails make truncation loss unavoidable,
    so the per-column leakage (1 - kept mass) is measured and any excess
    over leakage_tol raises TruncationLeakageError rather than truncating
    silently.  With grid_n set the coefficients are the grid's own, which
    makes the matrix exactly the window-projection of the grid action.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    # axis 1 moves along m with phase alpha and reads a on n; axis 2 mirrors it
    shift = float(phases[axis - 1])
    move_idx = eigs.window.axis_indices(axis - 1)
    eig = eigs.values[axis - 1].ravel() * np.exp(-2j * np.pi * shift)
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
    MAX_SPECTRAL_BYTES, and the sweep's len(times)^2 images of a probe in
    MAX_SWEEP_BYTES.

    Per probe, the sweep (commutator_norm over two grid_group_action
    families) makes 3 + len(times) family calls.  Each transforms, per
    boundary power its times need, the union of the rows that power
    moves, once: at most grid_n rows of the probe, of one of its images
    or of the stack of its len(times) images.  The sweep holds the
    len(times)^2 Y X images the cap counts, and len(times) X Y images.
    """
    _check_window_fits(window, grid_n)
    for t in times:
        _steps_for(t, grid_n)
    if 16 * window.cardinality**2 > MAX_SPECTRAL_BYTES:
        raise ValueError(
            f"the spectral matrix of a {window.cardinality}-mode window "
            f"needs more than {MAX_SPECTRAL_BYTES} bytes"
        )
    if 16 * len(times) ** 2 * grid_n**2 > MAX_SWEEP_BYTES:
        raise ValueError(
            f"the sweep's {len(times)} x {len(times)} images of a {grid_n}^2 "
            f"grid need more than {MAX_SWEEP_BYTES} bytes"
        )


def synthesize_window_state(
    vec: np.ndarray,
    phases: tuple[float, float],
    window: LatticeWindow,
    grid_n: int,
) -> np.ndarray:
    """Grid samples of sum_{(m,n)} vec[m,n] e_{m+alpha} x e_{n+beta}."""
    alpha, beta = phases
    _check_window_fits(window, grid_n)
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    coeffs = np.zeros((grid_n, grid_n), dtype=complex)
    vec = np.asarray(vec, dtype=complex).reshape(m_idx.size, n_idx.size)
    coeffs[np.ix_(m_idx % grid_n, n_idx % grid_n)] = vec
    return twisted_synthesis(twisted_synthesis(coeffs, 0, alpha), 1, beta)


def project_to_window(
    state: np.ndarray,
    phases: tuple[float, float],
    window: LatticeWindow,
) -> np.ndarray:
    """Window coefficients of a grid state in the shifted product basis.

    Exact for anything the grid can represent: the shifted modes stay
    exactly orthogonal under the discrete inner product.
    """
    alpha, beta = phases
    n = state.shape[0]
    _check_window_fits(window, n)
    coeffs = twisted_analysis(twisted_analysis(state, 0, alpha), 1, beta)
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    return coeffs[np.ix_(m_idx % n, n_idx % n)].reshape(-1)


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

    A probe costs 3 + len(ys) family calls: xs and ys move the probe, ys
    moves the stack of X-images, and xs moves each Y-image.  On grid
    actions each call transforms, per boundary power, the rows that power
    moves for any of the family's times, once.  The len(xs) ratios of
    each Y member come from one batched sum, in grid_norm's summation
    order per grid, so the table is bit-equal to one grid_norm per pair.
    `probes` may be any iterable, a generator included: probes are read
    one at a time.  A probe's images are held until the next probe's
    replace them, which keeps their pages with the allocator: the Y X
    images of every pair and the X Y images of one Y member.  A NaN ratio
    propagates into its entry instead of reading as zero.
    """
    table = None
    for values, den in _checked_probes(probes):
        axes = tuple(range(-values.ndim, 0))
        w = grid_weight(values.shape)
        yx = ys(np.stack(xs(values)))  # yx[j][i] = Y_j X_i p
        if table is None:
            table = np.zeros((len(yx[0]), len(yx)))
        for j, y_image in enumerate(ys(values)):
            diff = np.stack(xs(y_image))  # diff[i] = X_i Y_j p
            diff -= yx[j]
            # grid_norm of each difference, summed in the same order
            norms = np.sqrt(np.sum(w * np.abs(diff) ** 2, axis=axes))
            table[:, j] = np.maximum(table[:, j], norms / den)
    if table is None:
        raise ValueError("empty probe list")
    return table


def default_probe_coefficients(
    window: LatticeWindow,
    sub_radius: int = 4,
    n_random: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> list[np.ndarray]:
    """Basis states of a centered subwindow plus random unit-norm states."""
    rng = rng or np.random.default_rng(0)
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    size = m_idx.size * n_idx.size
    probes = []
    for i, m in enumerate(m_idx):
        for j, n in enumerate(n_idx):
            if abs(int(m)) <= sub_radius and abs(int(n)) <= sub_radius:
                vec = np.zeros(size, dtype=complex)
                vec[i * n_idx.size + j] = 1.0
                probes.append(vec)
    for _ in range(n_random):
        vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        probes.append(vec / np.linalg.norm(vec))
    return probes


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
