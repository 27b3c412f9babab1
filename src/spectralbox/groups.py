"""Induced one-parameter unitary groups on the unit square, two ways.

The exact realization translates grid samples along one axis and
transports the wrapped slab through the boundary unitary; the spectral
realization assembles the same operator as a truncated matrix over a
window of shifted product Fourier modes, mixing indicator Fourier
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

from .cocycles import PhaseSequence, PhaseSequenceSet2D
from .grid import (
    fft_mode_indices,
    grid_coords,
    grid_norm,
    twisted_analysis,
    twisted_synthesis,
)
from .model import LatticeWindow, SpectralBoxError

__all__ = [
    "IncommensurateTimeError",
    "TruncationLeakageError",
    "IndicatorCoefficients",
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


@dataclass(frozen=True)
class IndicatorCoefficients:
    """Fourier data of the sub-interval indicator chi_(0,s) on I.

    coeff[k] = integral_0^s exp(+i*2*pi*k*x) dx; the k-sign convention is
    the one under which the spectral matrix assembly reproduces the grid
    action.  complement[k] is delta_{k0} - coeff[k], the coefficients of
    the complementary indicator.  indicator_fourier_coeffs with grid_n set
    gives the grid's own (left-endpoint discrete) analysis at that
    resolution, which converges to the continuum values as grid_n grows.
    """

    coeff: dict[int, complex]
    complement: dict[int, complex]


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
    out = np.array(
        [np.sum(np.exp(2j * np.pi * kk * j / grid_n)) / grid_n for kk in k],
        dtype=complex,
    )
    return out


def indicator_fourier_coeffs(
    s: float,
    k_range: Sequence[int],
    grid_n: Optional[int] = None,
) -> IndicatorCoefficients:
    """Coefficients of chi_(0,s) plus the complementary-indicator set."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s} outside [0, 1]")
    ks = np.array(sorted({int(k) for k in k_range}), dtype=int)
    if grid_n is None:
        vals = _indicator_coeff_closed(float(s), ks)
    else:
        steps = _steps_for(s, grid_n)
        vals = _indicator_coeff_grid(steps, grid_n, ks)
    coeff = {int(k): complex(v) for k, v in zip(ks, vals)}
    complement = {
        k: (1.0 - v if k == 0 else -v) for k, v in coeff.items()
    }
    return IndicatorCoefficients(coeff, complement)


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
    """Boundary unitary diagonal on the shift-twisted Fourier modes."""

    eigenvalues: PhaseSequence
    shift: float = 0.0
    _eig_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def eigenvalue_array(self, n: int) -> np.ndarray:
        """Eigenvalues on the n grid modes in FFT order (cached, read-only)."""
        eig = self._eig_cache.get(n)
        if eig is None:
            eig = self.eigenvalues.values(fft_mode_indices(n))
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
        coeffs = twisted_analysis(lines, axis, self.shift)
        modes = fft_mode_indices(n)
        lo, hi = self.mode_window
        sel = np.nonzero((modes >= lo) & (modes <= hi))[0]
        order = np.argsort(modes[sel])
        sel = sel[order]
        mat = np.linalg.matrix_power(self.matrix, power)
        moved = np.moveaxis(coeffs, axis, 0)
        moved[sel] = np.tensordot(mat, moved[sel], axes=(1, 0))
        coeffs = np.moveaxis(moved, 0, axis)
        return twisted_synthesis(coeffs, axis, self.shift)


Boundary = Union[DiagonalBoundary, MatrixBoundary]


def _check_axis_time(axis: int, t: float) -> None:
    if axis not in (1, 2):
        raise ValueError(f"axis {axis} out of range for I^2")
    if t < 0:
        raise ValueError("t must be nonnegative (compose inverses externally)")


def _translate(
    values: np.ndarray, ax: int, t: float, boundary: Boundary
) -> np.ndarray:
    """U(t) along the 0-based axis `ax` on raw periodic samples of I^2.

    `values` is one (n, n) grid or a stack (..., n, n) of them; the grid
    axes are the last two and every leading axis is a batch axis.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim < 2:
        raise ValueError("grid group actions are implemented on I^2")
    ax, other = (-2, -1) if ax == 0 else (-1, -2)
    n = values.shape[ax]
    full, rem = divmod(_steps_for(t, n), n)
    if rem == 0:
        return boundary.apply(values.copy(), other, full)

    def rows(start: int, stop: int) -> tuple:
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - ax)

    # output rows i >= n - rem are input rows i + rem - n, which crossed
    # the seam one extra time; rows i < n - rem are input rows i + rem
    out = np.empty_like(values)
    out[rows(n - rem, n)] = boundary.apply(values[rows(0, rem)], other, full + 1)
    out[rows(0, n - rem)] = boundary.apply(values[rows(rem, n)], other, full)
    return out


def grid_group_action(
    axis: int, t: float, boundary: Boundary
) -> Callable[[np.ndarray], np.ndarray]:
    """U_axis(t) on grid states, exactly: translate, twist the wrap.

    `axis` is 1-based.  t must be a nonnegative multiple of the grid step
    (exactness is the point of this realization; no interpolation).  Rows
    that cross the seam are transported through the boundary operator,
    once per full crossing.  axis and t are checked here, once; the map
    takes one (n, n) state or a stack (..., n, n) of them.
    """
    _check_axis_time(axis, t)

    def act(values: np.ndarray) -> np.ndarray:
        return _translate(values, axis - 1, t, boundary)

    return act


def group_action_grid(
    f: np.ndarray, axis: int, t: float, boundary: Boundary
) -> np.ndarray:
    """grid_group_action(axis, t, boundary) applied to the one state f."""
    return grid_group_action(axis, t, boundary)(f)


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
    seqs: PhaseSequenceSet2D,
    phases: tuple[float, float],
    window: LatticeWindow,
    grid_n: Optional[int] = None,
    leakage_tol: float = 1e-6,
) -> TruncatedOperator:
    """Assemble the axis group in the basis E(m,n) = e_{m+alpha} x e_{n+beta}.

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
    if window.dimension != 2:
        raise ValueError("window must have two axes")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    alpha, beta = float(phases[0]), float(phases[1])
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    n_m, n_n = m_idx.size, n_idx.size
    size = n_m * n_n

    if axis == 1:
        move_idx, keep_idx = m_idx, n_idx
        seam = np.exp(-2j * np.pi * alpha)
        eig = seqs.a.values(keep_idx) * seam
        base_phase = np.exp(2j * np.pi * (m_idx + alpha) * t)
    else:
        move_idx, keep_idx = n_idx, m_idx
        seam = np.exp(-2j * np.pi * beta)
        eig = seqs.b.values(keep_idx) * seam
        base_phase = np.exp(2j * np.pi * (n_idx + beta) * t)

    diffs = move_idx[:, None] - move_idx[None, :]  # row mode minus col mode
    k_all = np.arange(diffs.min(), diffs.max() + 1)
    ind = indicator_fourier_coeffs(t, k_all, grid_n)
    p = np.array([ind.coeff[int(k)] for k in k_all])
    q = np.array([ind.complement[int(k)] for k in k_all])
    p_tab = p[diffs - k_all[0]]  # [row_move, col_move]
    q_tab = q[diffs - k_all[0]]

    matrix = np.zeros((size, size), dtype=complex)
    max_leakage = 0.0
    for j, ev in enumerate(eig):
        block = (q_tab + ev * p_tab) * base_phase[None, :]
        mass = np.sum(np.abs(block) ** 2, axis=0)
        max_leakage = max(max_leakage, float((1.0 - mass).max()))
        if axis == 1:
            rows = np.arange(n_m) * n_n + j
        else:
            rows = j * n_n + np.arange(n_n)
        matrix[np.ix_(rows, rows)] = block
    if max_leakage > leakage_tol:
        raise TruncationLeakageError(max_leakage, leakage_tol)
    return TruncatedOperator(matrix, window, max_leakage)


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

    The window must fit in grid_n modes without aliasing, and every time
    must be a multiple of the grid step 1/grid_n.
    """
    _check_window_fits(window, grid_n)
    for t in times:
        _steps_for(t, grid_n)


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
    xs: Sequence, ys: Sequence, probes: Iterable
) -> np.ndarray:
    """Table of max over probes of |X Y p - Y X p| / |p|, X in xs, Y in ys.

    Entry [i, j] belongs to the pair (xs[i], ys[j]).  Works uniformly for
    grid actions (grid_group_action) on grid-state probes and for
    truncated matrices on coefficient-vector probes: every probe is
    checked for finite values once and measured by grid_norm, which on a
    coefficient vector is the RMS norm, a scale the ratio does not see.
    Every operator must also act on a stack of states along a leading
    axis.  Each probe is moved by every X and every Y once; then every X
    moves the stack of Y-images and every Y the stack of X-images, so a
    probe costs 2 (len(xs) + len(ys)) operator calls.  `probes` may be
    any iterable, a generator included: probes are read one at a time,
    and only the current probe's images are held.  A NaN ratio propagates
    into its entry instead of reading as zero.
    """
    table = np.zeros((len(xs), len(ys)))
    empty = True
    for values, den in _checked_probes(probes):
        empty = False
        x_images = np.stack([x(values) for x in xs])
        y_images = np.stack([y(values) for y in ys])
        yx = [y(x_images) for y in ys]  # yx[j][i] = Y_j X_i p
        for i, x in enumerate(xs):
            xy = x(y_images)  # xy[j] = X_i Y_j p
            for j in range(len(ys)):
                ratio = grid_norm(xy[j] - yx[j][i]) / den
                table[i, j] = np.maximum(table[i, j], ratio)
    if empty:
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
    phi,
    beta: float,
    samples: Sequence[tuple[float, int, int]],
    grid_n: int = 256,
) -> EigenRelationReport:
    """Residuals of the axis-1 eigenrelation on sampled eigenfunctions.

    With the boundary operator diagonal on e_{n+beta} with phases phi(n),
    the state e_{m+phi(n)} x e_{n+beta} must satisfy
      U_x(s) E = exp(i*2*pi*(m+phi(n))*s) E
    exactly (up to roundoff) in the grid realization.  phi may be an
    IntFunction or any int -> float callable with values in [0,1).
    """
    boundary = DiagonalBoundary(
        PhaseSequence.from_phases(
            {n: phi(n) for n in fft_mode_indices(grid_n)}, 0.0
        ),
        shift=beta,
    )
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
