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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cocycles import PhaseSequence, PhaseSequenceSet2D
from .grid import GridState, fft_mode_indices, twisted_analysis, twisted_synthesis
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
    "synthesize_window_state",
    "project_to_window",
    "commutator_norm",
    "default_probe_coefficients",
    "EigenRelationReport",
    "eigenrelation_check",
]


class IncommensurateTimeError(SpectralBoxError):
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
    the complementary indicator.  When grid_n is set the coefficients are
    the grid's own (left-endpoint discrete) analysis at that resolution,
    which converges to the continuum values as grid_n grows.
    """

    s: float
    coeff: dict[int, complex]
    complement: dict[int, complex]
    grid_n: Optional[int] = None


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
    return IndicatorCoefficients(float(s), coeff, complement, grid_n)


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

    def eigenvalue_array(self, n: int, power: int = 1) -> np.ndarray:
        eig = self.eigenvalues.values(fft_mode_indices(n))
        return eig**power

    def apply(self, lines: np.ndarray, axis: int, power: int = 1) -> np.ndarray:
        """Apply the operator (to the given integer power) along `axis`."""
        if power == 0:
            return lines
        coeffs = twisted_analysis(lines, axis, self.shift)
        eig = self.eigenvalue_array(lines.shape[axis], power)
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


def group_action_grid(
    f: GridState, axis: int, t: float, boundary: Boundary
) -> GridState:
    """Exact induced action on the grid: translate, twist the wrap.

    `axis` is 1-based.  t must be a nonnegative multiple of the grid step
    (exactness is the point of this realization; no interpolation).  Rows
    that cross the seam are transported through the boundary operator,
    once per full crossing.
    """
    ax = axis - 1
    if ax not in range(f.dimension):
        raise ValueError(f"axis {axis} out of range for dimension {f.dimension}")
    if any(tag != "periodic" for tag in f.sampling):
        raise ValueError("group actions require periodic sampling")
    if t < 0:
        raise ValueError("t must be nonnegative (compose inverses externally)")
    n = f.values.shape[ax]
    steps = _steps_for(t, n)
    full, rem = divmod(steps, n)
    other = 1 - ax if f.dimension == 2 else None
    if f.dimension != 2:
        raise ValueError("grid group actions are implemented on I^2")

    rolled = np.roll(f.values, -rem, axis=ax)
    out = np.array(rolled)
    # rows i >= n - rem crossed the seam one extra time
    index = [slice(None), slice(None)]
    if rem > 0:
        index[ax] = slice(n - rem, n)
        wrapped = rolled[tuple(index)]
        out[tuple(index)] = boundary.apply(wrapped, other, full + 1)
        index[ax] = slice(0, n - rem)
        bulk = rolled[tuple(index)]
        out[tuple(index)] = boundary.apply(bulk, other, full)
    else:
        out = boundary.apply(rolled, other, full)
    return GridState(out, f.sampling)


def grid_group_action(
    axis: int, t: float, boundary: Boundary
) -> Callable[[GridState], GridState]:
    """Curried form of group_action_grid, handy for commutator probes."""

    def act(state: GridState) -> GridState:
        return group_action_grid(state, axis, t, boundary)

    return act


# ---------------------------------------------------------------------------
# Spectral (truncated matrix) realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix of an axis group over a window of shifted product modes."""

    matrix: np.ndarray
    window: LatticeWindow
    phases: tuple[float, float]
    axis: int
    t: float
    max_leakage: float

    def labels(self) -> list[tuple[int, int]]:
        return [tuple(idx) for idx in self.window.indices()]

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec


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
    return TruncatedOperator(
        matrix, window, (alpha, beta), axis, float(t), max_leakage
    )


def _check_window_fits(window: LatticeWindow, grid_n: int) -> None:
    for lo, hi in window.ranges:
        if hi - lo + 1 > grid_n:
            raise ValueError(
                f"window range ({lo},{hi}) does not fit in {grid_n} grid "
                "modes; modes would alias"
            )


def synthesize_window_state(
    vec: np.ndarray,
    phases: tuple[float, float],
    window: LatticeWindow,
    grid_n: int,
) -> GridState:
    """Grid samples of sum_{(m,n)} vec[m,n] e_{m+alpha} x e_{n+beta}."""
    alpha, beta = phases
    _check_window_fits(window, grid_n)
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    coeffs = np.zeros((grid_n, grid_n), dtype=complex)
    vec = np.asarray(vec, dtype=complex).reshape(m_idx.size, n_idx.size)
    coeffs[np.ix_(m_idx % grid_n, n_idx % grid_n)] = vec
    values = twisted_synthesis(
        twisted_synthesis(coeffs, 0, alpha), 1, beta
    )
    return GridState(values, ("periodic", "periodic"))


def project_to_window(
    state: GridState,
    phases: tuple[float, float],
    window: LatticeWindow,
) -> np.ndarray:
    """Window coefficients of a grid state in the shifted product basis.

    Exact for anything the grid can represent: the shifted modes stay
    exactly orthogonal under the discrete inner product.
    """
    alpha, beta = phases
    _check_window_fits(window, state.values.shape[0])
    coeffs = twisted_analysis(
        twisted_analysis(state.values, 0, alpha), 1, beta
    )
    n = state.values.shape[0]
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    return coeffs[np.ix_(m_idx % n, n_idx % n)].reshape(-1)


# ---------------------------------------------------------------------------
# Commutators and eigenrelations
# ---------------------------------------------------------------------------


def _norm_of(obj) -> float:
    if isinstance(obj, GridState):
        return obj.norm()
    return float(np.linalg.norm(obj))


def commutator_norm(apply_x, apply_y, probes: Sequence) -> float:
    """max over probes of |XY p - YX p| / |p| for two callables.

    Works uniformly for grid actions on GridState probes and truncated
    matrices on coefficient-vector probes.
    """
    if len(probes) == 0:
        raise ValueError("empty probe list")
    worst = 0.0
    for p in probes:
        den = _norm_of(p)
        if den == 0.0:
            raise ValueError("zero-norm probe")
        xy = apply_x(apply_y(p))
        yx = apply_y(apply_x(p))
        worst = max(worst, _norm_of(xy - yx) / den)
    return worst


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
    samples: tuple


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
    x = np.arange(grid_n) / grid_n
    for s, m, n in samples:
        freq_x = m + phi(int(n))
        freq_y = n + beta
        values = np.exp(2j * np.pi * freq_x * x)[:, None] * np.exp(
            2j * np.pi * freq_y * x
        )[None, :]
        state = GridState(values, ("periodic", "periodic"))
        moved = group_action_grid(state, 1, s, boundary)
        expected = state.scaled(np.exp(2j * np.pi * freq_x * s))
        worst = max(worst, (moved - expected).norm() / state.norm())
    return EigenRelationReport(float(worst), tuple(samples))
