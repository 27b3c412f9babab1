"""Boundary unitaries and the fractional linear transform behind them.

On the product domain (0,1) x cross-section, the symmetric derivative in
the first variable has extensions indexed by a unitary V on the
cross-section: core-domain vectors are smooth compactly supported
profiles plus the exponential defect pair exp(x) h + exp(1-x) V h, and
the implied boundary condition is psi(1,.) = W psi(0,.) with
W = (eI + V)(I + eV)^{-1}.

Cross sections are truncated to a window of integer Fourier modes, so
cross-section states are coefficient vectors and V a dense unitary
matrix.  Smooth profiles carry analytic first-variable derivatives, which
lets the symmetry checks integrate by Gauss-Legendre quadrature to
machine accuracy; a finite-difference derivative path is kept for
grid-only data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import GridState
from .model import SpectralBoxError

__all__ = [
    "NotUnitaryError",
    "IllConditionedError",
    "BoundaryUnitary",
    "load_boundary_unitary",
    "boundary_unitary_from_phases",
    "cayley_forward",
    "cayley_inverse",
    "BumpProfile",
    "DomainVector",
    "make_domain_vector",
    "boundary_condition_residual",
    "apply_extension",
    "extension_inner",
    "plain_inner",
    "symmetry_defect",
    "random_unitary",
]

_E = math.e


class NotUnitaryError(SpectralBoxError):
    """Input matrix fails the unitarity tolerance."""


class IllConditionedError(SpectralBoxError):
    """A transform's linear solve is too ill-conditioned to trust."""


def _unitarity_defect(matrix: np.ndarray) -> float:
    eye = np.eye(matrix.shape[0])
    return float(np.max(np.abs(matrix.conj().T @ matrix - eye)))


@dataclass(frozen=True)
class BoundaryUnitary:
    """Unitary matrix over the truncated cross-section mode basis."""

    matrix: np.ndarray
    eq_tol: float = 1e-10

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("boundary unitary must be a square matrix")
        object.__setattr__(self, "matrix", mat)
        defect = _unitarity_defect(mat)
        if defect > self.eq_tol:
            raise NotUnitaryError(
                f"unitarity defect {defect:.3e} exceeds {self.eq_tol:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def load_boundary_unitary(text: str, eq_tol: float = 1e-10) -> BoundaryUnitary:
    """Parse a dense boundary unitary from plain text.

    One matrix row per line; entries are "re,im" pairs separated by
    whitespace.  Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries = []
        for token in line.split():
            parts = token.split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"line {lineno}: entry {token!r} is not a re,im pair"
                )
            entries.append(complex(float(parts[0]), float(parts[1])))
        rows.append(entries)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix text must form a nonempty square matrix")
    return BoundaryUnitary(np.array(rows, dtype=complex), eq_tol)


def boundary_unitary_from_phases(phases) -> BoundaryUnitary:
    """Diagonal boundary unitary from a table of phase fractions.

    `phases` is a sequence of fractions in [0, 1), one per cross-section
    mode, giving the diagonal exp(i*2*pi*phase).
    """
    eig = np.exp(2j * np.pi * np.asarray(list(phases), dtype=float))
    return BoundaryUnitary(np.diag(eig))


def _guarded_solve(a: np.ndarray, b: np.ndarray, cond_max: float) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > cond_max:
        raise IllConditionedError(
            f"condition number {cond:.3e} exceeds guard {cond_max:.1e}; "
            f"the input is likely not unitary"
        )
    return np.linalg.solve(a, b)


def cayley_forward(V: BoundaryUnitary, cond_max: float = 1e8) -> np.ndarray:
    """W = (eI + V)(I + eV)^{-1}; unitary whenever V is.

    Well defined because -1/e is never in the spectrum of a unitary.
    """
    mat = V.matrix
    eye = np.eye(mat.shape[0])
    lhs = (eye + _E * mat).T
    rhs = (_E * eye + mat).T
    return _guarded_solve(lhs, rhs, cond_max).T


def cayley_inverse(W: np.ndarray, cond_max: float = 1e8) -> np.ndarray:
    """V = (I - eW)^{-1}(W - eI), the inverse fractional linear map."""
    W = np.asarray(W, dtype=complex)
    eye = np.eye(W.shape[0])
    return _guarded_solve(eye - _E * W, W - _E * eye, cond_max)


# ---------------------------------------------------------------------------
# Domain vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpProfile:
    """Smooth compactly supported profile bump((x-center)/width) * g(y).

    The bump is exp(1 - 1/(1-u^2)) on |u| < 1 and zero outside, so the
    profile vanishes with all derivatives at the support edge; support
    must stay strictly inside (0, 1).  g is given by coefficients over
    the cross-section mode window.
    """

    center: float
    width: float
    y_coeffs: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not (0.0 < self.center - self.width and self.center + self.width < 1.0):
            raise ValueError("bump support must lie strictly inside (0, 1)")
        object.__setattr__(
            self, "y_coeffs", np.asarray(self.y_coeffs, dtype=complex)
        )

    def bump(self, x: np.ndarray) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
        return out

    def bump_derivative(self, x: np.ndarray) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = (
            np.exp(1.0 - 1.0 / (1.0 - ui**2))
            * (-2.0 * ui / (1.0 - ui**2) ** 2)
            / self.width
        )
        return out


@dataclass(frozen=True)
class DomainVector:
    """phi + exp(x) h_plus + exp(1-x) h_minus over the mode window.

    Canonical construction sets h_minus = V h_plus; keeping the two defect
    coefficient vectors independent lets tests materialize deliberately
    broken boundary data.
    """

    phi: Optional[BumpProfile]
    h_plus: np.ndarray
    h_minus: np.ndarray
    modes: np.ndarray

    def __post_init__(self) -> None:
        hp = np.asarray(self.h_plus, dtype=complex)
        hm = np.asarray(self.h_minus, dtype=complex)
        modes = np.asarray(self.modes, dtype=int)
        if hp.shape != hm.shape or hp.shape != modes.shape:
            raise ValueError("defect vectors and mode labels must align")
        if self.phi is not None and self.phi.y_coeffs.shape != modes.shape:
            raise ValueError("profile coefficients must match the mode window")
        object.__setattr__(self, "h_plus", hp)
        object.__setattr__(self, "h_minus", hm)
        object.__setattr__(self, "modes", modes)

    def coeff_profile(self, x: np.ndarray) -> np.ndarray:
        """Cross-section coefficients of psi at each x: shape (len(x), modes)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _defect_coeffs(self, x) + _phi_coeffs(self, x)

    def d_coeff_profile(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of the first-variable derivative (defect part exact)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _defect_deriv_coeffs(self, x) + _dphi_coeffs(self, x)

    def boundary_trace(self, end: int) -> np.ndarray:
        """psi(end, .) as a coefficient vector, end in {0, 1}; phi drops out."""
        if end == 1:
            return _E * self.h_plus + self.h_minus
        if end == 0:
            return self.h_plus + _E * self.h_minus
        raise ValueError("end must be 0 or 1")

    def to_grid(self, nx: int, ny: int) -> GridState:
        """Samples on a closed-x, periodic-y grid over the unit square."""
        x = np.arange(nx) / (nx - 1)
        y = np.arange(ny) / ny
        coeffs = self.coeff_profile(x)
        modes = np.exp(2j * np.pi * np.outer(y, self.modes))
        return GridState(coeffs @ modes.T, ("closed", "periodic"))


def make_domain_vector(
    phi: Optional[BumpProfile],
    h: np.ndarray,
    V: BoundaryUnitary,
    modes: Optional[np.ndarray] = None,
) -> DomainVector:
    """Materialize phi + exp(x) h + exp(1-x) V h."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (V.dim,):
        raise ValueError(
            f"defect vector has shape {h.shape}, boundary unitary needs "
            f"({V.dim},)"
        )
    if modes is None:
        half = V.dim // 2
        modes = np.arange(V.dim) - half
    return DomainVector(phi, h, V.matrix @ h, np.asarray(modes, dtype=int))


def boundary_condition_residual(psi: DomainVector, V: BoundaryUnitary) -> float:
    """l2 distance between psi(1,.) and W psi(0,.) over the mode basis."""
    w = cayley_forward(V)
    return float(
        np.linalg.norm(psi.boundary_trace(1) - w @ psi.boundary_trace(0))
    )


def apply_extension(
    psi: DomainVector, nx: int, ny: int, derivative: str = "analytic"
) -> GridState:
    """The extension operator applied to psi, sampled on the grid.

    Returns (1/i) (d phi/dx + exp(x) h_plus - exp(1-x) h_minus).  The
    smooth part's derivative is analytic by default; "fd" uses centered
    finite differences of the sampled profile instead (one-sided at the
    endpoints, where the profile vanishes anyway), accurate to O(h^2).
    """
    x = np.arange(nx) / (nx - 1)
    if derivative == "analytic":
        coeffs = psi.d_coeff_profile(x)
    elif derivative == "fd":
        coeffs = _defect_deriv_coeffs(psi, x)
        if psi.phi is not None:
            smooth = _phi_coeffs(psi, x)
            h = x[1] - x[0]
            dsmooth = np.empty_like(smooth)
            dsmooth[1:-1] = (smooth[2:] - smooth[:-2]) / (2 * h)
            dsmooth[0] = (smooth[1] - smooth[0]) / h
            dsmooth[-1] = (smooth[-1] - smooth[-2]) / h
            coeffs = coeffs + dsmooth
    else:
        raise ValueError("derivative must be 'analytic' or 'fd'")
    y = np.arange(ny) / ny
    modes = np.exp(2j * np.pi * np.outer(y, psi.modes))
    return GridState((coeffs / 1j) @ modes.T, ("closed", "periodic"))


# x1-integrals of the exponential defect products over (0, 1)
_A = (_E**2 - 1.0) / 2.0  # integral of e^{2x} and of e^{2(1-x)}
_B = _E  # integral of e^{x} e^{1-x}


def _phi_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    if psi.phi is None:
        return np.zeros((x.size, psi.modes.size), dtype=complex)
    return np.outer(psi.phi.amplitude * psi.phi.bump(x), psi.phi.y_coeffs)


def _dphi_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    if psi.phi is None:
        return np.zeros((x.size, psi.modes.size), dtype=complex)
    return np.outer(
        psi.phi.amplitude * psi.phi.bump_derivative(x), psi.phi.y_coeffs
    )


def _defect_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    return (
        np.exp(x)[:, None] * psi.h_plus[None, :]
        + np.exp(1.0 - x)[:, None] * psi.h_minus[None, :]
    )


def _defect_deriv_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    return (
        np.exp(x)[:, None] * psi.h_plus[None, :]
        - np.exp(1.0 - x)[:, None] * psi.h_minus[None, :]
    )


def _midpoint(n_nodes: int) -> tuple[np.ndarray, float]:
    return (np.arange(n_nodes) + 0.5) / n_nodes, 1.0 / n_nodes


def _defect_dots(psi1: DomainVector, psi2: DomainVector):
    p = complex(np.vdot(psi1.h_plus, psi2.h_plus))
    q = complex(np.vdot(psi1.h_plus, psi2.h_minus))
    r = complex(np.vdot(psi1.h_minus, psi2.h_plus))
    s = complex(np.vdot(psi1.h_minus, psi2.h_minus))
    return p, q, r, s


def extension_inner(
    psi1: DomainVector, psi2: DomainVector, n_nodes: int = 256
) -> complex:
    """<H psi1, psi2>: exact defect-block integrals, midpoint for the rest.

    The defect products integrate in closed form (entire integrands); every
    term carrying the compactly supported smooth profile goes through the
    uniform midpoint rule, which is superalgebraically accurate for it.
    """
    p, q, r, s = _defect_dots(psi1, psi2)
    acc = 1j * (_A * p + _B * q - _B * r - _A * s)
    x, w = _midpoint(n_nodes)
    df1 = _dphi_coeffs(psi1, x)
    f2 = _phi_coeffs(psi2, x)
    acc += 1j * w * np.sum(np.conj(df1) * (f2 + _defect_coeffs(psi2, x)))
    acc += 1j * w * np.sum(np.conj(_defect_deriv_coeffs(psi1, x)) * f2)
    return complex(acc)


def plain_inner(
    psi1: DomainVector, psi2: DomainVector, n_nodes: int = 256
) -> complex:
    """<psi1, psi2> with the same exact-plus-midpoint split."""
    p, q, r, s = _defect_dots(psi1, psi2)
    acc = _A * p + _B * q + _B * r + _A * s
    x, w = _midpoint(n_nodes)
    f1 = _phi_coeffs(psi1, x)
    f2 = _phi_coeffs(psi2, x)
    acc += w * np.sum(np.conj(f1) * (f2 + _defect_coeffs(psi2, x)))
    acc += w * np.sum(np.conj(_defect_coeffs(psi1, x)) * f2)
    return complex(acc)


def symmetry_defect(
    psi1: DomainVector, psi2: DomainVector, n_nodes: int = 256
) -> complex:
    """<H psi1, psi2> - <psi1, H psi2>; zero on valid domain vectors.

    The defect-only block reduces exactly to i (e^2 - 1)(<h1+, h2+> -
    <h1-, h2->), which vanishes iff the minus components preserve the
    plus-component inner product (the unitary boundary coupling); broken
    boundary data shows up there undamped by any quadrature error.
    """
    p, _, _, s = _defect_dots(psi1, psi2)
    acc = 2j * _A * (p - s)
    x, w = _midpoint(n_nodes)
    f1, df1 = _phi_coeffs(psi1, x), _dphi_coeffs(psi1, x)
    f2, df2 = _phi_coeffs(psi2, x), _dphi_coeffs(psi2, x)
    g1, dg1 = _defect_coeffs(psi1, x), _defect_deriv_coeffs(psi1, x)
    g2, dg2 = _defect_coeffs(psi2, x), _defect_deriv_coeffs(psi2, x)
    left = 1j * w * (
        np.sum(np.conj(df1) * (f2 + g2)) + np.sum(np.conj(dg1) * f2)
    )
    right = -1j * w * (
        np.sum(np.conj(f1) * (df2 + dg2)) + np.sum(np.conj(g1) * df2)
    )
    return complex(acc + left - right)


def random_unitary(dim: int, rng: np.random.Generator) -> BoundaryUnitary:
    """Haar-ish random unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))[None, :]
    return BoundaryUnitary(q)
