"""Boundary unitaries and the fractional linear transform behind them.

On the product domain (0,1) x cross-section, the symmetric derivative in
the first variable has extensions indexed by a unitary V on the
cross-section: core-domain vectors are smooth compactly supported
profiles plus the exponential defect pair exp(x) h + exp(1-x) V h, and
the implied boundary condition is psi(1,.) = W psi(0,.) with
W = (eI + V)(I + eV)^{-1}.

Cross sections are truncated to a window of integer Fourier modes, so
cross-section states are coefficient vectors and V a dense unitary
matrix.  Smooth profiles carry analytic first-variable derivatives, and
the exponential defect products integrate in closed form, so the
symmetry checks are exact up to a midpoint rule on the smooth part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cocycles import _lift
from .model import SpectralBoxError

__all__ = [
    "NotUnitaryError",
    "IllConditionedError",
    "EmptyBoundaryError",
    "BoundaryUnitary",
    "boundary_unitary_from_phases",
    "cayley_forward",
    "cayley_inverse",
    "BumpProfile",
    "DomainVector",
    "make_domain_vector",
    "boundary_condition_residual",
    "extension_inner",
    "symmetry_defect",
    "random_unitary",
]

_E = math.e
_COND_MAX = 1e8  # condition-number guard of the Cayley solves


class NotUnitaryError(SpectralBoxError):
    """Input matrix fails the unitarity tolerance."""


class IllConditionedError(SpectralBoxError):
    """A transform's linear solve is too ill-conditioned to trust."""


class EmptyBoundaryError(SpectralBoxError):
    """A boundary unitary over no cross-section modes."""


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
        if mat.shape[0] == 0:
            raise EmptyBoundaryError("boundary unitary needs at least one mode")
        object.__setattr__(self, "matrix", mat)
        defect = _unitarity_defect(mat)
        if defect > self.eq_tol:
            raise NotUnitaryError(
                f"unitarity defect {defect:.3e} exceeds {self.eq_tol:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def boundary_unitary_from_phases(phases) -> BoundaryUnitary:
    """Diagonal boundary unitary from a table of phase fractions.

    `phases` is a sequence of fractions in [0, 1), one per cross-section
    mode, giving the diagonal exp(i*2*pi*phase), lifted as every phase
    table is.
    """
    return BoundaryUnitary(np.diag([_lift(p) for p in phases]))


def _guarded_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise IllConditionedError(
            f"condition number {cond:.3e} exceeds guard {_COND_MAX:.1e}; "
            f"the input is likely not unitary"
        )
    return np.linalg.solve(a, b)


def cayley_forward(V: BoundaryUnitary) -> np.ndarray:
    """W = (eI + V)(I + eV)^{-1}; unitary whenever V is.

    Well defined because -1/e is never in the spectrum of a unitary.
    """
    mat = V.matrix
    eye = np.eye(mat.shape[0])
    lhs = (eye + _E * mat).T
    rhs = (_E * eye + mat).T
    return _guarded_solve(lhs, rhs).T


def cayley_inverse(W: np.ndarray) -> np.ndarray:
    """V = (I - eW)^{-1}(W - eI), the inverse fractional linear map."""
    W = np.asarray(W, dtype=complex)
    eye = np.eye(W.shape[0])
    return _guarded_solve(eye - _E * W, W - _E * eye)


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

    def boundary_trace(self, end: int) -> np.ndarray:
        """psi(end, .) as a coefficient vector, end in {0, 1}; phi drops out."""
        if end == 1:
            return _E * self.h_plus + self.h_minus
        if end == 0:
            return self.h_plus + _E * self.h_minus
        raise ValueError("end must be 0 or 1")


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


# x1-integrals of the exponential defect products over (0, 1)
_A = (_E**2 - 1.0) / 2.0  # integral of e^{2x} and of e^{2(1-x)}
_B = _E  # integral of e^{x} e^{1-x}


def _phi_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    if psi.phi is None:
        return np.zeros((x.size, psi.modes.size), dtype=complex)
    return np.outer(psi.phi.bump(x), psi.phi.y_coeffs)


def _dphi_coeffs(psi: DomainVector, x: np.ndarray) -> np.ndarray:
    if psi.phi is None:
        return np.zeros((x.size, psi.modes.size), dtype=complex)
    return np.outer(psi.phi.bump_derivative(x), psi.phi.y_coeffs)


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


def symmetry_defect(
    psi1: DomainVector, psi2: DomainVector, n_nodes: int = 256
) -> complex:
    """<H psi1, psi2> - <psi1, H psi2>; zero on valid domain vectors.

    Both terms are extension_inner, the second as conj(<H psi2, psi1>).
    Their defect-only blocks combine exactly to i (e^2 - 1)(<h1+, h2+> -
    <h1-, h2->), which vanishes iff the minus components preserve the
    plus-component inner product (the unitary boundary coupling); broken
    boundary data shows up there undamped by any quadrature error.
    """
    forward = extension_inner(psi1, psi2, n_nodes)
    return forward - extension_inner(psi2, psi1, n_nodes).conjugate()


def random_unitary(dim: int, rng: np.random.Generator) -> BoundaryUnitary:
    """Haar-ish random unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))[None, :]
    return BoundaryUnitary(q)
