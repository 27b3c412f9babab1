"""Cocycle identities for boundary eigenvalue data, in 2-D and higher.

Commutativity of the induced translation groups is equivalent to product
identities on the unit-modulus eigenvalue sequences of the boundary
unitaries; this module checks those identities over finite index windows,
classifies the 2-D outcomes, and decides quasi-commutativity (joint
diagonalizability in a fixed shifted product basis) for small matrix
models.  All verdicts are relative to the supplied window.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .model import IntFunction, LatticeWindow, SpectralBoxError, Tower

__all__ = [
    "UnitModulusError",
    "WindowTooSmallError",
    "ToleranceInconsistencyError",
    "PhaseSequence",
    "PhaseSequenceSet2D",
    "CocycleReport",
    "check_cocycle_2d",
    "check_single_identity_2d",
    "Classification",
    "classify_2d",
    "EigenvalueFunctionSet",
    "PhaseLift",
    "check_cocycle_highdim",
    "eigenfunctions_from_tower3d",
    "cyclic_mode_basis",
    "boundary_matrices_from_eigenfunctions",
    "boundary_matrices_from_tower3d",
    "diagonal_boundary_matrix",
    "phase_grid",
    "QuasiCommutativityReport",
    "quasi_commutativity_check",
]


class UnitModulusError(SpectralBoxError):
    """A stored eigenvalue strays too far from the unit circle."""


class WindowTooSmallError(SpectralBoxError):
    """No nonzero shift fits inside the window on some axis."""


class ToleranceInconsistencyError(SpectralBoxError):
    """Cocycle holds but neither sequence is constant: tolerance pathology."""


def _renormalize_unit(value: complex, where: str) -> complex:
    mod = abs(value)
    if abs(mod - 1.0) > 1e-6:
        raise UnitModulusError(
            f"{where}: modulus {mod} too far from 1 to renormalize"
        )
    return complex(value / mod)


@dataclass(frozen=True)
class PhaseSequence:
    """Unit-modulus sequence on Z: finite table plus a default value.

    Values within 1e-6 of the circle are renormalized at construction;
    anything farther off is rejected so downstream products stay
    well-conditioned.
    """

    table: Mapping[int, complex] = field(default_factory=dict)
    default: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        normalized = {
            int(k): _renormalize_unit(complex(v), f"table[{k}]")
            for k, v in dict(self.table).items()
        }
        object.__setattr__(self, "table", normalized)
        object.__setattr__(
            self, "default", _renormalize_unit(complex(self.default), "default")
        )

    @classmethod
    def from_phases(
        cls, table: Mapping[int, float], default: float = 0.0
    ) -> "PhaseSequence":
        """Build from phase fractions in [0,1): value = exp(i*2*pi*phase)."""
        return cls(
            {int(k): np.exp(2j * np.pi * float(v)) for k, v in table.items()},
            np.exp(2j * np.pi * float(default)),
        )

    def value(self, n: int) -> complex:
        return self.table.get(int(n), self.default)

    def values(self, indices: Sequence[int]) -> np.ndarray:
        return np.array([self.value(int(n)) for n in indices], dtype=complex)

    def is_constant_one(self, indices: Sequence[int], tol: float) -> bool:
        return bool(np.all(np.abs(self.values(indices) - 1.0) < tol))


@dataclass(frozen=True)
class PhaseSequenceSet2D:
    """Eigenvalue sequences of the two boundary unitaries.

    `a` is indexed by the second-coordinate mode n, `b` by the first-
    coordinate mode m; the window's axis 0 is the m-range, axis 1 the
    n-range.
    """

    a: PhaseSequence
    b: PhaseSequence
    window: LatticeWindow

    def __post_init__(self) -> None:
        if self.window.dimension != 2:
            raise ValueError("phase-sequence window needs exactly two axes")

    def m_indices(self) -> np.ndarray:
        return self.window.axis_indices(0)

    def n_indices(self) -> np.ndarray:
        return self.window.axis_indices(1)


@dataclass(frozen=True)
class CocycleReport:
    holds: bool
    max_violation: float
    witnesses: tuple = ()


_MAX_WITNESSES = 10  # report readability


def check_cocycle_2d(
    seqs: PhaseSequenceSet2D, eq_tol: float = 1e-10
) -> CocycleReport:
    """Window check of (b_m - b_{m+k})(1 - a_n) = 0 and its mirror.

    Both identities are evaluated for every in-window pair of indices and
    every nonzero in-window shift; `holds` iff every product has modulus
    below eq_tol.  Up to ten witness tuples (identity, base index, other
    index, shift, modulus) are returned otherwise.
    """
    m_idx = seqs.m_indices()
    n_idx = seqs.n_indices()
    if m_idx.size < 2 or n_idx.size < 2:
        raise WindowTooSmallError(
            "need at least two indices per axis for a nonzero shift"
        )
    a = seqs.a.values(n_idx)
    b = seqs.b.values(m_idx)

    witnesses = []
    # (b_m - b_{m+k}) (1 - a_n), k != 0
    b_diff = b[:, None] - b[None, :]
    prod1 = np.abs(b_diff[:, :, None] * (1.0 - a)[None, None, :])
    mask1 = ~np.eye(m_idx.size, dtype=bool)
    viol1 = prod1 * mask1[:, :, None]
    # (a_n - a_{n+l}) (1 - b_m), l != 0
    a_diff = a[:, None] - a[None, :]
    prod2 = np.abs(a_diff[:, :, None] * (1.0 - b)[None, None, :])
    mask2 = ~np.eye(n_idx.size, dtype=bool)
    viol2 = prod2 * mask2[:, :, None]

    max_violation = float(max(viol1.max(), viol2.max()))
    holds = max_violation < eq_tol
    if not holds:
        for (i, i2, j) in np.argwhere(viol1 >= eq_tol)[:_MAX_WITNESSES]:
            witnesses.append(
                (
                    "b-shift",
                    int(m_idx[i]),
                    int(n_idx[j]),
                    int(m_idx[i2] - m_idx[i]),
                    float(viol1[i, i2, j]),
                )
            )
        room = _MAX_WITNESSES - len(witnesses)
        for (i, i2, j) in np.argwhere(viol2 >= eq_tol)[:room]:
            witnesses.append(
                (
                    "a-shift",
                    int(m_idx[j]),
                    int(n_idx[i]),
                    int(n_idx[i2] - n_idx[i]),
                    float(viol2[i, i2, j]),
                )
            )
    return CocycleReport(holds, max_violation, tuple(witnesses))


def check_single_identity_2d(
    seqs: PhaseSequenceSet2D, eq_tol: float = 1e-10
) -> bool:
    """(1 - b_{m+k})(1 - a_n) = (1 - b_m)(1 - a_{n+l}) over the window."""
    m_idx = seqs.m_indices()
    n_idx = seqs.n_indices()
    if m_idx.size < 2 or n_idx.size < 2:
        raise WindowTooSmallError(
            "need at least two indices per axis for a nonzero shift"
        )
    a = seqs.a.values(n_idx)
    b = seqs.b.values(m_idx)
    p = np.outer(1.0 - b, 1.0 - a)  # p[m, n]
    # compare p[m2, n1] against p[m1, n2] for all m1 != m2, n1 != n2
    diff = np.abs(
        p[None, :, :, None] - p[:, None, None, :]
    )  # [m1, m2, n1, n2]
    mask = (
        (~np.eye(m_idx.size, dtype=bool))[:, :, None, None]
        & (~np.eye(n_idx.size, dtype=bool))[None, None, :, :]
    )
    return bool((diff * mask).max() < eq_tol)


class Classification(enum.Enum):
    CLASS_I = "class-i"
    CLASS_II = "class-ii"
    LATTICE = "lattice"
    NON_COMMUTING = "non-commuting"


def classify_2d(
    seqs: PhaseSequenceSet2D, eq_tol: float = 1e-10
) -> Classification:
    """Sort a sequence pair into the two commuting classes, the lattice
    case, or non-commuting; the complementarity product (1-a_n)(1-b_m) is
    verified explicitly and a hold-but-neither-constant window raises
    ToleranceInconsistencyError.
    """
    report = check_cocycle_2d(seqs, eq_tol)
    if not report.holds:
        return Classification.NON_COMMUTING
    m_idx = seqs.m_indices()
    n_idx = seqs.n_indices()
    a_one = seqs.a.is_constant_one(n_idx, eq_tol)
    b_one = seqs.b.is_constant_one(m_idx, eq_tol)
    product = np.abs(
        np.outer(1.0 - seqs.b.values(m_idx), 1.0 - seqs.a.values(n_idx))
    )
    if product.max() >= eq_tol or not (a_one or b_one):
        raise ToleranceInconsistencyError(
            "cocycle holds on the window but neither sequence is "
            "identically one (tolerance pathology)"
        )
    if a_one and b_one:
        return Classification.LATTICE
    return Classification.CLASS_I if a_one else Classification.CLASS_II


# ---------------------------------------------------------------------------
# Higher dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseLift:
    """exp(i*2*pi*f(selected args)): a unit-circle lift of a table function."""

    fn: IntFunction
    argmap: tuple[int, ...]

    def __call__(self, *args: int) -> complex:
        picked = tuple(args[i] for i in self.argmap)
        return complex(np.exp(2j * np.pi * self.fn(*picked)))


@dataclass(frozen=True)
class EigenvalueFunctionSet:
    """Boundary eigenvalue functions v_j on Z^{d-1}, plus basis phases."""

    dimension: int
    v: tuple[Callable[..., complex], ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.v) != self.dimension:
            raise ValueError("need one eigenvalue function per coordinate")
        if len(self.phases) != self.dimension:
            raise ValueError("need one phase per coordinate")


def _omit(tup: tuple[int, ...], slot: int) -> tuple[int, ...]:
    return tup[:slot] + tup[slot + 1 :]


@dataclass(frozen=True)
class HighDimCocycleReport:
    holds: bool
    max_violation: float
    witnesses: tuple = ()


def check_cocycle_highdim(
    funcs: EigenvalueFunctionSet,
    window: LatticeWindow,
    eq_tol: float = 1e-10,
) -> HighDimCocycleReport:
    """Pairwise shift identities for d >= 3 over all in-window tuples.

    For every slot pair j < k, every window tuple and every nonzero
    in-window shift the two products
      (v_j(shifted in slot k) - v_j)(1 - v_k)  and
      (v_k(shifted in slot j) - v_k)(1 - v_j)
    must vanish.  For d = 3 this is exactly the six leg identities of the
    three boundary operators.
    """
    d = funcs.dimension
    if d < 3:
        raise ValueError("use the 2-D checker for dimension < 3")
    if window.dimension != d:
        raise ValueError("window arity must match the dimension")

    cache: dict[tuple[int, tuple[int, ...]], complex] = {}

    def v_at(j: int, args: tuple[int, ...]) -> complex:
        key = (j, args)
        if key not in cache:
            val = complex(funcs.v[j](*args))
            if abs(abs(val) - 1.0) > 1e-6:
                raise UnitModulusError(
                    f"v[{j}]{args} has modulus {abs(val)}"
                )
            cache[key] = val
        return cache[key]

    witnesses = []
    max_violation = 0.0
    tuples = list(window.indices())
    for j in range(d):
        for k in range(j + 1, d):
            lo_k, hi_k = window.ranges[k]
            lo_j, hi_j = window.ranges[j]
            for n in tuples:
                vj = v_at(j, _omit(n, j))
                vk = v_at(k, _omit(n, k))
                for nk2 in range(lo_k, hi_k + 1):
                    if nk2 == n[k]:
                        continue
                    shifted = n[:k] + (nk2,) + n[k + 1 :]
                    val = abs(
                        (v_at(j, _omit(shifted, j)) - vj) * (1.0 - vk)
                    )
                    if val > max_violation:
                        max_violation = val
                    if val >= eq_tol and len(witnesses) < _MAX_WITNESSES:
                        witnesses.append(
                            ("shift-k", j, k, n, nk2 - n[k], float(val))
                        )
                for nj2 in range(lo_j, hi_j + 1):
                    if nj2 == n[j]:
                        continue
                    shifted = n[:j] + (nj2,) + n[j + 1 :]
                    val = abs(
                        (v_at(k, _omit(shifted, k)) - vk) * (1.0 - vj)
                    )
                    if val > max_violation:
                        max_violation = val
                    if val >= eq_tol and len(witnesses) < _MAX_WITNESSES:
                        witnesses.append(
                            ("shift-j", j, k, n, nj2 - n[j], float(val))
                        )
    return HighDimCocycleReport(
        max_violation < eq_tol, float(max_violation), tuple(witnesses)
    )


def _tower3d_levels(spec: Tower) -> tuple[IntFunction, IntFunction]:
    """beta = levels[1] and gamma = levels[2] of (k, beta(k)+l, gamma(k,l)+m).

    Raises ValueError for any other tower: another dimension, a permuted
    axis order or a nonzero level 0.
    """
    if (
        spec.dimension != 3
        or spec.axis_order != (0, 1, 2)
        or spec.levels[0]() != 0.0
    ):
        raise ValueError(
            "expected the 3-D staircase (k, beta(k)+l, gamma(k,l)+m): three "
            "levels, identity axis order and a zero level 0"
        )
    return spec.levels[1], spec.levels[2]


def eigenfunctions_from_tower3d(spec: Tower) -> EigenvalueFunctionSet:
    """Boundary eigenvalue functions of the 3-D staircase family.

    The operator omitting the first slot is the identity; the one omitting
    the second slot multiplies fiber k by exp(i*2*pi*beta(k)); the one
    omitting the third multiplies (k,l) by exp(i*2*pi*gamma(k,l)).  Basis
    phases are all zero (the staircase has integer first coordinates).
    """
    beta, gamma = _tower3d_levels(spec)
    v1 = PhaseLift(IntFunction.constant(0.0), ())
    v2 = PhaseLift(beta, (0,))
    v3 = PhaseLift(gamma, (0, 1))
    return EigenvalueFunctionSet(dimension=3, v=(v1, v2, v3), phases=(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Quasi-commutativity on cyclic matrix models
# ---------------------------------------------------------------------------


def cyclic_mode_basis(size: int, shift: float) -> np.ndarray:
    """Orthonormal shifted Fourier basis on Z_size (columns are modes)."""
    j = np.arange(size)
    n = np.arange(size)
    return np.exp(2j * np.pi * np.outer(j, n + shift) / size) / np.sqrt(size)


def diagonal_boundary_matrix(
    eigenvalues: Sequence[complex], shift: float
) -> np.ndarray:
    """Matrix diagonal in the shift-twisted cyclic basis."""
    u = cyclic_mode_basis(len(eigenvalues), shift)
    return u @ np.diag(np.asarray(eigenvalues, dtype=complex)) @ u.conj().T


def boundary_matrices_from_eigenfunctions(
    funcs: EigenvalueFunctionSet, window: LatticeWindow
) -> list[np.ndarray]:
    """Cyclic matrix models of operators diagonal at the declared phases.

    Operator j is diagonal on the funcs.phases-shifted product basis of
    the non-omitted slots with eigenvalues v_j evaluated at the window
    indices; the returned matrices live in the integer-mode product basis
    and feed quasi_commutativity_check directly.
    """
    d = funcs.dimension
    if window.dimension != d:
        raise ValueError("window arity must match the dimension")
    out = []
    for j in range(d):
        slots = [s for s in range(d) if s != j]
        transform = None
        for s in slots:
            u = cyclic_mode_basis(
                len(window.axis_indices(s)), funcs.phases[s]
            )
            transform = u if transform is None else np.kron(transform, u)
        eig = np.array(
            [
                complex(funcs.v[j](*idx))
                for idx in itertools.product(
                    *(window.axis_indices(s).tolist() for s in slots)
                )
            ],
            dtype=complex,
        )
        out.append(transform @ np.diag(eig) @ transform.conj().T)
    return out


def boundary_matrices_from_tower3d(
    spec: Tower, window: LatticeWindow
) -> list[np.ndarray]:
    """Cyclic matrix models of the three staircase boundary operators.

    Matrices act on the integer-mode product basis of the two non-omitted
    slots (slot order preserved, row-major).  The slot-2 eigenbasis of the
    third operator is beta(k)-shifted per fiber, which is exactly what
    makes generic staircases fail quasi-commutativity.
    """
    beta, gamma = _tower3d_levels(spec)
    if window.dimension != 3:
        raise ValueError("window must have three axes")
    k_idx = window.axis_indices(0)
    l_idx = window.axis_indices(1)
    m_idx = window.axis_indices(2)
    mk, ml, mm = len(k_idx), len(l_idx), len(m_idx)

    v1 = np.eye(ml * mm, dtype=complex)

    eig_2 = np.repeat(
        np.exp(2j * np.pi * np.array([beta(int(k)) for k in k_idx])), mm
    )
    v2 = np.diag(eig_2)

    blocks = []
    for k in k_idx:
        eig = np.exp(
            2j * np.pi * np.array([gamma(int(k), int(l)) for l in l_idx])
        )
        blocks.append(diagonal_boundary_matrix(eig, beta(int(k))))
    v3 = np.zeros((mk * ml, mk * ml), dtype=complex)
    for i, block in enumerate(blocks):
        v3[i * ml : (i + 1) * ml, i * ml : (i + 1) * ml] = block
    return [v1, v2, v3]


def phase_grid(step: float, dimension: int) -> list[tuple[float, ...]]:
    """All phase vectors on the uniform grid of the given step in [0,1)."""
    if step <= 0 or step > 1:
        raise ValueError("step must be in (0, 1]")
    count = int(round(1.0 / step))
    ticks = [i * step for i in range(count)]
    return [tuple(p) for p in itertools.product(ticks, repeat=dimension)]


@dataclass(frozen=True)
class QuasiCommutativityReport:
    quasi_commuting: bool
    phases_found: Optional[tuple[float, ...]]
    best_offdiag: float


def quasi_commutativity_check(
    operators: Sequence[np.ndarray],
    candidate_phases: Sequence[tuple[float, ...]],
    window: LatticeWindow,
    eq_tol: float = 1e-10,
) -> QuasiCommutativityReport:
    """Search candidate phase vectors for joint diagonality.

    operators[j] must be the matrix of the boundary operator that omits
    slot j, over the integer-mode product basis of the remaining window
    axes (row-major slot order).  A candidate passes when every operator
    is diagonal in the correspondingly shifted product basis, measured by
    the largest off-diagonal modulus.
    """
    if len(candidate_phases) == 0:
        raise ValueError("empty candidate phase list")
    d = window.dimension
    if len(operators) != d:
        raise ValueError("need one operator per coordinate")
    sizes = [len(window.axis_indices(s)) for s in range(d)]
    for j, op in enumerate(operators):
        expected = int(np.prod([sizes[s] for s in range(d) if s != j]))
        if op.shape != (expected, expected):
            raise ValueError(
                f"operator {j} has shape {op.shape}, expected "
                f"({expected}, {expected})"
            )

    best = np.inf
    for phases in candidate_phases:
        if len(phases) != d:
            raise ValueError("phase vector arity mismatch")
        worst = 0.0
        for j, op in enumerate(operators):
            transform = None
            for s in range(d):
                if s == j:
                    continue
                u = cyclic_mode_basis(sizes[s], float(phases[s]))
                transform = u if transform is None else np.kron(transform, u)
            rotated = transform.conj().T @ op @ transform
            off = rotated - np.diag(np.diag(rotated))
            worst = max(worst, float(np.abs(off).max()))
            if worst >= eq_tol:
                break
        best = min(best, worst)
        if worst < eq_tol:
            return QuasiCommutativityReport(True, tuple(phases), worst)
    return QuasiCommutativityReport(False, None, float(best))
