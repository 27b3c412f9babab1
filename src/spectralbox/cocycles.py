"""Cocycle identities for boundary eigenvalue data, in any dimension d >= 2.

Commutativity of the induced translation groups is equivalent to product
identities on the unit-modulus eigenvalue sequences of the boundary
unitaries; this module checks those identities over finite index windows,
classifies the 2-D outcomes, and decides quasi-commutativity (joint
diagonalizability in a fixed shifted product basis) for small matrix
models.  All verdicts are relative to the supplied window.

One vectorised kernel checks the pairwise shift identity for every ordered
slot pair; check_cocycle_2d (witnesses ("b-shift" | "a-shift", m, n,
shift, modulus)) and check_cocycle_highdim (witnesses (f, s, n, shift,
modulus)) are adapters over it and both return a CocycleReport.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
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
    "MAX_IDENTITY_TERMS",
    "check_identity_window",
    "Classification",
    "classify_2d",
    "EigenvalueFunctionSet",
    "PhaseLift",
    "check_cocycle_highdim",
    "eigenfunctions_from_tower3d",
    "cyclic_mode_basis",
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
    if not abs(mod - 1.0) <= 1e-6:  # NaN fails too
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
        """Build from phase fractions in [0,1): value = exp(i*2*pi*phase).

        Raises ValueError for a NaN or infinite fraction.
        """
        for k, v in [*table.items(), ("default", default)]:
            if not np.isfinite(float(v)):
                raise ValueError(f"phase at {k} is {float(v)}, not finite")
        return cls(
            {int(k): np.exp(2j * np.pi * float(v)) for k, v in table.items()},
            np.exp(2j * np.pi * float(default)),
        )

    def value(self, n: int) -> complex:
        return self.table.get(int(n), self.default)

    def values(self, indices: Sequence[int]) -> np.ndarray:
        return np.array([self.value(int(n)) for n in indices], dtype=complex)


@dataclass(frozen=True)
class PhaseSequenceSet2D:
    """Eigenvalue sequences of the two boundary unitaries on a 2-D window.

    `a` is indexed by the second-coordinate mode n, `b` by the first-
    coordinate mode m; the window's axis 0 is the m-range, axis 1 the
    n-range.  Construction evaluates each sequence once on its range:
    `a_values[j]` is a at the window's j-th n index and `b_values[i]` is b
    at its i-th m index, read-only complex arrays that every check reads.
    Each axis must hold at least two indices, room for a nonzero shift;
    a narrower window raises WindowTooSmallError.
    """

    a: PhaseSequence
    b: PhaseSequence
    window: LatticeWindow
    a_values: np.ndarray = field(init=False, repr=False, compare=False)
    b_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.window.dimension != 2:
            raise ValueError("phase-sequence window needs exactly two axes")
        if any(hi == lo for lo, hi in self.window.ranges):
            raise WindowTooSmallError("need two indices per axis for a nonzero shift")
        for name, seq, axis in (("a_values", self.a, 1), ("b_values", self.b, 0)):
            values = seq.values(self.window.axis_indices(axis))
            values.flags.writeable = False
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class CocycleReport:
    holds: bool
    max_violation: float
    witnesses: tuple = ()


_MAX_WITNESSES = 10  # report readability


def _shift_identity(
    values: Sequence[np.ndarray], window: LatticeWindow, eq_tol: float
) -> CocycleReport:
    """Pairwise shift identities of d eigenvalue arrays over a window.

    values[f] holds v_f at every window tuple, with size 1 on axis f: the
    operator omitting slot f does not see that slot.  For every ordered
    slot pair (f, s), window tuple n and in-window n_s' != n_s the product
      |(v_f(n) - v_f(n with n_s -> n_s')) (1 - v_s(n))|
    must stay below eq_tol.  Witnesses are (f, s, n, n_s' - n_s, modulus),
    shifted slot s outermost, then f, then (n_s, n_s', the other axes) in
    row-major order; at most _MAX_WITNESSES of them.  One n_s is held at a
    time, so memory is the window's size, not M_s times it.
    """
    maxima = []
    witnesses = []
    for s in range(window.dimension):
        # v_s does not see slot s: one row of 1 - v_s serves every n_s
        one_minus_vs = (1.0 - np.moveaxis(values[s], s, 0))[0]
        for f in range(window.dimension):
            if f == s:
                continue
            vf = np.moveaxis(values[f], s, 0)
            # one n_s at a time, every n_s' along the first axis
            for i, row in enumerate(vf):
                viol = np.abs((row - vf) * one_minus_vs)
                viol[i] = 0.0
                maxima.append(viol.max())
                room = _MAX_WITNESSES - len(witnesses)
                if room <= 0 or not maxima[-1] >= eq_tol:
                    continue
                for i2, *rest in np.argwhere(viol >= eq_tol)[:room]:
                    pos = [*rest[:s], i, *rest[s:]]
                    n = tuple(int(lo + p) for (lo, _), p in zip(window.ranges, pos))
                    witnesses.append(
                        (f, s, n, int(i2 - i), float(viol[(i2, *rest)]))
                    )
    max_violation = float(np.max(maxima))
    return CocycleReport(max_violation < eq_tol, max_violation, tuple(witnesses))


def check_cocycle_2d(
    seqs: PhaseSequenceSet2D, eq_tol: float = 1e-10
) -> CocycleReport:
    """Window check of (b_m - b_{m+k})(1 - a_n) = 0 and its mirror.

    Both identities are evaluated for every in-window pair of indices and
    every nonzero in-window shift; `holds` iff every product has modulus
    below eq_tol.  Up to ten witness tuples (identity, m, n, shift,
    modulus) are returned otherwise, the "b-shift" ones first.
    """
    # a is v_0 (blind to slot 0, the m axis), b is v_1 (blind to slot 1)
    report = _shift_identity(
        (seqs.a_values[None, :], seqs.b_values[:, None]), seqs.window, eq_tol
    )
    witnesses = tuple(
        ("b-shift" if s == 0 else "a-shift", m, n, shift, modulus)
        for _, s, (m, n), shift, modulus in report.witnesses
    )
    return replace(report, witnesses=witnesses)


# comparisons check_single_identity_2d may make, M^2 N^2 for an M x N
# window: about a second at radius 48; radius 49 is the widest square window
MAX_IDENTITY_TERMS = 10**8
# entries of one single-identity block: a radius-32 m1 row (65^3) fits whole
_IDENTITY_BLOCK = 2**19


def check_identity_window(window: LatticeWindow) -> None:
    """Raise ValueError unless check_single_identity_2d fits the work cap."""
    m, n = (hi - lo + 1 for lo, hi in window.ranges)
    terms = m * m * n * n
    if terms > MAX_IDENTITY_TERMS:
        raise ValueError(
            f"window {m} x {n} needs {terms} single-identity comparisons, "
            f"more than {MAX_IDENTITY_TERMS}"
        )


def check_single_identity_2d(
    seqs: PhaseSequenceSet2D, eq_tol: float = 1e-10
) -> bool:
    """(1 - b_{m+k})(1 - a_n) = (1 - b_m)(1 - a_{n+l}) over the window.

    The M^2 N^2 comparisons run in blocks of one m1 row, and of at most
    _IDENTITY_BLOCK entries within a row.
    """
    p = np.outer(1.0 - seqs.b_values, 1.0 - seqs.a_values)  # p[m, n]
    cols = np.arange(p.shape[1])
    step = max(1, _IDENTITY_BLOCK // p.size)
    for m1, row in enumerate(p):
        for lo in range(0, cols.size, step):
            # p[m2, n1] against p[m1, n2] for all m2 != m1, n1 != n2
            n_shift = cols[lo : lo + step, None] != cols[None, :]
            diff = np.abs(p[:, lo : lo + step, None] - row[None, None, :]) * n_shift
            diff[m1] = 0.0
            if not diff.max() < eq_tol:
                return False
    return True


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
    one_minus_a = 1.0 - seqs.a_values
    one_minus_b = 1.0 - seqs.b_values
    a_one = bool(np.all(np.abs(one_minus_a) < eq_tol))
    b_one = bool(np.all(np.abs(one_minus_b) < eq_tol))
    product = np.abs(np.outer(one_minus_b, one_minus_a))
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
    """Boundary eigenvalue functions v_j on Z^{d-1}, one per coordinate."""

    dimension: int
    v: tuple[Callable[..., complex], ...]

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.v) != self.dimension:
            raise ValueError("need one eigenvalue function per coordinate")


def check_cocycle_highdim(
    funcs: EigenvalueFunctionSet,
    window: LatticeWindow,
    eq_tol: float = 1e-10,
) -> CocycleReport:
    """Pairwise shift identities for any d >= 2 over all in-window tuples.

    For every ordered slot pair (f, s), every window tuple n and every
    nonzero in-window shift k in slot s the product
      (v_f(n with n_s -> n_s + k) - v_f(n)) (1 - v_s(n))
    must vanish; each v_j is evaluated once per tuple of the other slots.
    For d = 3 these are the six leg identities of the three boundary
    operators; for d = 2, with v = (a, b), the two of check_cocycle_2d.
    Up to ten witnesses (f, s, n, k, modulus) are returned, n the window
    tuple, in the order of the shifted slot s, then f, then (n_s, n_s + k,
    the other slots) row-major.
    """
    d = funcs.dimension
    if window.dimension != d:
        raise ValueError("window arity must match the dimension")
    sizes = [window.axis_indices(s).size for s in range(d)]
    values = []
    for j in range(d):
        args = list(
            itertools.product(
                *(window.axis_indices(s).tolist() for s in range(d) if s != j)
            )
        )
        vals = np.array([complex(funcs.v[j](*t)) for t in args], dtype=complex)
        bad = np.flatnonzero(~(np.abs(np.abs(vals) - 1.0) <= 1e-6))
        if bad.size:
            raise UnitModulusError(
                f"v[{j}]{args[bad[0]]} has modulus {abs(vals[bad[0]])}"
            )
        values.append(vals.reshape(sizes[:j] + [1] + sizes[j + 1 :]))
    return _shift_identity(values, window, eq_tol)


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
    omitting the third multiplies (k,l) by exp(i*2*pi*gamma(k,l)).
    """
    beta, gamma = _tower3d_levels(spec)
    v1 = PhaseLift(IntFunction.constant(0.0), ())
    v2 = PhaseLift(beta, (0,))
    v3 = PhaseLift(gamma, (0, 1))
    return EigenvalueFunctionSet(dimension=3, v=(v1, v2, v3))


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
