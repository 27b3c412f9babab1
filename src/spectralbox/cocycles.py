"""Cocycle identities for boundary eigenvalue data, in any dimension d >= 2.

Commutativity of the induced translation groups is equivalent to product
identities on the unit-modulus eigenvalues v_j of the d boundary
unitaries.  One type holds those eigenvalues over a finite index window,
BoundaryEigenvalues, built from a 2-D pair (a, b) of phase tables
(IntFunction) or from a staircase Tower of any d and axis order; a phase
p enters as exp(i*2*pi*p), through one lift.  One vectorised kernel,
check_cocycle, checks the pairwise shift identity for every ordered slot
pair (witnesses (f, s, n, shift, modulus)); check_cocycle_2d relabels its
witnesses ("b-shift" | "a-shift", m, n, shift, modulus) for a pair.
classify_2d reads a pair's class off its two sequences alone, a second
oracle beside the kernel.  All verdicts are relative to the supplied
window.

The 2-D identities read a pair relative to the integer modes e_m x e_n.
In the groups module's convention the basis is e_{m+alpha} x e_{n+beta},
the axis-1 boundary has eigenvalues a_n on the y modes e_{n+beta} and the
axis-2 one b_m on the x modes e_{m+alpha}.  Multiplying by the unimodular
exp(-i*2*pi*(alpha*x + beta*y)) carries that basis to e_m x e_n and turns
U_x(s) into exp(i*2*pi*alpha*s) times the group whose boundary has the
eigenvalues a'_n = a_n exp(-i*2*pi*alpha) on e_n; U_y likewise becomes a
scalar times the group of b'_m = b_m exp(-i*2*pi*beta).  Scalars leave
commutators alone, so the groups commute iff the seam-twisted pair
(a', b') satisfies the identities; seam_twisted builds its phase tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import (
    ArityMismatchError,
    IntFunction,
    LatticeWindow,
    SpectralBoxError,
    Tower,
)

__all__ = [
    "UnitModulusError",
    "WindowTooSmallError",
    "BoundaryEigenvalues",
    "seam_twisted",
    "CocycleReport",
    "check_cocycle",
    "check_cocycle_2d",
    "check_single_identity_2d",
    "MAX_IDENTITY_TERMS",
    "check_identity_window",
    "Classification",
    "classify_2d",
]


class UnitModulusError(SpectralBoxError):
    """A stored eigenvalue strays too far from the unit circle."""


class WindowTooSmallError(SpectralBoxError):
    """No nonzero shift fits inside the window on some axis."""


def _renormalize_unit(value: complex, where: str) -> complex:
    mod = abs(value)
    if not abs(mod - 1.0) <= 1e-6:  # NaN fails too
        raise UnitModulusError(
            f"{where}: modulus {mod} too far from 1 to renormalize"
        )
    return complex(value / mod)


def _lift(phase: float) -> complex:
    """exp(i*2*pi*phase), divided by its modulus: the one lift of a phase."""
    return _renormalize_unit(complex(np.exp(2j * np.pi * float(phase))), "phase")


def _lift_window(fn: IntFunction, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """exp(i*2*pi*fn(k)) at every index tuple k of the inclusive ranges.

    The default and each table entry inside the ranges are lifted once, by
    _lift; numpy only places them.  Entries outside the ranges are never
    lifted.  The array has one axis per range, of its length.
    """
    if fn.arity != len(ranges):
        raise ArityMismatchError(
            f"a function of {fn.arity} indices over {len(ranges)} ranges"
        )
    lifted = np.full([hi - lo + 1 for lo, hi in ranges], _lift(fn.default))
    if fn.table:
        keys = np.array(list(fn.table)) - [lo for lo, _ in ranges]
        inside = np.all((keys >= 0) & (keys < lifted.shape), axis=1)
        lifted[tuple(keys[inside].T)] = [
            _lift(p) for p, ok in zip(fn.table.values(), inside) if ok
        ]
    return lifted


def seam_twisted(fn: IntFunction, shift: float) -> IntFunction:
    """(fn - shift) mod 1: the phase table of exp(i*2*pi*fn) times the seam
    factor exp(-i*2*pi*shift).  A difference a rounding below zero wraps
    to 1.0 in floating point and is stored as 0.0, the same phase."""

    def twist(p: float) -> float:
        p = (p - shift) % 1.0
        return 0.0 if p == 1.0 else p

    return IntFunction(
        fn.arity, twist(fn.default), {k: twist(p) for k, p in fn.table.items()}
    )


@dataclass(frozen=True, eq=False)
class BoundaryEigenvalues:
    """Eigenvalues v_j of the d boundary unitaries over a window, d >= 2.

    values[j] holds v_j at every window tuple: a read-only complex array of
    the window's shape with axis j set to 1, since the unitary omitting
    slot j does not see that slot.  Each axis must hold at least two
    indices, room for a nonzero shift (WindowTooSmallError), and every
    value must lie within 1e-6 of the unit circle (UnitModulusError).
    """

    window: LatticeWindow
    values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        d = self.window.dimension
        if d < 2:
            raise ValueError("boundary eigenvalues need a window of d >= 2 axes")
        if len(self.values) != d:
            raise ValueError(f"need one eigenvalue array per axis, {d} in all")
        if any(hi == lo for lo, hi in self.window.ranges):
            raise WindowTooSmallError("need two indices per axis for a nonzero shift")
        sizes = [hi - lo + 1 for lo, hi in self.window.ranges]
        frozen = []
        for j, v in enumerate(self.values):
            v = np.asarray(v, dtype=complex).view()
            want = tuple(sizes[:j] + [1] + sizes[j + 1 :])
            if v.shape != want:
                raise ValueError(f"v[{j}] has shape {v.shape}, expected {want}")
            unit = np.abs(np.abs(v) - 1.0) <= 1e-6  # NaN fails too
            if not unit.all():
                pos = np.unravel_index(np.argmin(unit), v.shape)
                n = tuple(int(lo + p) for (lo, _), p in zip(self.window.ranges, pos))
                raise UnitModulusError(
                    f"v[{j}]{n[:j] + n[j + 1 :]} has modulus {abs(v[pos])}"
                )
            v.flags.writeable = False
            frozen.append(v)
        object.__setattr__(self, "values", tuple(frozen))

    @classmethod
    def from_pair(
        cls, a: IntFunction, b: IntFunction, window: LatticeWindow
    ) -> "BoundaryEigenvalues":
        """The 2-D pair of phase tables: exp(i*2*pi*a(n)), indexed by the
        mode n on axis 1, is v_0; exp(i*2*pi*b(m)), indexed by the mode m
        on axis 0, is v_1."""
        if window.dimension != 2:
            raise ValueError("a 2-D pair needs a window of two axes")
        m_range, n_range = window.ranges
        return cls(
            window,
            (
                _lift_window(a, [n_range])[None, :],
                _lift_window(b, [m_range])[:, None],
            ),
        )

    @classmethod
    def from_tower(cls, tower: Tower, window: LatticeWindow) -> "BoundaryEigenvalues":
        """The staircase's unitaries: the one omitting axis axis_order[j]
        multiplies the fiber over (k_0, ..., k_{j-1}) by
        exp(i*2*pi*levels[j](k_0, ..., k_{j-1})), k_i the window index on
        axis axis_order[i].

        Each array is broadcast, as a view, over every window axis but its
        own, also where the level ignores that axis: the kernel reads
        witness positions from the shapes.  A nonzero level 0 raises
        ValueError, because how that offset enters the boundary data is
        not settled.
        """
        if tower.dimension != window.dimension:
            raise ArityMismatchError(
                f"a tower of {tower.dimension} levels on {window.dimension} axes"
            )
        if tower.levels[0]() != 0.0:
            raise ValueError("no boundary eigenvalues for a nonzero level 0")
        sizes = [hi - lo + 1 for lo, hi in window.ranges]
        values = [None] * tower.dimension
        for j, level in enumerate(tower.levels):
            read = tower.axis_order[:j]  # the axes of k_0, ..., k_{j-1}
            lift = _lift_window(level, [window.ranges[a] for a in read])
            lift = np.transpose(lift, np.argsort(read)).reshape(
                [n if a in read else 1 for a, n in enumerate(sizes)]
            )
            axis = tower.axis_order[j]
            values[axis] = np.broadcast_to(
                lift, [1 if a == axis else n for a, n in enumerate(sizes)]
            )
        return cls(window, tuple(values))


def _pair(eigs: BoundaryEigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of a 2-D pair, as 1-D arrays over the n and the m range."""
    if eigs.window.dimension != 2:
        raise ValueError("the 2-D checks need a window of two axes")
    return eigs.values[0][0], eigs.values[1][:, 0]


@dataclass(frozen=True)
class CocycleReport:
    holds: bool
    max_violation: float
    witnesses: tuple = ()


_MAX_WITNESSES = 10  # report readability


def check_cocycle(eigs: BoundaryEigenvalues, eq_tol: float) -> CocycleReport:
    """Pairwise shift identities of the d eigenvalue arrays over the window.

    For every ordered slot pair (f, s), window tuple n and in-window
    n_s' != n_s the product
      |(v_f(n) - v_f(n with n_s -> n_s')) (1 - v_s(n))|
    must stay below eq_tol.  For d = 3 these are the six leg identities of
    the three boundary operators; for d = 2 the two of check_cocycle_2d.
    Witnesses are (f, s, n, n_s' - n_s, modulus), shifted slot s
    outermost, then f, then (n_s, n_s', the other axes) in row-major
    order; at most _MAX_WITNESSES of them.  One n_s is held at a time, so
    memory is the window's size, not M_s times it.
    """
    values, window = eigs.values, eigs.window
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
    eigs: BoundaryEigenvalues, eq_tol: float = 1e-10
) -> CocycleReport:
    """Window check of (b_m - b_{m+k})(1 - a_n) = 0 and its mirror.

    Both identities are evaluated for every in-window pair of indices and
    every nonzero in-window shift; `holds` iff every product has modulus
    below eq_tol.  Up to ten witness tuples (identity, m, n, shift,
    modulus) are returned otherwise, the "b-shift" ones first.
    """
    _pair(eigs)  # a pair only: a is v_0 (blind to the m axis), b is v_1
    report = check_cocycle(eigs, eq_tol)
    witnesses = tuple(
        ("b-shift" if s == 0 else "a-shift", m, n, shift, modulus)
        for _, s, (m, n), shift, modulus in report.witnesses
    )
    return replace(report, witnesses=witnesses)


# comparisons check_single_identity_2d may make, M^2 N^2 for an M x N
# window: the rows its box bound cannot decide are still quartic, about a
# second at radius 48; radius 49 is the widest square window
MAX_IDENTITY_TERMS = 10**8
# entries of one single-identity block: a radius-32 m1 row (65^3) fits whole
_IDENTITY_BLOCK = 2**19
# a computed |p - q| exceeds the exact one by at most 3u, and the computed
# box bound may fall short of its exact value by 4u (u = 2^-53); 2^-48 is 32u
_IDENTITY_MARGIN = 1.0 + 2.0**-48


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
    eigs: BoundaryEigenvalues, eq_tol: float = 1e-10
) -> bool:
    """(1 - b_{m+k})(1 - a_n) = (1 - b_m)(1 - a_{n+l}) over the window.

    With p[m, n] = (1 - b_m)(1 - a_n), row m1 compares p[m1, n2] with
    every p[m2, n1], m2 != m1 and n1 != n2.  No such |p[m2, n1] - p[m1, n2]|
    exceeds the distance from the row's bounding box in the complex plane
    to the farthest corner of the box of all of p, so a row whose distance,
    times _IDENTITY_MARGIN for the rounding of both, is below eq_tol
    passes without its comparisons; the verdict is the one comparing every
    entry.  Where a or b is identically one p is 0 and no row is compared.
    The other rows' M N^2 comparisons run in blocks of at most
    _IDENTITY_BLOCK entries, and the first failing block ends the check.
    """
    a, b = _pair(eigs)
    p = np.outer(1.0 - b, 1.0 - a)  # p[m, n]
    reach = [
        np.maximum(part.max() - part.min(axis=1), part.max(axis=1) - part.min())
        for part in (p.real, p.imag)
    ]
    undecided = ~(np.hypot(*reach) * _IDENTITY_MARGIN < eq_tol)
    cols = np.arange(p.shape[1])
    step = max(1, _IDENTITY_BLOCK // p.size)
    for m1 in np.flatnonzero(undecided):
        row = p[m1]
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


def classify_2d(eigs: BoundaryEigenvalues, eq_tol: float = 1e-10) -> Classification:
    """The class of a pair, read off its two sequences alone.

    a identically one is class-i and b identically one class-ii; both
    identically one, or both constant, is the translated lattice; any
    other pair is non-commuting, because a moving sequence forces the
    other to be one.  "Identically" and "constant" each mean a maximum
    deviation, from one or from the first entry, below eq_tol.  No
    shift identity is evaluated, so the class is an oracle independent
    of check_cocycle_2d, and the two can disagree only at the tolerance.
    """
    a, b = _pair(eigs)
    a_one, b_one = (bool(np.abs(1.0 - v).max() < eq_tol) for v in (a, b))
    if a_one != b_one:
        return Classification.CLASS_I if a_one else Classification.CLASS_II
    if a_one or all(np.abs(v - v[0]).max() < eq_tol for v in (a, b)):
        return Classification.LATTICE
    return Classification.NON_COMMUTING
