import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from spectralbox.cocycles import (
    BoundaryEigenvalues,
    Classification,
    CocycleReport,
    UnitModulusError,
    WindowTooSmallError,
    check_cocycle,
    check_cocycle_2d,
    check_single_identity_2d,
    classify_2d,
)
from spectralbox.grid import fft_mode_indices
from spectralbox.groups import DiagonalBoundary
from spectralbox.model import ArityMismatchError, IntFunction, LatticeWindow, Tower


def unit(x):
    return np.exp(2j * np.pi * x)


def window2(radius=2):
    return LatticeWindow.centered(radius, 2)


def pair(a, b, window):
    return BoundaryEigenvalues.from_pair(a, b, window)


def phases(table=None, default=0.0):
    """A phase table of one member of a pair, keyed by one index."""
    return IntFunction(1, default, table or {})


ONE = phases()  # phase 0 everywhere: the sequence identically one


def random_unit_sequence(rng, radius=2):
    return IntFunction(
        1,
        table={int(k): rng.random() for k in range(-radius, radius + 1)},
        default=rng.random(),
    )


def random_pair(rng, trial, radius=2):
    """(a, b) by trial % 5: a identically one, b identically one, both
    generic, or a moved at one index, by a large phase or by one near 1e-11
    so that the products land on either side of eq_tol."""
    one = ONE
    kind = trial % 5
    if kind == 0:
        return one, random_unit_sequence(rng, radius)
    if kind == 1:
        return random_unit_sequence(rng, radius), one
    if kind == 2:
        return random_unit_sequence(rng, radius), random_unit_sequence(rng, radius)
    phase = 0.1 + 0.8 * rng.random() if kind == 3 else 10 ** rng.uniform(-11.5, -10)
    moved = phases({int(rng.integers(-1, 2)): phase})
    return moved, random_unit_sequence(rng, radius)


# ---------------------------------------------------------------------------
# test-only references: the direct forms the checks are measured against
# ---------------------------------------------------------------------------

MAX_WITNESSES = 10


def _renormalized(value):
    return complex(value / abs(value))


def reference_values(fn, keys):
    """exp(i*2*pi*fn(k)) at each key, an index or an index tuple.

    A copy of what the complex-sequence type that the window fill
    replaced computed, built from phases and read at keys: numpy's scalar
    exp of every table phase and of the default, each divided by its
    modulus, then one lookup per key.  The fill must equal it bit for bit.
    """
    lifted = {
        k: _renormalized(complex(np.exp(2j * np.pi * float(v))))
        for k, v in fn.table.items()
    }
    default = _renormalized(complex(np.exp(2j * np.pi * float(fn.default))))
    keys = [tuple(k) if np.ndim(k) else (int(k),) for k in keys]
    return np.array([lifted.get(k, default) for k in keys], dtype=complex)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_cocycle_2d(a_seq, b_seq, window, eq_tol=1e-10):
    """Both 2-D identities as two M x M x N / N x N x M arrays."""
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    a = reference_values(a_seq, n_idx)
    b = reference_values(b_seq, m_idx)
    witnesses = []
    b_diff = b[:, None] - b[None, :]
    prod1 = np.abs(b_diff[:, :, None] * (1.0 - a)[None, None, :])
    viol1 = prod1 * (~np.eye(m_idx.size, dtype=bool))[:, :, None]
    a_diff = a[:, None] - a[None, :]
    prod2 = np.abs(a_diff[:, :, None] * (1.0 - b)[None, None, :])
    viol2 = prod2 * (~np.eye(n_idx.size, dtype=bool))[:, :, None]
    max_violation = float(max(viol1.max(), viol2.max()))
    holds = max_violation < eq_tol
    if not holds:
        for (i, i2, j) in np.argwhere(viol1 >= eq_tol)[:MAX_WITNESSES]:
            witnesses.append(
                ("b-shift", int(m_idx[i]), int(n_idx[j]),
                 int(m_idx[i2] - m_idx[i]), float(viol1[i, i2, j]))
            )
        room = MAX_WITNESSES - len(witnesses)
        for (i, i2, j) in np.argwhere(viol2 >= eq_tol)[:room]:
            witnesses.append(
                ("a-shift", int(m_idx[j]), int(n_idx[i]),
                 int(n_idx[i2] - n_idx[i]), float(viol2[i, i2, j]))
            )
    return CocycleReport(holds, max_violation, tuple(witnesses))


def reference_single_identity_2d(a, b, window, eq_tol=1e-10):
    """The single identity as one dense M x M x N x N array."""
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    p = np.outer(1.0 - reference_values(b, m_idx), 1.0 - reference_values(a, n_idx))
    diff = np.abs(p[None, :, :, None] - p[:, None, None, :])  # [m1, m2, n1, n2]
    mask = (
        (~np.eye(m_idx.size, dtype=bool))[:, :, None, None]
        & (~np.eye(n_idx.size, dtype=bool))[None, None, :, :]
    )
    return bool((diff * mask).max() < eq_tol)


def _omit(tup, slot):
    return tup[:slot] + tup[slot + 1 :]


def reference_highdim(v, window, eq_tol=1e-10):
    """Slot pairs j < k, window tuples and shifts as plain Python loops.

    v[j] is a callable on the d - 1 indices other than slot j.  Witnesses
    are (f, s, n, shift, modulus): v_f moved along slot s.
    """
    d = len(v)
    witnesses = []
    max_violation = 0.0
    for j in range(d):
        for k in range(j + 1, d):
            for n in window.indices():
                vj = complex(v[j](*_omit(n, j)))
                vk = complex(v[k](*_omit(n, k)))
                for f, s, one_minus in ((j, k, 1.0 - vk), (k, j, 1.0 - vj)):
                    lo, hi = window.ranges[s]
                    for ns2 in range(lo, hi + 1):
                        if ns2 == n[s]:
                            continue
                        shifted = n[:s] + (ns2,) + n[s + 1 :]
                        val = abs(
                            (complex(v[f](*_omit(shifted, f)))
                             - complex(v[f](*_omit(n, f)))) * one_minus
                        )
                        max_violation = max(max_violation, val)
                        if val >= eq_tol:
                            witnesses.append((f, s, n, ns2 - n[s], val))
    return max_violation < eq_tol, max_violation, witnesses


def tower_callables(tower):
    """The tower's v by output axis, as callables on the other slots that
    read the levels one tuple at a time."""
    v = [None] * tower.dimension
    for j, level in enumerate(tower.levels):
        axis = tower.axis_order[j]

        def vj(*other, level=level, axis=axis, read=tower.axis_order[:j]):
            n = other[:axis] + (None,) + other[axis:]
            return unit(level(*(n[i] for i in read)))

        v[axis] = vj
    return tuple(v)


def eigs_from_callables(v, window):
    """BoundaryEigenvalues holding v[j] at every window tuple."""
    sizes = [hi - lo + 1 for lo, hi in window.ranges]
    values = []
    for j, vj in enumerate(v):
        others = itertools.product(
            *(window.axis_indices(s).tolist() for s in range(len(v)) if s != j)
        )
        vals = np.array([complex(vj(*t)) for t in others], dtype=complex)
        values.append(vals.reshape(sizes[:j] + [1] + sizes[j + 1 :]))
    return BoundaryEigenvalues(window, tuple(values))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_phase_tables_reject_non_finite_fractions(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside"):
            phases({1: bad})
        with pytest.raises(ValueError, match="outside"):
            phases(default=bad)


def test_cocycle_2d_matches_reference_exactly():
    rng = np.random.default_rng(17)
    windows = [
        LatticeWindow.centered(2, 2),
        LatticeWindow(((0, 2), (0, 3))),
        LatticeWindow(((-3, 3), (-1, 1))),
        LatticeWindow.centered(4, 2),
    ]
    kinds = set()
    for trial in range(40):
        a, b = random_pair(rng, trial)
        window = windows[trial // 5 % len(windows)]
        got = check_cocycle_2d(pair(a, b, window))
        assert got == reference_cocycle_2d(a, b, window)
        kinds.add(frozenset(w[0] for w in got.witnesses))
    assert {frozenset(), frozenset({"b-shift"}), frozenset({"b-shift", "a-shift"})} <= kinds


def test_cocycle_2d_lists_both_witness_kinds_like_reference():
    # 3 x 4 window: four b-shift and six a-shift violations
    a = phases({1: 0.25})
    b = phases({1: 0.5})
    window = LatticeWindow(((0, 2), (0, 3)))
    got = check_cocycle_2d(pair(a, b, window))
    assert got == reference_cocycle_2d(a, b, window)
    assert [w[0] for w in got.witnesses] == ["b-shift"] * 4 + ["a-shift"] * 6


def test_single_identity_matches_dense_reference():
    rng = np.random.default_rng(23)
    failing = (
        phases({0: 0.0, 1: 0.25, 2: 0.0}),
        phases({0: 0.0, 1: 0.5, 2: 0.0}),
        LatticeWindow(((0, 2), (0, 2))),
    )
    cases = [failing] + [
        (*random_pair(rng, trial), LatticeWindow(((-2, 1), (-1, 3))))
        for trial in range(24)
    ]
    verdicts = set()
    for a, b, window in cases:
        got = check_single_identity_2d(pair(a, b, window))
        assert got == reference_single_identity_2d(a, b, window)
        verdicts.add(got)
    assert verdicts == {True, False}


def _largest_compared_distance(a, b, window):
    """max |p[m2, n1] - p[m1, n2]| over m2 != m1, n1 != n2, densely."""
    m_idx, n_idx = window.axis_indices(0), window.axis_indices(1)
    p = np.outer(1.0 - reference_values(b, m_idx), 1.0 - reference_values(a, n_idx))
    diff = np.abs(p[None, :, :, None] - p[:, None, None, :])
    mask = (
        (~np.eye(m_idx.size, dtype=bool))[:, :, None, None]
        & (~np.eye(n_idx.size, dtype=bool))[None, None, :, :]
    )
    return float((diff * mask).max())


@pytest.mark.parametrize("spread", [2e-6, 0.3])
def test_single_identity_decides_by_blocks_at_the_tolerance(spread):
    # a and b near one put every p within a small disk; eq_tol at the
    # largest compared distance, or one float above it, leaves the row
    # holding that distance to the blocked comparisons: its box reaches
    # at least as far, and the margin lifts it to eq_tol or past it
    rng = np.random.default_rng(int(1 / spread))
    window = LatticeWindow(((-3, 4), (-2, 3)))
    a, b = (
        phases({k: spread * rng.random() for k in range(-4, 5)})
        for _ in range(2)
    )
    eigs = pair(a, b, window)
    edge = _largest_compared_distance(a, b, window)
    assert 0 < edge < 80 * spread**2  # |1 - unit(x)| <= 2 pi x
    for eq_tol, holds in ((edge, False), (np.nextafter(edge, np.inf), True)):
        assert reference_single_identity_2d(a, b, window, eq_tol) is holds
        assert check_single_identity_2d(eigs, eq_tol) is holds


@pytest.mark.parametrize("one_is", ["a", "b", "both"])
def test_single_identity_of_a_commuting_pair_past_the_load_cap_is_quick(one_is):
    # 401^4, about 2.6e10 comparisons without the row bound; p is exactly
    # 0 here, so every row is decided by its box
    rng = np.random.default_rng(31)
    window = window2(200)
    moving = phases({k: rng.random() for k in range(-200, 201)})
    a, b = {"a": (ONE, moving), "b": (moving, ONE), "both": (ONE, ONE)}[one_is]
    eigs = pair(a, b, window)
    start = time.perf_counter()
    assert check_single_identity_2d(eigs) is True
    assert time.perf_counter() - start < 5.0


def test_cocycle_holds_when_a_is_one():
    rng = np.random.default_rng(0)
    eigs = pair(ONE, random_unit_sequence(rng), window2())
    report = check_cocycle_2d(eigs)
    assert report.holds and report.max_violation < 1e-12


def test_cocycle_holds_when_b_is_one():
    rng = np.random.default_rng(1)
    eigs = pair(random_unit_sequence(rng), ONE, window2())
    assert check_cocycle_2d(eigs).holds


def test_cocycle_failing_pair_with_witness():
    # a = (1, i, 1), b = (1, -1, 1) on the window [0,2]^2
    a = phases({0: 0.0, 1: 0.25, 2: 0.0})
    b = phases({0: 0.0, 1: 0.5, 2: 0.0})
    report = check_cocycle_2d(pair(a, b, LatticeWindow(((0, 2), (0, 2)))))
    a, b = reference_values(a, range(3)), reference_values(b, range(3))
    assert not report.holds
    assert 0 < len(report.witnesses) <= 10
    # brute force over all in-window tuples agrees with the reported max
    worst = 0.0
    for m in range(3):
        for m2 in range(3):
            if m2 == m:
                continue
            for n in range(3):
                worst = max(
                    worst, abs((b[m] - b[m2]) * (1 - a[n]))
                )
    for n in range(3):
        for n2 in range(3):
            if n2 == n:
                continue
            for m in range(3):
                worst = max(
                    worst, abs((a[n] - a[n2]) * (1 - b[m]))
                )
    assert report.max_violation == pytest.approx(worst)


def test_cocycle_window_too_small():
    # the pair refuses a one-index axis when it is built, before any check
    for ranges in (((0, 0), (0, 2)), ((0, 2), (0, 0))):
        with pytest.raises(WindowTooSmallError):
            pair(ONE, ONE, LatticeWindow(ranges))


def test_pair_arrays_are_read_only_window_evaluations():
    a = phases({1: 0.25, 4: 0.5}, 0.3)
    b = phases({-1: 0.75})
    eigs = pair(a, b, LatticeWindow(((-2, 1), (0, 4))))
    v0, v1 = eigs.values
    assert v0.shape == (1, 5) and v1.shape == (4, 1)
    assert np.array_equal(v0[0], reference_values(a, range(0, 5)))
    assert np.array_equal(v1[:, 0], reference_values(b, range(-2, 2)))
    for values in eigs.values:
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0


# windows of even and odd widths, with and without index 0; the tables
# reach past every edge, and some keys fall outside the window
FILL_WINDOWS = [
    LatticeWindow(((-8, 7), (-16, 16))),
    LatticeWindow(((3, 9), (-12, -5))),
    LatticeWindow(((-40, -31), (20, 52))),
    LatticeWindow(((0, 1), (-1, 0))),
]


def random_phase_table(rng, arity, lo, hi):
    """Random phases on about half of the tuples of [lo, hi]^arity."""
    keys = itertools.product(range(lo, hi + 1), repeat=arity)
    table = {k: float(rng.random()) for k in keys if rng.random() < 0.5}
    return IntFunction(arity, float(rng.random()), table)


def test_pair_fill_equals_the_reference_lift_bit_for_bit():
    rng = np.random.default_rng(43)
    for window in FILL_WINDOWS:
        (m_lo, m_hi), (n_lo, n_hi) = window.ranges
        for _ in range(10):
            a = random_phase_table(rng, 1, n_lo - 5, n_hi + 5)
            b = random_phase_table(rng, 1, m_lo - 5, m_hi + 5)
            v0, v1 = pair(a, b, window).values
            assert same_bits(v0[0], reference_values(a, window.axis_indices(1)))
            assert same_bits(v1[:, 0], reference_values(b, window.axis_indices(0)))


@pytest.mark.parametrize("d", [2, 3])
def test_tower_fill_equals_the_reference_lift_bit_for_bit(d):
    rng = np.random.default_rng(44 + d)
    windows = FILL_WINDOWS if d == 2 else [
        LatticeWindow(((-2, 1), (3, 5), (-1, 1))),
        LatticeWindow(((1, 4), (-3, 1), (-4, -2))),
    ]
    for window in windows:
        lo = min(lo for lo, _ in window.ranges) - 2
        hi = max(hi for _, hi in window.ranges) + 2
        for _ in range(4):
            order = tuple(int(a) for a in rng.permutation(d))
            levels = [IntFunction.constant(0.0)]
            levels += [random_phase_table(rng, j, lo, hi) for j in range(1, d)]
            tower = Tower(tuple(levels), order)
            values = BoundaryEigenvalues.from_tower(tower, window).values
            for j, level in enumerate(tower.levels):
                read = order[:j]
                got = np.array([values[order[j]][tuple(
                    0 if a == order[j] else n[a] - window.ranges[a][0]
                    for a in range(d)
                )] for n in window.indices()])
                want = reference_values(
                    level, [tuple(n[a] for a in read) for n in window.indices()]
                ) if j else np.ones(window.cardinality, dtype=complex)
                assert same_bits(got, want)
            if d == 2 and order == (0, 1):
                eigs = pair(ONE, tower.levels[1], window)
                assert all(map(same_bits, values, eigs.values))


@pytest.mark.parametrize("n", [15, 16, 33, 64])
def test_boundary_fill_equals_the_reference_lift_bit_for_bit(n):
    rng = np.random.default_rng(n)
    modes = fft_mode_indices(n)
    for lo, hi in ((-n, n), (modes.min() + 3, modes.max() + 9), (n // 2, 2 * n)):
        for _ in range(5):
            phi = random_phase_table(rng, 1, int(lo), int(hi))
            got = DiagonalBoundary(phi, shift=0.3).eigenvalue_array(n)
            assert same_bits(got, reference_values(phi, modes))


def test_fill_refuses_a_table_of_another_arity():
    with pytest.raises(ArityMismatchError):
        pair(IntFunction(2), ONE, window2())
    with pytest.raises(ArityMismatchError):
        DiagonalBoundary(IntFunction.constant(0.3)).eigenvalue_array(8)


@pytest.mark.parametrize("ranges", [((0, 1), (0, 1999)), ((0, 1999), (0, 1))])
def test_cocycle_checks_hold_window_sized_memory(ranges):
    # a commuting pair; a dense shift kernel or single-identity row needs
    # over 180 MiB here
    rng = np.random.default_rng(29)
    moving = phases({k: rng.random() for k in range(2000)})
    a, b = (moving, ONE) if ranges[0] == (0, 1) else (ONE, moving)
    eigs = pair(a, b, LatticeWindow(ranges))
    for check in (check_cocycle_2d, check_single_identity_2d):
        tracemalloc.start()
        try:
            result = check(eigs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert getattr(result, "holds", result) is True
        assert peak < 32 * 2**20, (check.__name__, peak)


def test_single_identity_blocks_hold_window_sized_memory():
    # p is zero but for p[1, 1999], so the box bound decides no row and
    # row 0 fails only in its last block: every block of a 2 x 2000 row
    # runs, where one dense row would need over 180 MiB
    a = phases({1999: 0.25})
    b = phases({1: 0.25})
    eigs = pair(a, b, LatticeWindow(((0, 1), (0, 1999))))
    tracemalloc.start()
    try:
        holds = check_single_identity_2d(eigs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert holds is False
    assert peak < 32 * 2**20, peak


def test_cocycle_implies_single_identity():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            a, b = ONE, random_unit_sequence(rng)
        elif kind == 1:
            a, b = random_unit_sequence(rng), ONE
        else:
            a, b = random_unit_sequence(rng), random_unit_sequence(rng)
        eigs = pair(a, b, window2())
        if check_cocycle_2d(eigs).holds:
            checked += 1
            assert check_single_identity_2d(eigs)
    assert checked >= 130  # the constructed commuting cases all landed


def test_single_identity_fails_for_failing_pair():
    a = phases({0: 0.0, 1: 0.25, 2: 0.0})
    b = phases({0: 0.0, 1: 0.5, 2: 0.0})
    assert not check_single_identity_2d(pair(a, b, LatticeWindow(((0, 2), (0, 2)))))


def test_classification_cases():
    rng = np.random.default_rng(5)
    b = random_unit_sequence(rng)
    while all(
        abs(unit(b(m)) - 1.0) < 1e-10 for m in range(-2, 3)
    ):  # pragma: no cover
        b = random_unit_sequence(rng)
    assert classify_2d(pair(ONE, b, window2())) is Classification.CLASS_I
    assert classify_2d(pair(b, ONE, window2())) is Classification.CLASS_II
    assert classify_2d(pair(ONE, ONE, window2())) is Classification.LATTICE
    bad_a = phases({0: 0.25})
    assert classify_2d(pair(bad_a, b, window2())) is Classification.NON_COMMUTING


def test_classification_of_constant_pairs_is_the_lattice():
    # a constant pair has no moving sequence, so every difference is zero
    # and both identities hold: alpha + Z^2, unless one side is one
    for a, b, want in (
        (1e-7, 1e-7, Classification.LATTICE),
        (0.3, 0.4, Classification.LATTICE),
        (0.0, 0.4, Classification.CLASS_I),
        (0.3, 0.0, Classification.CLASS_II),
    ):
        eigs = pair(phases(default=a), phases(default=b), window2())
        assert check_cocycle_2d(eigs).holds
        assert classify_2d(eigs) is want


def test_classification_reads_a_sub_tolerance_product_as_non_commuting():
    # a moves by 2 pi 1e-7 and b stays 2 pi 1e-7 away from one: every
    # product is about 3.9e-13, so the shift identities hold, while the
    # sequences say neither is one and a is not constant
    a = phases({0: 2e-7}, default=1e-7)
    b = phases(default=1e-7)
    eigs = pair(a, b, window2())
    report = check_cocycle_2d(eigs)
    assert report.holds and 3e-13 < report.max_violation < 5e-13
    assert classify_2d(eigs) is Classification.NON_COMMUTING


def test_classification_agrees_with_the_cocycle_on_the_seeded_pairs():
    # the pairs of test_cocycle_2d_matches_reference_exactly and of
    # test_cocycle_implies_single_identity, and constant pairs
    cases = []
    rng = np.random.default_rng(17)
    windows = [
        LatticeWindow.centered(2, 2),
        LatticeWindow(((0, 2), (0, 3))),
        LatticeWindow(((-3, 3), (-1, 1))),
        LatticeWindow.centered(4, 2),
    ]
    for trial in range(40):
        a, b = random_pair(rng, trial)
        cases.append((trial % 5, pair(a, b, windows[trial // 5 % len(windows)])))
    rng = np.random.default_rng(7)
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            a, b = ONE, random_unit_sequence(rng)
        elif kind == 1:
            a, b = random_unit_sequence(rng), ONE
        else:
            a, b = random_unit_sequence(rng), random_unit_sequence(rng)
        cases.append((None, pair(a, b, window2())))
    rng = np.random.default_rng(23)
    for trial in range(20):
        a, b = (phases(default=float(p)) for p in rng.random(2))
        cases.append((None, pair(a, b, window2())))
    edge = 0
    for kind, eigs in cases:
        report = check_cocycle_2d(eigs)
        if (classify_2d(eigs) is not Classification.NON_COMMUTING) == report.holds:
            continue
        # only at the tolerance: random_pair's kind 4 moves a by 1e-11.5 to
        # 1e-10, and a deviation from one below eq_tol reads as a
        # identically one while its products with |1 - b_m| <= 2 and
        # |b_m - b_m'| <= 2 reach eq_tol
        edge += 1
        assert kind == 4
        assert np.abs(1.0 - eigs.values[0]).max() < 1e-10 <= report.max_violation < 2e-10
    assert edge < len(cases) // 50


# ---------------------------------------------------------------------------
# higher dimensions
# ---------------------------------------------------------------------------


def aligned_tower3d():
    """Both tables nonconstant, but gamma(k,.) is constant wherever
    beta(k) != 0, so the shift identities hold."""
    beta = IntFunction(1, default=0.0, table={1: 0.5, 2: 0.25})
    gamma = IntFunction(
        2,
        default=0.0,
        table={
            (0, 0): 0.1,
            (0, 1): 0.7,
            (0, -1): 0.3,
            (1, 0): 0.6,
            (1, 1): 0.6,
            (1, -1): 0.6,
            (2, 0): 0.9,
            (2, 1): 0.9,
            (2, -1): 0.9,
        },
    )
    # pad gamma so the k = 1, 2 fibers stay l-constant over any window
    table = dict(gamma.table)
    for l in range(-4, 5):
        table[(1, l)] = 0.6
        table[(2, l)] = 0.9
    gamma = IntFunction(2, default=0.0, table=table)
    return Tower((IntFunction.constant(0.0), beta, gamma))


def generic_tower3d():
    """Two fibers with nonconstant gamma and different beta values."""
    beta = IntFunction(1, default=0.0, table={0: 0.5, 1: 0.25})
    gamma = IntFunction(
        2, default=0.0, table={(0, 0): 0.3, (1, 1): 0.8, (0, 1): 0.05}
    )
    return Tower((IntFunction.constant(0.0), beta, gamma))


def random_tower(rng, d, radius=2, axis_order=None):
    """Level 0 zero; each higher level a random table on part of the
    radius cube, with phases that are often 0 so that some towers pass."""
    levels = [IntFunction.constant(0.0)]
    for j in range(1, d):
        table = {}
        if rng.random() < 0.7:
            for key in itertools.product(range(-radius, radius + 1), repeat=j):
                if rng.random() < 0.4:
                    table[key] = float(rng.choice([0.25, 0.5, rng.random()]))
        default = float(rng.choice([0.0, 0.0, rng.random()]))
        levels.append(IntFunction(j, default=default, table=table))
    return Tower(tuple(levels), axis_order)


def test_tower_eigenvalue_formulas():
    window = LatticeWindow.centered(2, 3)
    at = lambda k: k + 2  # array position of window index k
    v = BoundaryEigenvalues.from_tower(aligned_tower3d(), window).values
    assert [x.shape for x in v] == [(1, 5, 5), (5, 1, 5), (5, 5, 1)]
    assert np.all(v[0] == 1.0)
    assert v[1][at(1), 0, at(-2)] == pytest.approx(-1.0)  # beta(1) = 0.5
    assert v[2][at(2), at(0), 0] == pytest.approx(unit(0.9))
    zero = Tower((IntFunction.constant(0.0), IntFunction(1), IntFunction(2)))
    assert all(np.all(x == 1.0) for x in BoundaryEigenvalues.from_tower(zero, window).values)
    # gamma(1, 2) = 0.25 -> value i
    spec2 = Tower((
        IntFunction.constant(0.0),
        IntFunction(1),
        IntFunction(2, default=0.0, table={(1, 2): 0.25}),
    ))
    v2 = BoundaryEigenvalues.from_tower(spec2, window).values[2]
    assert v2[at(1), at(2), 0] == pytest.approx(1j)
    assert not any(x.flags.writeable for x in v)


def test_planar_tower_is_the_pair_with_a_one():
    rng = np.random.default_rng(31)
    window = LatticeWindow(((-3, 2), (-1, 3)))
    for _ in range(5):
        beta = IntFunction(
            1,
            default=float(rng.random()),
            table={k: float(rng.random()) for k in range(-4, 4) if rng.random() < 0.7},
        )
        tower = BoundaryEigenvalues.from_tower(
            Tower((IntFunction.constant(0.0), beta)), window
        )
        eigs = pair(ONE, beta, window)
        for got, want in zip(tower.values, eigs.values):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert check_cocycle_2d(tower) == check_cocycle_2d(eigs)


def test_from_tower_rejects_only_a_nonzero_level_zero_and_one_axis():
    beta, gamma = IntFunction(1), IntFunction(2)
    BoundaryEigenvalues.from_tower(
        Tower((IntFunction.constant(0.0), beta)), LatticeWindow.centered(1, 2)
    )
    BoundaryEigenvalues.from_tower(
        Tower((IntFunction.constant(0.0), beta, gamma), (0, 2, 1)),
        LatticeWindow.centered(1, 3),
    )
    with pytest.raises(ValueError, match="nonzero level 0"):
        BoundaryEigenvalues.from_tower(
            Tower((IntFunction.constant(0.5), beta, gamma)),
            LatticeWindow.centered(1, 3),
        )
    with pytest.raises(ValueError, match="d >= 2"):
        BoundaryEigenvalues.from_tower(
            Tower((IntFunction.constant(0.0),)), LatticeWindow.centered(1, 1)
        )


def test_highdim_one_index_axis_is_too_small():
    # every shift along a one-index axis would pass vacuously
    window = LatticeWindow(((-1, 1), (0, 0), (-1, 1)))
    with pytest.raises(WindowTooSmallError):
        BoundaryEigenvalues.from_tower(generic_tower3d(), window)


def test_two_dimensional_checks_refuse_other_d():
    eigs = BoundaryEigenvalues.from_tower(aligned_tower3d(), LatticeWindow.centered(1, 3))
    for check in (check_cocycle_2d, check_single_identity_2d, classify_2d):
        with pytest.raises(ValueError, match="two axes"):
            check(eigs)


def test_pair_refuses_a_window_of_other_d():
    # a one-axis window used to fail with an IndexError on its axis 1
    for window in (LatticeWindow(((0, 2),)), LatticeWindow.centered(1, 3)):
        with pytest.raises(ValueError, match="two axes"):
            BoundaryEigenvalues.from_pair(ONE, ONE, window)


def test_highdim_cocycle_on_aligned_instance():
    eigs = BoundaryEigenvalues.from_tower(aligned_tower3d(), LatticeWindow.centered(2, 3))
    assert check_cocycle(eigs, 1e-10).holds


def test_highdim_cocycle_all_ones():
    zero = Tower((IntFunction.constant(0.0), IntFunction(1), IntFunction(2)))
    eigs = BoundaryEigenvalues.from_tower(zero, LatticeWindow.centered(2, 3))
    assert check_cocycle(eigs, 1e-10).holds


def test_highdim_cocycle_generic_fails():
    eigs = BoundaryEigenvalues.from_tower(generic_tower3d(), LatticeWindow.centered(2, 3))
    report = check_cocycle(eigs, 1e-10)
    assert not report.holds
    assert report.witnesses


def test_highdim_dimension_two_matches_2d_check():
    rng = np.random.default_rng(21)
    for trial in range(12):
        a, b = random_pair(rng, trial)
        eigs = pair(a, b, LatticeWindow(((-2, 1), (-1, 2))))
        got = check_cocycle(eigs, 1e-10)
        want = check_cocycle_2d(eigs)
        assert (got.holds, got.max_violation) == (want.holds, want.max_violation)
        kinds = {0: "b-shift", 1: "a-shift"}
        assert [
            (kinds[s], m, n, k, mod) for _, s, (m, n), k, mod in got.witnesses
        ] == list(want.witnesses)


def test_permuted_axis_order_is_the_identity_order_relabeled():
    # the tower on a window equals the identity-order tower on the window
    # whose axis j is the old axis axis_order[j]
    rng = np.random.default_rng(37)
    verdicts = set()
    for trial in range(16):
        d = 3 + trial % 2
        order = tuple(int(a) for a in rng.permutation(d))
        tower = random_tower(rng, d, radius=1, axis_order=order)
        ranges = tuple((-1, int(rng.integers(0, 3 if d == 3 else 2))) for _ in range(d))
        got = check_cocycle(
            BoundaryEigenvalues.from_tower(tower, LatticeWindow(ranges)), 1e-10
        )
        want = check_cocycle(
            BoundaryEigenvalues.from_tower(
                Tower(tower.levels), LatticeWindow(tuple(ranges[a] for a in order))
            ),
            1e-10,
        )
        assert (got.holds, got.max_violation) == (want.holds, want.max_violation)
        verdicts.add(got.holds)
    assert verdicts == {True, False}


def random_function_set(rng, d, radius, nontrivial):
    """v_j identically one except for the slots in `nontrivial`, which get
    random phases on every (d-1)-tuple of [-radius, radius] (default one)."""
    funcs = []
    for j in range(d):
        table = {}
        if j in nontrivial:
            for t in itertools.product(range(-radius, radius + 1), repeat=d - 1):
                table[t] = unit(rng.random()) if rng.random() < 0.7 else 1.0
        funcs.append(lambda *t, table=table: table.get(t, 1.0))
    return tuple(funcs)


def highdim_cases():
    """(v, window, eigs): v callables for the reference, eigs the arrays."""
    rng = np.random.default_rng(29)
    for tower, window in [
        (aligned_tower3d(), LatticeWindow.centered(2, 3)),
        (generic_tower3d(), LatticeWindow.centered(2, 3)),
        (generic_tower3d(), LatticeWindow(((0, 1), (-1, 1), (0, 3)))),
        (Tower(generic_tower3d().levels, (2, 0, 1)), LatticeWindow(((0, 1), (-1, 1), (0, 3)))),
        *((random_tower(rng, 3), LatticeWindow(((-2, 1), (-1, 2), (-2, 2)))) for _ in range(4)),
        *((random_tower(rng, 4, 1), LatticeWindow.centered(1, 4)) for _ in range(4)),
        *(
            (random_tower(rng, 4, 1, tuple(rng.permutation(4).tolist())),
             LatticeWindow(((-1, 1), (0, 1), (-1, 0), (0, 1))))
            for _ in range(3)
        ),
    ]:
        yield tower_callables(tower), window, BoundaryEigenvalues.from_tower(tower, window)
    for d, window in [
        (3, LatticeWindow.centered(2, 3)),
        (3, LatticeWindow(((-1, 1), (0, 2), (-2, 1)))),
        (4, LatticeWindow.centered(1, 4)),
        (4, LatticeWindow(((-1, 1), (0, 1), (-1, 0), (0, 1)))),
    ]:
        for count in range(d + 1):
            nontrivial = set(rng.permutation(d)[:count].tolist())
            v = random_function_set(rng, d, 2, nontrivial)
            yield v, window, eigs_from_callables(v, window)
        # v_1 and v_{d-1} move at the origin only: a few witnesses of each
        sparse = tuple(
            lambda *t, j=j: unit(0.25 * j) if j in (1, d - 1) and not any(t) else 1.0
            for j in range(d)
        )
        yield sparse, window, eigs_from_callables(sparse, window)


def test_highdim_matches_reference():
    verdicts = {3: set(), 4: set()}
    fully_listed = 0
    for v, window, eigs in highdim_cases():
        holds, worst, ref_witnesses = reference_highdim(v, window)
        got = check_cocycle(eigs, 1e-10)
        assert got.holds == holds
        assert got.max_violation == pytest.approx(worst, rel=1e-12, abs=0.0)
        assert len(got.witnesses) == min(len(ref_witnesses), 10)
        if len(ref_witnesses) <= 10:
            assert {w[:4] for w in got.witnesses} == {w[:4] for w in ref_witnesses}
            fully_listed += bool(ref_witnesses)
        for f, s, n, k, modulus in got.witnesses:
            shifted = n[:s] + (n[s] + k,) + n[s + 1 :]
            direct = abs(
                (v[f](*_omit(shifted, f)) - v[f](*_omit(n, f)))
                * (1.0 - v[s](*_omit(n, s)))
            )
            assert modulus == pytest.approx(direct, rel=1e-12) and modulus >= 1e-10
        verdicts[len(v)].add(holds)
    assert verdicts == {3: {True, False}, 4: {True, False}}
    assert fully_listed == 3


def test_constructor_rejects_non_unit_values():
    window = LatticeWindow.centered(1, 3)
    ones = np.ones((3, 3, 3), dtype=complex)
    values = (ones[:1], np.full((3, 1, 3), np.nan), ones[:, :, :1])
    with pytest.raises(UnitModulusError, match=r"v\[1\]\(-1, -1\)"):
        BoundaryEigenvalues(window, values)
    with pytest.raises(ValueError, match="one eigenvalue array per axis"):
        BoundaryEigenvalues(window, values[:2])
    with pytest.raises(ValueError, match=r"v\[0\] has shape"):
        BoundaryEigenvalues(window, (ones, *values[1:]))
