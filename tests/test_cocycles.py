import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from spectralbox.cocycles import (
    Classification,
    CocycleReport,
    EigenvalueFunctionSet,
    PhaseSequence,
    PhaseSequenceSet2D,
    ToleranceInconsistencyError,
    UnitModulusError,
    WindowTooSmallError,
    boundary_matrices_from_tower3d,
    check_cocycle_2d,
    check_cocycle_highdim,
    check_single_identity_2d,
    classify_2d,
    cyclic_mode_basis,
    diagonal_boundary_matrix,
    eigenfunctions_from_tower3d,
    phase_grid,
    quasi_commutativity_check,
)
from spectralbox.model import IntFunction, LatticeWindow, Tower


def unit(x):
    return np.exp(2j * np.pi * x)


def window2(radius=2):
    return LatticeWindow.centered(radius, 2)


def random_unit_sequence(rng, radius=2):
    return PhaseSequence(
        {int(k): unit(rng.random()) for k in range(-radius, radius + 1)},
        unit(rng.random()),
    )


def random_pair(rng, trial, radius=2):
    """(a, b) by trial % 5: a identically one, b identically one, both
    generic, or a moved at one index, by a large phase or by one near 1e-11
    so that the products land on either side of eq_tol."""
    one = PhaseSequence({}, 1.0)
    kind = trial % 5
    if kind == 0:
        return one, random_unit_sequence(rng, radius)
    if kind == 1:
        return random_unit_sequence(rng, radius), one
    if kind == 2:
        return random_unit_sequence(rng, radius), random_unit_sequence(rng, radius)
    phase = 0.1 + 0.8 * rng.random() if kind == 3 else 10 ** rng.uniform(-11.5, -10)
    moved = PhaseSequence({int(rng.integers(-1, 2)): unit(phase)})
    return moved, random_unit_sequence(rng, radius)


# ---------------------------------------------------------------------------
# test-only references: the direct forms the checks are measured against
# ---------------------------------------------------------------------------

MAX_WITNESSES = 10


def reference_cocycle_2d(seqs, eq_tol=1e-10):
    """Both 2-D identities as two M x M x N / N x N x M arrays."""
    m_idx = seqs.window.axis_indices(0)
    n_idx = seqs.window.axis_indices(1)
    a = seqs.a.values(n_idx)
    b = seqs.b.values(m_idx)
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


def reference_single_identity_2d(seqs, eq_tol=1e-10):
    """The single identity as one dense M x M x N x N array."""
    m_idx = seqs.window.axis_indices(0)
    n_idx = seqs.window.axis_indices(1)
    p = np.outer(1.0 - seqs.b.values(m_idx), 1.0 - seqs.a.values(n_idx))
    diff = np.abs(p[None, :, :, None] - p[:, None, None, :])  # [m1, m2, n1, n2]
    mask = (
        (~np.eye(m_idx.size, dtype=bool))[:, :, None, None]
        & (~np.eye(n_idx.size, dtype=bool))[None, None, :, :]
    )
    return bool((diff * mask).max() < eq_tol)


def _omit(tup, slot):
    return tup[:slot] + tup[slot + 1 :]


def reference_highdim(funcs, window, eq_tol=1e-10):
    """Slot pairs j < k, window tuples and shifts as plain Python loops.

    Witnesses are (f, s, n, shift, modulus): v_f moved along slot s.
    """
    d = funcs.dimension
    witnesses = []
    max_violation = 0.0
    for j in range(d):
        for k in range(j + 1, d):
            for n in window.indices():
                vj = complex(funcs.v[j](*_omit(n, j)))
                vk = complex(funcs.v[k](*_omit(n, k)))
                for f, s, one_minus in ((j, k, 1.0 - vk), (k, j, 1.0 - vj)):
                    lo, hi = window.ranges[s]
                    for ns2 in range(lo, hi + 1):
                        if ns2 == n[s]:
                            continue
                        shifted = n[:s] + (ns2,) + n[s + 1 :]
                        val = abs(
                            (complex(funcs.v[f](*_omit(shifted, f)))
                             - complex(funcs.v[f](*_omit(n, f)))) * one_minus
                        )
                        max_violation = max(max_violation, val)
                        if val >= eq_tol:
                            witnesses.append((f, s, n, ns2 - n[s], val))
    return max_violation < eq_tol, max_violation, witnesses


def test_phase_sequence_renormalizes_and_rejects():
    seq = PhaseSequence({0: 1.0 + 5e-7j}, default=1.0)
    assert abs(abs(seq.value(0)) - 1.0) < 1e-15
    with pytest.raises(UnitModulusError):
        PhaseSequence({0: 1.5})
    with pytest.raises(UnitModulusError):
        PhaseSequence({0: complex("nan")})
    with pytest.raises(UnitModulusError):
        PhaseSequence({}, default=complex("nan+1j"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_from_phases_rejects_non_finite_fractions(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            PhaseSequence.from_phases({1: bad})
        with pytest.raises(ValueError, match="not finite"):
            PhaseSequence.from_phases({}, default=bad)


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
        seqs = PhaseSequenceSet2D(a, b, windows[trial // 5 % len(windows)])
        got = check_cocycle_2d(seqs)
        assert got == reference_cocycle_2d(seqs)
        kinds.add(frozenset(w[0] for w in got.witnesses))
    assert {frozenset(), frozenset({"b-shift"}), frozenset({"b-shift", "a-shift"})} <= kinds


def test_cocycle_2d_lists_both_witness_kinds_like_reference():
    # 3 x 4 window: four b-shift and six a-shift violations
    a = PhaseSequence({1: 1j})
    b = PhaseSequence({1: -1.0})
    seqs = PhaseSequenceSet2D(a, b, LatticeWindow(((0, 2), (0, 3))))
    got = check_cocycle_2d(seqs)
    assert got == reference_cocycle_2d(seqs)
    assert [w[0] for w in got.witnesses] == ["b-shift"] * 4 + ["a-shift"] * 6


def test_single_identity_matches_dense_reference():
    rng = np.random.default_rng(23)
    failing = PhaseSequenceSet2D(
        PhaseSequence({0: 1.0, 1: 1j, 2: 1.0}, 1.0),
        PhaseSequence({0: 1.0, 1: -1.0, 2: 1.0}, 1.0),
        LatticeWindow(((0, 2), (0, 2))),
    )
    cases = [failing] + [
        PhaseSequenceSet2D(*random_pair(rng, trial), LatticeWindow(((-2, 1), (-1, 3))))
        for trial in range(24)
    ]
    verdicts = set()
    for seqs in cases:
        got = check_single_identity_2d(seqs)
        assert got == reference_single_identity_2d(seqs)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_cocycle_holds_when_a_is_one():
    rng = np.random.default_rng(0)
    seqs = PhaseSequenceSet2D(
        PhaseSequence({}, 1.0), random_unit_sequence(rng), window2()
    )
    report = check_cocycle_2d(seqs)
    assert report.holds and report.max_violation < 1e-12


def test_cocycle_holds_when_b_is_one():
    rng = np.random.default_rng(1)
    seqs = PhaseSequenceSet2D(
        random_unit_sequence(rng), PhaseSequence({}, 1.0), window2()
    )
    assert check_cocycle_2d(seqs).holds


def test_cocycle_failing_pair_with_witness():
    # a = (1, i, 1), b = (1, -1, 1) on the window [0,2]^2
    a = PhaseSequence({0: 1.0, 1: 1j, 2: 1.0}, 1.0)
    b = PhaseSequence({0: 1.0, 1: -1.0, 2: 1.0}, 1.0)
    seqs = PhaseSequenceSet2D(a, b, LatticeWindow(((0, 2), (0, 2))))
    report = check_cocycle_2d(seqs)
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
                    worst, abs((b.value(m) - b.value(m2)) * (1 - a.value(n)))
                )
    for n in range(3):
        for n2 in range(3):
            if n2 == n:
                continue
            for m in range(3):
                worst = max(
                    worst, abs((a.value(n) - a.value(n2)) * (1 - b.value(m)))
                )
    assert report.max_violation == pytest.approx(worst)


def test_cocycle_window_too_small():
    # the pair refuses a one-index axis when it is built, before any check
    for ranges in (((0, 0), (0, 2)), ((0, 2), (0, 0))):
        with pytest.raises(WindowTooSmallError):
            PhaseSequenceSet2D(
                PhaseSequence({}, 1.0), PhaseSequence({}, 1.0), LatticeWindow(ranges)
            )


def test_pair_arrays_are_read_only_window_evaluations():
    a = PhaseSequence({1: 1j, 4: -1.0}, unit(0.3))
    b = PhaseSequence({-1: -1j})
    seqs = PhaseSequenceSet2D(a, b, LatticeWindow(((-2, 1), (0, 4))))
    assert np.array_equal(seqs.a_values, a.values(range(0, 5)))
    assert np.array_equal(seqs.b_values, b.values(range(-2, 2)))
    for values in (seqs.a_values, seqs.b_values):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


@pytest.mark.parametrize("ranges", [((0, 1), (0, 1999)), ((0, 1999), (0, 1))])
def test_cocycle_checks_hold_window_sized_memory(ranges):
    # a commuting pair, so the single identity runs every block; a dense
    # shift kernel or single-identity row needs over 180 MiB here
    rng = np.random.default_rng(29)
    moving = PhaseSequence({k: unit(rng.random()) for k in range(2000)})
    one = PhaseSequence({}, 1.0)
    a, b = (moving, one) if ranges[0] == (0, 1) else (one, moving)
    seqs = PhaseSequenceSet2D(a, b, LatticeWindow(ranges))
    for check in (check_cocycle_2d, check_single_identity_2d):
        tracemalloc.start()
        try:
            result = check(seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert getattr(result, "holds", result) is True
        assert peak < 32 * 2**20, (check.__name__, peak)


def test_cocycle_implies_single_identity():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        kind = trial % 3
        if kind == 0:
            a, b = PhaseSequence({}, 1.0), random_unit_sequence(rng)
        elif kind == 1:
            a, b = random_unit_sequence(rng), PhaseSequence({}, 1.0)
        else:
            a, b = random_unit_sequence(rng), random_unit_sequence(rng)
        seqs = PhaseSequenceSet2D(a, b, window2())
        if check_cocycle_2d(seqs).holds:
            checked += 1
            assert check_single_identity_2d(seqs)
    assert checked >= 130  # the constructed commuting cases all landed


def test_single_identity_fails_for_failing_pair():
    a = PhaseSequence({0: 1.0, 1: 1j, 2: 1.0}, 1.0)
    b = PhaseSequence({0: 1.0, 1: -1.0, 2: 1.0}, 1.0)
    seqs = PhaseSequenceSet2D(a, b, LatticeWindow(((0, 2), (0, 2))))
    assert not check_single_identity_2d(seqs)


def test_classification_cases():
    rng = np.random.default_rng(5)
    b = random_unit_sequence(rng)
    while all(
        abs(b.value(m) - 1.0) < 1e-10 for m in range(-2, 3)
    ):  # pragma: no cover
        b = random_unit_sequence(rng)
    one = PhaseSequence({}, 1.0)
    assert classify_2d(PhaseSequenceSet2D(one, b, window2())) is Classification.CLASS_I
    assert classify_2d(PhaseSequenceSet2D(b, one, window2())) is Classification.CLASS_II
    assert classify_2d(PhaseSequenceSet2D(one, one, window2())) is Classification.LATTICE
    bad_a = PhaseSequence({0: 1j}, 1.0)
    assert (
        classify_2d(PhaseSequenceSet2D(bad_a, b, window2()))
        is Classification.NON_COMMUTING
    )


def test_classification_tolerance_pathology():
    a = PhaseSequence({}, unit(1e-7))
    b = PhaseSequence({}, unit(1e-7))
    with pytest.raises(ToleranceInconsistencyError):
        classify_2d(PhaseSequenceSet2D(a, b, window2()))


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


def test_tower3d_eigenfunction_formulas():
    spec = aligned_tower3d()
    funcs = eigenfunctions_from_tower3d(spec)
    assert funcs.v[0](3, -2) == pytest.approx(1.0)
    assert funcs.v[1](1, 7) == pytest.approx(-1.0)  # beta(1) = 0.5
    assert funcs.v[2](2, 0) == pytest.approx(unit(0.9))
    zero = Tower((IntFunction.constant(0.0), IntFunction(1), IntFunction(2)))
    fz = eigenfunctions_from_tower3d(zero)
    assert all(fz.v[j](0, 0) == pytest.approx(1.0) for j in range(3))
    # gamma(1, 2) = 0.25 -> value i
    spec2 = Tower((
        IntFunction.constant(0.0),
        IntFunction(1),
        IntFunction(2, default=0.0, table={(1, 2): 0.25}),
    ))
    f2 = eigenfunctions_from_tower3d(spec2)
    assert f2.v[2](1, 2) == pytest.approx(1j)


def test_tower3d_functions_reject_other_towers():
    beta, gamma = IntFunction(1), IntFunction(2)
    window = LatticeWindow.centered(1, 3)
    others = [
        Tower((IntFunction.constant(0.0), beta)),
        Tower((IntFunction.constant(0.5), beta, gamma)),
        Tower((IntFunction.constant(0.0), beta, gamma), (0, 2, 1)),
    ]
    for spec in others:
        with pytest.raises(ValueError, match="3-D staircase"):
            eigenfunctions_from_tower3d(spec)
        with pytest.raises(ValueError, match="3-D staircase"):
            boundary_matrices_from_tower3d(spec, window)


def test_highdim_cocycle_on_aligned_instance():
    funcs = eigenfunctions_from_tower3d(aligned_tower3d())
    report = check_cocycle_highdim(funcs, LatticeWindow.centered(2, 3))
    assert report.holds


def test_highdim_cocycle_all_ones():
    zero = Tower((IntFunction.constant(0.0), IntFunction(1), IntFunction(2)))
    funcs = eigenfunctions_from_tower3d(zero)
    assert check_cocycle_highdim(funcs, LatticeWindow.centered(2, 3)).holds


def test_highdim_cocycle_generic_fails():
    funcs = eigenfunctions_from_tower3d(generic_tower3d())
    report = check_cocycle_highdim(funcs, LatticeWindow.centered(2, 3))
    assert not report.holds
    assert report.witnesses


def test_highdim_dimension_two_matches_2d_check():
    rng = np.random.default_rng(21)
    for trial in range(12):
        a, b = random_pair(rng, trial)
        window = LatticeWindow(((-2, 1), (-1, 2)))
        funcs = EigenvalueFunctionSet(2, (a.value, b.value))
        got = check_cocycle_highdim(funcs, window)
        want = check_cocycle_2d(PhaseSequenceSet2D(a, b, window))
        assert (got.holds, got.max_violation) == (want.holds, want.max_violation)
        kinds = {0: "b-shift", 1: "a-shift"}
        assert [
            (kinds[s], m, n, k, mod) for _, s, (m, n), k, mod in got.witnesses
        ] == list(want.witnesses)


def test_highdim_relabeling_symmetry():
    # swapping the last two coordinates (and transposing the eigenvalue
    # arguments accordingly) must not change the verdict or the violation
    spec = generic_tower3d()
    funcs = eigenfunctions_from_tower3d(spec)
    v0, v1, v2 = funcs.v
    swapped = EigenvalueFunctionSet(
        3,
        (lambda x, y: v0(y, x), lambda x, y: v2(x, y), lambda x, y: v1(x, y)),
    )
    w = LatticeWindow.centered(2, 3)
    a = check_cocycle_highdim(funcs, w)
    b = check_cocycle_highdim(swapped, w)
    assert a.holds == b.holds
    assert a.max_violation == pytest.approx(b.max_violation)


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
    return EigenvalueFunctionSet(d, tuple(funcs))


def highdim_cases():
    rng = np.random.default_rng(29)
    yield eigenfunctions_from_tower3d(aligned_tower3d()), LatticeWindow.centered(2, 3)
    yield eigenfunctions_from_tower3d(generic_tower3d()), LatticeWindow.centered(2, 3)
    yield eigenfunctions_from_tower3d(generic_tower3d()), LatticeWindow(((0, 1), (-1, 1), (0, 3)))
    for d, window in [
        (3, LatticeWindow.centered(2, 3)),
        (3, LatticeWindow(((-1, 1), (0, 2), (-2, 1)))),
        (4, LatticeWindow.centered(1, 4)),
        (4, LatticeWindow(((-1, 1), (0, 1), (-1, 0), (0, 1)))),
    ]:
        for count in range(d + 1):
            nontrivial = set(rng.permutation(d)[:count].tolist())
            yield random_function_set(rng, d, 2, nontrivial), window
        # v_1 and v_{d-1} move at the origin only: a few witnesses of each
        sparse = [
            lambda *t, j=j: unit(0.25 * j) if j in (1, d - 1) and not any(t) else 1.0
            for j in range(d)
        ]
        yield EigenvalueFunctionSet(d, tuple(sparse)), window


def test_highdim_matches_reference():
    verdicts = set()
    fully_listed = 0
    for funcs, window in highdim_cases():
        holds, worst, ref_witnesses = reference_highdim(funcs, window)
        got = check_cocycle_highdim(funcs, window)
        assert got.holds == holds
        assert got.max_violation == pytest.approx(worst, rel=1e-12, abs=0.0)
        assert len(got.witnesses) == min(len(ref_witnesses), 10)
        if len(ref_witnesses) <= 10:
            assert {w[:4] for w in got.witnesses} == {w[:4] for w in ref_witnesses}
            fully_listed += bool(ref_witnesses)
        for f, s, n, k, modulus in got.witnesses:
            shifted = n[:s] + (n[s] + k,) + n[s + 1 :]
            direct = abs(
                (funcs.v[f](*_omit(shifted, f)) - funcs.v[f](*_omit(n, f)))
                * (1.0 - funcs.v[s](*_omit(n, s)))
            )
            assert modulus == pytest.approx(direct, rel=1e-12) and modulus >= 1e-10
        verdicts.add(holds)
    assert verdicts == {True, False}
    assert fully_listed == 3


def test_highdim_rejects_non_unit_values():
    funcs = EigenvalueFunctionSet(
        3, (lambda *t: 1.0, lambda *t: float("nan"), lambda *t: 1.0)
    )
    with pytest.raises(UnitModulusError, match=r"v\[1\]\(-1, -1\)"):
        check_cocycle_highdim(funcs, LatticeWindow.centered(1, 3))


# ---------------------------------------------------------------------------
# quasi-commutativity
# ---------------------------------------------------------------------------


def test_cyclic_mode_basis_unitary():
    u = cyclic_mode_basis(7, 0.3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(7), atol=1e-12)


def test_quasi_commutativity_constant_tables_true():
    spec = Tower((
        IntFunction.constant(0.0),
        IntFunction(1, default=0.25),
        IntFunction(2, default=0.5),
    ))
    w = LatticeWindow.centered(2, 3)
    ops = boundary_matrices_from_tower3d(spec, w)
    report = quasi_commutativity_check(ops, phase_grid(1 / 8, 3), w)
    assert report.quasi_commuting
    assert report.phases_found == (0.0, 0.0, 0.0)


def test_quasi_commutativity_generic_false():
    spec = generic_tower3d()
    w = LatticeWindow.centered(2, 3)
    ops = boundary_matrices_from_tower3d(spec, w)
    report = quasi_commutativity_check(ops, phase_grid(1 / 8, 3), w)
    assert not report.quasi_commuting
    assert report.phases_found is None
    assert report.best_offdiag > 1e-3


def test_quasi_commutativity_2d_diagonal_true():
    rng = np.random.default_rng(9)
    w = LatticeWindow.centered(2, 2)
    sizes = [5, 5]
    alpha, beta = 0.25, 0.5
    # boundary operators diagonal on the (n+beta) and (m+alpha) mode bases
    a_eigs = unit(rng.random(sizes[1]))
    b_eigs = unit(rng.random(sizes[0]))
    op_x = diagonal_boundary_matrix(a_eigs, beta)  # omits slot 0, acts on slot 1
    op_y = diagonal_boundary_matrix(b_eigs, alpha)  # omits slot 1, acts on slot 0
    report = quasi_commutativity_check(
        [op_x, op_y], phase_grid(1 / 4, 2), w
    )
    assert report.quasi_commuting
    assert report.phases_found == (0.25, 0.5)


def test_quasi_commutativity_empty_candidates_error():
    spec = generic_tower3d()
    w = LatticeWindow.centered(1, 3)
    ops = boundary_matrices_from_tower3d(spec, w)
    with pytest.raises(ValueError):
        quasi_commutativity_check(ops, [], w)


def test_tower3d_boundary_matrices_are_unitary():
    spec = generic_tower3d()
    w = LatticeWindow.centered(2, 3)
    for op in boundary_matrices_from_tower3d(spec, w):
        np.testing.assert_allclose(
            op.conj().T @ op, np.eye(op.shape[0]), atol=1e-12
        )
