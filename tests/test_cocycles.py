import numpy as np
import pytest

from spectralbox.cocycles import (
    Classification,
    EigenvalueFunctionSet,
    boundary_matrices_from_eigenfunctions,
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
from spectralbox.model import ClassA2D, IntFunction, LatticeWindow, Tower, Tower3D


def unit(x):
    return np.exp(2j * np.pi * x)


def window2(radius=2):
    return LatticeWindow.centered(radius, 2)


def random_unit_sequence(rng, radius=2):
    return PhaseSequence(
        {int(k): unit(rng.random()) for k in range(-radius, radius + 1)},
        unit(rng.random()),
    )


def test_phase_sequence_renormalizes_and_rejects():
    seq = PhaseSequence({0: 1.0 + 5e-7j}, default=1.0)
    assert abs(abs(seq.value(0)) - 1.0) < 1e-15
    with pytest.raises(UnitModulusError):
        PhaseSequence({0: 1.5})


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
    seqs = PhaseSequenceSet2D(
        PhaseSequence({}, 1.0),
        PhaseSequence({}, 1.0),
        LatticeWindow(((0, 0), (0, 2))),
    )
    with pytest.raises(WindowTooSmallError):
        check_cocycle_2d(seqs)
    with pytest.raises(WindowTooSmallError):
        check_single_identity_2d(seqs)


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
    return Tower3D(beta=beta, gamma=IntFunction(2, default=0.0, table=table))


def generic_tower3d():
    """Two fibers with nonconstant gamma and different beta values."""
    beta = IntFunction(1, default=0.0, table={0: 0.5, 1: 0.25})
    gamma = IntFunction(
        2, default=0.0, table={(0, 0): 0.3, (1, 1): 0.8, (0, 1): 0.05}
    )
    return Tower3D(beta=beta, gamma=gamma)


def test_tower3d_eigenfunction_formulas():
    spec = aligned_tower3d()
    funcs = eigenfunctions_from_tower3d(spec)
    assert funcs.v[0](3, -2) == pytest.approx(1.0)
    assert funcs.v[1](1, 7) == pytest.approx(-1.0)  # beta(1) = 0.5
    assert funcs.v[2](2, 0) == pytest.approx(unit(0.9))
    zero = Tower3D(IntFunction(1), IntFunction(2))
    fz = eigenfunctions_from_tower3d(zero)
    assert all(fz.v[j](0, 0) == pytest.approx(1.0) for j in range(3))
    # gamma(1, 2) = 0.25 -> value i
    spec2 = Tower3D(
        IntFunction(1), IntFunction(2, default=0.0, table={(1, 2): 0.25})
    )
    f2 = eigenfunctions_from_tower3d(spec2)
    assert f2.v[2](1, 2) == pytest.approx(1j)


def test_tower3d_functions_reject_other_towers():
    beta, gamma = IntFunction(1), IntFunction(2)
    window = LatticeWindow.centered(1, 3)
    others = [
        ClassA2D(0.0, beta),
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
    funcs = eigenfunctions_from_tower3d(Tower3D(IntFunction(1), IntFunction(2)))
    assert check_cocycle_highdim(funcs, LatticeWindow.centered(2, 3)).holds


def test_highdim_cocycle_generic_fails():
    funcs = eigenfunctions_from_tower3d(generic_tower3d())
    report = check_cocycle_highdim(funcs, LatticeWindow.centered(2, 3))
    assert not report.holds
    assert report.witnesses


def test_highdim_rejects_small_dimension():
    funcs = EigenvalueFunctionSet(2, (lambda n: 1.0, lambda n: 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        check_cocycle_highdim(funcs, LatticeWindow.centered(1, 2))


def test_highdim_relabeling_symmetry():
    # swapping the last two coordinates (and transposing the eigenvalue
    # arguments accordingly) must not change the verdict or the violation
    spec = generic_tower3d()
    funcs = eigenfunctions_from_tower3d(spec)
    v0, v1, v2 = funcs.v
    swapped = EigenvalueFunctionSet(
        3,
        (lambda x, y: v0(y, x), lambda x, y: v2(x, y), lambda x, y: v1(x, y)),
        (0.0, 0.0, 0.0),
    )
    w = LatticeWindow.centered(2, 3)
    a = check_cocycle_highdim(funcs, w)
    b = check_cocycle_highdim(swapped, w)
    assert a.holds == b.holds
    assert a.max_violation == pytest.approx(b.max_violation)


# ---------------------------------------------------------------------------
# quasi-commutativity
# ---------------------------------------------------------------------------


def test_cyclic_mode_basis_unitary():
    u = cyclic_mode_basis(7, 0.3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(7), atol=1e-12)


def test_quasi_commutativity_constant_tables_true():
    spec = Tower3D(
        IntFunction(1, default=0.25), IntFunction(2, default=0.5)
    )
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


def test_eigenfunction_matrices_are_diagonal_at_declared_phases():
    # the adapter represents quasi-commuting data as given: every operator
    # must pass the joint-diagonality check at the declared phase vector
    spec = Tower3D(
        IntFunction(1, default=0.0, table={0: 0.5}),
        IntFunction(2, default=0.0, table={(0, 0): 0.25}),
    )
    funcs = eigenfunctions_from_tower3d(spec)
    w = LatticeWindow.centered(1, 3)
    ops = boundary_matrices_from_eigenfunctions(funcs, w)
    report = quasi_commutativity_check(ops, [funcs.phases], w)
    assert report.quasi_commuting
    assert report.phases_found == funcs.phases


def test_eigenfunction_matrices_2d_case():
    rng = np.random.default_rng(33)
    a_vals = {n: unit(rng.random()) for n in range(-2, 3)}
    b_vals = {m: unit(rng.random()) for m in range(-2, 3)}
    funcs = EigenvalueFunctionSet(
        2,
        (lambda n: a_vals[n], lambda m: b_vals[m]),
        (0.25, 0.5),
    )
    w = LatticeWindow.centered(2, 2)
    ops = boundary_matrices_from_eigenfunctions(funcs, w)
    report = quasi_commutativity_check(ops, phase_grid(1 / 4, 2), w)
    assert report.quasi_commuting
    assert report.phases_found == (0.25, 0.5)
