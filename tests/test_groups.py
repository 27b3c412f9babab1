import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectralbox import cocycles, groups
from spectralbox.cocycles import (
    BoundaryEigenvalues,
    check_cocycle_2d,
    check_single_identity_2d,
    classify_2d,
    seam_twisted,
)
from spectralbox.grid import (
    _phase,
    fft_mode_indices,
    grid_norm,
    grid_weight,
    twisted_analysis,
    twisted_synthesis,
)
from spectralbox.groups import (
    DiagonalBoundary,
    IncommensurateTimeError,
    MatrixBoundary,
    TruncationLeakageError,
    _norm_slack,
    check_sweep_grid,
    commutator_norm,
    default_probe_coefficients,
    eigenrelation_check,
    grid_group_action,
    group_action_grid,
    group_matrix_spectral,
    indicator_fourier_coeffs,
    project_to_window,
    synthesize_window_state,
)
from spectralbox.extensions import BoundaryUnitary, cayley_forward
from spectralbox.model import IntFunction, LatticeWindow
from test_cocycles import reference_values, same_bits


def unit(x):
    return np.exp(2j * np.pi * x)


def phases_of(table=None, default=0.0):
    """A phase table keyed by one index."""
    return IntFunction(1, default, table or {})


ONE = phases_of()  # phase 0 everywhere: the sequence identically one


def random_sequence(rng, radius):
    return IntFunction(
        1,
        table={int(n): rng.random() for n in range(-radius, radius + 1)},
        default=rng.random(),
    )


def family(ops):
    """The operator family of a list of operators, one image each."""
    return lambda v: [op(v) for op in ops]


def mode_state(freq_x, freq_y, n):
    x = np.arange(n) / n
    return np.exp(2j * np.pi * freq_x * x)[:, None] * np.exp(
        2j * np.pi * freq_y * x
    )[None, :]


# The quadrature weights as the per-axis product tensor grid states used to
# carry; kept as the reference norm of the test oracles.


def weight_tensor(shape):
    w = np.full(shape[0], 1.0 / shape[0])
    for n in shape[1:]:
        w = np.multiply.outer(w, np.full(n, 1.0 / n))
    return w


def reference_norm(values):
    w = weight_tensor(values.shape)
    return float(np.sqrt(np.sum(w * np.abs(values) ** 2).real))


@pytest.mark.parametrize(
    "shape",
    [(40, 40), (48, 48), (60, 60), (64, 64), (128, 128), (7, 9), (33,), (5, 6, 7),
     (12, 10, 8, 6)],
)
def test_grid_weight_equals_the_product_weight_tensor(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert (weight_tensor(shape) == grid_weight(shape)).all()
    assert grid_norm(values) == reference_norm(values)
    assert (grid_weight(shape) * values == weight_tensor(shape) * values).all()


# ---------------------------------------------------------------------------
# indicator coefficients
# ---------------------------------------------------------------------------


def test_indicator_full_interval():
    coeff = indicator_fourier_coeffs(1.0, range(-3, 4))  # k = -3..3
    assert coeff[3] == pytest.approx(1.0)
    assert all(abs(c) < 1e-14 for c in np.delete(coeff, 3))


def test_indicator_empty_interval():
    coeff = indicator_fourier_coeffs(0.0, range(-3, 4))
    assert all(abs(v) < 1e-15 for v in coeff)


def test_indicator_half_interval_first_mode():
    coeff = indicator_fourier_coeffs(0.5, [1])
    assert abs(coeff[0]) == pytest.approx(1 / np.pi)


def test_indicator_complement_relations():
    # with a identically one the axis-1 column of E(m, n) has entries
    # q_k + p_k: the complement is delta_{k0} - p_k, so only k = 0 is left
    win = LatticeWindow.centered(5, 2)
    one = ONE
    eigs = BoundaryEigenvalues.from_pair(one, one, win)
    op = group_matrix_spectral(1, 0.3, eigs, (0.0, 0.0), leakage_tol=1e-12)
    diag = np.array([unit(m * 0.3) for (m, n) in op.labels()])
    np.testing.assert_allclose(op.matrix, np.diag(diag), atol=1e-15)


def test_indicator_grid_coeffs_converge_to_continuum():
    ks = range(-6, 7)
    cont = indicator_fourier_coeffs(0.25, ks)
    gaps = []
    for n in (64, 256, 1024):
        disc = indicator_fourier_coeffs(0.25, ks, grid_n=n)
        gaps.append(max(abs(cont - disc)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_indicator_input_validation():
    with pytest.raises(ValueError):
        indicator_fourier_coeffs(1.2, [0])
    with pytest.raises(IncommensurateTimeError):
        indicator_fourier_coeffs(0.3, [0], grid_n=64)


# ---------------------------------------------------------------------------
# grid action
# ---------------------------------------------------------------------------


def test_identity_boundary_is_cyclic_shift():
    rng = np.random.default_rng(0)
    n = 32
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = DiagonalBoundary(ONE)
    g = group_action_grid(f, 1, 1.0 / n, b)
    np.testing.assert_allclose(g, np.roll(f, -1, axis=0))


def test_scalar_boundary_full_period_is_global_phase():
    rng = np.random.default_rng(1)
    n = 32
    c = 0.3
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = DiagonalBoundary(phases_of(default=c))
    g = group_action_grid(f, 1, 1.0, b)
    np.testing.assert_allclose(g, unit(c) * f, atol=1e-12)


def test_matched_scalar_boundary_eigenrelation():
    # boundary exp(i 2 pi alpha) I gives e_{alpha+m} the eigenvalue
    # exp(+i 2 pi (alpha+m) s): the sign convention everything else pins to
    n, alpha, m, s = 64, 0.3, 2, 5 / 64
    f = mode_state(m + alpha, 1.0, n)
    b = DiagonalBoundary(phases_of(default=alpha))
    g = group_action_grid(f, 1, s, b)
    expected = f * unit((m + alpha) * s)
    assert grid_norm(g - expected) < 1e-12


def test_group_law_across_the_seam():
    rng = np.random.default_rng(2)
    n = 64
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = DiagonalBoundary(random_sequence(rng, n // 2), shift=0.2)
    g12 = group_action_grid(group_action_grid(f, 1, 30 / n, b), 1, 50 / n, b)
    g3 = group_action_grid(f, 1, 80 / n, b)
    assert grid_norm(g12 - g3) < 1e-12


def test_isometry_both_axes():
    rng = np.random.default_rng(3)
    n = 64
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bx = DiagonalBoundary(random_sequence(rng, n // 2), shift=0.7)
    by = DiagonalBoundary(random_sequence(rng, n // 2), shift=0.1)
    for axis, b in ((1, bx), (2, by)):
        g = group_action_grid(f, axis, 13 / n, b)
        assert abs(grid_norm(g) - grid_norm(f)) < 1e-12


def test_incommensurate_time_rejected():
    f = np.ones((16, 16), dtype=complex)
    b = DiagonalBoundary(ONE)
    with pytest.raises(IncommensurateTimeError):
        group_action_grid(f, 1, 0.1, b)


def test_matrix_boundary_matches_diagonal():
    rng = np.random.default_rng(4)
    n = 64
    win = LatticeWindow.centered(8, 2)
    phi = rng.random(17)
    mb = MatrixBoundary(np.diag(unit(phi)), (-8, 8), shift=0.2)
    db = DiagonalBoundary(phases_of({k: phi[k + 8] for k in range(-8, 9)}), shift=0.2)
    vec = rng.standard_normal(win.cardinality) + 1j * rng.standard_normal(
        win.cardinality
    )
    st = synthesize_window_state(vec, (0.1, 0.2), win, n)
    g1 = group_action_grid(st, 1, 0.25, mb)
    g2 = group_action_grid(st, 1, 0.25, db)
    assert grid_norm(g1 - g2) < 1e-12


# ---------------------------------------------------------------------------
# spectral matrices
# ---------------------------------------------------------------------------


def test_pair_is_lifted_once_for_every_check(monkeypatch):
    # M = 3 m indices for b, N = 5 n indices for a; b's keys 2 and 3 lie
    # outside the window and are never lifted
    rng = np.random.default_rng(41)
    lifts = []
    lift = cocycles._lift
    monkeypatch.setattr(cocycles, "_lift", lambda p: lifts.append(p) or lift(p))
    eigs = BoundaryEigenvalues.from_pair(
        ONE,
        phases_of({m: rng.random() for m in range(-1, 4)}),
        LatticeWindow(((-1, 1), (0, 4))),
    )
    assert len(lifts) == 2 + 3  # the two defaults, b's in-window entries
    assert check_cocycle_2d(eigs).holds
    assert check_single_identity_2d(eigs)
    assert classify_2d(eigs).value == "class-i"
    for axis in (1, 2):
        group_matrix_spectral(axis, 0.25, eigs, (0.0, 0.0), leakage_tol=1.0)
    assert len(lifts) == 2 + 3


def test_spectral_identity_at_time_zero():
    rng = np.random.default_rng(5)
    win = LatticeWindow.centered(4, 2)
    eigs = BoundaryEigenvalues.from_pair(
        random_sequence(rng, 4), random_sequence(rng, 4), win
    )
    op = group_matrix_spectral(1, 0.0, eigs, (0.3, 0.7))
    np.testing.assert_allclose(op.matrix, np.eye(win.cardinality), atol=1e-14)
    assert op.max_leakage == pytest.approx(0.0, abs=1e-14)


def test_spectral_telescopes_for_constant_one_boundary():
    rng = np.random.default_rng(6)
    win = LatticeWindow.centered(6, 2)
    eigs = BoundaryEigenvalues.from_pair(
        ONE, random_sequence(rng, 6), win
    )
    op = group_matrix_spectral(1, 0.375, eigs, (0.0, 0.0), leakage_tol=1e-6)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.abs(off).max() < 1e-14
    diag = np.array([unit(m * 0.375) for (m, n) in op.labels()])
    np.testing.assert_allclose(np.diag(op.matrix), diag, atol=1e-14)


def test_spectral_telescopes_for_matched_scalar_boundary():
    rng = np.random.default_rng(7)
    alpha = 0.25
    win = LatticeWindow.centered(6, 2)
    eigs = BoundaryEigenvalues.from_pair(
        seam_twisted(phases_of(default=alpha), alpha),
        seam_twisted(random_sequence(rng, 6), 0.0),
        win,
    )
    op = group_matrix_spectral(
        1, 0.375, eigs, (alpha, 0.0), leakage_tol=1e-6
    )
    diag = np.array([unit((m + alpha) * 0.375) for (m, n) in op.labels()])
    np.testing.assert_allclose(op.matrix, np.diag(diag), atol=1e-13)


def test_spectral_leakage_guard_fires_for_generic_sequences():
    rng = np.random.default_rng(8)
    win = LatticeWindow.centered(6, 2)
    eigs = BoundaryEigenvalues.from_pair(
        random_sequence(rng, 6), random_sequence(rng, 6), win
    )
    with pytest.raises(TruncationLeakageError):
        group_matrix_spectral(1, 0.5, eigs, (0.0, 0.0))
    op = group_matrix_spectral(1, 0.5, eigs, (0.0, 0.0), leakage_tol=0.8)
    assert 0.0 < op.max_leakage < 0.8


def test_spectral_matches_projected_grid_action():
    rng = np.random.default_rng(9)
    n = 128
    win = LatticeWindow.centered(8, 2)
    for axis in (1, 2):
        a, b = random_sequence(rng, 12), random_sequence(rng, 12)
        phases = (float(rng.random()), float(rng.random()))
        eigs = BoundaryEigenvalues.from_pair(
            seam_twisted(a, phases[0]), seam_twisted(b, phases[1]), win
        )
        t = int(rng.integers(1, n)) / n
        op = group_matrix_spectral(
            axis, t, eigs, phases, grid_n=n, leakage_tol=1.0
        )
        boundary = (
            DiagonalBoundary(a, shift=phases[1])
            if axis == 1
            else DiagonalBoundary(b, shift=phases[0])
        )
        for _ in range(4):
            vec = rng.standard_normal(win.cardinality) + 1j * rng.standard_normal(
                win.cardinality
            )
            vec /= np.linalg.norm(vec)
            state = synthesize_window_state(vec, phases, win, n)
            moved = group_action_grid(state, axis, t, boundary)
            proj = project_to_window(moved, phases, win)
            assert np.linalg.norm(op(vec) - proj) < 1e-12


def test_spectral_matrix_of_the_twisted_pair_matches_the_grid_on_a_probe_stack():
    # the simulate-groups check on 40 seeded pairs with random basis phases:
    # the matrix reads the seam-twisted pair, the grid the phase tables
    rng = np.random.default_rng(40)
    num_tol = 1e-8
    for trial in range(40):
        radius = int(rng.integers(2, 5))
        win = LatticeWindow.centered(radius, 2)
        a, b = random_sequence(rng, radius + 2), random_sequence(rng, radius + 2)
        if trial % 4 == 1:
            a = ONE
        elif trial % 4 == 2:
            b = ONE
        phases = (float(rng.random()), float(rng.random()))
        twisted = BoundaryEigenvalues.from_pair(
            seam_twisted(a, phases[0]), seam_twisted(b, phases[1]), win
        )
        n = 32
        axis = 1 + trial % 2
        t = int(rng.integers(1, n)) / n
        op = group_matrix_spectral(axis, t, twisted, phases, grid_n=n, leakage_tol=1.0)
        boundary = (
            DiagonalBoundary(a, shift=phases[1])
            if axis == 1
            else DiagonalBoundary(b, shift=phases[0])
        )
        vecs = default_probe_coefficients(win, 1, 4, rng)[:8]
        states = synthesize_window_state(vecs, phases, win, n)
        proj = project_to_window(group_action_grid(states, axis, t, boundary), phases, win)
        for row, vec in zip(op(vecs) - proj, vecs):
            assert np.linalg.norm(row) / np.linalg.norm(vec) < 10 * num_tol


def test_synthesize_project_roundtrip():
    rng = np.random.default_rng(10)
    win = LatticeWindow.centered(5, 2)
    vec = rng.standard_normal(win.cardinality) + 1j * rng.standard_normal(
        win.cardinality
    )
    phases = (0.4, 0.9)
    state = synthesize_window_state(vec, phases, win, 64)
    back = project_to_window(state, phases, win)
    np.testing.assert_allclose(back, vec, atol=1e-12)


# The per-probe forms the stacked probe layer replaced, kept as references.


def reference_probe_coefficients(window, sub_radius, n_random, rng):
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


def reference_synthesis(vec, phases, window, grid_n):
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    coeffs = np.zeros((grid_n, grid_n), dtype=complex)
    coeffs[np.ix_(m_idx % grid_n, n_idx % grid_n)] = vec.reshape(m_idx.size, n_idx.size)
    return twisted_synthesis(twisted_synthesis(coeffs, 0, phases[0]), 1, phases[1])


def reference_projection(state, phases, window):
    n = state.shape[0]
    coeffs = twisted_analysis(twisted_analysis(state, 0, phases[0]), 1, phases[1])
    m_idx = window.axis_indices(0)
    n_idx = window.axis_indices(1)
    return coeffs[np.ix_(m_idx % n, n_idx % n)].reshape(-1)


def test_stacked_probe_layer_equals_the_per_probe_forms_bit_for_bit():
    rng = np.random.default_rng(41)
    windows = [
        LatticeWindow.centered(2, 2),
        LatticeWindow(((-3, 1), (0, 4))),
        LatticeWindow(((1, 3), (-2, 2))),
        LatticeWindow.centered(6, 2),
    ]
    for trial in range(24):
        window = windows[trial % len(windows)]
        sub_radius = int(rng.integers(0, 4))
        n_random = 0 if trial % 3 == 0 else int(rng.integers(1, 12))
        seed = int(rng.integers(2**32))
        got = default_probe_coefficients(
            window, sub_radius, n_random, np.random.default_rng(seed)
        )
        want = reference_probe_coefficients(
            window, sub_radius, n_random, np.random.default_rng(seed)
        )
        assert got.shape == (len(want), window.cardinality)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        if not len(want):
            continue
        phases = (float(rng.random()), 0.0 if trial % 2 else float(rng.random()))
        grid_n = (16, 32, 64)[trial % 3]
        states = synthesize_window_state(got, phases, window, grid_n)
        assert states.shape == (len(want), grid_n, grid_n)
        coeffs = project_to_window(states, phases, window)
        for vec, state, row in zip(want, states, coeffs):
            assert same_bits(state, reference_synthesis(vec, phases, window, grid_n))
            assert same_bits(row, reference_projection(state, phases, window))


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def test_commutator_scalar_boundaries_is_zero():
    rng = np.random.default_rng(11)
    n = 32
    bx = DiagonalBoundary(phases_of(default=0.3))
    by = DiagonalBoundary(phases_of(default=0.8))
    probes = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(3)
    ]
    val = commutator_norm(
        grid_group_action(1, [5 / n], bx), grid_group_action(2, [9 / n], by), probes
    )[0, 0]
    assert val < 1e-13


def test_commutator_class_one_is_zero():
    rng = np.random.default_rng(12)
    n = 64
    win = LatticeWindow.centered(8, 2)
    a, b = ONE, random_sequence(rng, 8)
    assert check_cocycle_2d(BoundaryEigenvalues.from_pair(a, b, win)).holds
    bx = DiagonalBoundary(a)
    by = DiagonalBoundary(b)
    coeffs = default_probe_coefficients(win, sub_radius=2, n_random=4, rng=rng)
    probes = [synthesize_window_state(v, (0.0, 0.0), win, n) for v in coeffs]
    worst = commutator_norm(
        grid_group_action(1, (0.25, 0.5), bx),
        grid_group_action(2, (0.125, 0.75), by),
        probes,
    ).max()
    assert worst < 1e-12


def test_commutator_detects_failing_pair():
    rng = np.random.default_rng(13)
    n = 64
    win = LatticeWindow.centered(8, 2)
    a = phases_of({0: 0.3})
    b = random_sequence(rng, 8)
    eigs = BoundaryEigenvalues.from_pair(a, b, win)
    assert not check_cocycle_2d(eigs).holds
    coeffs = default_probe_coefficients(win, sub_radius=2, n_random=4, rng=rng)
    probes = [synthesize_window_state(v, (0.0, 0.0), win, n) for v in coeffs]
    worst = commutator_norm(
        grid_group_action(1, (0.25, 0.5, 0.75), DiagonalBoundary(a)),
        grid_group_action(2, (0.125, 0.375, 0.625), DiagonalBoundary(b)),
        probes,
    ).max()
    assert worst > 0.01


def test_commutator_matrix_route_agrees_with_grid_verdict():
    rng = np.random.default_rng(14)
    n = 128
    win = LatticeWindow.centered(8, 2)
    a = phases_of({1: 0.4})
    b = random_sequence(rng, 8)
    eigs = BoundaryEigenvalues.from_pair(a, b, win)
    s, t = 0.25, 0.375
    mx = group_matrix_spectral(1, s, eigs, (0.0, 0.0), grid_n=n, leakage_tol=1.0)
    my = group_matrix_spectral(2, t, eigs, (0.0, 0.0), grid_n=n, leakage_tol=1.0)
    vec_probes = default_probe_coefficients(win, sub_radius=2, n_random=4, rng=rng)
    val = commutator_norm(family([mx]), family([my]), vec_probes)[0, 0]
    assert val > 0.01  # same verdict as the exact grid route


def test_commutator_rejects_empty_and_zero_probes():
    b = DiagonalBoundary(ONE)
    fx = grid_group_action(1, [0.25], b)
    fy = grid_group_action(2, [0.25], b)
    with pytest.raises(ValueError):
        commutator_norm(fx, fy, [])
    with pytest.raises(ValueError):
        commutator_norm(fx, fy, [np.zeros((8, 8), dtype=complex)])


# The per-pair, per-probe loop that the table replaced, over the roll-based
# grid action it used; kept as a test oracle only.


def _rolled_action(f, axis, t, boundary):
    ax = axis - 1
    n = f.shape[ax]
    full, rem = divmod(round(t * n), n)
    other = 1 - ax
    rolled = np.roll(f, -rem, axis=ax)
    out = np.array(rolled)
    index = [slice(None), slice(None)]
    if rem > 0:
        index[ax] = slice(n - rem, n)
        out[tuple(index)] = boundary.apply(rolled[tuple(index)], other, full + 1)
        index[ax] = slice(0, n - rem)
        out[tuple(index)] = boundary.apply(rolled[tuple(index)], other, full)
    else:
        out = boundary.apply(rolled, other, full)
    return out


def reference_commutator_norm(apply_x, apply_y, probes, norm):
    worst = 0.0
    for p in probes:
        den = norm(p)
        xy = apply_x(apply_y(p))
        yx = apply_y(apply_x(p))
        worst = max(worst, norm(xy - yx) / den)
    return worst


def reference_grid_table(bx, by, s_times, t_times, probes):
    return np.array(
        [
            [
                reference_commutator_norm(
                    lambda f, s=s: _rolled_action(f, 1, s, bx),
                    lambda f, t=t: _rolled_action(f, 2, t, by),
                    probes,
                    reference_norm,
                )
                for t in t_times
            ]
            for s in s_times
        ]
    )


S_TIMES = (0.0, 0.125, 0.625, 1.0, 1.375)
T_TIMES = (0.25, 0.625, 1.375)


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, 0.7)])
@pytest.mark.parametrize("commuting", [True, False])
def test_commutator_table_equals_per_pair_reference(n, phases, commuting):
    rng = np.random.default_rng(16)
    win = LatticeWindow.centered(8, 2)
    one = ONE
    if not commuting:
        one = phases_of({1: 0.4})
    a, b = one, random_sequence(rng, 8)
    coeffs = default_probe_coefficients(win, sub_radius=1, n_random=3, rng=rng)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    bx = DiagonalBoundary(a, shift=phases[1])
    by = DiagonalBoundary(b, shift=phases[0])
    table = commutator_norm(
        grid_group_action(1, S_TIMES, bx), grid_group_action(2, T_TIMES, by), probes
    )
    want = reference_grid_table(
        DiagonalBoundary(a, shift=phases[1]),
        DiagonalBoundary(b, shift=phases[0]),
        S_TIMES,
        T_TIMES,
        probes,
    )
    assert table.shape == (len(S_TIMES), len(T_TIMES))
    assert (table == want).all()
    assert (table.max() < 1e-12) == (commuting and phases == (0.0, 0.0))


def test_families_returning_one_array_give_the_same_table():
    # a grid family returns a list of images; a family that returns them
    # stacked in one array gives the same table, bit for bit
    rng = np.random.default_rng(19)
    n, win, phases = 40, LatticeWindow.centered(6, 2), (0.3, 0.7)
    bx = DiagonalBoundary(phases_of({1: 0.4}), shift=phases[1])
    by = DiagonalBoundary(random_sequence(rng, 6), shift=phases[0])
    xs, ys = grid_group_action(1, S_TIMES, bx), grid_group_action(2, T_TIMES, by)
    coeffs = default_probe_coefficients(win, sub_radius=1, n_random=2, rng=rng)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    table = commutator_norm(xs, ys, probes)
    stacked = commutator_norm(
        lambda f: np.stack(xs(f)), lambda f: np.stack(ys(f)), probes
    )
    assert table.max() > 0.01
    assert np.array_equal(table.view(np.uint64), stacked.view(np.uint64))


def test_commutator_table_equals_reference_for_matrix_boundaries():
    rng = np.random.default_rng(17)
    n = 64
    win = LatticeWindow.centered(8, 2)
    phases = (0.1, 0.2)

    def random_unitary():
        z = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        return np.linalg.qr(z)[0]

    bx = MatrixBoundary(random_unitary(), (-8, 8), shift=phases[1])
    by = MatrixBoundary(random_unitary(), (-8, 8), shift=phases[0])
    coeffs = default_probe_coefficients(win, sub_radius=1, n_random=3, rng=rng)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    table = commutator_norm(
        grid_group_action(1, S_TIMES, bx), grid_group_action(2, T_TIMES, by), probes
    )
    want = reference_grid_table(bx, by, S_TIMES, T_TIMES, probes)
    assert (table == want).all()
    assert table.max() > 0.01


def test_commutator_table_equals_reference_for_truncated_operators():
    rng = np.random.default_rng(18)
    win = LatticeWindow.centered(6, 2)
    eigs = BoundaryEigenvalues.from_pair(
        phases_of({1: 0.4}), random_sequence(rng, 6), win
    )
    mxs = [
        group_matrix_spectral(1, s, eigs, (0.0, 0.0), grid_n=64, leakage_tol=1.0)
        for s in (0.25, 0.5)
    ]
    mys = [
        group_matrix_spectral(2, t, eigs, (0.0, 0.0), grid_n=64, leakage_tol=1.0)
        for t in (0.125, 0.375, 0.625)
    ]
    vec_probes = default_probe_coefficients(win, sub_radius=1, n_random=3, rng=rng)
    table = commutator_norm(family(mxs), family(mys), vec_probes)
    # probes are measured by grid_norm, the RMS norm on a coefficient
    # vector; the ratio matches the Euclidean one up to roundoff
    euclidean = np.linalg.norm
    want = np.array(
        [[reference_commutator_norm(mx, my, vec_probes, euclidean) for my in mys]
         for mx in mxs]
    )
    assert want.max() > 0.01
    np.testing.assert_allclose(table, want, rtol=1e-14, atol=0.0)


def test_commutator_validates_probes_and_actions_at_entry():
    b = DiagonalBoundary(ONE)
    with pytest.raises(ValueError):
        grid_group_action(3, [0.25], b)
    with pytest.raises(ValueError):
        grid_group_action(1, [0.25, -0.25], b)
    with pytest.raises(ValueError):
        grid_group_action(1, [], b)
    ident = family([lambda v: v])
    with pytest.raises(ValueError, match="finite"):
        commutator_norm(ident, ident, [np.array([1.0, np.nan])])
    fx, fy = grid_group_action(1, [0.25], b), grid_group_action(2, [0.25], b)
    for bad in (np.nan, np.inf, -np.inf):
        state = np.ones((8, 8), dtype=complex)
        state[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            commutator_norm(fx, fy, [np.ones((8, 8)), state])
    # a NaN image reads as NaN in the table, never as a commuting zero
    table = commutator_norm(
        lambda v: [v * np.nan], lambda v: [v], [np.ones(2)]
    )
    assert np.isnan(table[0, 0])


def test_diagonal_boundary_caches_read_only_eigenvalues_per_size():
    rng = np.random.default_rng(19)
    seq = random_sequence(rng, 20)
    shared = DiagonalBoundary(seq, shift=0.3)
    for n in (32, 64, 32):
        lines = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for axis, power in ((0, 1), (1, 2), (1, -1)):
            got = shared.apply(lines, axis, power)
            want = DiagonalBoundary(seq, shift=0.3).apply(lines, axis, power)
            assert np.array_equal(got, want)
        eig = shared.eigenvalue_array(n)
        assert np.array_equal(eig, reference_values(seq, fft_mode_indices(n)))
        assert not eig.flags.writeable
        with pytest.raises(ValueError):
            eig[0] = 1.0
        assert shared.eigenvalue_array(n) is eig
    assert shared == DiagonalBoundary(seq, shift=0.3)


def test_default_probes_shapes():
    rng = np.random.default_rng(15)
    win = LatticeWindow.centered(6, 2)
    probes = default_probe_coefficients(win, sub_radius=2, n_random=3, rng=rng)
    assert len(probes) == 25 + 3
    assert all(p.shape == (win.cardinality,) for p in probes)


# ---------------------------------------------------------------------------
# eigenrelations
# ---------------------------------------------------------------------------


def test_eigenrelation_plain_fourier_mode():
    phi = IntFunction(1, default=0.0)
    report = eigenrelation_check(DiagonalBoundary(phi), [(1 / 64, 1, 0)], 64)
    assert report.max_residual < 1e-12


def test_eigenrelation_quarter_phase_table():
    phi = IntFunction(
        1, default=0.0, table={n: (n / 4) % 1.0 for n in range(-8, 9)}
    )
    rng = np.random.default_rng(16)
    samples = [
        (int(rng.integers(1, 64)) / 64, int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        for _ in range(8)
    ]
    report = eigenrelation_check(DiagonalBoundary(phi, shift=0.3), samples, 64)
    assert report.max_residual < 1e-12


@pytest.mark.parametrize("grid_n", [64, 65, 256])
def test_eigenrelation_of_a_generic_phase_table_passes_num_tol(grid_n):
    # random, non-dyadic phases on every mode the samples reach and past
    # them, a random default and a random shift
    rng = np.random.default_rng(grid_n)
    phi = random_sequence(rng, 40)
    beta = float(rng.random())
    samples = [
        (int(rng.integers(1, 2 * grid_n)) / grid_n, int(rng.integers(-6, 7)),
         int(rng.integers(-20, 21)))
        for _ in range(12)
    ]
    report = eigenrelation_check(DiagonalBoundary(phi, shift=beta), samples, grid_n)
    assert report.max_residual < 1e-8  # the default num_tol


def test_eigenrelation_wrong_eigenvalue_detected():
    n = 64
    phi = IntFunction(1, default=0.0)
    x = np.arange(n) / n
    f = mode_state(1.0, 0.0, n)
    boundary = DiagonalBoundary(ONE, shift=0.0)
    g = group_action_grid(f, 1, 0.5, boundary)
    wrong = f * unit((1 + 0.1) * 0.5)
    residual = grid_norm(g - wrong) / grid_norm(f)
    assert residual == pytest.approx(2 * abs(np.sin(0.1 * np.pi * 0.5)), rel=1e-9)
    assert residual > 0.05


def test_spectral_matrix_columns_isometric_without_leakage():
    # commuting-class assembly keeps unit columns, so the truncated matrix
    # acts isometrically on every coefficient vector
    rng = np.random.default_rng(17)
    win = LatticeWindow.centered(5, 2)
    eigs = BoundaryEigenvalues.from_pair(
        ONE, random_sequence(rng, 5), win
    )
    op = group_matrix_spectral(1, 0.25, eigs, (0.0, 0.0), leakage_tol=1e-12)
    for _ in range(5):
        vec = rng.standard_normal(win.cardinality) + 1j * rng.standard_normal(
            win.cardinality
        )
        assert np.linalg.norm(op(vec)) == pytest.approx(
            np.linalg.norm(vec), rel=1e-12
        )


def test_window_alias_guard():
    vec = np.ones(9, dtype=complex)
    with pytest.raises(ValueError):
        synthesize_window_state(vec, (0.0, 0.0), LatticeWindow.centered(1, 2), 2)


def test_time_zero_is_identity():
    rng = np.random.default_rng(18)
    n = 32
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = DiagonalBoundary(random_sequence(rng, n // 2), shift=0.4)
    g = group_action_grid(f, 2, 0.0, b)
    np.testing.assert_allclose(g, f)


def test_cayley_boundary_generates_induced_eigenrelation():
    # end-to-end: a diagonal extension datum V maps through the fractional
    # linear transform to the boundary operator W; the induced group with
    # boundary W, given by the phase table of W's eigenvalue angles, must
    # have eigenfrequencies at those angles, mode by mode
    rng = np.random.default_rng(19)
    grid_n = 64
    phases_v = rng.random(grid_n)
    V = np.diag(unit(phases_v))
    W = cayley_forward(BoundaryUnitary(V))
    w_eims = np.diag(W)
    theta = (np.angle(w_eims) / (2 * np.pi)) % 1.0
    np.testing.assert_allclose(unit(theta), w_eims, rtol=0.0, atol=1e-12)
    boundary = DiagonalBoundary(
        phases_of({k: theta[k % grid_n] for k in range(-grid_n // 2, grid_n // 2)}),
        shift=0.0,
    )
    x = np.arange(grid_n) / grid_n
    for n in (-3, 0, 5):
        for m in (-1, 0, 2):
            freq_x = m + theta[n % grid_n]
            state = (
                np.exp(2j * np.pi * freq_x * x)[:, None]
                * np.exp(2j * np.pi * n * x)[None, :]
            )
            s = 9 / grid_n
            moved = group_action_grid(state, 1, s, boundary)
            expected = state * unit(freq_x * s)
            assert grid_norm(moved - expected) / grid_norm(state) < 1e-12


def test_spectral_column_for_single_flipped_eigenvalue():
    # with one boundary eigenvalue at -1 (phases zero, s = 1/2) the column
    # of E(0, n0) carries entries q_k - p_k: complement minus coefficient
    win = LatticeWindow.centered(4, 2)
    n0 = 1
    eigs = BoundaryEigenvalues.from_pair(
        phases_of({n0: 0.5}), ONE, win
    )
    op = group_matrix_spectral(1, 0.5, eigs, (0.0, 0.0), leakage_tol=0.6)
    labels = op.labels()
    col = labels.index((0, n0))
    coeff = indicator_fourier_coeffs(0.5, range(-4, 5))  # k = -4..4
    for k in range(-4, 5):
        row = labels.index((k, n0))
        complement = (1.0 if k == 0 else 0.0) - coeff[k + 4]
        expected = (complement - coeff[k + 4]) * np.exp(
            2j * np.pi * 0.0 * 0.5
        )
        assert op.matrix[row, col] == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# stacks of states, cached phases, streamed probes
# ---------------------------------------------------------------------------


# The twisted transforms as they were before their phases were cached and
# the shift-0 multiply was skipped; kept as a test oracle only.


def _old_twisted_analysis(values, axis, shift):
    n = values.shape[axis]
    j = np.arange(n)
    phase = np.exp(-2j * np.pi * shift * j / n)
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.fft(values * phase.reshape(shape), axis=axis) / n


def _old_twisted_synthesis(coeffs, axis, shift):
    n = coeffs.shape[axis]
    j = np.arange(n)
    phase = np.exp(2j * np.pi * shift * j / n)
    shape = [1] * coeffs.ndim
    shape[axis] = n
    return np.fft.ifft(coeffs, axis=axis) * n * phase.reshape(shape)


def random_grid(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shift", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_twisted_transforms_equal_multiply_by_phase_versions(shift, axis):
    rng = np.random.default_rng(30)
    for values in (random_grid(rng, 40, 40), random_grid(rng, 3, 40, 40)):
        got = twisted_analysis(values, axis, shift)
        assert (got == _old_twisted_analysis(values, axis, shift)).all()
        back = twisted_synthesis(got, axis, shift)
        assert (back == _old_twisted_synthesis(got, axis, shift)).all()


@pytest.mark.parametrize("n", [3, 37, 48, 64, 100, 1000])
def test_twisted_analysis_scaling_keeps_the_bits_of_complex_division(n):
    # the FFT scaled through its float view against coeffs /= n: every
    # nonzero part keeps its bits, and a zero part its value, whose sign
    # may differ
    rng = np.random.default_rng(40)
    for magnitude in (1e-300, 1e-150, 1.0, 1e150, 1e300):
        values = random_grid(rng, 64, n) * magnitude
        values[:8] = values[:8].real  # zero imaginary parts in the DC mode
        values[8:16, ::2] = -0.0
        for shift in (0.0, 0.3):
            got = twisted_analysis(values, 1, shift)
            want = np.fft.fft(values * _phase(n, shift, -1) if shift else values, axis=1)
            want /= n
            assert (got == want).all()
            nonzero = want.view(float) != 0
            assert (got.view(np.uint64)[nonzero] == want.view(np.uint64)[nonzero]).all()


def test_an_fft_that_overflows_gives_non_finite_table_entries():
    # a finite probe whose line sums overflow in the boundary's transform:
    # every entry is non-finite, never a finite ratio
    rng = np.random.default_rng(41)
    n = 64
    probe = np.full((n, n), 1e307, dtype=complex)
    bx = DiagonalBoundary(random_sequence(rng, 8), shift=0.3)
    by = DiagonalBoundary(random_sequence(rng, 8), shift=0.7)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(twisted_analysis(probe, 1, 0.0)).any()
        table = commutator_norm(
            grid_group_action(1, (0.25, 1.5), bx),
            grid_group_action(2, (0.125, 0.5), by),
            [probe],
        )
    assert not np.isfinite(table).any()


def test_twisted_phases_are_cached_read_only_and_shared():
    phase = _phase(64, 0.3, 1)
    assert _phase(64, 0.3, 1) is phase
    assert _phase(64, 0.3, -1) is _phase(64, 0.3, -1)
    assert _phase(32, 0.3, 1) is not phase
    for sign in (1, -1):
        cached = _phase(64, 0.3, sign)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
    # the transforms never write through the cached phase
    values = random_grid(np.random.default_rng(31), 64, 64)
    twisted_synthesis(twisted_analysis(values, 1, 0.3), 1, 0.3)
    j = np.arange(64)
    assert (phase == np.exp(2j * np.pi * 0.3 * j / 64)).all()


def boundary_of(kind, rng, n):
    if kind == "matrix":
        z = random_grid(rng, 17, 17)
        return MatrixBoundary(np.linalg.qr(z)[0], (-8, 8), shift=0.2)
    shift = 0.0 if kind == "diagonal-0" else 0.3
    return DiagonalBoundary(random_sequence(rng, n // 2), shift=shift)


@pytest.mark.parametrize("kind", ["diagonal-0", "diagonal-0.3", "matrix"])
@pytest.mark.parametrize("t", [0.0, 1.0, 0.375, 1.25])  # rem == 0, rem != 0
@pytest.mark.parametrize("axis", [1, 2])
def test_grid_action_on_a_stack_equals_per_state_loop(kind, t, axis):
    rng = np.random.default_rng(32)
    n = 32
    act = grid_group_action(axis, [t], boundary_of(kind, rng, n))
    for stack in (random_grid(rng, 4, n, n), random_grid(rng, 2, 3, n, n)):
        want = np.array([act(s)[0] for s in stack.reshape(-1, n, n)])
        (got,) = act(stack)
        assert (got == want.reshape(stack.shape)).all()


FAMILY_TIMES = (0.0, "1/n", 0.625, 1.0, 1.375, 2.5)  # rem 0, full >= 1


@pytest.mark.parametrize("kind", ["diagonal-0", "diagonal-0.3", "matrix"])
@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("axis", [1, 2])
def test_family_images_equal_one_action_per_time(kind, n, axis):
    rng = np.random.default_rng(36)
    boundary = boundary_of(kind, rng, n)
    times = [1 / n if t == "1/n" else t for t in FAMILY_TIMES]
    act = grid_group_action(axis, times, boundary)
    state = random_grid(rng, n, n)
    images = act(state)
    assert len(images) == len(times)
    for t, image in zip(times, images):
        (single,) = grid_group_action(axis, [t], boundary)(state)
        assert (image == single).all()
        assert (image == _rolled_action(state, axis, t, boundary)).all()
    for stack in (random_grid(rng, 3, n, n), random_grid(rng, 2, 2, n, n)):
        flat = stack.reshape(-1, n, n)
        for t, image in zip(times, act(stack)):
            assert image.shape == stack.shape
            want = [_rolled_action(s, axis, t, boundary) for s in flat]
            assert (image.reshape(flat.shape) == np.array(want)).all()
    # every image is a new array, also where no row is transformed
    assert not np.shares_memory(images[0], state)


def test_family_transforms_the_rows_of_each_power_once():
    # times 1/8 .. 5/8 on 64 rows move 8 .. 40 rows through B; the family
    # transforms the 40 once, where one action per time transforms 120
    n = 64
    seen = []

    class Counting(DiagonalBoundary):
        def apply(self, lines, axis, power=1):
            if power:
                seen.append(lines.shape)
            return super().apply(lines, axis, power)

    rng = np.random.default_rng(37)
    boundary = Counting(random_sequence(rng, 8), shift=0.3)
    times = (0.125, 0.25, 0.375, 0.5, 0.625)
    state = random_grid(rng, n, n)
    grid_group_action(1, times, boundary)(state)
    assert seen == [(40, n)]
    seen.clear()
    grid_group_action(2, times + (1.375,), boundary)(random_grid(rng, 3, n, n))
    # power 1: rows [0, 40) of the short times and [24, 64) of 1.375;
    # power 2: rows [0, 24) of 1.375
    assert seen == [(3, n, 64), (3, n, 24)]
    seen.clear()
    # times on both sides of a seam crossing: power 1 moves rows [0, 8)
    # for 0.125 and [56, 64) for 1.875, two runs of 8 rather than their
    # hull of 64; power 2 moves rows [0, 56) for 1.875
    state = random_grid(rng, n, n)
    images = grid_group_action(1, (0.125, 1.875), boundary)(state)
    assert seen == [(8, n), (8, n), (56, n)]
    for t, image in zip((0.125, 1.875), images):
        assert (image == _rolled_action(state, 1, t, boundary)).all()


def test_windows_far_apart_get_extensions_of_their_own():
    # times 0.125 and 40.0 at grid_n 64 make two extensions of 64 rows,
    # not the 40-period hull of 2 616 rows (41 states, 2.7 MB)
    rng = np.random.default_rng(42)
    n = 64
    boundary = DiagonalBoundary(random_sequence(rng, 8), shift=0.3)
    state = random_grid(rng, n, n)
    act = grid_group_action(1, (0.125, 40.0), boundary)
    tracemalloc.start()
    try:
        images = act(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * state.nbytes
    for t, image in zip((0.125, 40.0), images):
        assert (image == _rolled_action(state, 1, t, boundary)).all()
        # a view of its extension, which other images may share
        assert not image.flags.writeable
    assert not np.shares_memory(*images)


@pytest.mark.parametrize("n", [40, 64, 128])
def test_commutator_table_equals_grid_norm_per_pair(n):
    # the reference moves each probe with one single-time action per
    # operator and measures each pair's difference by grid_norm
    rng = np.random.default_rng(38)
    phases = (0.3, 0.7)
    win = LatticeWindow.centered(8, 2)
    bx = DiagonalBoundary(phases_of({1: 0.4}), shift=phases[1])
    by = DiagonalBoundary(random_sequence(rng, 8), shift=phases[0])
    coeffs = default_probe_coefficients(win, 1, 3, rng)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    table = commutator_norm(
        grid_group_action(1, S_TIMES, bx), grid_group_action(2, T_TIMES, by), probes
    )
    want = np.zeros((len(S_TIMES), len(T_TIMES)))
    for p in probes:
        for i, s in enumerate(S_TIMES):
            for j, t in enumerate(T_TIMES):
                xy = group_action_grid(group_action_grid(p, 2, t, by), 1, s, bx)
                yx = group_action_grid(group_action_grid(p, 1, s, bx), 2, t, by)
                ratio = grid_norm(xy - yx) / grid_norm(p)
                want[i, j] = max(want[i, j], ratio)
    assert (table == want).all()
    assert table.max() > 0.01


@pytest.mark.parametrize("power", [1, 2, -1])
def test_matrix_boundary_on_a_stack_equals_per_line(power):
    rng = np.random.default_rng(39)
    n = 40
    boundary = boundary_of("matrix", rng, n)
    for axis, lines in ((1, random_grid(rng, 7, n)), (0, random_grid(rng, n, 5))):
        got = boundary.apply(lines, axis, power)
        for k in range(lines.shape[1 - axis]):
            line = lines[k] if axis == 1 else lines[:, k]
            want = boundary.apply(line, 0, power)
            assert ((got[k] if axis == 1 else got[:, k]) == want).all()


def test_truncated_operator_on_a_stack_equals_per_vector_loop():
    rng = np.random.default_rng(33)
    win = LatticeWindow.centered(6, 2)
    eigs = BoundaryEigenvalues.from_pair(
        phases_of({1: 0.4}), random_sequence(rng, 6), win
    )
    op = group_matrix_spectral(
        2, 0.375, eigs, (0.1, 0.2), grid_n=64, leakage_tol=1.0
    )
    stack = random_grid(rng, 5, win.cardinality)
    assert (op(stack) == np.array([op.matrix @ v for v in stack])).all()
    assert (op(stack[0]) == op.matrix @ stack[0]).all()


def sweep_inputs(
    rng, phases, radius=8, sub_radius=2, n_random=4,
    times=(0.125, 0.25, 0.375, 0.5, 0.625),
):
    win = LatticeWindow.centered(radius, 2)
    one = phases_of({1: 0.4})
    bx = DiagonalBoundary(one, shift=phases[1])
    by = DiagonalBoundary(random_sequence(rng, radius), shift=phases[0])
    xs = grid_group_action(1, times, bx)
    ys = grid_group_action(2, times, by)
    coeffs = default_probe_coefficients(win, sub_radius, n_random, rng)
    return xs, ys, coeffs, win


def test_commutator_norm_streams_a_generator_with_four_family_calls():
    rng = np.random.default_rng(34)
    n, phases = 32, (0.3, 0.7)
    xs, ys, coeffs, win = sweep_inputs(rng, phases)
    calls = []

    def counted(name, op):
        def act(values):
            calls.append((name, values.shape))
            return op(values)
        return act

    def states():
        for v in coeffs:
            yield synthesize_window_state(v, phases, win, n)

    table = commutator_norm(counted("x", xs), counted("y", ys), states())
    assert (table == commutator_norm(xs, ys, list(states()))).all()
    # per probe: X and Y move it, Y moves the stack of the 5 X-images and
    # X the stack of the 5 Y-images
    assert len(calls) == len(coeffs) * 4
    for call in (("x", (n, n)), ("y", (n, n)), ("x", (5, n, n)), ("y", (5, n, n))):
        assert calls.count(call) == len(coeffs)
    assert table.shape == (5, 5)
    assert table.max() > 0.01


def all_exact_table(xs, ys, probes):
    """The commutator table with the exact grid_norm ratio of every pair
    of every probe, the running max taken by np.maximum."""
    table = None
    for p in probes:
        den = grid_norm(p)
        yx = ys(np.stack(xs(p)))
        xy = xs(np.stack(ys(p)))
        ratios = np.array(
            [[grid_norm(xy[i][j] - yx[j][i]) / den for j in range(len(yx))]
             for i in range(len(xy))]
        )
        table = ratios if table is None else np.maximum(table, ratios)
    return table


def test_bounded_table_equals_the_all_exact_table_on_a_grid_sweep():
    rng = np.random.default_rng(43)
    n, phases = 64, (0.3, 0.7)
    xs, ys, coeffs, win = sweep_inputs(rng, phases, sub_radius=1, n_random=4)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    # ratios a few ulps apart, which the bound must not skip when above the max
    near = [p * (1 + k * 2.0**-52) for p in probes[-2:] for k in range(1, 9)]
    # probes whose differences have subnormal squared moduli
    tiny = [p * 2.0**-530 for p in probes[-2:]]
    d = xs(np.stack(ys(tiny[0])))[1][1] - ys(np.stack(xs(tiny[0])))[1][1]
    assert 0 < (np.abs(d) ** 2).max() < np.finfo(float).tiny
    for sweep in (probes + probes, probes + near, tiny + probes, probes + tiny):
        table = commutator_norm(xs, ys, sweep)
        assert same_bits(table, all_exact_table(xs, ys, sweep))
        assert table.max() > 0.01


def block_families(rng):
    """Families on 4-vectors.  X_i and Y_j mix the first two coordinates
    by 2 x 2 matrices that do not commute; on the last two X_i scales by
    2^i and Y_j swaps them, so a probe on the last two coordinates has
    differences that are exactly zero."""
    a = [random_grid(rng, 2, 2) for _ in range(3)]
    b = [random_grid(rng, 2, 2) for _ in range(2)]

    def xs(v):
        return [
            np.concatenate([(m @ v[..., :2, None])[..., 0], v[..., 2:] * 2.0**i], axis=-1)
            for i, m in enumerate(a)
        ]

    def ys(v):
        return [
            np.concatenate([(m @ v[..., :2, None])[..., 0], v[..., :1:-1]], axis=-1)
            for m in b
        ]

    return xs, ys


def test_bounded_table_equals_the_all_exact_table_on_zero_and_nan_differences():
    rng = np.random.default_rng(44)
    xs, ys = block_families(rng)
    probes = list(random_grid(rng, 5, 4))
    zero = np.array([0.0, 0.0, 1.5 - 2.0j, 0.25j])
    assert same_bits(commutator_norm(xs, ys, [zero]), np.zeros((3, 2)))
    for sweep in ([zero] + probes, probes + [zero], probes + probes[::-1]):
        table = commutator_norm(xs, ys, sweep)
        assert same_bits(table, all_exact_table(xs, ys, sweep))
        assert table.min() > 0.01

    def xs_nan(v):
        images = xs(v)
        images[1] = images[1] * np.nan
        return images

    table = commutator_norm(xs_nan, ys, probes)
    assert np.isnan(table[1]).all() and not np.isnan(table[[0, 2]]).any()
    assert np.array_equal(table, all_exact_table(xs_nan, ys, probes), equal_nan=True)


def test_a_new_max_that_a_bound_without_slack_would_skip_is_kept():
    # rescaling a probe by 1 + k 2^-52 moves its ratios by an ulp or so;
    # find probes a, b and an entry where b's ratio tops a's, but the
    # one-pass bound without slack falls below a's: the sweep [a, b] must
    # still take b's exact ratio
    rng = np.random.default_rng(45)
    xs, ys = block_families(rng)
    p = random_grid(rng, 4)
    scaled = [p * (1 + k * 2.0**-52) for k in range(200)]
    exact, naive = [], []
    for q in scaled:
        den = grid_norm(q)
        yx, xy = ys(np.stack(xs(q))), xs(np.stack(ys(q)))
        d = np.array([[xy[i][j] - yx[j][i] for j in range(2)] for i in range(3)])
        exact.append([[grid_norm(e) / den for e in row] for row in d])
        parts = d.view(float).reshape(3, 2, -1)
        naive.append(np.sqrt(np.vecdot(parts, parts) * grid_weight(q.shape)) / den)
    exact, naive = np.array(exact), np.array(naive)
    skipped = (naive[None] < exact[:, None]) & (exact[:, None] < exact[None])
    a, b, i, j = np.argwhere(skipped)[0]
    table = commutator_norm(xs, ys, [scaled[a], scaled[b]])
    assert table[i, j] == exact[b, i, j] > exact[a, i, j]
    assert same_bits(table, all_exact_table(xs, ys, [scaled[a], scaled[b]]))


def test_the_bound_slack_covers_the_summation_error_at_the_load_cap():
    # a difference of a grid_n 1448 probe, the largest grid that loads,
    # has 2 * 1448^2 real and imaginary parts
    u = Fraction(1, 2**53)
    terms = 2 * 1448**2

    def gamma(m):
        return m * u / (1 - m * u)

    slack = _norm_slack(terms)
    # the one-pass sum's error, the exact norm's, 11 u for a modulus
    # squared and weighted, and four roundings of the bound
    need = (1 + gamma(terms // 2)) * (1 + 11 * u) / (1 - gamma(terms))
    assert (1 - u) ** 4 * (1 + Fraction(slack)) >= need
    assert slack < 1e-9


def test_commutator_norm_rejects_an_empty_generator():
    b = DiagonalBoundary(ONE)
    fx = grid_group_action(1, [0.25], b)
    with pytest.raises(ValueError, match="empty probe list"):
        commutator_norm(fx, fx, (p for p in []))


def test_streamed_sweep_of_benchmark_size_stays_under_5_mib():
    # the sweep of one simulate-groups job in the groups-sweep workload:
    # window radius 8, grid_n 64, 5 x 5 times, 81 + 10 = 91 probes
    rng = np.random.default_rng(35)
    n, phases = 64, (0.3, 0.7)
    xs, ys, coeffs, win = sweep_inputs(rng, phases, sub_radius=4, n_random=10)
    assert len(coeffs) == 91
    tracemalloc.start()
    try:
        table = commutator_norm(
            xs, ys, (synthesize_window_state(v, phases, win, n) for v in coeffs)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (5, 5)
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("times", [(0.125, 0.25, 0.375, 0.5, 0.625), (0, 1, 2, 3, 4)])
def test_sweep_peak_is_at_most_its_price(monkeypatch, n, times):
    # the price check_sweep_grid caps: both extensions, the differences,
    # the stack a family call moves and its transform's temporaries
    rng = np.random.default_rng(36)
    phases = (0.3, 0.7)
    xs, ys, coeffs, win = sweep_inputs(rng, phases, sub_radius=0, n_random=1, times=times)
    probes = [synthesize_window_state(v, phases, win, n) for v in coeffs]
    assert len(probes) == 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        commutator_norm(xs, ys, probes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a cap one byte below the peak refuses the sweep, one of twice the
    # peak takes it
    monkeypatch.setattr(groups, "MAX_SWEEP_BYTES", peak - 1)
    with pytest.raises(ValueError, match="the sweep's two extensions"):
        check_sweep_grid(win, n, times)
    monkeypatch.setattr(groups, "MAX_SWEEP_BYTES", 2 * peak)
    check_sweep_grid(win, n, times)


# ---------------------------------------------------------------------------
# the seam twist: which pair the cocycle cross-oracle reads
# ---------------------------------------------------------------------------


def _phase_table(rng, kind, radius):
    """A phase table that is identically one, a nonzero constant or generic."""
    if kind == "one":
        return ONE
    if kind == "constant":
        return phases_of(default=float(rng.uniform(0.05, 0.95)))
    table = {k: float(rng.random()) for k in range(-radius, radius + 1)}
    return phases_of(table, float(rng.random()))


def test_twisted_cocycle_verdict_matches_the_grid_commutator():
    # U_x(s) reads a on the y modes n + beta and U_y(t) reads b on the x
    # modes m + alpha; the cocycle of the pair twisted by the basis phases,
    # (a - alpha, b - beta) mod 1, must decide commutation of the grid groups
    rng = np.random.default_rng(2207)
    radius, grid_n, times = 3, 64, [i / 8 for i in range(1, 6)]
    window = LatticeWindow.centered(radius, 2)
    kinds = ["one", "constant", "generic"]
    untwisted_misses = 0
    for _ in range(40):
        a = _phase_table(rng, kinds[rng.integers(3)], radius)
        b = _phase_table(rng, kinds[rng.integers(3)], radius)
        alpha, beta = (float(rng.random()) if rng.random() < 0.5 else 0.0 for _ in "ab")
        probes = [
            synthesize_window_state(v, (alpha, beta), window, grid_n)
            for v in default_probe_coefficients(window, 0, 4, rng)
        ]
        worst = commutator_norm(
            grid_group_action(1, times, DiagonalBoundary(a, shift=beta)),
            grid_group_action(2, times, DiagonalBoundary(b, shift=alpha)),
            probes,
        ).max()
        twisted = BoundaryEigenvalues.from_pair(
            seam_twisted(a, alpha), seam_twisted(b, beta), window
        )
        assert check_cocycle_2d(twisted).holds == (worst < 1e-6), (a, b, alpha, beta)
        untwisted = check_cocycle_2d(BoundaryEigenvalues.from_pair(a, b, window))
        untwisted_misses += untwisted.holds != (worst < 1e-6)
    # the sample holds pairs on which the untwisted pair gives the wrong verdict
    assert untwisted_misses > 0


def test_seam_twist_by_zero_keeps_every_lifted_bit():
    rng = np.random.default_rng(2208)
    window = LatticeWindow.centered(4, 2)
    for kind in ["one", "constant", "generic"]:
        a, b = (_phase_table(rng, kind, 4) for _ in "ab")
        plain = BoundaryEigenvalues.from_pair(a, b, window)
        twisted = BoundaryEigenvalues.from_pair(
            seam_twisted(a, 0.0), seam_twisted(b, 0.0), window
        )
        for got, want in zip(twisted.values, plain.values):
            assert got.tobytes() == want.tobytes()


def test_seam_twist_subtracts_the_shift_mod_one():
    fn = IntFunction(1, 0.25, {0: 0.75, 1: 0.1, 2: 0.5})
    got = seam_twisted(fn, 0.5)
    assert (got.default, got.table) == (0.75, {(0,): 0.25, (1,): 0.6, (2,): 0.0})
    # a difference a rounding below zero would wrap to 1.0: it reads 0.0
    shift = np.nextafter(0.1, 1.0)
    assert seam_twisted(IntFunction(1, 0.1), shift).default == 0.0
    # the lift is the seam factor times the untwisted lift
    window = LatticeWindow.centered(2, 2)
    lifted = BoundaryEigenvalues.from_pair(seam_twisted(fn, 0.3), ONE, window)
    plain = BoundaryEigenvalues.from_pair(fn, ONE, window)
    np.testing.assert_allclose(
        lifted.values[0], plain.values[0] * unit(-0.3), rtol=0, atol=1e-15
    )
