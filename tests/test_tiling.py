import io
import itertools

import numpy as np
import pytest

from spectralbox.model import (
    MAX_WINDOW_CARDINALITY,
    ExplicitSpectrum,
    IntFunction,
    Tower,
)
from spectralbox.config import parse_config
from spectralbox.tiling import (
    MAX_SAMPLES,
    check_window,
    emit_tiling_svg,
    multiplicity_map,
    tiling_verdict,
    torus_translates,
)
from test_model import lattice, loop_points


def random_beta(rng, n):
    return IntFunction(
        1, default=0.0, table={k: float(rng.random()) for k in range(n)}
    )


def loaded_lattice(alpha):
    """The spec a translated-lattice config loads, for any finite alpha."""
    text = (
        "command: build-spectrum\nwindow: {radius: 0}\n"
        f"spectrum: {{family: translated-lattice, alpha_vector: {list(alpha)}}}\n"
    )
    return parse_config(text).spectrum


def test_integer_lattice_tiles():
    mp = multiplicity_map(lattice(0.0, 0.0), 4, 16)
    rep = tiling_verdict(mp)
    assert rep.tiles
    assert rep.overlap_fraction == 0.0 and rep.gap_fraction == 0.0


@pytest.mark.parametrize("alpha", [(1.3, 0.0), (-2.0, 0.5), (0.4, -7.75)])
def test_lattice_offset_outside_unit_interval_tiles(alpha):
    # alpha + Z^d is the same set for alpha mod 1; the torus cover must
    # not lose the cubes that a large offset pushes past the padding
    rep = tiling_verdict(multiplicity_map(loaded_lattice(alpha), 4, 16))
    assert rep.tiles
    assert rep.gap_fraction == 0.0 and rep.overlap_fraction == 0.0


def test_sparse_lattice_leaves_gaps():
    pts = ExplicitSpectrum(
        [[2 * m, 2 * n] for m in range(-1, 3) for n in range(-1, 3)]
    )
    rep = tiling_verdict(multiplicity_map(pts, 4, 64))
    assert not rep.tiles
    assert rep.gap_fraction == pytest.approx(0.75, abs=0.01)
    assert rep.overlap_fraction == 0.0


def test_class_a_and_b_tile_for_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(5):
        beta = random_beta(rng, 4)
        alpha = float(rng.random())
        levels = (IntFunction.constant(alpha), beta)
        for spec in (Tower(levels), Tower(levels, (1, 0))):
            rep = tiling_verdict(multiplicity_map(spec, 4, 32))
            assert rep.tiles, spec


def test_mass_conservation():
    # every in-window cube contributes its unit area to the counts
    rng = np.random.default_rng(1)
    spec = Tower((IntFunction.constant(float(rng.random())), random_beta(rng, 4)))
    res = 32
    mp = multiplicity_map(spec, 4, res)
    pts = torus_translates(spec, 4)
    cell_area = 1.0 / res**2
    total_count_area = mp.counts.sum() * cell_area
    # each translate covers the part of its cube inside the sampled window
    window_lo, window_hi = 0.0, 4.0
    covered = 0.0
    for p in pts:
        w = max(0.0, min(p[0] + 1, window_hi) - max(p[0], window_lo))
        h = max(0.0, min(p[1] + 1, window_hi) - max(p[1], window_lo))
        covered += w * h
    assert total_count_area == pytest.approx(covered, abs=2.0 / res)


def test_verdict_invariant_under_translation():
    rng = np.random.default_rng(2)
    spec = Tower((IntFunction.constant(float(rng.random())), random_beta(rng, 4)))
    shift = np.array([0.31, 0.77])
    pts = torus_translates(spec, 4, pad=2) + shift
    rep = tiling_verdict(multiplicity_map(ExplicitSpectrum(pts), 4, 32))
    assert rep.tiles


def test_resolution_guard():
    with pytest.raises(ValueError):
        multiplicity_map(lattice(0.0, 0.0), 4, 4)


def random_level(rng, arity, n):
    """A level table of the given arity over indices 0..n-1."""
    keys = itertools.product(range(n), repeat=arity)
    return IntFunction(
        arity, default=0.0, table={k: float(rng.random()) for k in keys}
    )


def random_tower(rng, d, n, offset=0.0, axis_order=None):
    levels = [IntFunction.constant(offset)]
    levels += [random_level(rng, k, n) for k in range(1, d)]
    return Tower(tuple(levels), axis_order)


def reference_translates(spec, torus_n, pad=1):
    """torus_translates as a loop of level calls over the padded box, with
    one branch per spectrum type."""
    if isinstance(spec, ExplicitSpectrum):
        return np.array(spec.points, copy=True)
    return loop_points(spec, ((-pad, torus_n + pad - 1),) * spec.dimension, torus_n)


@pytest.mark.parametrize("pad", [1, 2])
def test_torus_translates_match_the_call_loop(pad):
    rng = np.random.default_rng(6)
    specs = [
        loaded_lattice(alpha)
        for alpha in [(0.25,), (1.3, -2.0), (-0.5, 0.4, 7.75), (0.0,) * 4]
    ]
    specs += [
        random_tower(rng, d, 3, offset, order)
        for d, offset, order in [
            (1, 0.5, None),
            (2, 0.3, None),
            (2, 0.3, (1, 0)),
            (3, 0.0, (2, 0, 1)),
            (3, 0.7, (1, 2, 0)),
        ]
    ]
    specs.append(ExplicitSpectrum(rng.uniform(-2.0, 5.0, size=(7, 2))))
    for spec, n in itertools.product(specs, (1, 3)):
        got = torus_translates(spec, n, pad)
        want = reference_translates(spec, n, pad)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all(), (spec, n)


def test_one_dimensional_torus_wider_than_the_window_cap():
    # the padded torus block is no LatticeWindow, so check_window's 1-D
    # limit of 2^21 units applies, not the window cap of 10^6 points
    n = MAX_WINDOW_CARDINALITY + 1
    pts = torus_translates(loaded_lattice((2.5,)), n)
    assert pts.shape == (n + 2, 1)
    assert pts[0, 0] == -0.5 and pts[-1, 0] == n + 0.5
    spec = ExplicitSpectrum([[0.0], [0.5], [n - 1.0]])
    mp = multiplicity_map(spec, n, 8)
    assert mp.counts.shape == (8 * n,)
    assert mp.counts.sum() == 24
    assert np.count_nonzero(mp.counts == 2) == 4
    assert not mp.face_mask.any()
    rep = tiling_verdict(mp)
    assert not rep.tiles and rep.overlap_fraction == 4 / (8 * n)


def reference_map(spec, torus_n, resolution, face_eps=1e-9):
    """The full-grid mask loop: every translate masks the whole window."""
    points = reference_translates(spec, torus_n)
    d = points.shape[1]
    n_samples = torus_n * resolution
    axis = (np.arange(n_samples) + 0.5) / resolution
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    counts = np.zeros(grids[0].shape, dtype=int)
    on_face = np.zeros(grids[0].shape, dtype=bool)
    for p in points:
        inside = np.ones(grids[0].shape, dtype=bool)
        near_face = np.zeros(grids[0].shape, dtype=bool)
        for j in range(d):
            u = grids[j] - p[j]
            inside &= (u >= 0.0) & (u < 1.0)
            near_face |= (np.abs(u) < face_eps) | (np.abs(u - 1.0) < face_eps)
        counts += inside
        on_face |= near_face & inside
    return counts, on_face


# (d, res, n) windows of at most 4096 samples, plus one of 16^4
ORACLE_WINDOWS = [
    (d, res, n)
    for d in (1, 2, 3, 4)
    for res in (8, 16)
    for n in (1, 2, 3)
    if (n * res) ** d <= 4096
] + [(4, 16, 1)]


def assert_matches_reference(spec, n, res):
    mp = multiplicity_map(spec, n, res)
    counts, on_face = reference_map(spec, n, res)
    assert mp.counts.dtype == counts.dtype
    assert np.array_equal(mp.counts, counts)
    assert np.array_equal(mp.face_mask, on_face)
    return mp


@pytest.mark.parametrize("d, res, n", ORACLE_WINDOWS)
def test_block_kernel_matches_reference_on_face_offsets(d, res, n):
    # samples sit at (i + 0.5) / res, so these offsets put faces on samples
    for offset in (0.5 / res, 1.5 / res):
        mp = assert_matches_reference(lattice(*(offset,) * d), n, res)
        assert tiling_verdict(mp).n_excluded > 0
    assert_matches_reference(lattice(*(1.0 / 3.0,) * d), n, res)


@pytest.mark.parametrize("d, res, n", ORACLE_WINDOWS)
def test_block_kernel_matches_reference_on_towers(d, res, n):
    rng = np.random.default_rng(10 * d + res + n)
    orders = [None, tuple(int(a) for a in rng.permutation(d))]
    for offset, order in itertools.product((0.5 / res, 0.3), orders):
        tower = random_tower(rng, d, n, offset, order)
        mp = assert_matches_reference(tower, n, res)
        assert tiling_verdict(mp).tiles


@pytest.mark.parametrize("d, res, n", ORACLE_WINDOWS)
def test_block_kernel_matches_reference_on_random_points(d, res, n):
    # cubes reach past both window edges; some corners snap to the
    # half-sample grid so that faces fall on samples
    rng = np.random.default_rng(100 * d + res + n)
    pts = rng.uniform(-1.5, n + 0.5, size=(12, d))
    pts[:4] = np.round(pts[:4] * 2 * res) / (2 * res)
    assert_matches_reference(ExplicitSpectrum(pts), n, res)


def test_block_kernel_ignores_far_away_points():
    pts = np.array([[1e300, 0.2], [-1e300, 0.1], [0.5, 1.7e308], [0.25, 0.25]])
    with np.errstate(all="raise"):
        mp = multiplicity_map(ExplicitSpectrum(pts), 2, 8)
    assert mp.counts.sum() == 64
    near = reference_map(ExplicitSpectrum(pts[3:]), 2, 8)[0]
    assert np.array_equal(mp.counts, near)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_points_must_be_finite(bad):
    pts = np.array([[0.0, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        multiplicity_map(ExplicitSpectrum(pts), 2, 8)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 0)])
def test_raw_points_must_form_a_point_table(shape):
    with pytest.raises(ValueError, match="point"):
        multiplicity_map(ExplicitSpectrum(np.zeros(shape)), 2, 8)


def test_window_limits():
    check_window(1, 8, 4)
    with pytest.raises(ValueError, match="window"):
        check_window(0, 8, 2)
    with pytest.raises(ValueError, match="coarse"):
        check_window(4, 7, 2)
    assert (4 * 64) ** 3 == MAX_SAMPLES
    check_window(4, 64, 3)
    with pytest.raises(ValueError, match="samples"):
        check_window(40, 64, 3)
    with pytest.raises(ValueError, match="samples"):
        multiplicity_map(lattice(*(0.0,) * 4), 8, 16)


def test_four_level_tower_tiles_and_a_moved_copy_does_not():
    rng = np.random.default_rng(5)
    tower = random_tower(rng, 4, 4, offset=0.25)
    mp = multiplicity_map(tower, 4, 8)
    assert mp.counts.shape == (32,) * 4
    rep = tiling_verdict(mp)
    assert rep.tiles
    assert rep.gap_fraction == 0.0 and rep.overlap_fraction == 0.0
    pts = torus_translates(tower, 4)
    pts[len(pts) // 2] += np.array([0.3, 0.0, 0.55, 0.0])
    moved = tiling_verdict(multiplicity_map(ExplicitSpectrum(pts), 4, 8))
    assert not moved.tiles
    assert moved.gap_fraction > 0.0 and moved.overlap_fraction > 0.0


def test_tower3d_tiles_in_three_dimensions():
    rng = np.random.default_rng(3)
    beta = random_beta(rng, 2)
    gamma = IntFunction(
        2,
        default=0.0,
        table={(k, l): float(rng.random()) for k in range(2) for l in range(2)},
    )
    spec = Tower((IntFunction.constant(0.0), beta, gamma))
    rep = tiling_verdict(multiplicity_map(spec, 2, 8))
    assert rep.tiles


def test_torus_translates_periodize_tables():
    beta = IntFunction(1, default=0.0, table={0: 0.25, 1: 0.5, 2: 0.75, 3: 0.1})
    spec = Tower((IntFunction.constant(0.0), beta))
    pts = torus_translates(spec, 4)
    # column m = -1 must reuse the table value at 3
    col = pts[np.isclose(pts[:, 0], -1.0)]
    assert np.allclose(col[:, 1] % 1.0, 0.1)


def test_svg_deterministic_and_annotated():
    beta = IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5, 2: 0.8, 3: 0.3})
    spec = Tower((IntFunction.constant(0.0), beta))
    payload1 = emit_tiling_svg(spec, 4)
    payload2 = emit_tiling_svg(spec, 4)
    assert payload1 == payload2
    text = payload1.decode()
    assert text.startswith("<?xml")
    assert "<rect" in text and "d0 = 0.3" in text
    buf = io.BytesIO()
    emit_tiling_svg(spec, 4, buf)
    assert buf.getvalue() == payload1


def test_svg_row_shifted_labels_on_the_right():
    beta = IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5, 2: 0.8, 3: 0.3})
    spec = Tower((IntFunction.constant(0.25), beta), (1, 0))
    text = emit_tiling_svg(spec, 4).decode()
    # labels sit right of the window (x = (4 + 0.1 + 1) * 54), one per row
    assert text.count('<text x="275.4"') == 3
    assert "d0 = 0.3" in text and "d2 = -0.5" in text


def test_svg_plain_grid_has_no_annotations():
    grid = ExplicitSpectrum([[m, n] for m in range(-1, 4) for n in range(-1, 4)])
    payload = emit_tiling_svg(grid, 3)
    assert b"<text" not in payload


def test_svg_rejects_3d():
    rng = np.random.default_rng(4)
    spec = Tower((IntFunction.constant(0.0), random_beta(rng, 2), IntFunction(2)))
    with pytest.raises(ValueError):
        emit_tiling_svg(spec, 2)
