import io

import numpy as np
import pytest

from spectralbox.model import (
    ClassA2D,
    ClassB2D,
    IntFunction,
    Tower,
    Tower3D,
    TranslatedLattice,
)
from spectralbox.tiling import (
    emit_tiling_svg,
    multiplicity_map,
    tiling_verdict,
    torus_translates,
)


def random_beta(rng, n):
    return IntFunction(
        1, default=0.0, table={k: float(rng.random()) for k in range(n)}
    )


def test_integer_lattice_tiles():
    mp = multiplicity_map(TranslatedLattice((0.0, 0.0)), 4, 16)
    rep = tiling_verdict(mp)
    assert rep.tiles
    assert rep.overlap_fraction == 0.0 and rep.gap_fraction == 0.0


@pytest.mark.parametrize("alpha", [(1.3, 0.0), (-2.0, 0.5), (0.4, -7.75)])
def test_lattice_offset_outside_unit_interval_tiles(alpha):
    # alpha + Z^d is the same set for alpha mod 1; the torus cover must
    # not lose the cubes that a large offset pushes past the padding
    rep = tiling_verdict(multiplicity_map(TranslatedLattice(alpha), 4, 16))
    assert rep.tiles
    assert rep.gap_fraction == 0.0 and rep.overlap_fraction == 0.0


def test_sparse_lattice_leaves_gaps():
    pts = np.array(
        [[2 * m, 2 * n] for m in range(-1, 3) for n in range(-1, 3)], dtype=float
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
        for spec in (ClassA2D(alpha, beta), ClassB2D(alpha, beta)):
            rep = tiling_verdict(multiplicity_map(spec, 4, 32))
            assert rep.tiles, spec


def test_mass_conservation():
    # every in-window cube contributes its unit area to the counts
    rng = np.random.default_rng(1)
    spec = ClassA2D(float(rng.random()), random_beta(rng, 4))
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
    spec = ClassA2D(float(rng.random()), random_beta(rng, 4))
    shift = np.array([0.31, 0.77])
    pts = torus_translates(spec, 4, pad=2) + shift
    rep = tiling_verdict(multiplicity_map(pts, 4, 32))
    assert rep.tiles


def test_resolution_guard():
    with pytest.raises(ValueError):
        multiplicity_map(TranslatedLattice((0.0, 0.0)), 4, 4)


def test_dimension_guard():
    with pytest.raises(ValueError):
        multiplicity_map(np.zeros((1, 4)), 2, 8)


def test_tower3d_tiles_in_three_dimensions():
    rng = np.random.default_rng(3)
    beta = random_beta(rng, 2)
    gamma = IntFunction(
        2,
        default=0.0,
        table={(k, l): float(rng.random()) for k in range(2) for l in range(2)},
    )
    rep = tiling_verdict(multiplicity_map(Tower3D(beta, gamma), 2, 8))
    assert rep.tiles


def test_torus_translates_periodize_tables():
    beta = IntFunction(1, default=0.0, table={0: 0.25, 1: 0.5, 2: 0.75, 3: 0.1})
    spec = ClassA2D(0.0, beta)
    pts = torus_translates(spec, 4)
    # column m = -1 must reuse the table value at 3
    col = pts[np.isclose(pts[:, 0], -1.0)]
    assert np.allclose(col[:, 1] % 1.0, 0.1)


def test_svg_deterministic_and_annotated():
    beta = IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5, 2: 0.8, 3: 0.3})
    spec = ClassA2D(0.0, beta)
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
    text = emit_tiling_svg(ClassB2D(0.25, beta), 4).decode()
    # labels sit right of the window (x = (4 + 0.1 + 1) * 54), one per row
    assert text.count('<text x="275.4"') == 3
    assert "d0 = 0.3" in text and "d2 = -0.5" in text


def test_svg_annotates_two_level_tower_like_class_a():
    beta = IntFunction(1, default=0.0, table={0: 0.2, 1: 0.5, 2: 0.8, 3: 0.3})
    tower = Tower((IntFunction.constant(0.25), beta))
    assert emit_tiling_svg(tower, 4) == emit_tiling_svg(ClassA2D(0.25, beta), 4)


def test_svg_plain_grid_has_no_annotations():
    payload = emit_tiling_svg(TranslatedLattice((0.0, 0.0)), 3)
    assert b"<text" not in payload


def test_svg_rejects_3d():
    rng = np.random.default_rng(4)
    spec = Tower3D(random_beta(rng, 2), IntFunction(2))
    with pytest.raises(ValueError):
        emit_tiling_svg(spec, 2)
