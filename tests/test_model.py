import numpy as np
import pytest

from spectralbox.model import (
    ArityMismatchError,
    ClassA2D,
    ClassB2D,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    ToleranceConfig,
    Tower,
    Tower3D,
    TranslatedLattice,
    UnitCube,
    WindowCapError,
    enumerate_spectrum,
    spectrum_difference_set,
)


def test_unit_cube_validation():
    assert UnitCube(2).measure == 1.0
    with pytest.raises(ValueError):
        UnitCube(0)


def test_interval_union_validation():
    u = IntervalUnion(((2.0, 4.0), (0.0, 1.0)))
    assert u.intervals == ((0.0, 1.0), (2.0, 4.0))  # sorted
    assert u.measure == pytest.approx(3.0)
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        IntervalUnion(((1.0, 1.0),))


def test_int_function_total_and_validated():
    beta = IntFunction(1, default=0.25, table={0: 0.5, (3,): 0.75})
    assert beta(0) == 0.5
    assert beta(3) == 0.75
    assert beta(-17) == 0.25
    with pytest.raises(ArityMismatchError):
        beta(1, 2)
    with pytest.raises(ValueError):
        IntFunction(1, default=1.0)
    with pytest.raises(ValueError):
        IntFunction(1, table={0: -0.1})
    const = IntFunction.constant(0.125)
    assert const() == 0.125


def test_lattice_window_basics():
    w = LatticeWindow(((-1, 1), (0, 2)))
    assert w.cardinality == 9
    assert list(w.indices())[0] == (-1, 0)
    assert w.contains((1, 2)) and not w.contains((2, 0))
    with pytest.raises(WindowCapError):
        LatticeWindow(((0, 2000), (0, 2000)))
    with pytest.raises(ValueError):
        LatticeWindow(((2, 1),))


def test_tolerance_config_validation():
    t = ToleranceConfig()
    assert t.eq_tol == 1e-10 and t.num_tol == 1e-8
    assert t.grid_n == 256 and t.quad_n == 2048
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(grid_n=1)


def test_translated_lattice_window_points():
    pts = enumerate_spectrum(
        TranslatedLattice((0.25,)), LatticeWindow(((-1, 1),))
    )
    np.testing.assert_allclose(pts.ravel(), [-0.75, 0.25, 1.25])


def test_class_a_reduces_to_integer_lattice():
    spec = ClassA2D(alpha=0.0, beta=IntFunction(1, default=0.0))
    pts = enumerate_spectrum(spec, LatticeWindow(((0, 1), (0, 1))))
    expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(p) for p in pts} == expected


def test_class_b_swaps_roles():
    beta = IntFunction(1, default=0.0, table={1: 0.5})
    spec = ClassB2D(alpha=0.25, beta=beta)
    pts = enumerate_spectrum(spec, LatticeWindow(((0, 0), (0, 1))))
    assert {tuple(p) for p in pts} == {(0.0, 0.25), (0.5, 1.25)}


def test_tower3d_point_formula():
    beta = IntFunction(1, default=0.0, table={1: 0.4})
    gamma = IntFunction(2, default=0.0, table={(1, 0): 0.7})
    spec = Tower3D(beta=beta, gamma=gamma)
    w = LatticeWindow(((1, 1), (0, 0), (2, 2)))
    pts = enumerate_spectrum(spec, w)
    np.testing.assert_allclose(pts, [[1.0, 0.4, 2.7]])


def test_tower_level_arity_enforced():
    with pytest.raises(ArityMismatchError):
        Tower((IntFunction.constant(0.0), IntFunction(2)))


def test_staircase_constructors_are_towers():
    beta = IntFunction(1, default=0.0, table={1: 0.5})
    gamma = IntFunction(2, default=0.0, table={(1, 0): 0.7})
    zero = IntFunction.constant(0.0)
    offset = IntFunction.constant(0.25)
    assert ClassA2D(alpha=0.25, beta=beta) == Tower((offset, beta))
    assert ClassB2D(alpha=0.25, beta=beta) == Tower((offset, beta), (1, 0))
    assert Tower3D(beta=beta, gamma=gamma) == Tower((zero, beta, gamma))
    assert Tower((offset, beta)).axis_order == (0, 1)


def test_tower_axis_order_must_be_a_permutation():
    levels = (IntFunction.constant(0.0), IntFunction(1))
    for order in [(0, 0), (0,), (1, 2)]:
        with pytest.raises(ValueError, match="permutation"):
            Tower(levels, order)


def test_tower_axis_order_places_coordinates():
    # level 0 on axis 2, level 1 on axis 0 (reading k_0), level 2 on axis 1
    beta = IntFunction(1, default=0.0, table={3: 0.5})
    gamma = IntFunction(2, default=0.0, table={(3, 1): 0.25})
    spec = Tower((IntFunction.constant(0.125), beta, gamma), (2, 0, 1))
    pts = enumerate_spectrum(spec, LatticeWindow(((1, 1), (2, 2), (3, 3))))
    np.testing.assert_allclose(pts, [[1.5, 2.25, 3.125]])


@pytest.mark.parametrize("period", [None, 3])
def test_points_at_matches_loop_formula(period):
    rng = np.random.default_rng(11)
    levels = (
        IntFunction.constant(0.375),
        IntFunction(1, default=0.5, table={k: rng.random() for k in range(-2, 3)}),
        IntFunction(
            2,
            default=0.25,
            table={(k, l): rng.random() for k in range(-2, 2) for l in range(3)},
        ),
    )
    order = (1, 2, 0)
    spec = Tower(levels, order)
    idx = LatticeWindow.centered(3, 3).index_array()
    expected = np.empty(idx.shape)
    for row, tup in enumerate(idx.tolist()):
        k = [tup[axis] for axis in order]
        args = k if period is None else [v % period for v in k]
        for j, fn in enumerate(levels):
            expected[row, order[j]] = fn(*args[:j]) + k[j]
    assert np.array_equal(spec.points_at(idx, period), expected)
    if period is None:
        window = LatticeWindow.centered(3, 3)
        assert np.array_equal(enumerate_spectrum(spec, window), expected)


@pytest.mark.parametrize("alpha", [1.3, -0.1, 1.0, float("nan")])
def test_planar_alpha_must_lie_in_unit_interval(alpha):
    beta = IntFunction(1)
    for make in (ClassA2D, ClassB2D):
        with pytest.raises(ValueError, match="alpha"):
            make(alpha, beta)


def test_tower_fraction_invariant():
    rng = np.random.default_rng(7)
    beta = IntFunction(1, default=0.3, table={k: rng.random() for k in range(-3, 4)})
    gamma = IntFunction(
        2,
        default=0.6,
        table={(k, l): rng.random() for k in range(-2, 3) for l in range(-2, 3)},
    )
    spec = Tower3D(beta=beta, gamma=gamma)
    w = LatticeWindow.centered(2, 3)
    pts = enumerate_spectrum(spec, w)
    idx = w.index_array()
    frac = pts - idx
    assert np.all((frac >= 0.0) & (frac < 1.0))


def test_enumeration_cardinality_matches_window():
    spec = ClassA2D(alpha=0.1, beta=IntFunction(1, default=0.2))
    w = LatticeWindow.centered(3, 2)
    assert enumerate_spectrum(spec, w).shape == (w.cardinality, 2)


def test_explicit_ignores_window():
    spec = ExplicitSpectrum(np.array([[0.0, 0.0], [0.5, 0.25]]))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(5, 2))
    assert pts.shape == (2, 2)


def test_window_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        enumerate_spectrum(TranslatedLattice((0.1, 0.2)), LatticeWindow(((0, 1),)))


def test_difference_set_examples():
    diffs = spectrum_difference_set(np.array([[0.25], [1.25]]))
    assert sorted(diffs.ravel().tolist()) == [-1.0, 1.0]
    assert spectrum_difference_set(np.array([[0.0, 0.0]])).shape == (0, 2)
    spec = ClassA2D(alpha=0.0, beta=IntFunction(1, default=0.0))
    pts = enumerate_spectrum(spec, LatticeWindow(((0, 1), (0, 1))))
    assert spectrum_difference_set(pts).shape == (12, 2)
    with pytest.raises(ValueError):
        spectrum_difference_set(np.empty((0, 2)))


def test_difference_set_closed_under_negation():
    rng = np.random.default_rng(3)
    pts = rng.random((6, 2))
    diffs = spectrum_difference_set(pts)
    as_set = {tuple(np.round(d, 12)) for d in diffs}
    assert all(tuple(np.round(-d, 12)) in as_set for d in diffs)
