import numpy as np
import pytest

from spectralbox.model import (
    ArityMismatchError,
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    Tower,
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


def test_interval_union_rejects_non_finite_endpoints():
    for bad in (((0.0, np.inf),), ((-np.inf, 1.0),), ((0.0, np.nan),)):
        with pytest.raises(ValueError, match="non-finite"):
            IntervalUnion(bad)


def test_domain_is_a_product_of_interval_unions():
    unit = IntervalUnion(((0.0, 1.0),))
    assert UnitCube(3) == Domain((unit, unit, unit))
    assert UnitCube(3).dimension == 3
    assert UnitCube(2) != UnitCube(3)
    mixed = Domain((IntervalUnion(((0.0, 1.0), (2.0, 4.0))), unit))
    assert mixed.dimension == 2 and mixed.measure == 3.0
    assert mixed != UnitCube(2)
    with pytest.raises(ValueError):
        Domain(())


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
    assert (1, 2) in set(w.indices()) and (2, 0) not in set(w.indices())
    with pytest.raises(WindowCapError):
        LatticeWindow(((0, 2000), (0, 2000)))
    with pytest.raises(ValueError):
        LatticeWindow(((2, 1),))


def lattice(*alpha):
    """alpha + Z^d for alpha in [0, 1)^d: the tower of constant levels."""
    return Tower(tuple(IntFunction(j, a) for j, a in enumerate(alpha)))


def test_translated_lattice_window_points():
    pts = enumerate_spectrum(lattice(0.25), LatticeWindow(((-1, 1),)))
    np.testing.assert_allclose(pts.ravel(), [-0.75, 0.25, 1.25])


def test_class_a_reduces_to_integer_lattice():
    spec = Tower((IntFunction.constant(0.0), IntFunction(1, default=0.0)))
    pts = enumerate_spectrum(spec, LatticeWindow(((0, 1), (0, 1))))
    expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(p) for p in pts} == expected


def test_class_b_swaps_roles():
    beta = IntFunction(1, default=0.0, table={1: 0.5})
    spec = Tower((IntFunction.constant(0.25), beta), (1, 0))
    pts = enumerate_spectrum(spec, LatticeWindow(((0, 0), (0, 1))))
    assert {tuple(p) for p in pts} == {(0.0, 0.25), (0.5, 1.25)}


def test_tower3d_point_formula():
    beta = IntFunction(1, default=0.0, table={1: 0.4})
    gamma = IntFunction(2, default=0.0, table={(1, 0): 0.7})
    spec = Tower((IntFunction.constant(0.0), beta, gamma))
    w = LatticeWindow(((1, 1), (0, 0), (2, 2)))
    pts = enumerate_spectrum(spec, w)
    np.testing.assert_allclose(pts, [[1.0, 0.4, 2.7]])


def test_tower_level_arity_enforced():
    with pytest.raises(ArityMismatchError):
        Tower((IntFunction.constant(0.0), IntFunction(2)))


def test_tower_axis_order_must_be_a_permutation():
    levels = (IntFunction.constant(0.0), IntFunction(1))
    assert Tower(levels).axis_order == (0, 1)
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
def test_points_on_matches_loop_formula(period):
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
    window = LatticeWindow.centered(3, 3)
    idx = np.array(list(window.indices()))
    expected = np.empty(idx.shape)
    for row, tup in enumerate(idx.tolist()):
        k = [tup[axis] for axis in order]
        args = k if period is None else [v % period for v in k]
        for j, fn in enumerate(levels):
            expected[row, order[j]] = fn(*args[:j]) + k[j]
    assert np.array_equal(spec.points_on(window.ranges, period), expected)
    if period is None:
        assert np.array_equal(enumerate_spectrum(spec, window), expected)


def test_tower_fraction_invariant():
    rng = np.random.default_rng(7)
    beta = IntFunction(1, default=0.3, table={k: rng.random() for k in range(-3, 4)})
    gamma = IntFunction(
        2,
        default=0.6,
        table={(k, l): rng.random() for k in range(-2, 3) for l in range(-2, 3)},
    )
    spec = Tower((IntFunction.constant(0.0), beta, gamma))
    w = LatticeWindow.centered(2, 3)
    pts = enumerate_spectrum(spec, w)
    idx = np.array(list(w.indices()))
    frac = pts - idx
    assert np.all((frac >= 0.0) & (frac < 1.0))


def test_enumeration_cardinality_matches_window():
    spec = Tower((IntFunction.constant(0.1), IntFunction(1, default=0.2)))
    w = LatticeWindow.centered(3, 2)
    assert enumerate_spectrum(spec, w).shape == (w.cardinality, 2)


def test_explicit_ignores_window():
    spec = ExplicitSpectrum(np.array([[0.0, 0.0], [0.5, 0.25]]))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(5, 2))
    assert pts.shape == (2, 2)


def test_window_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        enumerate_spectrum(lattice(0.1, 0.2), LatticeWindow(((0, 1),)))


def test_difference_set_examples():
    diffs = spectrum_difference_set(np.array([[0.25], [1.25]]))
    assert sorted(diffs.ravel().tolist()) == [-1.0, 1.0]
    assert spectrum_difference_set(np.array([[0.0, 0.0]])).shape == (0, 2)
    spec = Tower((IntFunction.constant(0.0), IntFunction(1, default=0.0)))
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


def loop_points(spec, ranges, period):
    """Tower.points_on as a loop of level calls at every box tuple, in
    row-major order: the independent oracle of the box reader."""
    box = list(LatticeWindow(ranges).indices())
    out = np.empty((len(box), spec.dimension))
    for row, tup in enumerate(box):
        k = [tup[axis] for axis in spec.axis_order]
        args = k if period is None else [v % period for v in k]
        for j, fn in enumerate(spec.levels):
            out[row, spec.axis_order[j]] = fn(*args[:j]) + k[j]
    return out


def random_box_tower(rng, d):
    """A box of up to 6 indices an axis in [-9, 9] and a tower of random
    axis order whose tables hold 12 keys in [-9, 9), inside the box and
    outside it alike."""
    ranges = []
    for _ in range(d):
        lo = int(rng.integers(-9, 4))
        ranges.append((lo, lo + int(rng.integers(0, 6))))
    levels = [IntFunction.constant(float(rng.random()))]
    for arity in range(1, d):
        keys = rng.integers(-9, 9, size=(12, arity))
        levels.append(IntFunction(
            arity,
            default=float(rng.random()),
            table={tuple(key): float(rng.random()) for key in keys},
        ))
    order = tuple(int(a) for a in rng.permutation(d))
    return tuple(ranges), Tower(tuple(levels), order)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("period", [None, 1, 2, 5])
def test_points_on_equals_the_call_loop(d, period):
    rng = np.random.default_rng([d, period or 0])
    for _ in range(4):
        ranges, spec = random_box_tower(rng, d)
        got = spec.points_on(ranges, period)
        assert got.tobytes() == loop_points(spec, ranges, period).tobytes()
        # each level's box array: the call at every cell, 1 off its axes
        box = list(LatticeWindow(ranges).indices())
        for j, fn in enumerate(spec.levels):
            axes = spec.axis_order[:j]
            values = fn.on_box(ranges, axes, period)
            assert values.shape == tuple(
                hi - lo + 1 if a in axes else 1 for a, (lo, hi) in enumerate(ranges)
            )
            full = np.broadcast_to(values, [hi - lo + 1 for lo, hi in ranges])
            want = [
                fn(*(tup[a] if period is None else tup[a] % period for a in axes))
                for tup in box
            ]
            assert full.ravel().tobytes() == np.array(want).tobytes()


def test_on_box_reads_as_many_axes_as_arguments():
    fn = IntFunction(2, 0.25, {(0, 1): 0.5})
    assert fn.on_box(((0, 1), (1, 2), (0, 0)), (2, 0)).shape == (2, 1, 1)
    for axes in [(0,), (0, 1, 2)]:
        with pytest.raises(ArityMismatchError):
            fn.on_box(((0, 1), (1, 2), (0, 0)), axes)
