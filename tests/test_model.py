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
    idx = np.array(list(LatticeWindow.centered(3, 3).indices()))
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


def points_at_reference(spec, indices, period):
    """Tower.points_at as it was first written: each level's argument rows
    grouped by np.unique(axis=0)."""
    k = np.asarray(indices, dtype=int)[:, spec.axis_order]
    out = np.empty(k.shape, dtype=float)
    for j, fn in enumerate(spec.levels):
        if j == 0:
            shift = fn()
        else:
            args = k[:, :j] if period is None else k[:, :j] % period
            keys, inverse = np.unique(args, axis=0, return_inverse=True)
            values = np.array([fn(*key) for key in keys.tolist()])
            shift = values[inverse.reshape(-1)]
        out[:, spec.axis_order[j]] = shift + k[:, j]
    return out


class RecordingLevel:
    """A level that records the arguments of every call."""

    def __init__(self, fn):
        self.fn, self.arity, self.calls = fn, fn.arity, []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("period", [None, 1, 2, 5])
def test_points_at_equals_the_row_unique_reference(d, period):
    rng = np.random.default_rng([d, period or 0])
    for _ in range(4):
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
        recorded = [RecordingLevel(fn) for fn in levels]
        spec = Tower(tuple(levels), order)
        idx = np.array(list(LatticeWindow(tuple(ranges)).indices()))
        got = Tower(tuple(recorded), order).points_at(idx, period)
        want = points_at_reference(spec, idx, period)
        assert got.tobytes() == want.tobytes()
        # the same calls in the same order: distinct argument tuples,
        # lexicographic
        replay = [RecordingLevel(fn) for fn in levels]
        points_at_reference(Tower(tuple(replay), order), idx, period)
        assert [r.calls for r in recorded] == [r.calls for r in replay]
        # rows in another order, some repeated: the same points row by row
        rows = rng.permutation(np.concatenate([idx, idx[: len(idx) // 2]]))
        assert spec.points_at(rows, period).tobytes() == (
            points_at_reference(spec, rows, period).tobytes()
        )


def test_points_at_no_rows():
    spec = Tower((IntFunction.constant(0.5), IntFunction(1, 0.25)), (1, 0))
    got = spec.points_at(np.empty((0, 2), dtype=int), None)
    assert got.shape == (0, 2)
