import numpy as np
import pytest

from spectralbox.exponentials import (
    completeness_probe,
    eval_F_omega,
    f_omega_quadrature,
    gram_matrix,
    in_zero_set_cube_many,
    orthogonality_verdict,
    unit_circle_root_scan,
)
from spectralbox.model import (
    ClassA2D,
    ClassB2D,
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    Tower,
    TranslatedLattice,
    UnitCube,
    enumerate_spectrum,
)

# refined two-stage scan value for coefficients (1, 0, 1, 1); computed by
# this implementation at 1e5 and 2e5 samples (agreement < 1e-15) and
# pinned here as a regression constant
MIN_MOD_1_Z2_Z3 = 0.6073464337255146


def random_beta(rng, radius=8):
    return IntFunction(
        1,
        default=float(rng.random()),
        table={int(k): float(rng.random()) for k in range(-radius, radius + 1)},
    )


def test_f_cube_at_zero_is_volume():
    assert eval_F_omega(UnitCube(1), [0.0]) == pytest.approx(1.0)
    assert eval_F_omega(UnitCube(3), [0.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_f_cube_vanishes_on_nonzero_integer_coordinate():
    val = eval_F_omega(UnitCube(2), [1.0, 0.3])
    assert abs(val) < 1e-15


def test_f_cube_half_frequency_closed_form():
    # direct integration of exp(i*pi*x) over the unit interval
    val = eval_F_omega(UnitCube(1), [0.5])
    assert val == pytest.approx(2j / np.pi, abs=1e-14)
    quad = f_omega_quadrature(UnitCube(1), [0.5], 128)
    assert val == pytest.approx(quad, abs=1e-12)


def test_f_cube_matches_quadrature_randomly():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        cube = UnitCube(d)
        for _ in range(34):
            z = rng.uniform(-3.0, 3.0, size=d)
            closed = eval_F_omega(cube, z)
            quad = f_omega_quadrature(cube, z, 64)
            assert abs(closed - quad) < 1e-12


def test_f_interval_union_matches_quadrature():
    union = Domain((IntervalUnion(((0.0, 1.0), (2.0, 4.0))),))
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))
        closed = eval_F_omega(union, [z])
        quad = f_omega_quadrature(union, [z], 256)
        scale = max(1.0, abs(closed))
        assert abs(closed - quad) / scale < 1e-12
    assert eval_F_omega(union, [0.0]) == pytest.approx(3.0)


def test_f_interval_union_small_z_branch_is_smooth():
    # both sides of the series cutoff must agree with quadrature, so the
    # branch switch cannot introduce a jump beyond the true derivative
    union = Domain((IntervalUnion(((0.0, 1.0), (2.0, 4.0))),))
    for z in (9.99e-7, 1.01e-6):
        closed = eval_F_omega(union, [z])
        quad = f_omega_quadrature(union, [z], 256)
        assert abs(closed - quad) < 1e-12


def test_zero_set_membership_examples():
    got = in_zero_set_cube_many(2, [[1.0, 0.3], [0.0, 0.0], [0.5, 0.5]])
    assert got.tolist() == [True, False, False]
    # modulus there is (2/pi)^2 by the closed form
    val = eval_F_omega(UnitCube(2), [0.5, 0.5])
    assert abs(val) == pytest.approx((2 / np.pi) ** 2)
    # one point as a flat vector, with a tolerated imaginary part
    assert in_zero_set_cube_many(1, [3.0 + 1e-12j]).tolist() == [True]
    with pytest.raises(Exception):
        in_zero_set_cube_many(2, [1.0])


def test_gram_translated_lattice_is_identity():
    pts = np.array([[-0.75], [0.25], [1.25]])
    g = gram_matrix(UnitCube(1), pts)
    np.testing.assert_allclose(g.entries, np.eye(3), atol=1e-14)


def test_gram_class_a_random_table_is_identity():
    rng = np.random.default_rng(2)
    spec = ClassA2D(alpha=float(rng.random()), beta=random_beta(rng))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(1, 2))
    report = orthogonality_verdict(gram_matrix(UnitCube(2), pts), tol=1e-12)
    assert report.is_orthogonal
    assert report.worst_offdiag < 1e-12


def test_gram_known_offdiagonal_value():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    g = gram_matrix(UnitCube(2), pts)
    assert abs(g.entries[0, 1]) == pytest.approx(2 / np.pi)
    assert g.hermitian_defect() < 1e-14
    np.testing.assert_allclose(np.diag(g.entries), [1.0, 1.0])


def test_gram_hermitian_on_random_points():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, size=(12, 2))
    g = gram_matrix(UnitCube(2), pts)
    assert g.hermitian_defect() < 1e-12


def test_f_omega_arity_mismatch():
    with pytest.raises(Exception):
        eval_F_omega(UnitCube(2), [0.5])
    with pytest.raises(Exception):
        eval_F_omega(Domain((IntervalUnion(((0.0, 1.0),)),)), [0.5, 0.5])


def test_tower_difference_set_in_zero_set():
    # staircase families keep all distinct-index differences in the zero
    # set: the first differing index contributes a nonzero integer gap
    from spectralbox.exponentials import in_zero_set_cube_many
    from spectralbox.model import IntFunction, Tower3D, enumerate_spectrum
    from spectralbox.model import LatticeWindow as LW
    from spectralbox.model import spectrum_difference_set

    rng = np.random.default_rng(31)
    beta = IntFunction(1, default=0.3,
                       table={k: float(rng.random()) for k in range(-2, 3)})
    gamma = IntFunction(2, default=0.6, table={
        (k, l): float(rng.random()) for k in range(-2, 3) for l in range(-2, 3)
    })
    pts = enumerate_spectrum(Tower3D(beta, gamma), LW.centered(1, 3))
    diffs = spectrum_difference_set(pts)
    assert bool(np.all(in_zero_set_cube_many(3, diffs, 1e-9)))


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        gram_matrix(UnitCube(1), np.empty((0, 1)))


def test_orthogonality_witness_for_bad_pair():
    spec = ExplicitSpectrum(np.array([[0.0, 0.0], [0.25, 0.0]]))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(0, 2))
    report = orthogonality_verdict(gram_matrix(UnitCube(2), pts), tol=1e-10)
    assert not report.is_orthogonal
    assert report.witness is not None
    expected = abs(eval_F_omega(UnitCube(2), [0.25, 0.0]))
    assert report.worst_offdiag == pytest.approx(expected)


def test_orthogonality_singleton_is_trivially_true():
    spec = ExplicitSpectrum(np.array([[0.3, 0.7]]))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(0, 2))
    report = orthogonality_verdict(gram_matrix(UnitCube(2), pts))
    assert report.is_orthogonal


def test_class_b_family_orthogonal():
    rng = np.random.default_rng(4)
    spec = ClassB2D(alpha=float(rng.random()), beta=random_beta(rng))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(2, 2))
    report = orthogonality_verdict(gram_matrix(UnitCube(2), pts), tol=1e-10)
    assert report.is_orthogonal


def _grid_indicator_x(n, frac):
    x = (np.arange(n) + 0.5) / n
    vals = (x[:, None] < frac) * np.ones((n, n))
    return vals.astype(complex)


def test_completeness_constant_function():
    n = 64
    f = np.ones((n, n), dtype=complex)
    spec = TranslatedLattice((0.0, 0.0))
    report = completeness_probe(
        UnitCube(2), spec, LatticeWindow.centered(2, 2), [f]
    )
    assert report.ratios[0] == pytest.approx(1.0, abs=1e-12)


def test_completeness_indicator_approaches_one():
    # 1-D closed-form oracle: indicator of [0, 1/2] has |c_0|^2 = 1/4 and
    # |c_k|^2 = 1/(pi k)^2 at odd k, so the captured-energy ratio at
    # radius K is (1/4 + 2 sum_{odd k <= K} (pi k)^{-2}) / (1/2).
    n = 256
    f = _grid_indicator_x(n, 0.5)
    spec = TranslatedLattice((0.0, 0.0))
    radii = [2, 8, 32]
    ratios = [
        completeness_probe(
            UnitCube(2), spec, LatticeWindow.centered(r, 2), [f]
        ).ratios[0]
        for r in radii
    ]
    for r, ratio in zip(radii, ratios):
        odd = np.arange(1, r + 1, 2)
        closed = (0.25 + 2 * np.sum(1.0 / (np.pi * odd) ** 2)) / 0.5
        assert ratio == pytest.approx(closed, abs=2e-3)
    assert ratios == sorted(ratios)  # non-decreasing in the window
    assert ratios[-1] >= 0.98


def test_completeness_missing_rows_plateau():
    # dropping every other row in the second coordinate strands the odd
    # frequencies of a y-indicator: the ratio plateaus near 1/2
    n = 128
    x = (np.arange(n) + 0.5) / n
    vals = np.ones((n, n)) * (x[None, :] < 0.5)
    f = vals.astype(complex)
    ratios = []
    for r in (4, 8, 16):
        pts = [
            (m, 2 * l)
            for m in range(-r, r + 1)
            for l in range(-(r // 2), r // 2 + 1)
        ]
        spec = ExplicitSpectrum(np.array(pts, dtype=float))
        ratios.append(
            completeness_probe(
                UnitCube(2), spec, LatticeWindow.centered(0, 2), [f]
            ).ratios[0]
        )
    assert ratios == sorted(ratios)
    assert all(abs(r - 0.5) < 0.02 for r in ratios)
    assert ratios[-1] < 0.95  # stays below the plateau heuristic


def test_completeness_rejects_zero_norm():
    f = np.zeros((8, 8), dtype=complex)
    with pytest.raises(ValueError):
        completeness_probe(
            UnitCube(2),
            TranslatedLattice((0.0, 0.0)),
            LatticeWindow.centered(1, 2),
            [f],
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_completeness_rejects_non_finite_test_functions(bad):
    f = np.ones((8, 8), dtype=complex)
    f[2, 6] = bad
    with pytest.raises(ValueError, match="finite"):
        completeness_probe(
            UnitCube(2),
            TranslatedLattice((0.0, 0.0)),
            LatticeWindow.centered(1, 2),
            [np.ones((8, 8)), f],
        )


def test_root_scan_linear_polynomial():
    report = unit_circle_root_scan([1, 1], samples=512)
    assert report.min_modulus == pytest.approx(0.0, abs=1e-12)
    assert report.argmin_angle == pytest.approx(np.pi, abs=0.05)


def test_root_scan_constant():
    assert unit_circle_root_scan([1], samples=64).min_modulus == pytest.approx(1.0)


def test_root_scan_interval_union_polynomial():
    report = unit_circle_root_scan([1, 0, 1, 1], samples=100_000)
    assert report.min_modulus > 0.5
    assert report.min_modulus == pytest.approx(MIN_MOD_1_Z2_Z3, abs=1e-6)
    again = unit_circle_root_scan([1, 0, 1, 1], samples=200_000)
    assert abs(report.min_modulus - again.min_modulus) < 1e-6


def test_root_scan_conjugate_reversal_invariance():
    rng = np.random.default_rng(21)
    for _ in range(5):
        coeffs = rng.standard_normal(5)
        rev = np.conj(coeffs[::-1])
        a = unit_circle_root_scan(coeffs, samples=4096).min_modulus
        b = unit_circle_root_scan(rev, samples=4096).min_modulus
        assert a == pytest.approx(b, abs=1e-8)


def test_root_scan_input_validation():
    with pytest.raises(ValueError):
        unit_circle_root_scan([], samples=64)
    with pytest.raises(ValueError):
        unit_circle_root_scan([1, 2], samples=8)


def test_union_transform_factors_through_circle_polynomial():
    # the doubled-and-separated union (0,1) u (2,4) decomposes into unit
    # intervals at 0, 2, 3, so its transform is the single-interval
    # transform times 1 + w^2 + w^3 at w = exp(i 2 pi z); on the real line
    # the second factor never vanishes, which is exactly what the circle
    # scan certifies
    union = Domain((IntervalUnion(((0.0, 1.0), (2.0, 4.0))),))
    rng = np.random.default_rng(77)
    for z in rng.uniform(-5, 5, size=40):
        w = np.exp(2j * np.pi * z)
        poly = 1.0 + w**2 + w**3
        lhs = eval_F_omega(union, [z])
        rhs = eval_F_omega(UnitCube(1), [z]) * poly
        assert abs(lhs - rhs) < 1e-12
    # consequence: the real zero set of the union transform is exactly the
    # nonzero integers, with margin given by the scanned circle minimum
    scan = unit_circle_root_scan([1, 0, 1, 1], samples=4096)
    z = 2.0
    assert abs(eval_F_omega(union, [z])) < 1e-12
    z = 2.5
    floor = abs(eval_F_omega(UnitCube(1), [z])) * scan.min_modulus
    assert abs(eval_F_omega(union, [z])) >= floor * 0.999


# Test-only copies of the transforms the product domain replaced: the
# cube product over coordinates and the scalar interval-union loop.  The
# per-factor transform must reproduce both bit for bit, because gram.txt
# and report.txt are compared byte for byte across versions.


def _sinc_pi_copy(z):
    z = np.asarray(z, dtype=complex)
    w = np.pi * z
    small = np.abs(w) < 1e-6
    safe = np.where(small, 1.0, w)
    return np.where(small, 1.0 - w**2 / 6.0 + w**4 / 120.0, np.sin(safe) / safe)


def _f_cube_copy(zs):
    zs = np.asarray(zs, dtype=complex)
    return np.prod(np.exp(1j * np.pi * zs) * _sinc_pi_copy(zs), axis=-1)


def _f_interval_union_copy(intervals, z):
    acc = 0.0 + 0.0j
    for a, b in intervals:
        length = b - a
        acc += (
            length
            * np.exp(1j * np.pi * z * (a + b))
            * complex(_sinc_pi_copy(np.array(z * length)))
        )
    return complex(acc)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_transform_equals_the_coordinate_product(d):
    rng = np.random.default_rng(100 + d)
    pts = np.round(rng.uniform(-3, 3, size=(30, d)), 2)
    pts[1] = np.round(pts[1])  # integer differences hit the zero set
    diffs = pts[None, :, :] - pts[:, None, :]
    assert np.array_equal(eval_F_omega(UnitCube(d), diffs), _f_cube_copy(diffs))
    z = rng.normal(size=d) + 0.1j * rng.normal(size=d)
    assert eval_F_omega(UnitCube(d), z) == complex(_f_cube_copy(z))


def test_interval_union_gram_equals_the_scalar_loop():
    intervals = ((0.0, 1.0), (2.0, 4.0))
    pts = np.round(np.random.default_rng(9).uniform(-3, 3, size=(25, 1)), 3)
    pts[:3, 0] = (0.0, 1.0, 0.25)
    entries = gram_matrix(Domain((IntervalUnion(intervals),)), pts).entries
    loop = np.array(
        [
            [_f_interval_union_copy(intervals, complex(d[0])) for d in row]
            for row in pts[None, :, :] - pts[:, None, :]
        ]
    )
    assert np.array_equal(entries, loop)


def test_mixed_product_matches_quadrature():
    domain = Domain(
        (IntervalUnion(((0.0, 1.0), (2.0, 4.0))), IntervalUnion(((0.0, 1.0),)))
    )
    assert domain.dimension == 2 and domain.measure == 3.0
    assert eval_F_omega(domain, [0.0, 0.0]) == pytest.approx(3.0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.uniform(-3, 3, size=2) + 1j * rng.uniform(-0.3, 0.3, size=2)
        closed = eval_F_omega(domain, z)
        quad = f_omega_quadrature(domain, z, 256)
        assert abs(closed - quad) / max(1.0, abs(closed)) < 1e-12
    stack = rng.uniform(-3, 3, size=(4, 5, 2))
    values = eval_F_omega(domain, stack)
    assert values.shape == (4, 5)
    assert values[2, 3] == eval_F_omega(domain, stack[2, 3])


def completeness_reference(domain, spec, window, test_functions):
    """The probe as a per-point loop over full-grid phases.

    The quadrature weights are the per-axis product tensor grid states used
    to carry, and the inner product is summed over the whole grid at once.
    """
    pts = enumerate_spectrum(spec, window)
    ratios = []
    for f in test_functions:
        coords = [np.arange(n) / n for n in f.shape]
        weights = np.full(f.shape[0], 1.0 / f.shape[0])
        for n in f.shape[1:]:
            weights = np.multiply.outer(weights, np.full(n, 1.0 / n))
        captured = 0.0
        for lam in pts:
            phase = np.ones_like(f, dtype=complex)
            for ax, lj in enumerate(lam):
                shape = [1] * f.ndim
                shape[ax] = coords[ax].size
                phase = phase * np.exp(2j * np.pi * lj * coords[ax]).reshape(shape)
            captured += abs(np.sum(weights * np.conj(phase) * f)) ** 2
        norm2 = np.sum(weights * np.abs(f) ** 2).real
        ratios.append(captured / (norm2 * domain.measure))
    return ratios


def _staircase(d):
    levels = [
        IntFunction(0, 0.3),
        IntFunction(1, 0.1, {0: 0.45, 1: 0.7, -2: 0.2}),
        IntFunction(2, 0.05, {(0, 0): 0.5, (1, -1): 0.35}),
    ]
    return Tower(tuple(levels[:d]))


def _explicit(d):
    rng = np.random.default_rng(d)
    return ExplicitSpectrum(rng.uniform(-3.5, 3.5, size=(12 + 5 * d, d)))


@pytest.mark.parametrize("d, shape", [(1, (40,)), (2, (17, 12)), (3, (9, 7, 6))])
@pytest.mark.parametrize("family", [_staircase, _explicit])
def test_completeness_probe_matches_the_per_point_loop(d, shape, family):
    rng = np.random.default_rng(len(shape))
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    states = [noise, np.ones(shape, dtype=complex)]
    spec, window = family(d), LatticeWindow.centered(2, d)
    got = completeness_probe(UnitCube(d), spec, window, states).ratios
    want = completeness_reference(UnitCube(d), spec, window, states)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w)


def test_completeness_probe_needs_the_unit_cube():
    f = np.ones((8, 8), dtype=complex)
    half = Domain((IntervalUnion(((0.0, 0.5),)), IntervalUnion(((0.0, 1.0),))))
    with pytest.raises(TypeError):
        completeness_probe(
            half, TranslatedLattice((0.0, 0.0)), LatticeWindow.centered(1, 2), [f]
        )


@pytest.mark.parametrize("chunk, samples", [(7, 4099), (1000, 4099), (None, 200_017)])
def test_root_scan_does_not_depend_on_its_chunk_size(monkeypatch, chunk, samples):
    # chunk None keeps the module's own chunk size, so 200 017 angles span
    # several chunks; one chunk of every angle is the unchunked scan
    from spectralbox import exponentials

    rng = np.random.default_rng(3)
    polys = [[1.0], [1.0, 1.0], [1.0, 0.0, 1.0, 1.0], *rng.standard_normal((3, 5))]
    chunk = chunk or exponentials._SCAN_CHUNK
    for coeffs in polys:
        monkeypatch.setattr(exponentials, "_SCAN_CHUNK", samples)
        whole = unit_circle_root_scan(coeffs, samples)
        monkeypatch.setattr(exponentials, "_SCAN_CHUNK", chunk)
        assert unit_circle_root_scan(coeffs, samples) == whole
