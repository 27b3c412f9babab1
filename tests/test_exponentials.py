import numpy as np
import pytest

from spectralbox.exponentials import (
    _SCAN_STRIDE,
    RootScanReport,
    _poly_on_circle,
    completeness_probe,
    eval_F_omega,
    f_omega_quadrature,
    gram_matrix,
    in_zero_set_cube_many,
    orthogonality_verdict,
    unit_circle_root_scan,
)
from spectralbox.grid import grid_coords, grid_norm, grid_weight
from spectralbox.model import (
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    Tower,
    UnitCube,
    enumerate_spectrum,
    group_codes,
)
from test_model import lattice

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
    spec = Tower((IntFunction.constant(float(rng.random())), random_beta(rng)))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(1, 2))
    report = orthogonality_verdict(gram_matrix(UnitCube(2), pts), tol=1e-12)
    assert report.is_orthogonal
    assert report.worst_offdiag < 1e-12


def test_gram_known_offdiagonal_value():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    g = gram_matrix(UnitCube(2), pts)
    assert abs(g.entries[0, 1]) == pytest.approx(2 / np.pi)
    assert np.abs(g.entries - g.entries.conj().T).max() < 1e-14
    np.testing.assert_allclose(np.diag(g.entries), [1.0, 1.0])


def test_gram_hermitian_on_random_points():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, size=(12, 2))
    g = gram_matrix(UnitCube(2), pts)
    assert np.abs(g.entries - g.entries.conj().T).max() < 1e-12


def test_f_omega_arity_mismatch():
    with pytest.raises(Exception):
        eval_F_omega(UnitCube(2), [0.5])
    with pytest.raises(Exception):
        eval_F_omega(Domain((IntervalUnion(((0.0, 1.0),)),)), [0.5, 0.5])


def test_tower_difference_set_in_zero_set():
    # staircase families keep all distinct-index differences in the zero
    # set: the first differing index contributes a nonzero integer gap
    from spectralbox.exponentials import in_zero_set_cube_many
    from spectralbox.model import IntFunction, Tower, enumerate_spectrum
    from spectralbox.model import LatticeWindow as LW
    from spectralbox.model import spectrum_difference_set

    rng = np.random.default_rng(31)
    beta = IntFunction(1, default=0.3,
                       table={k: float(rng.random()) for k in range(-2, 3)})
    gamma = IntFunction(2, default=0.6, table={
        (k, l): float(rng.random()) for k in range(-2, 3) for l in range(-2, 3)
    })
    spec = Tower((IntFunction.constant(0.0), beta, gamma))
    pts = enumerate_spectrum(spec, LW.centered(1, 3))
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
    alpha = IntFunction.constant(float(rng.random()))
    spec = Tower((alpha, random_beta(rng)), (1, 0))
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
    spec = lattice(0.0, 0.0)
    report = completeness_probe(
        UnitCube(2), enumerate_spectrum(spec, LatticeWindow.centered(2, 2)), [f]
    )
    assert report.ratios[0] == pytest.approx(1.0, abs=1e-12)


def test_completeness_indicator_approaches_one():
    # 1-D closed-form oracle: indicator of [0, 1/2] has |c_0|^2 = 1/4 and
    # |c_k|^2 = 1/(pi k)^2 at odd k, so the captured-energy ratio at
    # radius K is (1/4 + 2 sum_{odd k <= K} (pi k)^{-2}) / (1/2).
    n = 256
    f = _grid_indicator_x(n, 0.5)
    spec = lattice(0.0, 0.0)
    radii = [2, 8, 32]
    ratios = [
        completeness_probe(
            UnitCube(2), enumerate_spectrum(spec, LatticeWindow.centered(r, 2)), [f]
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
                UnitCube(2), enumerate_spectrum(spec, LatticeWindow.centered(0, 2)), [f]
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
            enumerate_spectrum(lattice(0.0, 0.0), LatticeWindow.centered(1, 2)),
            [f],
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_completeness_rejects_non_finite_test_functions(bad):
    f = np.ones((8, 8), dtype=complex)
    f[2, 6] = bad
    with pytest.raises(ValueError, match="finite"):
        completeness_probe(
            UnitCube(2),
            enumerate_spectrum(lattice(0.0, 0.0), LatticeWindow.centered(1, 2)),
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
    got = completeness_probe(UnitCube(d), enumerate_spectrum(spec, window), states).ratios
    want = completeness_reference(UnitCube(d), spec, window, states)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * abs(w)


def test_completeness_probe_needs_the_unit_cube():
    f = np.ones((8, 8), dtype=complex)
    half = Domain((IntervalUnion(((0.0, 0.5),)), IntervalUnion(((0.0, 1.0),))))
    with pytest.raises(TypeError):
        completeness_probe(
            half, enumerate_spectrum(lattice(0.0, 0.0), LatticeWindow.centered(1, 2)),
            [f],
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


# Test-only copy of the dense root scan: every angle evaluated, in chunks
# of the module's _SCAN_CHUNK, then the same golden-section refinement.
# The pruned scan must return the same report, bit for bit.


def reference_root_scan(coefficients, samples):
    from spectralbox import exponentials

    coeffs = np.asarray(list(coefficients), dtype=complex)
    poly = exponentials._poly_on_circle
    minima, angles = [], []
    for start in range(0, samples, exponentials._SCAN_CHUNK):
        stop = min(start + exponentials._SCAN_CHUNK, samples)
        theta = 2.0 * np.pi * np.arange(start, stop) / samples
        mods = np.abs(poly(coeffs, theta))
        i = int(np.argmin(mods))
        minima.append(mods[i])
        angles.append(theta[i])
    best = int(np.argmin(minima))
    coarse, theta0 = minima[best], angles[best]
    delta = 2.0 * np.pi / samples
    a, b = theta0 - delta, theta0 + delta
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = abs(poly(coeffs, np.array([c]))[0])
    fd = abs(poly(coeffs, np.array([d]))[0])
    for _ in range(120):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = abs(poly(coeffs, np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = abs(poly(coeffs, np.array([d]))[0])
    angle = c if fc < fd else d
    refined = min(fc, fd)
    if refined <= coarse:
        return RootScanReport(float(refined), float(angle % (2 * np.pi)), samples)
    return RootScanReport(float(coarse), float(theta0), samples)


def _coarse_minimum(coeffs, samples):
    from spectralbox import exponentials

    return exponentials._scan_minimum(np.asarray(coeffs, dtype=complex), samples)


def _dense_minimum(coeffs, samples):
    theta = 2.0 * np.pi * np.arange(samples) / samples
    mods = np.abs(_poly_on_circle(np.asarray(coeffs, dtype=complex), theta))
    i = int(np.argmin(mods))
    return mods[i], theta[i]


STRIDE = _SCAN_STRIDE
SCAN_COUNTS = [16, 17, STRIDE - 1, STRIDE, STRIDE + 1, 7 * STRIDE, 7 * STRIDE + 5,
               4096, 100_003]


@pytest.mark.parametrize("degree", range(1, 13))
def test_root_scan_equals_the_dense_scan_on_random_polynomials(degree):
    rng = np.random.default_rng(100 + degree)
    for _ in range(4):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        for samples in SCAN_COUNTS:
            assert unit_circle_root_scan(coeffs, samples) == reference_root_scan(
                coeffs, samples
            )
            # the coarse minimum and angle before refinement, too
            assert _coarse_minimum(coeffs, samples) == _dense_minimum(coeffs, samples)


@pytest.mark.parametrize("samples", SCAN_COUNTS + [3 * 2**16 + 1])
def test_root_scan_on_a_constant_modulus_keeps_the_first_tie(samples):
    # |p| equals |c_0| at every angle, so no interval can be skipped and the
    # first angle, index 0, holds the minimum; z^3 is constant up to rounding
    for coeffs in ([1.5 - 2.0j], [0.0, 0.0, 0.0, 1.0]):
        assert unit_circle_root_scan(coeffs, samples) == reference_root_scan(
            coeffs, samples
        )
    assert _coarse_minimum([1.5 - 2.0j], samples) == (2.5, 0.0)


@pytest.mark.parametrize("n, samples", [(2, 4096), (3, 3 * 2000), (7, 7 * STRIDE),
                                        (16, 16 * 6250), (5, 5 * 19)])
def test_root_scan_on_roots_of_unity_at_sample_angles(n, samples):
    # z^n - 1 vanishes at every (samples / n)-th angle, up to rounding
    coeffs = [-1.0] + [0.0] * (n - 1) + [1.0]
    got = unit_circle_root_scan(coeffs, samples)
    assert got == reference_root_scan(coeffs, samples)
    assert got.min_modulus < 1e-12
    assert _coarse_minimum(coeffs, samples) == _dense_minimum(coeffs, samples)


def _benchmark_polynomial(rng):
    # the benchmark's degree-6 root-scan input: |c_0| = 1 > 0.9 = the rest
    raw = rng.standard_normal((6, 2)) @ np.array([1.0, 1j])
    tail = 0.9 * raw / np.abs(raw).sum()
    return np.concatenate([[np.exp(2j * np.pi * rng.random())], tail])


@pytest.mark.parametrize("samples", [1_000_000, 2_000_000])
def test_root_scan_at_benchmark_size_equals_the_dense_scan(samples):
    rng = np.random.default_rng(81)
    for _ in range(2):
        coeffs = _benchmark_polynomial(rng)
        assert unit_circle_root_scan(coeffs, samples) == reference_root_scan(
            coeffs, samples
        )


def test_root_scan_without_a_live_interval_holds_no_more_than_the_dense_scan():
    # the constant-modulus case leaves every interval live, the most the
    # pruned scan ever evaluates; it must not outgrow the dense chunks
    import tracemalloc

    coeffs, samples = [0.0, 0.0, 0.0, 1.0], 2_000_000
    peaks = []
    for scan in (reference_root_scan, unit_circle_root_scan):
        tracemalloc.start()
        try:
            scan(coeffs, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    dense, pruned = peaks
    assert pruned <= dense, peaks
    assert dense < 8 * 2**20, peaks


def test_root_scan_evaluates_a_small_share_of_a_benchmark_scan(monkeypatch):
    from spectralbox import exponentials

    evaluated = []
    poly = exponentials._poly_on_circle

    def counting(coefficients, theta):
        evaluated.append(theta.size)
        return poly(coefficients, theta)

    monkeypatch.setattr(exponentials, "_poly_on_circle", counting)
    coeffs = _benchmark_polynomial(np.random.default_rng(82))
    exponentials._scan_minimum(np.asarray(coeffs), 2_000_000)
    # the knots alone are 2e6 / STRIDE angles
    assert 2_000_000 // STRIDE < sum(evaluated) < 2_000_000 // 20


# The Gram transforms each distinct difference once per axis.  Its dense
# reference is eval_F_omega on the full P x P x d table of differences,
# evaluated here a block of rows at a time, which changes no element.


def dense_gram_reference(domain, pts, block=128):
    pts = np.asarray(pts, dtype=float)
    return np.concatenate([
        eval_F_omega(domain, pts[None, :, :] - pts[start:start + block, None, :])
        for start in range(0, pts.shape[0], block)
    ])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def random_level(rng, arity, radius):
    keys = rng.integers(-radius, radius + 1, size=(3 * radius, max(arity, 1)))
    return IntFunction(
        arity,
        default=float(rng.random()),
        table={tuple(k[:arity]): float(rng.random()) for k in keys} if arity else {},
    )


def random_family_points(rng, family, d, radius):
    if family == "class-a":
        spec = Tower((IntFunction.constant(float(rng.random())), random_beta(rng, radius)))
    elif family == "class-b":
        spec = Tower(
            (IntFunction.constant(float(rng.random())), random_beta(rng, radius)), (1, 0)
        )
    else:
        spec = Tower(
            tuple(random_level(rng, k, radius) for k in range(d)),
            tuple(rng.permutation(d)),
        )
    return enumerate_spectrum(spec, LatticeWindow.centered(radius, spec.dimension))


def union_domain(rng, d):
    """A product of d factors, each one to three random disjoint intervals."""
    factors = []
    for _ in range(d):
        cuts = np.sort(rng.uniform(-2.0, 3.0, size=2 * int(rng.integers(1, 4))))
        factors.append(IntervalUnion(tuple(zip(cuts[::2], cuts[1::2]))))
    return Domain(tuple(factors))


@pytest.mark.parametrize(
    "family, d, radius",
    [("class-a", 2, 8), ("class-b", 2, 8), ("class-b", 2, 5), ("tower", 1, 12),
     ("tower", 2, 6), ("tower", 3, 3), ("tower", 4, 2)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_gram_of_families_equals_the_dense_reference_bit_for_bit(family, d, radius, seed):
    rng = np.random.default_rng([seed, d, radius])
    pts = random_family_points(rng, family, d, radius)
    for domain in (UnitCube(pts.shape[1]), union_domain(rng, pts.shape[1])):
        got = gram_matrix(domain, pts)
        assert same_bits(got.entries, dense_gram_reference(domain, pts))
        assert same_bits(got.labels, pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gram_of_explicit_sets_equals_the_dense_reference_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    # few distinct coordinates per axis, repeated points, signed zeros,
    # quarter steps, and some generic reals
    pool = np.array([0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 2.5, 1e-7, -1e-7])
    pts = rng.choice(pool, size=(60, d))
    pts[:5] = pts[5:10]
    pts[50:] = rng.uniform(-3.0, 3.0, size=(10, d))
    assert np.any(np.signbit(pts) & (pts == 0.0))
    for domain in (UnitCube(d), union_domain(rng, d)):
        assert same_bits(gram_matrix(domain, pts).entries, dense_gram_reference(domain, pts))


def counting_transform(monkeypatch):
    """Patch the factor transform to record the values each call gets."""
    from spectralbox import exponentials

    seen = []
    transform = exponentials._factor_transform

    def counting(factor, z):
        seen.append(np.array(z, copy=True))
        return transform(factor, z)

    monkeypatch.setattr(exponentials, "_factor_transform", counting)
    return seen


def test_gram_keeps_signed_zero_differences_apart(monkeypatch):
    seen = counting_transform(monkeypatch)
    pts = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    domain = Domain((IntervalUnion(((-1.0, -0.5), (0.25, 2.0))),))
    entries = gram_matrix(domain, pts).entries
    # 0.0 - 0.0, 0.0 - -0.0 and -0.0 - -0.0 are 0.0, -0.0 - 0.0 is -0.0:
    # two bit patterns, each transformed once
    (z,) = seen
    assert z.size == 2 and sorted(np.signbit(z.real).tolist()) == [False, True]
    assert same_bits(entries, dense_gram_reference(domain, pts))


def test_gram_of_the_radius_16_sample_family_equals_the_dense_reference():
    beta = IntFunction(1, 0.15, {-8: 0.6, -3: 0.25, 0: 0.5, 2: 0.05, 5: 0.9, 8: 0.7})
    spec = Tower((IntFunction.constant(0.375), beta), (1, 0))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(16, 2))
    assert pts.shape == (1089, 2)
    got = gram_matrix(UnitCube(2), pts).entries
    assert same_bits(got, dense_gram_reference(UnitCube(2), pts))


def test_gram_transforms_each_distinct_difference_once(monkeypatch):
    seen = counting_transform(monkeypatch)
    beta = IntFunction(1, 0.15, {-8: 0.6, -3: 0.25, 0: 0.5, 2: 0.05, 5: 0.9, 8: 0.7})
    spec = Tower((IntFunction.constant(0.375), beta), (1, 0))
    pts = enumerate_spectrum(spec, LatticeWindow.centered(8, 2))
    gram_matrix(UnitCube(2), pts)
    distinct = [
        np.unique((pts[None, :, axis] - pts[:, None, axis]).view(np.uint64)).size
        for axis in range(2)
    ]
    # axis 1 holds alpha + n: its differences are the integers -16..16
    assert distinct[1] == 33
    assert [z.size for z in seen] == distinct
    assert sum(distinct) < pts.shape[0] ** 2 // 20


# gram_matrix folds the axes into one code per entry and multiplies the
# factors once per distinct code tuple; the tests below pin the fold, the
# codes the Gram hands to its readers, and the probe's shared phases.


@pytest.mark.parametrize("count, radix", [(5, 7), (40, 30), (100, 1000), (300, 2000)])
def test_fold_gives_each_entry_its_mixed_radix_value(count, radix):
    # 400 entries: a table of flags for a small range, a sort for a wide
    # one (100 * 1000 > 16 * 400), also when most entries keep their own
    rng = np.random.default_rng(count)
    key = rng.integers(0, count, size=(20, 20))
    code = rng.integers(0, radix, size=(20, 20))
    mixed = key * radix + code
    seen, index = group_codes(mixed, count * radix)
    assert index.shape == key.shape
    assert np.array_equal(seen[index], mixed)
    assert np.array_equal(seen, np.unique(mixed))


def test_gram_codes_decode_to_the_differences_and_entries():
    rng = np.random.default_rng(9)
    pts = random_family_points(rng, "tower", 3, 2)
    pts[:4] = -0.0
    gram = gram_matrix(UnitCube(3), pts)
    assert same_bits(np.take(gram.table, gram.index), gram.entries)
    tuples = []
    for axis, (diffs, code, slot) in enumerate(gram.axes):
        tuples.append(code[slot[:, None], slot[None, :]])
        got = diffs[tuples[-1]]
        assert same_bits(got, pts[None, :, axis] - pts[:, None, axis])
    # one table value per distinct tuple of difference codes
    distinct = np.unique(np.stack(tuples, -1).reshape(-1, 3), axis=0)
    assert gram.table.size == distinct.shape[0] < gram.entries.size // 3


def test_gram_folds_past_the_int64_range_of_a_plain_mixed_radix_code():
    # 300 generic 4-D points: about 89 700 distinct differences an axis,
    # whose product exceeds 2^63; the fold keeps every code below P^2 u
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.0, 3.0, size=(300, 4))
    gram = gram_matrix(UnitCube(4), pts)
    counts = [diffs.size for diffs, _, _ in gram.axes]
    assert np.prod(np.array(counts, dtype=float)) > 2.0**63
    assert same_bits(gram.entries, dense_gram_reference(UnitCube(4), pts))


def completeness_per_point_phases(domain, spec, window, test_functions):
    """The probe with its phase matrices built per point and per state,
    as it first was: the same contraction, in the same order."""
    pts = enumerate_spectrum(spec, window)
    ratios = []
    for f in test_functions:
        f = np.asarray(f, dtype=complex)
        first, *rest = (
            np.exp(2j * np.pi * pts[:, ax, None] * grid_coords(n)).conj()
            for ax, n in enumerate(f.shape)
        )
        weighted = grid_weight(f.shape) * f
        coeffs = (first @ weighted.reshape(weighted.shape[0], -1)).reshape(
            pts.shape[:1] + weighted.shape[1:]
        )
        for phases in rest:
            coeffs = np.einsum("pi...,pi->p...", coeffs, phases)
        captured = float(np.cumsum(np.abs(coeffs) ** 2)[-1])
        ratios.append(captured / (grid_norm(f) ** 2 * domain.measure))
    return ratios


@pytest.mark.parametrize("d, shapes", [
    (1, [(40,), (40,), (33,)]), (2, [(17, 12), (17, 12), (12, 17)]),
    (3, [(9, 7, 6), (6, 7, 9)]),
])
@pytest.mark.parametrize("family", [_staircase, _explicit])
def test_completeness_probe_equals_per_point_phases_bit_for_bit(d, shapes, family):
    rng = np.random.default_rng(d)
    states = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    spec, window = family(d), LatticeWindow.centered(2, d)
    got = completeness_probe(UnitCube(d), enumerate_spectrum(spec, window), states).ratios
    want = completeness_per_point_phases(UnitCube(d), spec, window, states)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
