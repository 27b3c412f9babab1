"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances and budgets are pinned here; nothing is deferred to
later calibration.
"""

import time

import numpy as np

from spectralbox.cli import main as cli_main
from spectralbox.cocycles import (
    BoundaryEigenvalues,
    check_cocycle,
    check_cocycle_2d,
    seam_twisted,
)
from spectralbox.diffraction import (
    GaussianTestFunction,
    QuasiPeriodicModel,
    TrigComponent,
    build_density,
    eval_diffraction,
    eval_direct,
    height_radius,
)
from spectralbox.exponentials import (
    gram_matrix,
    in_zero_set_cube_many,
    orthogonality_verdict,
    unit_circle_root_scan,
)
from spectralbox.extensions import (
    BumpProfile,
    boundary_condition_residual,
    cayley_forward,
    cayley_inverse,
    make_domain_vector,
    random_unitary,
    symmetry_defect,
)
from spectralbox.groups import (
    DiagonalBoundary,
    commutator_norm,
    default_probe_coefficients,
    grid_group_action,
    group_action_grid,
    group_matrix_spectral,
    project_to_window,
    synthesize_window_state,
)
from spectralbox.model import (
    ExplicitSpectrum,
    IntFunction,
    LatticeWindow,
    Tower,
    UnitCube,
    enumerate_spectrum,
    spectrum_difference_set,
)
from spectralbox.tiling import multiplicity_map, tiling_verdict


def _report(n, text):
    print(f"[acceptance {n:02d}] PASS: {text}")


def unit(x):
    return np.exp(2j * np.pi * x)


def random_beta(rng, lo=-4, hi=4):
    return IntFunction(
        1,
        default=float(rng.random()),
        table={int(k): float(rng.random()) for k in range(lo, hi + 1)},
    )


PLANAR_WINDOW = LatticeWindow(((-4, 3), (-4, 3)))  # 64 points


def _planar_specs(rng, count=20):
    specs = []
    for _ in range(count):
        beta = random_beta(rng)
        alpha = float(rng.random())
        levels = (IntFunction.constant(alpha), beta)
        specs.append(Tower(levels))
        specs.append(Tower(levels, (1, 0)))
    return specs


def test_acceptance_01_orthogonality_of_planar_classes():
    rng = np.random.default_rng(101)
    domain = UnitCube(2)
    start = time.perf_counter()
    worst = 0.0
    for spec in _planar_specs(rng):
        pts = enumerate_spectrum(spec, PLANAR_WINDOW)
        assert pts.shape[0] == 64
        gram = gram_matrix(domain, pts)
        offdiag = orthogonality_verdict(gram).worst_offdiag
        worst = max(worst, offdiag)
        assert offdiag < 1e-10
        np.testing.assert_allclose(np.diag(gram.entries), np.ones(64), atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        1,
        f"40 planar-class Gram matrices are the identity; worst off-diagonal "
        f"{worst:.2e} < 1e-10 ({elapsed:.2f}s < 5s)",
    )


def test_acceptance_02_difference_set_containment():
    rng = np.random.default_rng(102)
    specs = _planar_specs(rng)
    point_sets = [enumerate_spectrum(s, PLANAR_WINDOW) for s in specs]
    start = time.perf_counter()
    total = 0
    for pts in point_sets:
        diffs = spectrum_difference_set(pts)
        total += diffs.shape[0]
        assert bool(np.all(in_zero_set_cube_many(2, diffs, 1e-9)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        2,
        f"{total} difference vectors all lie in the cube transform zero set "
        f"({elapsed:.2f}s < 1s)",
    )


def _commuting_instance(rng, radius):
    """A commuting sequence pair (a, b)."""
    kind = int(rng.integers(3))
    rand = lambda: IntFunction(
        1,
        table={int(k): rng.random() for k in range(-radius, radius + 1)},
        default=rng.random(),
    )
    one = IntFunction(1)
    if kind == 0:
        return one, rand()
    if kind == 1:
        return rand(), one
    return one, one


def _perturbed_instance(rng, radius):
    a, b = _commuting_instance(rng, radius)
    n0 = int(rng.integers(-3, 4))
    value = 0.15 + 0.6 * rng.random()
    a_is_one = all(
        abs(unit(a(n)) - 1.0) < 1e-12 for n in range(-radius, radius + 1)
    )
    b_is_one = all(
        abs(unit(b(m)) - 1.0) < 1e-12 for m in range(-radius, radius + 1)
    )
    if a_is_one and b_is_one:
        a = IntFunction(1, 0.0, {n0: value})
        b = IntFunction(1, 0.0, {2: 0.3})
        return a, b
    if a_is_one:
        return IntFunction(1, 0.0, {n0: value}), b
    return a, IntFunction(1, 0.0, {n0: value})


def test_acceptance_03_cocycle_commutator_cross_oracle():
    rng = np.random.default_rng(103)
    radius = 8
    window = LatticeWindow.centered(radius, 2)
    grid_n = 64
    times = [i / 8 for i in range(1, 6)]  # the 5 x 5 (s, t) grid
    coeff_probes = default_probe_coefficients(window, 4, 10, rng)
    probes = [
        synthesize_window_state(v, (0.0, 0.0), window, grid_n)
        for v in coeff_probes
    ]
    start = time.perf_counter()
    disagreements = 0
    for trial in range(50):
        if trial % 2 == 0:
            a, b = _commuting_instance(rng, radius)
        else:
            a, b = _perturbed_instance(rng, radius)
        eigs = BoundaryEigenvalues.from_pair(a, b, window)
        cocycle_holds = check_cocycle_2d(eigs, 1e-10).holds
        # one table over every (s, t) pair, so each probe is checked once
        worst = commutator_norm(
            grid_group_action(1, times, DiagonalBoundary(a)),
            grid_group_action(2, times, DiagonalBoundary(b)),
            probes,
        ).max()
        if (worst < 1e-6) != cocycle_holds:
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0
    _report(
        3,
        f"cocycle verdict equals commutator verdict on 50 instances, "
        f"0 disagreements ({elapsed:.1f}s < 60s)",
    )


def test_acceptance_04_spectral_vs_grid_oracle_match():
    rng = np.random.default_rng(104)
    grid_n = 256
    window = LatticeWindow.centered(16, 2)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        axis = 1 + trial % 2
        radius = 20
        a = IntFunction(
            1,
            table={int(k): rng.random() for k in range(-radius, radius + 1)},
            default=rng.random(),
        )
        b = IntFunction(
            1,
            table={int(k): rng.random() for k in range(-radius, radius + 1)},
            default=rng.random(),
        )
        phases = (float(rng.random()), float(rng.random()))
        eigs = BoundaryEigenvalues.from_pair(
            seam_twisted(a, phases[0]), seam_twisted(b, phases[1]), window
        )
        t = int(rng.integers(1, grid_n)) / grid_n
        op = group_matrix_spectral(
            axis, t, eigs, phases, grid_n=grid_n, leakage_tol=1.0
        )
        boundary = (
            DiagonalBoundary(a, shift=phases[1])
            if axis == 1
            else DiagonalBoundary(b, shift=phases[0])
        )
        for _ in range(3):
            vec = rng.standard_normal(window.cardinality) + 1j * rng.standard_normal(
                window.cardinality
            )
            vec /= np.linalg.norm(vec)
            state = synthesize_window_state(vec, phases, window, grid_n)
            moved = group_action_grid(state, axis, t, boundary)
            proj = project_to_window(moved, phases, window)
            mismatch = float(np.linalg.norm(op(vec) - proj))
            worst = max(worst, mismatch)
            assert mismatch < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        4,
        f"spectral matrix action matches the projected grid action on 20 "
        f"random draws; worst {worst:.2e} < 1e-6 ({elapsed:.1f}s < 30s)",
    )


def test_acceptance_05_cayley_roundtrip_and_unitarity():
    rng = np.random.default_rng(105)
    worst_u = worst_r = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        V = random_unitary(dim, rng)
        W = cayley_forward(V)
        eye = np.eye(dim)
        defect = float(np.abs(W.conj().T @ W - eye).max())
        roundtrip = float(np.abs(cayley_inverse(W) - V.matrix).max())
        worst_u = max(worst_u, defect)
        worst_r = max(worst_r, roundtrip)
        assert defect < 1e-10
        assert roundtrip < 1e-10
    _report(
        5,
        f"50 fractional-linear transforms: worst unitarity defect "
        f"{worst_u:.2e}, worst roundtrip {worst_r:.2e}, both < 1e-10",
    )


def test_acceptance_06_boundary_condition_and_symmetry():
    rng = np.random.default_rng(106)
    dim = 7
    worst_res = 0.0
    worst_sym = 0.0
    # two domain vectors per extension: both residuals count toward the
    # 100 random vectors, and each pair feeds the symmetry identity of its
    # own extension operator
    for _ in range(50):
        V = random_unitary(dim, rng)
        pair = []
        for _ in range(2):
            h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            h /= np.linalg.norm(h)
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            g /= np.linalg.norm(g)
            phi = BumpProfile(
                0.42 + 0.16 * rng.random(), 0.28 + 0.07 * rng.random(), g
            )
            psi = make_domain_vector(phi, h, V)
            res = boundary_condition_residual(psi, V)
            worst_res = max(worst_res, res)
            assert res < 1e-10
            pair.append(psi)
        defect = abs(symmetry_defect(pair[0], pair[1], 256))
        worst_sym = max(worst_sym, defect)
        assert defect < 1e-6
    _report(
        6,
        f"100 domain vectors: worst boundary residual {worst_res:.2e} < "
        f"1e-10; worst symmetry defect at 256 nodes {worst_sym:.2e} < 1e-6",
    )


def test_acceptance_07_tiling_multiplicity():
    rng = np.random.default_rng(107)
    torus_n, resolution = 4, 64
    for _ in range(20):
        beta = IntFunction(
            1,
            default=0.0,
            table={k: float(rng.random()) for k in range(torus_n)},
        )
        alpha = float(rng.random())
        levels = (IntFunction.constant(alpha), beta)
        for spec in (Tower(levels), Tower(levels, (1, 0))):
            verdict = tiling_verdict(
                multiplicity_map(spec, torus_n, resolution)
            )
            assert verdict.tiles
    sparse = ExplicitSpectrum(
        [[2 * m, 2 * n] for m in range(-1, 3) for n in range(-1, 3)]
    )
    control = tiling_verdict(multiplicity_map(sparse, torus_n, resolution))
    assert not control.tiles
    assert abs(control.gap_fraction - 0.75) <= 0.01
    _report(
        7,
        f"40 random planar-class translate sets tile the 4x4 torus; sparse "
        f"control gap fraction {control.gap_fraction:.4f} = 0.75 +- 0.01",
    )


def test_acceptance_08_interval_union_root_scan():
    coeffs = [1, 0, 1, 1]
    scan = unit_circle_root_scan(coeffs, samples=100_000)
    again = unit_circle_root_scan(coeffs, samples=200_000)
    assert scan.min_modulus > 0.0
    assert abs(scan.min_modulus - again.min_modulus) < 1e-6
    _report(
        8,
        f"1 + z^2 + z^3 has circle minimum {scan.min_modulus:.9f} > 0, "
        f"stable to {abs(scan.min_modulus - again.min_modulus):.1e} across "
        f"two resolutions",
    )


def test_acceptance_09_diffraction_agreement():
    start = time.perf_counter()
    phi = GaussianTestFunction(center=(0.2, -0.1), widths=(0.9, 1.1))
    # constant shift: both routes must reproduce the two-sided lattice sum
    c = 0.37
    const_model = QuasiPeriodicModel((TrigComponent(np.sqrt(2.0), {0: c}),))
    direct_c = eval_direct(const_model, phi, 200)
    density_c = build_density(const_model, range(-8, 9), 4)
    diffr_c = eval_diffraction(density_c, phi)
    ms = np.arange(-8, 9).astype(float)
    poisson = sum(
        unit(c * n) * np.sum(phi.value(ms, float(n))) for n in range(-8, 9)
    )
    rel_const = abs(direct_c - diffr_c) / abs(direct_c)
    rel_poisson = abs(direct_c - poisson) / abs(direct_c)
    assert rel_const < 1e-6
    assert rel_poisson < 1e-6
    # one-harmonic quasi-periodic shift at the prescribed windows
    model = QuasiPeriodicModel((TrigComponent.cosine(np.sqrt(2.0), 0.1),))
    direct = eval_direct(model, phi, 200)
    n_rad = height_radius(model, phi)
    density = build_density(model, range(-n_rad, n_rad + 1), 12)
    diffr = eval_diffraction(density, phi)
    rel = abs(direct - diffr) / abs(direct)
    assert rel < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        9,
        f"constant-shift routes agree with the lattice sum to {rel_const:.1e}"
        f" (< 1e-6); one-harmonic model relative error {rel:.1e} < 1e-3 "
        f"({elapsed:.1f}s < 60s)",
    )


def _aligned_tower3d():
    beta = IntFunction(1, default=0.0, table={1: 0.5, 2: 0.25})
    table = {(0, l): float(v) for l, v in ((-2, 0.3), (-1, 0.3), (0, 0.1), (1, 0.7), (2, 0.2))}
    for l in range(-4, 5):
        table[(1, l)] = 0.6
        table[(2, l)] = 0.9
    gamma = IntFunction(2, default=0.0, table=table)
    return Tower((IntFunction.constant(0.0), beta, gamma))


def _generic_tower3d():
    beta = IntFunction(1, default=0.0, table={0: 0.5, 1: 0.25})
    gamma = IntFunction(
        2, default=0.0, table={(0, 0): 0.3, (1, 1): 0.8, (0, 1): 0.05}
    )
    return Tower((IntFunction.constant(0.0), beta, gamma))


def test_acceptance_10_staircase_cocycles():
    window = LatticeWindow.centered(2, 3)
    const = Tower((
        IntFunction.constant(0.0),
        IntFunction(1, default=0.25),
        IntFunction(2, default=0.5),
    ))
    verdicts = {
        name: check_cocycle(BoundaryEigenvalues.from_tower(tower, window), 1e-10)
        for name, tower in (
            ("aligned", _aligned_tower3d()),
            ("generic", _generic_tower3d()),
            ("constant", const),
        )
    }
    # a commuting staircase with both tables nonconstant, and constant
    # tables, pass the shift identities exactly
    for name in ("aligned", "constant"):
        assert verdicts[name].holds and verdicts[name].max_violation == 0.0
    # generic nonconstant tables fail them by far more than rounding
    generic = verdicts["generic"]
    assert not generic.holds and generic.max_violation > 1.0 and generic.witnesses
    _report(
        10,
        "staircase boundary data passes the shift identities for aligned "
        "and constant tables and fails them for generic nonconstant ones "
        f"(max violation {generic.max_violation:.3f})",
    )


CLI_FIXTURES = {
    "verify-pair": """
command: verify-pair
seed: 5
domain: {kind: unit-cube, dimension: 2}
spectrum:
  family: class-a
  alpha: 0.25
  beta: {default: 0.1, table: {"0": 0.2, "1": 0.5, "2": 0.8, "3": 0.3}}
window: {radius: 3}
tiling: {window: 4, resolution: 32}
""",
    "check-tiling": """
command: check-tiling
seed: 2
spectrum:
  family: class-b
  alpha: 0.6
  beta: {default: 0.0, table: {"0": 0.2, "1": 0.45, "2": 0.7, "3": 0.95}}
tiling: {window: 4, resolution: 64}
""",
    "diffraction": """
command: diffraction
seed: 9
diffraction:
  components:
    - {period: 1.4142135623730951, cosine_amplitude: 0.1}
  test_function: {center: [0.2, -0.1], widths: [0.9, 1.1]}
  lambda_window: 200
  k_radius: 12
""",
    "simulate-groups": """
command: simulate-groups
seed: 11
groups:
  a: {default: 0.0}
  b: {default: 0.0, table: {"0": 0.3, "1": 0.85}}
  window: {radius: 6}
  grid_n: 64
  times: [0.125, 0.25, 0.5]
  sub_radius: 2
  n_random: 4
""",
}


def test_acceptance_11_cli_determinism(tmp_path):
    for name, text in CLI_FIXTURES.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text, encoding="utf-8")
        runs = []
        for label in ("a", "b"):
            out = tmp_path / f"{name}-{label}"
            code = cli_main(
                [name, "--config", str(cfg), "--out", str(out)]
            )
            assert code == 0, name
            runs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert runs[0] == runs[1], f"{name} outputs differ between runs"
        assert "report.txt" in runs[0]
    _report(
        11,
        "repeated runs of four commands produce byte-identical reports, "
        "tables and figures",
    )
