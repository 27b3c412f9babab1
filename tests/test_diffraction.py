import io
import math

import numpy as np
import pytest

from spectralbox import cli
from spectralbox.config import RunConfig
from spectralbox.diffraction import (
    CoefficientTailError,
    GaussianTestFunction,
    QuasiPeriodicModel,
    TrigComponent,
    build_density,
    density_coeffs,
    emit_diffraction_svg,
    eval_diffraction,
    eval_direct,
    height_radius,
    lattice_sum,
)
from spectralbox.diffraction import _component_coeffs, _fmt, _stem_masses
from spectralbox.reporting import ReportBuilder, format_float, write_svg

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))


def constant_model(c):
    return QuasiPeriodicModel((TrigComponent(SQRT2, {0: c}),))


def one_harmonic_model(amp=0.1):
    return QuasiPeriodicModel((TrigComponent.cosine(SQRT2, amp),))


def two_period_model():
    return QuasiPeriodicModel(
        (TrigComponent.cosine(SQRT2, 0.08), TrigComponent.cosine(SQRT3, 0.05))
    )


def test_components_must_be_real():
    with pytest.raises(ValueError):
        TrigComponent(1.0, {1: 0.5})  # no Hermitian partner
    comp = TrigComponent.cosine(2.0, 0.3)
    x = np.linspace(0, 4, 50)
    np.testing.assert_allclose(comp.value(x), 0.3 * np.cos(np.pi * x), atol=1e-12)


@pytest.mark.parametrize(
    "period, coeffs",
    [
        (float("nan"), {0: 0.1}),
        (float("inf"), {0: 0.1}),
        (1.0, {1: complex("nan"), -1: complex("nan")}),
        (1.0, {1: float("inf"), -1: float("inf")}),
    ],
)
def test_components_reject_non_finite_input(period, coeffs):
    with pytest.raises(ValueError, match="finite"):
        TrigComponent(period, coeffs)


def test_model_beta_sums_components():
    model = two_period_model()
    x = np.array([0.0, 1.0, 2.5])
    expected = 0.08 * np.cos(2 * np.pi * x / SQRT2) + 0.05 * np.cos(
        2 * np.pi * x / SQRT3
    )
    np.testing.assert_allclose(model.beta(x), expected, atol=1e-12)
    assert model.amplitude_bound() == pytest.approx(0.13)


def test_rational_ratio_warning():
    model = QuasiPeriodicModel(
        (TrigComponent.cosine(2.0, 0.1), TrigComponent.cosine(3.0, 0.1))
    )
    assert model.rational_ratio_warnings()  # 2/3 is rational
    assert not two_period_model().rational_ratio_warnings()


def test_density_constant_shift_single_peak():
    c = 0.41
    table = density_coeffs(constant_model(c), 1, 3)
    assert table[3] == pytest.approx(np.exp(2j * np.pi * c))
    assert np.all(np.abs(np.delete(table, 3)) < 1e-14)


def test_density_height_zero_is_delta():
    table = density_coeffs(one_harmonic_model(), 0, 3)
    assert table[3] == pytest.approx(1.0)
    assert np.all(np.abs(np.delete(table, 3)) < 1e-14)


def test_density_one_harmonic_matches_direct_series():
    # independent oracle: the coefficients of exp(i a cos(u)) against
    # exp(+i k u) are i^k J_k(a); compare via direct numerical integration
    amp, n = 0.1, 2
    model = one_harmonic_model(amp)
    table = density_coeffs(model, n, 6)
    u = np.linspace(0.0, 2 * np.pi, 20001)
    for k in range(-3, 4):
        g = np.exp(2j * np.pi * amp * np.cos(u) * n) * np.exp(1j * k * u)
        oracle = np.trapezoid(g, u) / (2 * np.pi)
        assert table[k + 6] == pytest.approx(oracle, abs=1e-9)


def test_density_conjugate_symmetry_in_height():
    model = two_period_model()
    plus = density_coeffs(model, 2, 4)
    minus = density_coeffs(model, -2, 4)
    # entry [i, j] holds harmonics (i - 4, j - 4); reversing both axes negates them
    assert np.abs(minus - np.conj(plus[::-1, ::-1])).max() < 1e-14


def test_density_tail_guard():
    # a strong harmonic at a large height spreads way past a tiny window
    model = one_harmonic_model(0.45)
    with pytest.raises(CoefficientTailError):
        density_coeffs(model, 6, 1)


def test_direct_beta_zero_is_poisson():
    phi = GaussianTestFunction(center=(0.2, -0.1), widths=(0.9, 1.1))
    direct = eval_direct(constant_model(0.0), phi, 200)
    control = lattice_sum(phi, 10)
    assert abs(direct - control) / abs(direct) < 1e-12


def test_direct_vs_diffraction_constant_shift():
    c = 0.37
    phi = GaussianTestFunction(center=(0.2, -0.1), widths=(0.9, 1.1))
    model = constant_model(c)
    direct = eval_direct(model, phi, 200)
    density = build_density(model, range(-8, 9), 4)
    diffr = eval_diffraction(density, phi)
    ms = np.arange(-8, 9).astype(float)
    control = sum(
        np.exp(2j * np.pi * c * n) * np.sum(phi.value(ms, float(n)))
        for n in range(-8, 9)
    )
    assert abs(direct - diffr) / abs(direct) < 1e-6
    assert abs(direct - control) / abs(direct) < 1e-6


def test_narrow_offcenter_gaussian_sums_near_zero():
    phi = GaussianTestFunction(center=(0.5, 0.5), widths=(0.05, 0.05))
    model = constant_model(0.0)
    # narrow transform decays before reaching any frequency point
    val = eval_direct(model, phi, 50)
    assert abs(val) < 1e-6


def test_height_radius_clears_the_test_transform():
    # past the radius every height n + beta(m) has |ly| >= freq_radius, so
    # the transform there is below its 1e-14 cutoff
    for phi, model in [
        (GaussianTestFunction(widths=(0.9, 1.1)), one_harmonic_model(0.1)),
        (GaussianTestFunction(widths=(1.2, 0.8)), two_period_model()),
        (GaussianTestFunction(widths=(0.3, 0.3)), constant_model(0.0)),
    ]:
        n_rad = height_radius(model, phi)
        assert type(n_rad) is int
        assert n_rad - 1 >= phi.freq_radius() + model.amplitude_bound()
        assert n_rad - 2 < phi.freq_radius() + model.amplitude_bound()
        edge = np.abs(phi.transform(0.0, n_rad - model.amplitude_bound()))
        assert edge < 1e-14 * phi.widths[0] * phi.widths[1]


def test_direct_vs_diffraction_one_harmonic():
    phi = GaussianTestFunction(center=(0.2, -0.1), widths=(0.9, 1.1))
    model = one_harmonic_model(0.1)
    direct = eval_direct(model, phi, 200)
    n_rad = height_radius(model, phi)
    density = build_density(model, range(-n_rad, n_rad + 1), 12)
    diffr = eval_diffraction(density, phi)
    assert abs(direct - diffr) / abs(direct) < 1e-3


def test_direct_vs_diffraction_two_periods():
    phi = GaussianTestFunction(center=(-0.3, 0.4), widths=(1.2, 0.8))
    model = two_period_model()
    direct = eval_direct(model, phi, 200)
    n_rad = height_radius(model, phi)
    density = build_density(model, range(-n_rad, n_rad + 1), 12)
    diffr = eval_diffraction(density, phi)
    assert abs(direct - diffr) / abs(direct) < 1e-3


def test_diffraction_zero_test_function_is_zero():
    model = constant_model(0.2)
    density = build_density(model, range(-2, 3), 2)
    phi = GaussianTestFunction(center=(60.0, 60.0), widths=(0.05, 0.05))
    assert abs(eval_diffraction(density, phi)) < 1e-12


def test_svg_emission_deterministic():
    model = two_period_model()
    density = build_density(model, range(-3, 4), 4)
    payload1 = emit_diffraction_svg(density)
    payload2 = emit_diffraction_svg(density)
    assert payload1 == payload2
    assert payload1.startswith(b"<?xml")
    buf = io.BytesIO()
    emit_diffraction_svg(density, buf)
    assert buf.getvalue() == payload1


# Loop references: the per-weight code that the array forms replaced.  The
# arrays must reproduce them bit for bit, on weights keyed by
# (harmonic tuple, height) in build order.


def ref_density_coeffs(model, n, k_radius):
    ks = range(-k_radius, k_radius + 1)
    per_component = [
        dict(zip(ks, _component_coeffs(comp, np.array([n]), k_radius)[0].tolist()))
        for comp in model.components
    ]
    out = {}

    def build(prefix, acc):
        j = len(prefix)
        if j == len(per_component):
            out[prefix] = acc
            return
        for k in ks:
            build(prefix + (k,), acc * per_component[j][k])

    build((), 1.0 + 0.0j)
    return out


def ref_build_density(model, n_values, k_radius):
    weights = {}
    for n in n_values:
        for k, c in ref_density_coeffs(model, int(n), k_radius).items():
            weights[(k, int(n))] = c
    return weights


def ref_frequency(k, periods):
    # left to right, as builtin sum() did before Python 3.12 compensated it
    theta = 0.0
    for ki, wi in zip(k, periods):
        theta += ki / wi
    return theta


def ref_eval_diffraction(weights, periods, test_fn):
    cx = test_fn.center[0]
    r = test_fn.space_radius()
    acc = 0.0 + 0.0j
    for (k, n), c in weights.items():
        theta = ref_frequency(k, periods)
        lo = math.floor(cx - theta - r)
        hi = math.ceil(cx - theta + r)
        ms = np.arange(lo, hi + 1)
        acc += c * np.sum(test_fn.value(theta + ms, float(n)))
    return complex(acc)


def ref_density_text(weights):
    rows = ["k,n,re,im"]
    for (k, n), c in sorted(weights.items()):
        key = ";".join(str(int(v)) for v in k)
        rows.append(f"{key},{n},{format_float(c.real)},{format_float(c.imag)}")
    return "\n".join(rows) + "\n"


def ref_stem_masses(weights, periods):
    mass = {}
    for (k, n), c in sorted(weights.items()):
        key = round(ref_frequency(k, periods) % 1.0, 9)
        mass[key] = mass.get(key, 0.0) + abs(c) ** 2
    return mass


def ref_svg(weights, periods):
    mass = ref_stem_masses(weights, periods)
    width, height, margin = 480, 240, 20
    top = max(mass.values()) if mass else 1.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
    ]
    for pos in sorted(mass):
        x = margin + pos * (width - 2 * margin)
        h = (height - 2 * margin) * (mass[pos] / top)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(height - margin)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(height - margin - h)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    return write_svg(parts, None)


# cosine amplitude per harmonic window: small enough that the window keeps
# all but 1e-4 of the coefficient mass at heights up to 6
_AMPLITUDE = {0: 1e-4, 1: 2e-3, 2: 8e-3, 5: 3e-2, 16: 0.12}
HEIGHTS = range(-6, 7)


def random_model(seed, n_components, k_radius):
    rng = np.random.default_rng([seed, n_components, k_radius])
    amp = _AMPLITUDE[k_radius]
    components = []
    for prime in (2, 3, 5)[:n_components]:
        c1 = amp * rng.random() * np.exp(2j * np.pi * rng.random())
        components.append(TrigComponent(
            math.sqrt(prime) * (1.0 + 0.1 * rng.random()),
            {0: amp * (rng.random() - 0.5), 1: c1, -1: np.conj(c1)},
        ))
    return QuasiPeriodicModel(tuple(components)), rng


REFERENCE_CASES = [
    (0, 1, 0), (1, 1, 2), (2, 1, 16),
    (3, 2, 0), (4, 2, 1), (5, 2, 5), (6, 2, 16),
    (7, 3, 0), (8, 3, 1), (9, 3, 2), (10, 3, 5),
]


@pytest.mark.parametrize("seed, n_components, k_radius", REFERENCE_CASES)
def test_density_arrays_match_loop_reference(seed, n_components, k_radius):
    model, rng = random_model(seed, n_components, k_radius)
    density = build_density(model, HEIGHTS, k_radius)
    weights = ref_build_density(model, HEIGHTS, k_radius)
    assert len(density.weights) == len(weights)
    keys = list(zip(map(tuple, density.harmonics.tolist()), density.heights.tolist()))
    assert keys == list(weights)
    assert density.weights.tolist() == list(weights.values())

    test_functions = [
        GaussianTestFunction(
            tuple(0.6 * rng.random(2) - 0.3), tuple(0.8 + 0.4 * rng.random(2))
        ),
        # combs of 15 to 17 samples: numpy sums them pairwise
        GaussianTestFunction(tuple(rng.random(2)), (2.5, 1.5)),
        # far off the set: every comb sums to zero
        GaussianTestFunction((60.0, 60.0), (0.05, 0.05)),
    ]
    for phi in test_functions:
        got = eval_diffraction(density, phi)
        assert got == ref_eval_diffraction(weights, model.periods, phi)
    assert eval_diffraction(density, test_functions[-1]) == 0

    keys, mass = _stem_masses(density)
    ref_mass = ref_stem_masses(weights, model.periods)
    assert keys.tolist() == sorted(ref_mass)
    assert mass.tolist() == [ref_mass[key] for key in sorted(ref_mass)]
    assert emit_diffraction_svg(density) == ref_svg(weights, model.periods)


@pytest.mark.parametrize("seed, n_components, k_radius", REFERENCE_CASES[::3])
def test_cli_diffraction_files_match_loop_reference(
    tmp_path, seed, n_components, k_radius
):
    model, _ = random_model(seed, n_components, k_radius)
    phi = GaussianTestFunction((0.1, -0.2), (0.9, 1.1))
    cfg = RunConfig(command="diffraction", seed=seed)
    cfg.diffraction = {
        "model": model, "test_function": phi, "lambda_window": 20, "k_radius": k_radius,
    }
    cli._cmd_diffraction(cfg, ReportBuilder("diffraction", "-", seed, {}), tmp_path)
    n_rad = height_radius(model, phi)
    weights = ref_build_density(model, range(-n_rad, n_rad + 1), k_radius)
    assert (tmp_path / "density.txt").read_bytes() == ref_density_text(weights).encode()
    assert (tmp_path / "diffraction.svg").read_bytes() == ref_svg(weights, model.periods)


def test_empty_density_pairs_to_zero():
    density = build_density(one_harmonic_model(), [], 3)
    assert len(density.weights) == 0
    assert eval_diffraction(density, GaussianTestFunction()) == 0
    assert emit_diffraction_svg(density) == ref_svg({}, density.periods)
