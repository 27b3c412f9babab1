import io

import numpy as np
import pytest

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
    assert table[(0,)] == pytest.approx(np.exp(2j * np.pi * c))
    assert all(abs(v) < 1e-14 for k, v in table.items() if k != (0,))


def test_density_height_zero_is_delta():
    table = density_coeffs(one_harmonic_model(), 0, 3)
    assert table[(0,)] == pytest.approx(1.0)
    assert all(abs(v) < 1e-14 for k, v in table.items() if k != (0,))


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
        assert table[(k,)] == pytest.approx(oracle, abs=1e-9)


def test_density_conjugate_symmetry_in_height():
    model = two_period_model()
    plus = density_coeffs(model, 2, 4)
    minus = density_coeffs(model, -2, 4)
    worst = max(
        abs(minus[k] - np.conj(plus[tuple(-x for x in k)])) for k in plus
    )
    assert worst < 1e-14


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
