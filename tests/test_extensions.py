import math

import numpy as np
import pytest

from spectralbox import extensions
from spectralbox.extensions import (
    BoundaryUnitary,
    BumpProfile,
    DomainVector,
    EmptyBoundaryError,
    IllConditionedError,
    NotUnitaryError,
    boundary_condition_residual,
    boundary_unitary_from_phases,
    cayley_forward,
    cayley_inverse,
    extension_inner,
    make_domain_vector,
    random_unitary,
    symmetry_defect,
)

E = math.e


def random_domain_vector(rng, dim=9, with_phi=True):
    modes = np.arange(dim) - dim // 2
    V = random_unitary(dim, rng)
    h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = None
    if with_phi:
        center = 0.4 + 0.2 * rng.random()
        width = 0.12 + 0.1 * rng.random()
        phi = BumpProfile(
            center, width, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        )
    return make_domain_vector(phi, h, V, modes), V


def test_boundary_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        BoundaryUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_cayley_scalar_fixed_points():
    one = BoundaryUnitary(np.array([[1.0 + 0j]]))
    minus = BoundaryUnitary(np.array([[-1.0 + 0j]]))
    assert cayley_forward(one)[0, 0] == pytest.approx(1.0)
    assert cayley_forward(minus)[0, 0] == pytest.approx(-1.0)
    assert cayley_inverse(np.array([[1.0 + 0j]]))[0, 0] == pytest.approx(1.0)
    assert cayley_inverse(np.array([[-1.0 + 0j]]))[0, 0] == pytest.approx(-1.0)


def test_cayley_unitarity_and_roundtrip():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 8, 16):
        V = random_unitary(dim, rng)
        W = cayley_forward(V)
        eye = np.eye(dim)
        assert np.abs(W.conj().T @ W - eye).max() < 1e-10
        assert np.abs(cayley_inverse(W) - V.matrix).max() < 1e-10


def test_cayley_guard_fires_on_garbage():
    # bypass the unitarity check to hit the conditioning guard
    bad = BoundaryUnitary.__new__(BoundaryUnitary)
    object.__setattr__(bad, "matrix", np.diag([-1.0 / E, 1.0]).astype(complex))
    object.__setattr__(bad, "eq_tol", 1e-10)
    with pytest.raises(IllConditionedError):
        cayley_forward(bad)


def test_bump_support_validation():
    with pytest.raises(ValueError):
        BumpProfile(0.1, 0.2, np.ones(3))
    bump = BumpProfile(0.5, 0.3, np.ones(3))
    x = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    vals = bump.bump(x)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[2] == pytest.approx(1.0)


def test_make_domain_vector_zero_state():
    V = BoundaryUnitary(np.eye(3, dtype=complex))
    psi = make_domain_vector(None, np.zeros(3, dtype=complex), V)
    assert not psi.boundary_trace(0).any() and not psi.boundary_trace(1).any()
    assert extension_inner(psi, psi) == 0.0


def test_domain_vector_boundary_values_identity_unitary():
    V = BoundaryUnitary(np.eye(3, dtype=complex))
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = make_domain_vector(None, e0, V)
    np.testing.assert_allclose(psi.boundary_trace(1), (E + 1) * e0)
    np.testing.assert_allclose(psi.boundary_trace(0), (1 + E) * e0)


def test_boundary_condition_residual_valid_vectors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi, V = random_domain_vector(rng)
        assert boundary_condition_residual(psi, V) < 1e-10


def test_boundary_condition_residual_detects_perturbation():
    rng = np.random.default_rng(2)
    psi, V = random_domain_vector(rng)
    e0 = np.zeros(psi.h_plus.shape, dtype=complex)
    e0[0] = 1.0
    broken = DomainVector(psi.phi, psi.h_plus + e0, psi.h_minus, psi.modes)
    assert boundary_condition_residual(broken, V) > 0.1


def test_boundary_condition_residual_h_zero():
    rng = np.random.default_rng(3)
    V = random_unitary(5, rng)
    phi = BumpProfile(0.5, 0.2, rng.standard_normal(5))
    psi = make_domain_vector(phi, np.zeros(5, dtype=complex), V)
    assert boundary_condition_residual(psi, V) == pytest.approx(0.0)


def test_symmetry_defect_vanishes_on_domain_vectors():
    rng = np.random.default_rng(5)
    for _ in range(10):
        V = random_unitary(7, rng)
        h1 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        h2 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        phi1 = BumpProfile(0.45, 0.2, rng.standard_normal(7))
        phi2 = BumpProfile(0.55, 0.25, rng.standard_normal(7))
        psi1 = make_domain_vector(phi1, h1, V)
        psi2 = make_domain_vector(phi2, h2, V)
        assert abs(symmetry_defect(psi1, psi2, 4096)) < 1e-10


def test_symmetry_defect_nonzero_when_boundary_broken():
    rng = np.random.default_rng(6)
    psi, V = random_domain_vector(rng, with_phi=False)
    e0 = np.zeros(psi.h_plus.shape, dtype=complex)
    e0[0] = 1.0
    broken = DomainVector(None, psi.h_plus + e0, psi.h_minus, psi.modes)
    assert abs(symmetry_defect(broken, broken)) > 1e-3


def reference_symmetry_defect(psi1, psi2, n_nodes):
    """<H psi1, psi2> - <psi1, H psi2> by its own quadrature of both sides."""
    p, _, _, s = extensions._defect_dots(psi1, psi2)
    acc = 2j * extensions._A * (p - s)
    x, w = extensions._midpoint(n_nodes)
    f1, df1 = extensions._phi_coeffs(psi1, x), extensions._dphi_coeffs(psi1, x)
    f2, df2 = extensions._phi_coeffs(psi2, x), extensions._dphi_coeffs(psi2, x)
    g1 = extensions._defect_coeffs(psi1, x)
    dg1 = extensions._defect_deriv_coeffs(psi1, x)
    g2 = extensions._defect_coeffs(psi2, x)
    dg2 = extensions._defect_deriv_coeffs(psi2, x)
    left = 1j * w * (
        np.sum(np.conj(df1) * (f2 + g2)) + np.sum(np.conj(dg1) * f2)
    )
    right = -1j * w * (
        np.sum(np.conj(f1) * (df2 + dg2)) + np.sum(np.conj(g1) * df2)
    )
    return complex(acc + left - right)


@pytest.mark.parametrize("n_nodes, pairs", [(256, 200), (4096, 30)])
def test_symmetry_defect_matches_its_two_sided_quadrature(n_nodes, pairs):
    # pairs share one boundary unitary; every third has broken boundary
    # data, where the defect is far from zero.  The scale is the size of
    # the two inner products the defect is the difference of.
    rng = np.random.default_rng(10)
    for trial in range(pairs):
        psi1, V = random_domain_vector(rng, with_phi=trial % 2 == 0)
        h2 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        phi2 = BumpProfile(0.5, 0.3, rng.standard_normal(9))
        psi2 = make_domain_vector(phi2, h2, V, psi1.modes)
        if trial % 3 == 0:
            kick = rng.standard_normal(9)
            psi1 = DomainVector(
                psi1.phi, psi1.h_plus + kick, psi1.h_minus, psi1.modes
            )
        scale = abs(extension_inner(psi1, psi2, n_nodes)) + abs(
            extension_inner(psi2, psi1, n_nodes)
        )
        got = symmetry_defect(psi1, psi2, n_nodes)
        want = reference_symmetry_defect(psi1, psi2, n_nodes)
        assert abs(got - want) <= 1e-13 * scale
        assert (abs(got) > 1e-3 * scale) == (trial % 3 == 0)


def test_quadratic_form_is_real():
    rng = np.random.default_rng(7)
    for _ in range(6):
        psi, _ = random_domain_vector(rng)
        val = extension_inner(psi, psi, 4096)
        assert abs(val.imag) < 1e-10


def test_make_domain_vector_dimension_mismatch():
    rng = np.random.default_rng(9)
    V = random_unitary(4, rng)
    with pytest.raises(ValueError):
        make_domain_vector(None, np.zeros(5, dtype=complex), V)


def test_boundary_unitary_from_phase_table():
    V = boundary_unitary_from_phases([0.0, 0.25, 0.5])
    np.testing.assert_allclose(
        np.diag(V.matrix), [1.0, 1j, -1.0], atol=1e-12
    )


def test_boundary_unitary_without_modes_raises_a_typed_error(monkeypatch):
    # the error comes before the unitarity defect's reduction, which an
    # empty matrix would fail with numpy's untyped ValueError
    def no_defect(matrix):
        raise AssertionError("unitarity defect of an empty matrix")

    monkeypatch.setattr(extensions, "_unitarity_defect", no_defect)
    with pytest.raises(EmptyBoundaryError, match="at least one mode"):
        boundary_unitary_from_phases([])
    with pytest.raises(EmptyBoundaryError):
        BoundaryUnitary(np.zeros((0, 0), dtype=complex))
