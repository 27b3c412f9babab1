import math

import numpy as np
import pytest

from spectralbox.extensions import (
    BoundaryUnitary,
    BumpProfile,
    DomainVector,
    IllConditionedError,
    NotUnitaryError,
    apply_extension,
    boundary_condition_residual,
    boundary_unitary_from_phases,
    cayley_forward,
    cayley_inverse,
    extension_inner,
    load_boundary_unitary,
    make_domain_vector,
    plain_inner,
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
    grid = psi.to_grid(17, 8)
    assert grid.norm() == pytest.approx(0.0)


def test_domain_vector_boundary_values_identity_unitary():
    V = BoundaryUnitary(np.eye(3, dtype=complex))
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = make_domain_vector(None, e0, V)
    np.testing.assert_allclose(psi.boundary_trace(1), (E + 1) * e0)
    np.testing.assert_allclose(psi.boundary_trace(0), (1 + E) * e0)
    # the grid materialization matches (e^x + e^{1-x}) basis0(y)
    grid = psi.to_grid(9, 8)
    x = np.arange(9) / 8
    y = np.arange(8) / 8
    expected = (np.exp(x) + np.exp(1 - x))[:, None] * np.exp(
        2j * np.pi * (-1) * y
    )[None, :]
    np.testing.assert_allclose(grid.values, expected, atol=1e-12)


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


def test_apply_extension_closed_form():
    V = BoundaryUnitary(np.eye(2, dtype=complex))
    e0 = np.array([1.0, 0.0], dtype=complex)
    psi = make_domain_vector(None, e0, V, modes=np.array([0, 1]))
    out = apply_extension(psi, 33, 16)
    x = np.arange(33) / 32
    expected = ((np.exp(x) - np.exp(1 - x)) / 1j)[:, None] * np.ones(16)[None, :]
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_apply_extension_fd_converges_quadratically():
    rng = np.random.default_rng(4)
    psi, _ = random_domain_vector(rng)
    errs = []
    for nx in (129, 257, 513):
        a = apply_extension(psi, nx, 8, "analytic")
        f = apply_extension(psi, nx, 8, "fd")
        errs.append((a - f).norm())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


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


def test_quadratic_form_is_real():
    rng = np.random.default_rng(7)
    for _ in range(6):
        psi, _ = random_domain_vector(rng)
        val = extension_inner(psi, psi, 4096)
        assert abs(val.imag) < 1e-10


def test_plain_inner_is_positive_on_nonzero():
    rng = np.random.default_rng(8)
    psi, _ = random_domain_vector(rng)
    val = plain_inner(psi, psi)
    assert val.real > 0 and abs(val.imag) < 1e-12
    grid = psi.to_grid(4097, 64)
    oracle = grid.inner(grid)
    assert plain_inner(psi, psi, 2048) == pytest.approx(oracle, rel=1e-6)


def test_make_domain_vector_dimension_mismatch():
    rng = np.random.default_rng(9)
    V = random_unitary(4, rng)
    with pytest.raises(ValueError):
        make_domain_vector(None, np.zeros(5, dtype=complex), V)


def test_load_boundary_unitary_from_text():
    text = """
# a 2x2 rotation-like unitary
0.6,0.0 0.8,0.0
-0.8,0.0 0.6,0.0
"""
    V = load_boundary_unitary(text)
    assert V.dim == 2
    assert V.matrix[0, 1] == pytest.approx(0.8)
    with pytest.raises(ValueError):
        load_boundary_unitary("1.0,0.0 0.0,0.0\n0.0,0.0\n")
    with pytest.raises(ValueError):
        load_boundary_unitary("1.0 0.0\n0.0 1.0\n")
    with pytest.raises(NotUnitaryError):
        load_boundary_unitary("2.0,0.0\n")


def test_boundary_unitary_from_phase_table():
    V = boundary_unitary_from_phases([0.0, 0.25, 0.5])
    np.testing.assert_allclose(
        np.diag(V.matrix), [1.0, 1j, -1.0], atol=1e-12
    )
    # round trip through the text form
    rows = "\n".join(
        " ".join(f"{v.real},{v.imag}" for v in row) for row in V.matrix
    )
    again = load_boundary_unitary(rows)
    np.testing.assert_allclose(again.matrix, V.matrix, atol=1e-12)
