"""The benchmark's oracles at tiny sizes.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import itertools

import numpy as np

from oracles import circle_min_modulus, cocycle_violation, cube_gram


def _midpoint_transform(delta, nodes=20000):
    """prod_j integral_0^1 exp(2 pi i delta_j x) dx by the midpoint rule."""
    x = (np.arange(nodes) + 0.5) / nodes
    return np.prod([np.mean(np.exp(2j * np.pi * d * x)) for d in delta])


def test_cube_gram_is_one_at_zero_and_vanishes_at_nonzero_integers():
    assert cube_gram([0.0, 0.0]) == 1.0
    for delta in ([1.0, 0.3], [0.25, -2.0], [3.0, 4.0], [-1.0, 0.0, 0.7]):
        assert abs(cube_gram(delta)) < 1e-15


def test_cube_gram_matches_quadrature():
    rng = np.random.default_rng(0)
    for delta in 4.0 * rng.standard_normal((5, 2)):
        assert abs(cube_gram(delta) - _midpoint_transform(delta)) < 1e-8


def test_cube_gram_keeps_precision_for_tiny_differences():
    d = 1e-9
    # e^{i pi d} sin(pi d) / (pi d) to second order
    series = (1.0 + 1j * np.pi * d) * (1.0 - (np.pi * d) ** 2 / 6.0)
    assert abs(cube_gram([d]) - series) < 1e-15


def test_cube_gram_broadcasts_over_rows():
    deltas = np.array([[0.5, 0.0], [1.0, 2.5], [0.2, 0.3]])
    rows = cube_gram(deltas)
    assert rows.shape == (3,)
    for delta, value in zip(deltas, rows):
        assert value == cube_gram(delta)


def _violation_by_loops(a, b):
    worst = 0.0
    for m, m2, n in itertools.product(range(len(b)), range(len(b)), range(len(a))):
        if m != m2:
            worst = max(worst, abs((b[m] - b[m2]) * (1 - a[n])))
    for n, n2, m in itertools.product(range(len(a)), range(len(a)), range(len(b))):
        if n != n2:
            worst = max(worst, abs((a[n] - a[n2]) * (1 - b[m])))
    return worst


def test_cocycle_violation_is_zero_when_one_sequence_is_one():
    rng = np.random.default_rng(1)
    generic = np.exp(2j * np.pi * rng.random(5))
    ones = np.ones(5, dtype=complex)
    assert cocycle_violation(ones, generic) == 0.0
    assert cocycle_violation(generic, ones) == 0.0


def test_cocycle_violation_matches_loops_on_a_perturbed_pair():
    rng = np.random.default_rng(2)
    a = np.ones(5, dtype=complex)
    a[2] = np.exp(2j * np.pi * 0.4)
    b = np.exp(2j * np.pi * rng.random(4))
    got = cocycle_violation(a, b)
    assert got > 0.1
    assert abs(got - _violation_by_loops(a, b)) < 1e-15


def test_circle_min_modulus_of_a_linear_factor():
    # |z - r e^{i phi}| on |z| = 1 is smallest at z = e^{i phi}: 1 - r
    for r, phi in ((0.5, 0.0), (0.9, 1.234), (1.3, -2.0)):
        root = r * np.exp(1j * phi)
        assert abs(circle_min_modulus([-root, 1.0]) - abs(1.0 - r)) < 1e-12


def test_circle_min_modulus_is_zero_for_a_root_on_the_circle():
    root = np.exp(1j * 0.123456789)
    assert circle_min_modulus([-root, 1.0], samples=4096) < 1e-9
