"""verify-pair's zero set, read off the Gram's codes, against the dense set.

The dense reference is the check verify-pair first ran: every difference
of two distinct points from spectrum_difference_set, tested by
in_zero_set_cube_many on the unit cube and by |eval_F_omega| < num_tol on
any other domain.  The coded verdict must agree with it on every input.
"""

from pathlib import Path

import numpy as np
import pytest

from spectralbox import cli, exponentials, model
from spectralbox.cli import _in_zero_set, main
from spectralbox.exponentials import eval_F_omega, gram_matrix, in_zero_set_cube_many
from spectralbox.model import (
    Domain,
    IntervalUnion,
    UnitCube,
    spectrum_difference_set,
)
from test_exponentials import random_family_points, union_domain

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NUM_TOL = 1e-8


def dense_verdict(domain, pts, num_tol=NUM_TOL):
    diffs = spectrum_difference_set(pts)
    if domain == UnitCube(domain.dimension):
        return bool(np.all(in_zero_set_cube_many(domain.dimension, diffs, 1e-9)))
    return bool(np.all(np.abs(eval_F_omega(domain, diffs)) < num_tol))


def coded_verdict(domain, pts, num_tol=NUM_TOL):
    return _in_zero_set(domain, gram_matrix(domain, pts), num_tol)[1]


@pytest.mark.parametrize(
    "family, d, radius",
    [("class-a", 2, 4), ("class-b", 2, 4), ("tower", 1, 6), ("tower", 2, 3),
     ("tower", 3, 2), ("tower", 4, 1)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_families_and_moved_families_agree_with_the_dense_set(family, d, radius, seed):
    rng = np.random.default_rng([seed, d, radius, 7])
    pts = random_family_points(rng, family, d, radius)
    cube = UnitCube(pts.shape[1])
    assert coded_verdict(cube, pts) is dense_verdict(cube, pts) is True
    moved = pts.copy()
    moved[rng.integers(len(pts))] += rng.uniform(0.1, 0.9, size=pts.shape[1])
    assert coded_verdict(cube, moved) is dense_verdict(cube, moved) is False


def nudged_integer_points(seed):
    """Distinct integer points, some coordinates moved by 0.5e-9, and on
    odd seeds one coordinate by 2e-9: inside and outside the tolerance."""
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    pts = np.unique(rng.integers(-3, 4, size=(9, d)), axis=0).astype(float)
    pts += rng.choice([0.0, 0.5e-9], size=pts.shape)
    if seed % 2:
        pts[rng.integers(len(pts)), rng.integers(d)] += rng.choice([2e-9, -2e-9])
    return pts


def test_coordinates_near_integers_agree_with_the_dense_set():
    verdicts = []
    for seed in range(24):
        pts = nudged_integer_points(seed)
        cube = UnitCube(pts.shape[1])
        verdicts.append(dense_verdict(cube, pts))
        assert coded_verdict(cube, pts) is verdicts[-1], seed
    assert True in verdicts and False in verdicts


def test_the_tolerance_edge_is_the_dense_one():
    # one difference 0.5e-9 off the integer 1 passes, one 2e-9 off fails
    cube = UnitCube(1)
    inside = np.array([[0.0], [1.0 + 0.5e-9]])
    outside = np.array([[0.0], [1.0 + 2e-9]])
    assert coded_verdict(cube, inside) is dense_verdict(cube, inside) is True
    assert coded_verdict(cube, outside) is dense_verdict(cube, outside) is False


def test_signed_zeros_agree_with_the_dense_set():
    pts = np.array(
        [[0.0, 1.0], [-0.0, 2.0], [1.0, -0.0], [2.0, 0.0], [-0.0, -0.0], [3.0, 5.0]]
    )
    assert np.any(np.signbit(pts) & (pts == 0.0))
    # (0.0, 1.0) - (-0.0, -0.0) has the integer 1: every pair passes
    assert coded_verdict(UnitCube(2), pts) is dense_verdict(UnitCube(2), pts) is True
    # (0.0, 0.0) and (-0.0, -0.0) differ only in the sign of zero: a zero
    # difference, in no coordinate a nonzero integer
    both = np.array([[0.0, 0.0], [-0.0, -0.0]])
    assert coded_verdict(UnitCube(2), both) is dense_verdict(UnitCube(2), both) is False


@pytest.mark.parametrize("domain", [UnitCube(2), Domain((IntervalUnion(((0, 1), (2, 3))),) * 2)])
def test_a_duplicated_point_fails(domain):
    grid = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), -1).reshape(-1, 2)
    assert coded_verdict(domain, grid) is dense_verdict(domain, grid) is True
    twice = np.concatenate([grid, grid[4:5]])
    assert coded_verdict(domain, twice) is dense_verdict(domain, twice) is False


@pytest.mark.parametrize("domain", [UnitCube(3), Domain((IntervalUnion(((-1, 0.5),)),))])
def test_one_point_has_no_differences_and_passes(domain):
    pts = np.full((1, domain.dimension), 0.3)
    assert spectrum_difference_set(pts).shape == (0, domain.dimension)
    assert coded_verdict(domain, pts) is dense_verdict(domain, pts) is True


def test_interval_union_spectrum_and_its_tolerance_edge():
    # Z and Z + 1/4 on (0,1) u (2,3), the interval-union sample's set
    domain = Domain((IntervalUnion(((0.0, 1.0), (2.0, 3.0))),))
    m = np.arange(-6.0, 7.0)
    pts = np.sort(np.concatenate([m, m + 0.25]))[:, None]
    assert coded_verdict(domain, pts) is dense_verdict(domain, pts) is True
    # num_tol at the largest modulus fails (the test is strict), the next
    # float above it passes: the coded moduli are the dense ones, bit for bit
    worst = float(np.abs(eval_F_omega(domain, spectrum_difference_set(pts))).max())
    above = float(np.nextafter(worst, np.inf))
    assert coded_verdict(domain, pts, worst) is dense_verdict(domain, pts, worst) is False
    assert coded_verdict(domain, pts, above) is dense_verdict(domain, pts, above) is True


@pytest.mark.parametrize("seed", range(6))
def test_random_union_domains_agree_at_every_tolerance(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 2
    domain = union_domain(rng, d)
    pts = rng.choice(np.arange(-3.0, 3.5, 0.5), size=(15, d))
    moduli = np.abs(eval_F_omega(domain, spectrum_difference_set(pts)))
    for num_tol in (*np.quantile(moduli, [0.0, 0.5, 1.0]), np.nextafter(moduli.max(), np.inf)):
        assert coded_verdict(domain, pts, num_tol) is dense_verdict(domain, pts, num_tol)


def test_verify_pair_builds_no_difference_set(tmp_path, monkeypatch):
    # the zero set reads the Gram: neither dense routine may run
    def refuse(*args, **kwargs):
        raise AssertionError("dense routine called")

    for module, name in (
        (cli, "spectrum_difference_set"), (model, "spectrum_difference_set"),
        (cli, "eval_F_omega"), (exponentials, "eval_F_omega"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for sample, points in (
        ("verify_pair_class_a.yaml", 49), ("verify_pair_interval_union.yaml", 26)
    ):
        out = tmp_path / sample
        config = str(CONFIGS / sample)
        assert main(["verify-pair", "--config", config, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert f"differences: {points * (points - 1)}\n" in report
