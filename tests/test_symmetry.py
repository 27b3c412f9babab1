"""Symmetries of the cube that every verdict must respect.

Each relation checks the program against itself on transformed input, so
it needs no second implementation:

- an integer shift k of alpha + Z^d is the same set, and a
  translated-lattice config loads alpha and alpha + k to the same Tower,
  so build-spectrum, verify-pair and check-tiling write the same bytes;
- a reflection Lambda -> -Lambda conjugates every Gram entry, because
  F_Omega(-xi) is the conjugate of F_Omega(xi) on a real domain;
- class-b with the (alpha, beta) of a class-a set is that set with its
  axes swapped, and I^2 and its torus tiling are symmetric in the axes, so
  verify-pair and check-tiling give the same verdicts, worst_offdiag and
  fractions;
- a permutation sigma of a tower's output axes, applied to its axis_order
  and its window alike, permutes the point coordinates, the order of the
  rows, the multiplicity map's axes and the boundary eigenvalues, and
  changes no value.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from spectralbox.cli import main
from spectralbox.cocycles import BoundaryEigenvalues
from spectralbox.config import parse_config
from spectralbox.exponentials import gram_matrix
from spectralbox.model import (
    Domain,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    Tower,
    UnitCube,
    enumerate_spectrum,
)
from spectralbox.tiling import multiplicity_map, tiling_verdict, torus_translates

# the sections besides the spectrum that each command reads, in dimension d
SECTIONS = {
    "build-spectrum": lambda d: "window: {radius: 2}\n",
    "verify-pair": lambda d: (
        f"domain: {{kind: unit-cube, dimension: {d}}}\nwindow: {{radius: 2}}\n"
    ),
    "check-tiling": lambda d: "tiling: {window: 4, resolution: 16}\n",
}


def shifted_offsets(d):
    """A seeded alpha in [-3, 3)^d and alpha + k for a seeded k in Z^d.

    The entries are multiples of 2^-20, so alpha + k and the remainders
    mod 1 are exact in binary and the two loads can be compared bit for
    bit.
    """
    rng = np.random.default_rng(d)
    alpha = rng.integers(-3 * 2**20, 3 * 2**20, size=d) / 2**20
    k = rng.integers(1, 6, size=d) * rng.choice([-1, 1], size=d)
    return alpha, alpha + k


def lattice_text(command, alpha):
    # %.17e round-trips a float and keeps the '.' YAML needs to read a float
    vector = ", ".join(f"{a:.17e}" for a in alpha)
    return (
        f"command: {command}\nseed: 0\n"
        f"spectrum: {{family: translated-lattice, alpha_vector: [{vector}]}}\n"
        + SECTIONS[command](len(alpha))
    )


def artifacts(tmp_path, name, command, alpha):
    """Exit status and artifacts of one run; the report's config line names
    the config path and is left out."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(lattice_text(command, alpha), encoding="utf-8")
    out = tmp_path / name
    code = main([command, "--config", str(cfg), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["report.txt"] = [
        line for line in files["report.txt"].splitlines()
        if not line.startswith(b"config:")
    ]
    return code, files


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_integer_shift_of_a_lattice_loads_to_the_same_tower(d):
    alpha, shifted = shifted_offsets(d)
    spec = parse_config(lattice_text("build-spectrum", alpha)).spectrum
    assert spec == parse_config(lattice_text("build-spectrum", shifted)).spectrum


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("command", sorted(SECTIONS))
def test_an_integer_shift_of_a_lattice_keeps_every_artifact(tmp_path, command, d):
    alpha, shifted = shifted_offsets(d)
    code, files = artifacts(tmp_path, "alpha", command, alpha)
    assert code == 0
    assert (code, files) == artifacts(tmp_path, "shifted", command, shifted)


# I^2 and ((0, 1) u (2, 3)) x (0, 1)
REFLECTION_DOMAINS = [
    UnitCube(2),
    Domain((IntervalUnion(((0.0, 1.0), (2.0, 3.0))), IntervalUnion(((0.0, 1.0),)))),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("domain", REFLECTION_DOMAINS, ids=["square", "union"])
def test_a_reflection_conjugates_every_gram_entry(domain, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-4.0, 4.0, size=(300, 2))
    # a third on the quarter grid, so that some differences are integers
    points[:100] = np.round(points[:100] * 4.0) / 4.0
    gram = gram_matrix(domain, points).entries
    # equal values: a zero imaginary part may change its sign
    assert np.array_equal(gram_matrix(domain, -points).entries, np.conj(gram))


CLASS_A_SAMPLE = (
    Path(__file__).resolve().parent.parent / "configs" / "verify_pair_class_a.yaml"
)


def report_of(tmp_path, name, command, text):
    """Exit status and report lines of one run of the config text."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, (out / "report.txt").read_text(encoding="utf-8").splitlines()


def swapped_runs(tmp_path, command, text):
    """The runs of the class-a text and of its class-b twin."""
    assert text.count("family: class-a") == 1
    swapped = text.replace("family: class-a", "family: class-b")
    return (
        report_of(tmp_path, "class_a", command, text),
        report_of(tmp_path, "class_b", command, swapped),
    )


def fields(lines, *names):
    return [line for line in lines if line.strip().split(":")[0] in names]


def test_class_b_is_class_a_with_its_axes_swapped_under_verify_pair(tmp_path):
    text = CLASS_A_SAMPLE.read_text(encoding="utf-8")
    (code_a, a), (code_b, b) = swapped_runs(tmp_path, "verify-pair", text)
    assert code_a == code_b == 0
    assert fields(a, "verdict") == fields(b, "verdict") == ["  verdict: PASS"] * 4
    assert fields(a, "worst_offdiag") == fields(b, "worst_offdiag")
    assert fields(a, "worst_offdiag") == ["  worst_offdiag: 3.216976900108e-16"]


def test_class_b_is_class_a_with_its_axes_swapped_under_check_tiling(tmp_path):
    # the sample's spectrum and tiling sections, as a check-tiling config
    kept = [
        line for line in CLASS_A_SAMPLE.read_text(encoding="utf-8").splitlines()
        if not line.startswith(("domain:", "window:"))
    ]
    text = "\n".join(kept).replace("command: verify-pair", "command: check-tiling")
    (code_a, a), (code_b, b) = swapped_runs(tmp_path, "check-tiling", text + "\n")
    assert code_a == code_b == 0
    names = ("verdict", "overlap_fraction", "gap_fraction")
    assert fields(a, *names) == fields(b, *names)
    assert len(fields(a, *names)) == 3


def seeded_tower(rng, d, offset):
    """A d-level tower of seeded axis order whose tables hold keys in
    [-3, 3]^j, inside the windows below and outside them."""
    levels = [IntFunction.constant(offset)]
    for j in range(1, d):
        keys = itertools.product(range(-3, 4), repeat=j)
        levels.append(IntFunction(
            j, float(rng.random()), {k: float(rng.random()) for k in keys}
        ))
    return Tower(tuple(levels), tuple(int(a) for a in rng.permutation(d)))


def permuted(tower, sigma):
    """The tower with output axis a moved to sigma[a]."""
    return Tower(tower.levels, tuple(sigma[a] for a in tower.axis_order))


def moved_rows(points, sizes, sigma):
    """Box points of the given shape with axis and coordinate a moved to
    sigma[a], in the row-major order of the permuted box."""
    inv = np.argsort(sigma)
    grid = points.reshape(*sizes, len(sizes))
    return np.transpose(grid, [*inv, len(sizes)])[..., inv].reshape(-1, len(sizes))


@pytest.mark.parametrize("d, torus_n, resolution", [(2, 4, 16), (3, 3, 8)])
def test_a_permutation_of_a_towers_axes_permutes_every_result(d, torus_n, resolution):
    rng = np.random.default_rng(d)
    tower = seeded_tower(rng, d, 0.25)
    ranges = tuple((lo, lo + int(rng.integers(1, 5))) for lo in rng.integers(-3, 2, d))
    window = LatticeWindow(ranges)
    sizes = [hi - lo + 1 for lo, hi in ranges]
    points = enumerate_spectrum(tower, window)
    translates = torus_translates(tower, torus_n)
    mp = multiplicity_map(tower, torus_n, resolution)
    verdict = tiling_verdict(mp)
    flat = Tower((IntFunction.constant(0.0),) + tower.levels[1:], tower.axis_order)
    eigs = BoundaryEigenvalues.from_tower(flat, window)
    for sigma in itertools.permutations(range(d)):
        inv = tuple(int(a) for a in np.argsort(sigma))
        moved = permuted(tower, sigma)
        moved_window = LatticeWindow(tuple(ranges[a] for a in inv))
        assert np.array_equal(
            enumerate_spectrum(moved, moved_window), moved_rows(points, sizes, sigma)
        )
        assert np.array_equal(
            torus_translates(moved, torus_n),
            moved_rows(translates, [torus_n + 2] * d, sigma),
        )
        moved_mp = multiplicity_map(moved, torus_n, resolution)
        assert np.array_equal(moved_mp.counts, np.transpose(mp.counts, inv))
        assert np.array_equal(moved_mp.face_mask, np.transpose(mp.face_mask, inv))
        assert tiling_verdict(moved_mp) == verdict
        moved_eigs = BoundaryEigenvalues.from_tower(permuted(flat, sigma), moved_window)
        for a in range(d):
            assert np.array_equal(
                moved_eigs.values[sigma[a]], np.transpose(eigs.values[a], inv)
            )
