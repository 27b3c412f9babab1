"""Seeded workloads for spectralbox.cli and the checks on their outputs.

A workload is a round of jobs.  Every job is one CLI command on one
config; the benchmark repeats the round until the run time is used up, so
every run attempts whole rounds.  All sizes below are fixed; the seed only
draws the tables, phases and coefficients, so the work per job does not
depend on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import circle_min_modulus, cocycle_violation, cube_gram

EQ_TOL = 1e-10  # the program's default eq_tol; cocycle verdicts use it

# groups-sweep: the size of acceptance criterion 03
GROUPS_RADIUS = 8
GROUPS_GRID_N = 64
GROUPS_TIMES = [0.125, 0.25, 0.375, 0.5, 0.625]
GROUPS_SUB_RADIUS = 4
GROUPS_N_RANDOM = 10
# generic sequences lose column mass when truncated to the window; the
# spectral-matrix check refuses to truncate unless this acknowledges it
GROUPS_LEAKAGE_TOL = 1.0

# command-mix
VERIFY_RADIUS = 8  # 17 x 17 = 289 points
VERIFY_TORUS, VERIFY_RESOLUTION = 4, 32
GRAM_SAMPLES = 48
COCYCLE_RADIUS = 32  # both pairs, so that peak RSS does not depend on the seed
TILING3D_TORUS, TILING3D_RESOLUTION = 4, 16
TILING2D_TORUS, TILING2D_RESOLUTION = 8, 64
DIFFRACTION_LAMBDA_WINDOW, DIFFRACTION_K_RADIUS = 400, 16
ROOTSCAN_SAMPLES, ROOTSCAN_DEGREE = 1_000_000, 6
BUILD_RADIUS = 14  # a 29^3 window of a three-level staircase


@dataclass(frozen=True)
class Job:
    """One CLI run: its command, config, expected status and output check.

    `check` takes the output directory and returns the problems it finds,
    an empty list when every output is right.
    """

    name: str
    command: str
    config: dict
    status: int
    check: Callable[[Path], list]

    def write_config(self, path: Path) -> None:
        path.write_text(json.dumps(self.config, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def parse_report(text: str) -> dict:
    """report.txt as {op: {field: value}} with the verdict as a field."""
    checks: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[check] op="):
            current = checks.setdefault(line[len("[check] op="):], {})
        elif current is not None and line.startswith("  ") and ": " in line:
            key, value = line.strip().split(": ", 1)
            if key != "note":
                current[key] = value
    return checks


def _report(out: Path) -> dict:
    return parse_report((out / "report.txt").read_text(encoding="utf-8"))


def _phase_table(rng: np.random.Generator, indices) -> dict:
    return {str(k): float(rng.random()) for k in indices}


def _random_function(rng: np.random.Generator, indices) -> dict:
    """Config form of a phase table over `indices` plus a random default."""
    return {"default": float(rng.random()), "table": _phase_table(rng, indices)}


def _lookup(section: dict, keys) -> np.ndarray:
    """Values of a config table at the given (stringified) keys."""
    table, default = section.get("table", {}), section.get("default", 0.0)
    return np.array([table.get(str(k), default) for k in keys], dtype=float)


def _unit(phases: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * phases)


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _close(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, oracle {want!r} (tol {tol})")


# ---------------------------------------------------------------------------
# groups-sweep
# ---------------------------------------------------------------------------


def _sequence_pair(rng: np.random.Generator, radius: int, commuting: bool):
    """Eigenvalue phase tables (a, b): one of them identically one.

    A perturbed pair moves the constant sequence at one index near the
    window centre, so both sequences move and the cocycle fails.
    """
    indices = range(-radius, radius + 1)
    one = {"default": 0.0, "table": {}}
    generic = _random_function(rng, indices)
    a_is_one = bool(rng.integers(2))
    if not commuting:
        n0 = int(rng.integers(-3, 4))
        one = {"default": 0.0, "table": {str(n0): 0.15 + 0.6 * float(rng.random())}}
    return (one, generic) if a_is_one else (generic, one)


def _cocycle_oracle(a: dict, b: dict, radius: int) -> float:
    keys = range(-radius, radius + 1)
    return cocycle_violation(_unit(_lookup(a, keys)), _unit(_lookup(b, keys)))


def _groups_job(rng: np.random.Generator, seed: int, commuting: bool) -> Job:
    a, b = _sequence_pair(rng, GROUPS_RADIUS, commuting)
    config = {
        "command": "simulate-groups",
        "seed": seed,
        "groups": {
            "a": a,
            "b": b,
            "phases": [0.0, 0.0],
            "window": {"radius": GROUPS_RADIUS},
            "grid_n": GROUPS_GRID_N,
            "times": GROUPS_TIMES,
            "sub_radius": GROUPS_SUB_RADIUS,
            "n_random": GROUPS_N_RANDOM,
            "leakage_tol": GROUPS_LEAKAGE_TOL,
        },
    }
    label = "true" if commuting else "false"

    def check(out: Path) -> list:
        problems: list = []
        line = _report(out)["groups.commutator_norm"]
        _expect(problems, "cocycle_holds", line.get("cocycle_holds"), label)
        _expect(problems, "groups_commute", line.get("groups_commute"), label)
        oracle_holds = _cocycle_oracle(a, b, GROUPS_RADIUS) < EQ_TOL
        _expect(problems, "cocycle oracle", oracle_holds, commuting)
        rows = (out / "commutator_sweep.csv").read_text().splitlines()[1:]
        norms = [float(row.split(",")[2]) for row in rows]
        _expect(problems, "sweep rows", len(norms), len(GROUPS_TIMES) ** 2)
        if commuting and max(norms) >= 1e-6:
            problems.append(f"commuting pair has a commutator {max(norms)!r} >= 1e-6")
        if not commuting and max(norms) <= 1e-6:
            problems.append("perturbed pair has every commutator <= 1e-6")
        return problems

    name = "commuting" if commuting else "perturbed"
    return Job(f"simulate-groups/{name}", "simulate-groups", config, 0, check)


def groups_sweep(seed: int) -> list:
    rng = np.random.default_rng([1, seed])
    return [_groups_job(rng, seed, commuting) for commuting in (True, False)]


# ---------------------------------------------------------------------------
# command-mix
# ---------------------------------------------------------------------------


def _staircase(rng: np.random.Generator, family: str, radius: int):
    """A randomly tabled planar staircase: its config and its points.

    The points are enumerated here, in the program's lexicographic window
    order, so that the Gram oracle does not depend on the program.
    """
    idx = np.arange(-radius, radius + 1)
    first, second = (g.ravel() for g in np.meshgrid(idx, idx, indexing="ij"))
    alpha = float(rng.random())
    beta = _random_function(rng, idx)
    if family == "class-b":
        spectrum = {"family": "class-b", "alpha": alpha, "beta": beta}
        points = np.column_stack([_lookup(beta, second) + first, alpha + second])
    else:
        if family == "class-a":
            spectrum = {"family": "class-a", "alpha": alpha, "beta": beta}
        else:
            spectrum = {"family": "tower", "levels": [{"default": alpha}, beta]}
        points = np.column_stack([alpha + first, _lookup(beta, first) + second])
    return spectrum, points


def _gram_entry(lines: list, j: int, k: int) -> complex:
    re, im = lines[j].split("\t")[k].split(",")
    return complex(float(re), float(im))


def _check_verify(out: Path, points: np.ndarray, moved, sample_seed: int) -> list:
    problems: list = []
    report = _report(out)
    orth = report["exponentials.orthogonality_verdict"]
    _expect(problems, "points", int(orth["points"]), len(points))

    lines = (out / "gram.txt").read_text(encoding="utf-8").split("\n")
    _expect(problems, "gram.txt rows", len(lines), len(points) + 1)
    rng = np.random.default_rng(sample_seed)
    pairs = rng.integers(len(points), size=(GRAM_SAMPLES, 2))
    if moved is not None:
        pairs[: GRAM_SAMPLES // 2, 0] = moved
    for j, k in pairs:
        want = complex(cube_gram(points[k] - points[j]))
        got = _gram_entry(lines, j, k)
        if not abs(got - want) <= 1e-12:
            problems.append(f"gram[{j},{k}] = {got!r}, closed form {want!r}")
            break

    if moved is None:
        for op in (
            "exponentials.orthogonality_verdict",
            "exponentials.in_zero_set_cube",
            "tiling.tiling_verdict",
        ):
            _expect(problems, f"{op} verdict", report[op]["verdict"], "PASS")
        tiling = report["tiling.tiling_verdict"]
        for field in ("overlap_fraction", "gap_fraction"):
            _expect(problems, field, float(tiling[field]), 0.0)
        probe = report["exponentials.completeness_probe"]
        for field in ("ratio_constant", "ratio_half_indicator"):
            ratio = float(probe[field])
            if not 0.0 < ratio <= 1.0 + 1e-9:
                problems.append(f"{field} = {ratio!r} outside (0, 1 + 1e-9]")
    else:
        _expect(problems, "orthogonality verdict", orth["verdict"], "FAIL")
        others = np.delete(points, moved, axis=0)
        want = float(np.abs(cube_gram(others - points[moved])).max())
        _close(problems, "worst_offdiag", float(orth["worst_offdiag"]), want, 1e-12)
    return problems


def _verify_job(rng, seed: int, family: str, perturbed: bool = False) -> Job:
    spectrum, points = _staircase(rng, family, VERIFY_RADIUS)
    sample_seed = int(rng.integers(2**32))
    moved = None
    if perturbed:
        moved = int(rng.integers(len(points)))
        points = points.copy()
        points[moved] += 0.1 + 0.8 * rng.random(2)  # generic, never an integer
        spectrum = {"family": "explicit", "points": points.tolist()}
    config = {
        "command": "verify-pair",
        "seed": seed,
        "domain": {"kind": "unit-cube", "dimension": 2},
        "spectrum": spectrum,
        "window": {"radius": VERIFY_RADIUS},
        "tiling": {"window": VERIFY_TORUS, "resolution": VERIFY_RESOLUTION},
    }
    name = f"verify-pair/{family}" + ("-moved" if perturbed else "")

    def check(out: Path) -> list:
        return _check_verify(out, points, moved, sample_seed)

    return Job(name, "verify-pair", config, 1 if perturbed else 0, check)


def _cocycle_job(rng, seed: int, commuting: bool) -> Job:
    name = "commuting" if commuting else "perturbed"
    radius = COCYCLE_RADIUS
    a, b = _sequence_pair(rng, radius, commuting)
    config = {
        "command": "check-cocycle",
        "seed": seed,
        "cocycle": {"a": a, "b": b, "window": {"radius": radius}},
    }
    if not commuting:
        label = "non-commuting"
    else:
        label = "class-i" if not a["table"] and a["default"] == 0.0 else "class-ii"

    def check(out: Path) -> list:
        problems: list = []
        report = _report(out)
        oracle = _cocycle_oracle(a, b, radius)
        _expect(problems, "cocycle oracle", oracle < EQ_TOL, commuting)
        line = report["cocycles.check_cocycle_2d"]
        _expect(problems, "cocycle verdict", line["verdict"], "PASS" if commuting else "FAIL")
        _close(problems, "max_violation", float(line["max_violation"]), oracle, 1e-12)
        _expect(problems, "classification",
                report["cocycles.classify_2d"]["classification"], label)
        _expect(problems, "single identity verdict",
                report["cocycles.check_single_identity_2d"]["verdict"], "PASS")
        return problems

    return Job(f"check-cocycle/{name}", "check-cocycle", config, 0 if commuting else 1, check)


def _check_tiles(problems: list, report: dict) -> None:
    line = report["tiling.tiling_verdict"]
    _expect(problems, "tiling verdict", line["verdict"], "PASS")
    for field in ("overlap_fraction", "gap_fraction"):
        _expect(problems, field, float(line[field]), 0.0)


def _tiling3d_job(rng, seed: int) -> Job:
    torus = range(TILING3D_TORUS)
    config = {
        "command": "check-tiling",
        "seed": seed,
        "spectrum": {
            "family": "tower3d",
            "beta": _random_function(rng, torus),
            "gamma": _random_function(rng, [f"{k},{l}" for k in torus for l in torus]),
        },
        "tiling": {"window": TILING3D_TORUS, "resolution": TILING3D_RESOLUTION},
    }

    def check(out: Path) -> list:
        problems: list = []
        _check_tiles(problems, _report(out))
        return problems

    return Job("check-tiling/tower3d", "check-tiling", config, 0, check)


def _tiling2d_job(rng, seed: int) -> Job:
    n, res = TILING2D_TORUS, TILING2D_RESOLUTION
    config = {
        "command": "check-tiling",
        "seed": seed,
        "spectrum": {
            "family": "class-b",
            "alpha": float(rng.random()),
            "beta": _random_function(rng, range(n)),
        },
        "tiling": {"window": n, "resolution": res},
    }

    def check(out: Path) -> list:
        problems: list = []
        _check_tiles(problems, _report(out))
        counts = np.array(
            (out / "multiplicity.txt").read_text().split(), dtype=np.int64
        )
        # n^2 unit squares per torus period cover every sample exactly once
        _expect(problems, "multiplicity samples", counts.size, (n * res) ** 2)
        _expect(problems, "multiplicity sum", int(counts.sum()), n * n * res * res)
        if not (out / "tiling.svg").is_file():
            problems.append("tiling.svg missing")
        return problems

    return Job("check-tiling/class-b", "check-tiling", config, 0, check)


def _diffraction_job(rng, seed: int) -> Job:
    c = 0.01 + 0.02 * float(rng.random())
    config = {
        "command": "diffraction",
        "seed": seed,
        "diffraction": {
            "components": [
                {
                    "period": math.sqrt(2.0) * (1.0 + 0.1 * float(rng.random())),
                    "cosine_amplitude": 0.05 + 0.1 * float(rng.random()),
                    "harmonic": 1,
                },
                {
                    "period": math.sqrt(3.0) * (1.0 + 0.1 * float(rng.random())),
                    "coeffs": {"1": [c, 0.0], "-1": [c, 0.0]},
                },
            ],
            "test_function": {
                "center": [float(v) for v in 0.6 * rng.random(2) - 0.3],
                "widths": [float(v) for v in 0.9 + 0.2 * rng.random(2)],
            },
            "lambda_window": DIFFRACTION_LAMBDA_WINDOW,
            "k_radius": DIFFRACTION_K_RADIUS,
        },
    }

    def check(out: Path) -> list:
        problems: list = []
        line = _report(out)["diffraction.eval_direct/eval_diffraction"]
        _expect(problems, "diffraction verdict", line["verdict"], "PASS")
        if not float(line["relative_error"]) < 1e-3:
            problems.append(f"relative_error {line['relative_error']} >= 1e-3")
        if not (out / "diffraction.svg").is_file():
            problems.append("diffraction.svg missing")
        return problems

    return Job("diffraction/two-component", "diffraction", config, 0, check)


def _rootscan_job(rng, seed: int) -> Job:
    # |c_0| = 1 exceeds the sum of the other moduli (0.9), so p has no root
    # on the circle and its minimum there is at least 0.1
    raw = rng.standard_normal((ROOTSCAN_DEGREE, 2)) @ np.array([1.0, 1j])
    tail = 0.9 * raw / np.abs(raw).sum()
    coefficients = np.concatenate([[np.exp(2j * np.pi * rng.random())], tail])
    config = {
        "command": "root-scan",
        "seed": seed,
        "rootscan": {
            "coefficients": [[float(c.real), float(c.imag)] for c in coefficients],
            "samples": ROOTSCAN_SAMPLES,
        },
    }

    def check(out: Path) -> list:
        problems: list = []
        line = _report(out)["exponentials.unit_circle_root_scan"]
        _expect(problems, "root-scan verdict", line["verdict"], "PASS")
        _close(problems, "min_modulus", float(line["min_modulus"]),
               circle_min_modulus(coefficients), 1e-6)
        return problems

    return Job("root-scan/degree-6", "root-scan", config, 0, check)


def _build_job(rng, seed: int) -> Job:
    idx = np.arange(-BUILD_RADIUS, BUILD_RADIUS + 1)
    k1, k2, k3 = (g.ravel() for g in np.meshgrid(idx, idx, idx, indexing="ij"))
    level0 = float(rng.random())
    level1 = _random_function(rng, idx)
    pair_keys = [f"{i},{j}" for i in idx for j in idx]
    level2 = _random_function(rng, pair_keys)
    config = {
        "command": "build-spectrum",
        "seed": seed,
        "spectrum": {"family": "tower", "levels": [{"default": level0}, level1, level2]},
        "window": {"radius": BUILD_RADIUS},
    }
    points = np.column_stack([
        level0 + k1,
        _lookup(level1, k1) + k2,
        _lookup(level2, [f"{i},{j}" for i, j in zip(k1, k2)]) + k3,
    ])

    def check(out: Path) -> list:
        problems: list = []
        text = (out / "spectrum.txt").read_text()
        got = np.array(text.split(), dtype=float)
        if got.size != points.size:
            return [f"spectrum.txt has {got.size} values, expected {points.size}"]
        got = got.reshape(points.shape)
        _expect(problems, "distinct points", len(np.unique(got, axis=0)), len(points))
        _close(problems, "max point error", float(np.abs(got - points).max()), 0.0, 1e-10)
        return problems

    return Job("build-spectrum/tower", "build-spectrum", config, 0, check)


def command_mix(seed: int) -> list:
    rng = np.random.default_rng([2, seed])
    return [
        _cocycle_job(rng, seed, commuting=True),
        _verify_job(rng, seed, "class-a"),
        _tiling3d_job(rng, seed),
        _diffraction_job(rng, seed),
        _verify_job(rng, seed, "class-b"),
        _rootscan_job(rng, seed),
        _build_job(rng, seed),
        _verify_job(rng, seed, "tower"),
        _cocycle_job(rng, seed, commuting=False),
        _tiling2d_job(rng, seed),
        _verify_job(rng, seed, "class-a", perturbed=True),
    ]


WORKLOADS = {
    "groups-sweep": groups_sweep,
    "command-mix": command_mix,
}
