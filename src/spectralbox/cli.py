"""Config-driven batch runner.

Usage:
    spectralbox <command> --config <path> --out <dir> [--seed N]

Commands: verify-pair, build-spectrum, check-cocycle, simulate-groups,
check-tiling, diffraction, root-scan.  Exit status 0 when every verdict
in the run passes, 1 when some verdict fails, 2 on config or input errors
(reported as a single machine-parsable stderr line "error: <message>"),
3 on an internal error (one stderr line "internal error: <message>").

Config schema (YAML).  The whole config is checked when it loads, before
the output directory exists.  Unknown or duplicate keys are errors; so are
an integer field given a fractional or non-finite number, a non-finite
real, a list of the wrong length, a value below its bound and a missing
required key:

    command: verify-pair          # required, one of the seven commands
    seed: 0                       # optional; --seed overrides
    tolerances:                   # optional, all fields optional
      eq_tol: 1.0e-10             # closed-form identity tolerance
      num_tol: 1.0e-8             # quadrature/grid tolerance
      grid_n: 256                 # samples per axis
      quad_n: 2048                # >= 2; read by no command, only echoed
                                  #   in the report's tolerances line

    domain:                       # verify-pair; its dimension must equal
      kind: unit-cube             #   the spectrum's; or interval-union
      dimension: 2                # unit-cube only
      intervals: [[0, 1], [2, 4]] # interval-union only; finite endpoints
    spectrum:                     # verify-pair, build-spectrum, check-tiling
      family: class-a             # translated-lattice | class-a | class-b
                                  #   | tower | tower3d | explicit
      alpha: 0.25                 # class-a/class-b offset, in [0, 1)
      alpha_vector: [0.25, 0.5]   # translated-lattice only; any finite reals
      beta:  {default: 0.0, table: {"0": 0.2, "1": 0.5}}
      gamma: {default: 0.0, table: {"0,0": 0.3}}   # tower3d only
      levels:                     # tower only; level k takes k indices
        - {default: 0.25}
        - {default: 0.0, table: {"1": 0.5}}
        - {default: 0.0, table: {"1,2": 0.3}}
      points: [[0.0, 0.0]]        # explicit only; finite; needs no window
    window: {radius: 4}           # or ranges: [[-4, 4], [-4, 4]]; verify-pair
                                  #   on P points needs P^2 (176 + 16 d) <= 2^30 B

    class-a, class-b and tower3d are config spellings of one Tower,
    level k holding a table of k indices with values in [0, 1):
      class-a   levels [alpha, beta]: points (alpha+m, beta(m)+n)
      class-b   levels [alpha, beta] on swapped axes: (beta(n)+m, alpha+n)
      tower3d   levels [0, beta, gamma]: (k, beta(k)+l, gamma(k,l)+m)

    cocycle:                      # check-cocycle; tables hold phase
      a: {default: 0.0, table: {"0": 0.25}}        # fractions in [0, 1)
      b: {default: 0.0, table: {}}
      window: {radius: 8}         # at least two indices per axis, and
                                  #   M^2 N^2 <= 10^8 for an M x N window
                                  #   (the single-identity check's work)

    groups:                       # simulate-groups; a and b are phase
      a: {default: 0.0, table: {}}                 # tables as in cocycle,
      b: {default: 0.0, table: {"1": 0.3}}         #   fractions in [0, 1)
      phases: [0.0, 0.0]          # two reals
      window: {radius: 8}         # two indices per axis, 4096 modes at most
      grid_n: 64                  # >= the window width per axis; <= 819 with 5 times
      times: [0.125, 0.25, 0.375, 0.5, 0.625]   # each >= 0, on the 1/grid_n grid
      sub_radius: 2               # >= 0
      n_random: 4                 # >= 0
      leakage_tol: 1.0e-6         # >= 0; spectral-matrix truncation acknowledgment

    tiling:                       # check-tiling; verify-pair reads it too
                                  #   and uses window 4, resolution 32
                                  #   when the section is absent
      window: 4                   # >= 1 unit cubes per axis
      resolution: 64              # >= 8 samples per unit; at most 2^24
                                  #   samples, (window*resolution)^d

    diffraction:                  # diffraction
      components:                 # each needs a period
        - {period: 1.4142135623730951, cosine_amplitude: 0.1, harmonic: 1}
        - {period: 1.7320508075688772, coeffs: {"1": [0.025, 0.0], "-1": [0.025, 0.0]}}
      test_function: {center: [0.2, -0.1], widths: [0.9, 1.1]}   # two reals each
      lambda_window: 200          # >= 0; the direct sum has <= 2^22 terms
      k_radius: 12                # 0..2047; the density has <= 2^20 masses and
                                  #   <= 2^27 comb samples, 2 space_radius + 1 a mass

    rootscan:                     # root-scan; entries are re or [re, im]
      coefficients: [1, 0, 1, 1]  # at least one, all finite
      samples: 100000             # >= 16; 2 samples (degree + 1) <= 2^27

Artifacts written to the output directory: report.txt always; gram.txt,
spectrum.txt, multiplicity.txt, tiling.svg, diffraction.svg, density.txt,
commutator_sweep.csv per command.  Fixed config and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cocycles import (
    BoundaryEigenvalues,
    check_cocycle_2d,
    check_single_identity_2d,
    classify_2d,
    seam_twisted,
)
from .config import ConfigError, RunConfig, load_config
from .diffraction import (
    build_density,
    emit_diffraction_svg,
    eval_diffraction,
    eval_direct,
    height_radius,
)
from .exponentials import (
    PLATEAU_THRESHOLD,
    completeness_probe,
    eval_F_omega,
    gram_matrix,
    in_zero_set_cube_many,
    orthogonality_verdict,
    unit_circle_root_scan,
)
from .groups import (
    DiagonalBoundary,
    commutator_norm,
    default_probe_coefficients,
    eigenrelation_check,
    grid_group_action,
    group_action_grid,
    group_matrix_spectral,
    project_to_window,
    synthesize_window_state,
)
from .model import (
    SpectralBoxError,
    ToleranceConfig,
    UnitCube,
    enumerate_spectrum,
    spectrum_difference_set,
)
from .reporting import ReportBuilder, format_float
from .tiling import emit_tiling_svg, multiplicity_map, tiling_verdict

def _tolerance_line(tol: ToleranceConfig) -> str:
    return (
        f"eq_tol={format_float(tol.eq_tol)} "
        f"num_tol={format_float(tol.num_tol)} "
        f"grid_n={tol.grid_n} quad_n={tol.quad_n}"
    )


def _write_text(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text, encoding="utf-8")


# the left-justified, space-padded field of each dtype a table may hold: a
# float64 as format_float writes it, an int64 as str does.  Either text is
# at most 20 characters ("-1.234567890123e-308", "-9223372036854775808"),
# so a field this wide always ends in at least one padding space
_FIELD = 21
_FORMATS = {np.dtype(np.float64): f"%-{_FIELD}.12e", np.dtype(np.int64): f"%-{_FIELD}d"}


def _text_table(values: np.ndarray, seps: str) -> bytes:
    """Text of a float64 or int64 (rows, cols) table, one value a cell.

    seps[c] is the one character written after column c, so a row ends
    with seps[-1].  Values are grouped by bit pattern, which keeps -0.0
    and NaN apart from their look-alikes, and each distinct value is
    formatted once.  Its field is NUL-padded to the longest text plus
    one, so a separator may be a space; numpy places the texts in one
    byte buffer.
    """
    values = np.ascontiguousarray(values)
    fmt = _FORMATS[values.dtype]
    rows, cols = values.shape
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    text = (fmt * bits.size) % tuple(bits.view(values.dtype).tolist())
    fields = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _FIELD)
    lengths = np.argmax(fields == ord(" "), axis=1)
    fields = fields[:, : lengths.max() + 1]
    fields = fields * (fields != ord(" "))
    cells = np.take(fields, inverse, axis=0).reshape(rows, cols, -1)
    # the first padding NUL of each cell becomes its column's separator
    sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    np.put_along_axis(
        cells, np.take(lengths, inverse).reshape(rows, cols, 1), sep[None, :, None],
        axis=-1,
    )
    flat = cells.ravel()
    return flat[flat != 0].tobytes()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_build_spectrum(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    points = enumerate_spectrum(cfg.spectrum, cfg.window)
    seps = "\t" * (points.shape[1] - 1) + "\n"
    (outdir / "spectrum.txt").write_bytes(_text_table(points, seps))
    report.add(
        "model.enumerate_spectrum",
        "one point per window index tuple, family formula applied",
        True,
        [("points", points.shape[0]), ("dimension", points.shape[1])],
    )


def _cmd_verify_pair(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    tol = cfg.tolerances
    points = enumerate_spectrum(cfg.spectrum, cfg.window)
    gram = gram_matrix(cfg.domain, points)
    # the Gram as interleaved re/im columns: "re,im" entries, tab-separated
    seps = (",\t" * points.shape[0])[:-1] + "\n"
    entries = np.ascontiguousarray(gram.entries).view(np.float64)
    (outdir / "gram.txt").write_bytes(_text_table(entries, seps))

    orth = orthogonality_verdict(gram, tol.eq_tol)
    metrics = [
        ("points", orth.n_points),
        ("worst_offdiag", orth.worst_offdiag),
    ]
    notes = []
    if orth.witness is not None:
        a, b = orth.witness
        notes.append(
            "witness pair: ("
            + ", ".join(format_float(v) for v in a)
            + ") and ("
            + ", ".join(format_float(v) for v in b)
            + ")"
        )
    report.add(
        "exponentials.orthogonality_verdict",
        "gram(j,k) = box transform at point_k - point_j; off-diagonal zero test",
        orth.is_orthogonal,
        metrics,
        notes,
    )

    diffs = spectrum_difference_set(points)
    if cfg.domain == UnitCube(cfg.domain.dimension):
        ok = bool(
            np.all(in_zero_set_cube_many(cfg.domain.dimension, diffs, 1e-9))
        )
        identity = (
            "every difference of distinct points has a coordinate at a "
            "nonzero integer"
        )
    else:
        values = eval_F_omega(cfg.domain, diffs)
        ok = bool(np.all(np.abs(values) < tol.num_tol))
        identity = "domain transform vanishes on all differences of points"
    report.add(
        "exponentials.in_zero_set_cube",
        identity,
        bool(ok),
        [("differences", diffs.shape[0])],
    )

    if cfg.domain == UnitCube(2):
        n = min(cfg.tolerances.grid_n, 128)
        x = (np.arange(n) + 0.5) / n
        half = ((x[:, None] < 0.5) * np.ones((n, n))).astype(complex)
        const = np.ones((n, n), dtype=complex)
        comp = completeness_probe(
            cfg.domain, cfg.spectrum, cfg.window, [const, half]
        )
        # completeness is a ratio, never a verdict: the probe line is
        # informational and does not drive the exit status
        report.add(
            "exponentials.completeness_probe",
            "captured energy ratio sum |<e,f>|^2 / (|f|^2 measure) -> 1",
            True,
            [
                ("ratio_constant", comp.ratios[0]),
                ("ratio_half_indicator", comp.ratios[1]),
                (
                    "plateau_reached",
                    all(r > PLATEAU_THRESHOLD for r in comp.ratios),
                ),
            ],
            [
                "plateau threshold "
                f"{PLATEAU_THRESHOLD} is a heuristic; totality is a "
                "limit statement"
            ],
        )

        tiling = cfg.tiling or {"window": 4, "resolution": 32}
        verdict = tiling_verdict(
            multiplicity_map(cfg.spectrum, tiling["window"], tiling["resolution"])
        )
        report.add(
            "tiling.tiling_verdict",
            "translate multiplicity is one off cube faces (finite-torus "
            "surrogate for the full-space statement)",
            verdict.tiles,
            [
                ("overlap_fraction", verdict.overlap_fraction),
                ("gap_fraction", verdict.gap_fraction),
            ],
        )


def _cmd_check_cocycle(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    tol = cfg.tolerances
    eigs = BoundaryEigenvalues.from_pair(
        cfg.cocycle["a"], cfg.cocycle["b"], cfg.cocycle["window"]
    )
    rep = check_cocycle_2d(eigs, tol.eq_tol)
    notes = [
        f"witness ({kind}) m={m} n={n} shift={k} modulus={format_float(v)}"
        for kind, m, n, k, v in rep.witnesses
    ]
    report.add(
        "cocycles.check_cocycle_2d",
        "(b_m-b_{m+k})(1-a_n)=0 and (a_n-a_{n+l})(1-b_m)=0 on the window",
        rep.holds,
        [("max_violation", rep.max_violation)],
        notes,
    )
    single = check_single_identity_2d(eigs, tol.eq_tol)
    report.add(
        "cocycles.check_single_identity_2d",
        "(1-b_{m+k})(1-a_n) = (1-b_m)(1-a_{n+l}) on the window",
        single or not rep.holds,
        [("holds", single)],
    )
    try:
        label = classify_2d(eigs, tol.eq_tol).value
    except SpectralBoxError as exc:
        report.add(
            "cocycles.classify_2d",
            "one sequence constant one wherever the other moves",
            False,
            [("classification", "inconsistent")],
            [str(exc)],
        )
    else:
        report.add(
            "cocycles.classify_2d",
            "one sequence constant one wherever the other moves",
            True,
            [("classification", label)],
        )


def _cmd_simulate_groups(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    tol = cfg.tolerances
    g = cfg.groups
    eigs = BoundaryEigenvalues.from_pair(g["a"], g["b"], g["window"])
    phases = g["phases"]
    grid_n = g["grid_n"]
    rng = np.random.default_rng(cfg.seed)
    coeff_probes = default_probe_coefficients(
        g["window"], g["sub_radius"], g["n_random"], rng
    )
    probes = (
        synthesize_window_state(v, phases, g["window"], grid_n)
        for v in coeff_probes
    )
    bx = DiagonalBoundary(g["a"], shift=phases[1])
    by = DiagonalBoundary(g["b"], shift=phases[0])

    table = commutator_norm(
        grid_group_action(1, g["times"], bx),
        grid_group_action(2, g["times"], by),
        probes,
    )
    rows = ["s,t,commutator_norm"]
    for i, s in enumerate(g["times"]):
        for j, t in enumerate(g["times"]):
            val = table[i, j]
            rows.append(f"{format_float(s)},{format_float(t)},{format_float(val)}")
    _write_text(outdir, "commutator_sweep.csv", "\n".join(rows) + "\n")
    worst = float(table.max(initial=0.0))

    # the groups commute iff the pair twisted by the basis phases satisfies
    # the cocycle (the cocycles module docstring derives it)
    twisted = BoundaryEigenvalues.from_pair(
        seam_twisted(g["a"], phases[0]), seam_twisted(g["b"], phases[1]), g["window"]
    )
    cocycle_holds = check_cocycle_2d(twisted, tol.eq_tol).holds
    commuting = worst < 1e-6
    report.add(
        "groups.commutator_norm",
        "U_x(s) U_y(t) = U_y(t) U_x(s) over the sampled (s,t) grid",
        commuting == cocycle_holds,
        [
            ("max_commutator", worst),
            ("cocycle_holds", cocycle_holds),
            ("groups_commute", commuting),
        ],
        ["cross-oracle: grid commutator verdict must match the cocycle verdict"],
    )

    s0 = g["times"][0]
    op = group_matrix_spectral(
        1, s0, eigs, phases, grid_n=grid_n, leakage_tol=g["leakage_tol"]
    )
    mismatch = 0.0
    for vec in coeff_probes[: min(8, len(coeff_probes))]:
        state = synthesize_window_state(vec, phases, g["window"], grid_n)
        moved = group_action_grid(state, 1, s0, bx)
        proj = project_to_window(moved, phases, g["window"])
        denom = np.linalg.norm(vec)
        mismatch = max(mismatch, float(np.linalg.norm(op(vec) - proj) / denom))
    report.add(
        "groups.group_matrix_spectral",
        "shifted-mode matrix action equals the window projection of the "
        "exact grid action",
        mismatch < 10 * tol.num_tol,
        [("max_mismatch", mismatch), ("max_leakage", op.max_leakage)],
    )

    samples = [
        (s, m, n)
        for s in g["times"][:2]
        for (m, n) in ((0, 0), (1, -1), (-2, 2))
    ]
    eig = eigenrelation_check(bx, samples, grid_n)
    report.add(
        "groups.eigenrelation_check",
        "U_x(s) multiplies e_{m+phi(n)} x e_{n+beta} by "
        "exp(i*2*pi*(m+phi(n))*s)",
        eig.max_residual < tol.num_tol,
        [("max_residual", eig.max_residual), ("samples", len(samples))],
    )


def _cmd_check_tiling(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    torus_n = cfg.tiling["window"]
    res = cfg.tiling["resolution"]
    mp = multiplicity_map(cfg.spectrum, torus_n, res)
    verdict = tiling_verdict(mp)
    if cfg.spectrum.dimension == 2:
        seps = " " * (mp.counts.shape[1] - 1) + "\n"
        (outdir / "multiplicity.txt").write_bytes(_text_table(mp.counts, seps))
        emit_tiling_svg(cfg.spectrum, torus_n, outdir / "tiling.svg")
    report.add(
        "tiling.tiling_verdict",
        "translate multiplicity is one off cube faces (finite-torus "
        "surrogate for the full-space statement)",
        verdict.tiles,
        [
            ("overlap_fraction", verdict.overlap_fraction),
            ("gap_fraction", verdict.gap_fraction),
            ("excluded_face_samples", verdict.n_excluded),
        ],
    )


def _cmd_diffraction(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    d = cfg.diffraction
    model, test_fn = d["model"], d["test_function"]
    for warning in model.rational_ratio_warnings():
        report.note(warning)
    n_rad = height_radius(model, test_fn)
    direct = eval_direct(model, test_fn, d["lambda_window"])
    density = build_density(model, range(-n_rad, n_rad + 1), d["k_radius"])
    diffr = eval_diffraction(density, test_fn)
    rel = abs(direct - diffr) / max(abs(direct), 1e-300)
    order = density.sorted_order()
    c = density.weights[order]
    # a row per mass in (k, n) order; %.12e writes what format_float does
    row = ";".join(["%d"] * len(density.periods)) + ",%d,%.12e,%.12e"
    columns = (*density.harmonics[order].T.tolist(), density.heights[order].tolist())
    rows = [row % v for v in zip(*columns, c.real.tolist(), c.imag.tolist())]
    _write_text(outdir, "density.txt", "\n".join(["k,n,re,im", *rows]) + "\n")
    emit_diffraction_svg(density, outdir / "diffraction.svg")
    report.add(
        "diffraction.eval_direct/eval_diffraction",
        "sum of the test transform over the frequency set equals the "
        "weighted point-mass pairing",
        rel < 1e-3,
        [
            ("direct", direct),
            ("diffraction", diffr),
            ("relative_error", rel),
        ],
    )


def _cmd_root_scan(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    coeffs = cfg.rootscan["coefficients"]
    samples = cfg.rootscan["samples"]
    scan = unit_circle_root_scan(coeffs, samples)
    again = unit_circle_root_scan(coeffs, 2 * samples)
    stable = abs(scan.min_modulus - again.min_modulus) < 1e-6
    report.add(
        "exponentials.unit_circle_root_scan",
        "minimum of |p(z)| over |z| = 1 by coarse scan plus refinement",
        scan.min_modulus > cfg.tolerances.num_tol and stable,
        [
            ("min_modulus", scan.min_modulus),
            ("argmin_angle", scan.argmin_angle),
            ("samples", scan.samples),
            ("stable_across_resolutions", stable),
        ],
    )


_DISPATCH = {
    "build-spectrum": _cmd_build_spectrum,
    "verify-pair": _cmd_verify_pair,
    "check-cocycle": _cmd_check_cocycle,
    "simulate-groups": _cmd_simulate_groups,
    "check-tiling": _cmd_check_tiling,
    "diffraction": _cmd_diffraction,
    "root-scan": _cmd_root_scan,
}


def run(cfg: RunConfig, config_path: str, outdir: Path) -> int:
    """Execute one parsed run config; returns the process exit status."""
    outdir.mkdir(parents=True, exist_ok=True)
    report = ReportBuilder(
        command=cfg.command,
        config_path=config_path,
        seed=cfg.seed,
        tolerance_line=_tolerance_line(cfg.tolerances),
    )
    _DISPATCH[cfg.command](cfg, report, outdir)
    _write_text(outdir, "report.txt", report.render())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectralbox",
        description="config-driven checks for exponential bases, cocycles, "
        "induced groups, tilings and diffraction on box domains",
    )
    parser.add_argument("command", choices=sorted(_DISPATCH))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg.command != args.command:
            raise ConfigError(
                f"config declares command {cfg.command!r}, CLI asked for "
                f"{args.command!r}"
            )
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg, args.config, Path(args.out))
    except (SpectralBoxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, never a verdict: keep it off status 1
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
