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
a section the command does not read, a key of another spectrum family, a
window with both or neither of radius and ranges, an integer field given a
fractional or non-finite number, a non-finite real, a list of the wrong
length, a value below its bound and a missing required key or section.
Each command reads these sections, the required ones before the
semicolon, and the tolerances after the bar; every command also takes
command and seed, and a command that reads a tolerance takes a
tolerances section:

    verify-pair       domain, spectrum, window; tiling | eq_tol, num_tol
    build-spectrum    spectrum, window
    check-cocycle     cocycle | eq_tol
    simulate-groups   groups | eq_tol, num_tol
    check-tiling      spectrum, tiling
    diffraction       diffraction
    root-scan         rootscan | num_tol

An explicit spectrum needs no window.  The sections:

    command: verify-pair          # required, one of the seven commands
    seed: 0                       # optional; --seed overrides
    tolerances:                   # only the command's (table above), each > 0
      eq_tol: 1.0e-10             # closed-form identity tolerance
      num_tol: 1.0e-8             # quadrature/grid tolerance

    domain:                       # its dimension must equal the spectrum's
      kind: unit-cube             # or interval-union
      dimension: 2                # unit-cube only
      intervals: [[0, 1], [2, 4]] # interval-union only; finite endpoints
    spectrum:                     # a family takes only its own keys:
      family: class-a             #   translated-lattice: alpha or alpha_vector
                                  #   class-a, class-b: alpha, beta
                                  #   tower: levels; tower3d: beta, gamma
                                  #   explicit: points
      alpha: 0.25                 # class-a/class-b offset, in [0, 1); a
                                  #   translated-lattice's one-axis offset
      alpha_vector: [0.25, 0.5]   # translated-lattice; any finite reals, at
                                  #   least one
      beta:  {default: 0.0, table: {"0": 0.2, "1": 0.5}}
      gamma: {default: 0.0, table: {"0,0": 0.3}}
      levels:                     # level k takes k indices
        - {default: 0.25}
        - {default: 0.0, table: {"1": 0.5}}
        - {default: 0.0, table: {"1,2": 0.3}}
      points: [[0.0, 0.0]]        # finite
    window: {radius: 4}           # or ranges: [[-4, 4], [-4, 4]], not both; verify-
                                  #   pair on P points needs P^2 (192 + 48 d) <= 2^30 B,
                                  #   its Gram's measured peak (gram.txt is
                                  #   written in blocks of rows)

    translated-lattice, class-a, class-b and tower3d are config spellings
    of one Tower, level k holding a table of k indices with values in
    [0, 1):
      translated-lattice
                constant levels [alpha_0 mod 1, ..., alpha_{d-1} mod 1]:
                points k + (alpha mod 1), the set alpha + Z^d
      class-a   levels [alpha, beta]: points (alpha+m, beta(m)+n)
      class-b   levels [alpha, beta] on swapped axes: (beta(n)+m, alpha+n)
      tower3d   levels [0, beta, gamma]: (k, beta(k)+l, gamma(k,l)+m)

    cocycle:                      # tables hold phase fractions in [0, 1)
      a: {default: 0.0, table: {"0": 0.25}}
      b: {default: 0.0, table: {}}
      window: {radius: 8}         # as above; at least two indices per axis, and
                                  #   M^2 N^2 <= 10^8 for an M x N window
                                  #   (the single-identity check's work)

    groups:                       # a and b are phase tables as in cocycle,
      a: {default: 0.0, table: {}}                 #   fractions in [0, 1)
      b: {default: 0.0, table: {"1": 0.3}}
      phases: [0.0, 0.0]          # two reals
      window: {radius: 8}         # two indices per axis, 4096 modes at most
      grid_n: 64                  # >= the window width per axis; <= 640 with these times
      times: [0.125, 0.25, 0.375, 0.5, 0.625]   # each >= 0, on the 1/grid_n grid;
                                  #   the first, the spectral check's, <= 1
      sub_radius: 2               # >= 0; the window modes with |m|, |n| <=
      n_random: 4                 #   sub_radius and n_random >= 0 random
                                  #   states are the probes, at least one
      leakage_tol: 1.0e-6         # >= 0; spectral-matrix truncation acknowledgment

    tiling:                       # verify-pair: a 2-D unit cube only, where an
                                  #   absent section takes these defaults
      window: 4                   # >= 1 unit cubes per axis
      resolution: 64              # >= 8 samples per unit; at most 2^24
                                  #   samples, (window*resolution)^d

    diffraction:
      components:                 # each needs a period
        - {period: 1.4142135623730951, cosine_amplitude: 0.1, harmonic: 1}
        - {period: 1.7320508075688772, coeffs: {"1": [0.025, 0.0], "-1": [0.025, 0.0]}}
      test_function: {center: [0.2, -0.1], widths: [0.9, 1.1]}   # two reals each
      lambda_window: 200          # >= 0; the direct sum has <= 2^22 terms
      k_radius: 12                # 0..2047; the density has <= 2^20 masses and
                                  #   <= 2^27 comb samples, 2 space_radius + 1 a mass

    rootscan:
      coefficients: [1, 0, 1, 1]  # at least one, all finite; re or [re, im]
      samples: 100000             # >= 16; 2 samples (degree + 1) <= 2^27

Artifacts written to the output directory: report.txt always; gram.txt,
spectrum.txt, multiplicity.txt, tiling.svg, diffraction.svg, density.txt,
commutator_sweep.csv per command; the five tables are written in blocks
of rows by one writer.  They appear only when a run completes: a run that
exits 2 or 3 leaves no output directory and changes no file in one.  Fixed
config and seed give byte-identical outputs.  check-cocycle classifies a
pair, constant pairs included, from its two sequences alone, an oracle
beside the shift identities; simulate-groups hands one seam-twisted pair
to its cocycle cross-oracle and to group_matrix_spectral.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .cocycles import (
    BoundaryEigenvalues,
    Classification,
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
    gram_matrix,
    in_zero_set_cube_many,
    orthogonality_verdict,
    unit_circle_root_scan,
)
from .groups import (
    MAX_SPECTRAL_PROBES,
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
from .model import SpectralBoxError, UnitCube, enumerate_spectrum
from .model import group_bits, group_codes
from .reporting import ReportBuilder, format_float
from .tiling import emit_tiling_svg, multiplicity_map, tiling_verdict

# no command calls these two, but perfbench/spans.py wraps them by their
# names in this module, so the names stay bound
from .exponentials import eval_F_omega  # noqa: F401
from .model import spectrum_difference_set  # noqa: F401


# cells a block of rows holds at most, unless a single row is wider: the
# writer holds one block's codes, cells and text at a time
_BLOCK_CELLS = 1 << 16
# 10^0 .. 10^22, every one exact in float64
_EXACT_POW10 = np.array([float(10**j) for j in range(23)])


def _write_table(sink, tables: tuple, index: np.ndarray, seps: str) -> None:
    """Write the rows that index, (rows, k), picks of the nonempty float64
    or int64 tables, which share their first axis, to sink, one value a
    cell, as '%.12e' or '%d' writes it.

    A row's columns are the trailing axes of each table, flattened, one
    table after another; seps[c] is the one character written after column
    c, so a row ends with seps[-1].  group_bits groups a float table's
    magnitudes, group_codes an int table's values less its minimum, and
    each group is formatted once into one field: for floats a sign slot,
    its text, NULs up to the longest text of any table, and a separator
    slot.  The rows go to sink in blocks of _BLOCK_CELLS cells: a block
    gathers each table's fields, fills the slots of each cell, and drops
    the NULs.  The writer holds the fields, codes and one block.
    """
    groups = []
    for table in map(np.ascontiguousarray, tables):
        if table.dtype == np.float64:
            mags, inverse = group_bits(np.abs(table))
            # a sign slot, then the magnitude's text, formatted a block's
            # worth at a time so that the formatter's temporaries stay small
            texts = np.zeros((mags.size, 20), dtype=np.uint8)
            for start in range(0, mags.size, _BLOCK_CELLS):
                texts[start : start + _BLOCK_CELLS, 1:] = _float_texts(
                    mags[start : start + _BLOCK_CELLS]
                )
            # each value's sign byte; '%' prints no sign for NaN
            signs = (np.signbit(table) & ~np.isnan(table)) * np.uint8(ord("-"))
            signs = signs.reshape(len(table), -1)
        else:
            low = int(table.min())
            keys, inverse = group_codes(table - low, int(table.max()) - low + 1)
            texts = _padded_texts("d", 20, (keys + low).tolist())
            signs = None
        # int32 codes: the size caps keep the distinct values far below 2^31
        groups.append((texts, inverse.astype(np.int32).reshape(len(table), -1), signs))
    del inverse, texts
    width = 20
    while not any(texts[:, width - 1].any() for texts, _, _ in groups):
        width -= 1
    groups = [(np.pad(t[:, :width], ((0, 0), (0, 1))), c, s) for t, c, s in groups]
    sep = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    rows = max(1, _BLOCK_CELLS // len(seps))
    for start in range(0, len(index), rows):
        picked = index[start : start + rows]
        blocks = []
        for fields, codes, signs in groups:
            block = np.take(fields, np.take(codes, picked, axis=0), axis=0)
            block = block.reshape(len(picked), -1, width + 1)
            if signs is not None:
                block[:, :, 0] = np.take(signs, picked, axis=0).reshape(len(picked), -1)
            blocks.append(block)
        block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        block[:, :, -1] = sep
        block = block.ravel()
        sink.write(block[block != 0])


def _padded_texts(spec: str, width: int, values: list) -> np.ndarray:
    """(n, width) bytes: each value's text under '%' and spec, padded with
    NULs to width, which no text may exceed."""
    text = (f"%-{width}{spec}" * len(values)) % tuple(values)
    texts = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, width)
    return texts * (texts != ord(" "))


def _float_texts(mags: np.ndarray) -> np.ndarray:
    """(n, 19) bytes: '%.12e' % m padded with NULs, for each float64
    magnitude m (sign bit clear), the same bytes as Python's '%' gives.

    A normal m takes e = floor(log10 m), k = 12 - e and
    y = (m 10^k1) 10^k2 with |k1| <= 22, so 10^k1 is exact and one
    multiply or divide rounds once.  The second multiply rounds once more
    and 10^k2 may be 1 ulp off, so y is within 4u y < 4u 10^13 = 4.4e-3 of
    m 10^k (u = 2^-53).  Where 10^12 <= floor(y) < 10^13 - 1 and frac(y)
    lies at least 0.01 from 1/2, y rounds to the same 13 digits as m 10^k
    and they carry into no 14th: those digits and e are the text.  Every
    other m goes to '%': a tie or near-tie (round half to even), a carry at
    9.9999999999995 10^e, a misestimated e, 0, subnormals, inf and NaN.
    """
    normal = (mags >= np.finfo(np.float64).tiny) & (mags <= np.finfo(np.float64).max)
    x = np.where(normal, mags, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    k1 = np.clip(12 - e, -22, 22)
    # one of the two exact powers is 1
    y = x * _EXACT_POW10[np.maximum(k1, 0)] / _EXACT_POW10[np.maximum(-k1, 0)]
    y *= np.power(10.0, 12 - e - k1)
    whole = np.floor(y)
    fast = normal & (whole >= 1e12) & (whole < 1e13 - 1)
    fast &= np.abs(y - whole - 0.5) >= 0.01
    # every row is written; the rows that are not fast are overwritten
    digits = whole.astype(np.int64) + (y - whole > 0.5)
    texts = np.empty((mags.size, 19), dtype=np.uint8)
    texts[:, 0] = digits // 10**12 % 10 + ord("0")
    texts[:, 1] = ord(".")
    # the ASCII digits of each integer 0 .. 99 as one uint16, and of each
    # integer 0 .. 9999 as one uint32
    pairs = np.arange(100)[:, None] // [10, 1] % 10 + ord("0")
    pairs = pairs.astype(np.uint8).view(np.uint16).ravel()
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs[None, :]
    quads = quads.view(np.uint32).ravel()
    for column, quad in ((2, digits // 10**8), (6, digits // 10**4), (10, digits)):
        texts[:, column : column + 4] = quads[quad % 10**4].view(np.uint8).reshape(-1, 4)
    texts[:, 14] = ord("e")
    texts[:, 15] = np.where(e < 0, ord("-"), ord("+"))
    # two exponent digits, or three from 100 on
    exponent = quads[np.abs(e) % 10**4].view(np.uint8).reshape(-1, 4)
    wide = np.abs(e) >= 100
    texts[:, 16:18] = np.where(wide[:, None], exponent[:, 1:3], exponent[:, 2:4])
    texts[:, 18] = exponent[:, 3] * wide
    slow = ~fast
    if slow.any():
        texts[slow] = _padded_texts(".12e", 19, mags[slow].tolist())
    return texts


def _in_zero_set(domain, gram, num_tol: float) -> tuple[str, bool]:
    """The identity verify-pair checks for the domain's zero set, and
    whether point_j - point_k is in that set for all j != k, read off the
    Gram's codes instead of the P (P - 1) x d difference set.

    On the unit cube a difference is in it when some coordinate lies
    within 1e-9 of a nonzero integer: each axis's distinct differences
    are tested once and gathered through its code.  The test is the same
    for -z as for z, so the Gram's orientation point_k - point_j gives
    the same verdict.  On any other domain the transform at a difference
    is, bit for bit, an off-diagonal Gram entry, and both orientations
    are entries: it must be below num_tol in modulus.
    """
    if domain == UnitCube(domain.dimension):
        identity = (
            "every difference of distinct points has a coordinate at a "
            "nonzero integer"
        )
        hits = np.zeros(gram.index.shape, dtype=bool)
        for diffs, code, slot in gram.axes:
            near = in_zero_set_cube_many(1, diffs[:, None], 1e-9)
            hits |= np.take(near[code][slot], slot, axis=1)
    else:
        identity = "domain transform vanishes on all differences of points"
        hits = np.take(np.abs(gram.table) < num_tol, gram.index)
    np.fill_diagonal(hits, True)
    return identity, bool(hits.all())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_build_spectrum(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    points = enumerate_spectrum(cfg.spectrum, cfg.window)
    seps = "\t" * (points.shape[1] - 1) + "\n"
    rows = np.arange(len(points))[:, None]
    with open(outdir / "spectrum.txt", "wb") as sink:
        _write_table(sink, (points,), rows, seps)
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
    # the Gram as interleaved re/im columns: "re,im" entries, tab-separated,
    # written from its table of distinct values
    seps = (",\t" * points.shape[0])[:-1] + "\n"
    parts = gram.table.view(np.float64).reshape(-1, 2)
    with open(outdir / "gram.txt", "wb") as sink:
        _write_table(sink, (parts,), gram.index, seps)

    orth = orthogonality_verdict(gram, tol["eq_tol"])
    notes = []
    if orth.witness is not None:
        a, b = (", ".join(map(format_float, point)) for point in orth.witness)
        notes.append(f"witness pair: ({a}) and ({b})")
    report.add(
        "exponentials.orthogonality_verdict",
        "gram(j,k) = box transform at point_k - point_j; off-diagonal zero test",
        orth.is_orthogonal,
        [("points", orth.n_points), ("worst_offdiag", orth.worst_offdiag)],
        notes,
    )

    identity, ok = _in_zero_set(cfg.domain, gram, tol["num_tol"])
    report.add(
        "exponentials.in_zero_set_cube",
        identity,
        ok,
        [("differences", len(points) * (len(points) - 1))],
    )

    if cfg.domain == UnitCube(2):
        n = 128  # samples per axis of the two test states
        x = (np.arange(n) + 0.5) / n
        half = ((x[:, None] < 0.5) * np.ones((n, n))).astype(complex)
        const = np.ones((n, n), dtype=complex)
        comp = completeness_probe(cfg.domain, points, [const, half])
        # completeness is a ratio, never a verdict: the probe line is
        # informational and does not drive the exit status
        report.add(
            "exponentials.completeness_probe",
            "captured energy ratio sum |<e,f>|^2 / (|f|^2 measure) -> 1",
            True,
            [
                ("ratio_constant", comp.ratios[0]),
                ("ratio_half_indicator", comp.ratios[1]),
                ("plateau_reached", all(r > PLATEAU_THRESHOLD for r in comp.ratios)),
            ],
            [
                f"plateau threshold {PLATEAU_THRESHOLD} is a heuristic; "
                "totality is a limit statement"
            ],
        )

        _check_tiling(cfg, report, excluded=False)


def _cmd_check_cocycle(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    tol = cfg.tolerances
    eigs = BoundaryEigenvalues.from_pair(
        cfg.cocycle["a"], cfg.cocycle["b"], cfg.cocycle["window"]
    )
    rep = check_cocycle_2d(eigs, tol["eq_tol"])
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
    single = check_single_identity_2d(eigs, tol["eq_tol"])
    report.add(
        "cocycles.check_single_identity_2d",
        "(1-b_{m+k})(1-a_n) = (1-b_m)(1-a_{n+l}) on the window",
        single or not rep.holds,
        [("holds", single)],
    )
    label = classify_2d(eigs, tol["eq_tol"])
    agree = (label is not Classification.NON_COMMUTING) == rep.holds
    held = "hold" if rep.holds else "fail"
    notes = [f"the sequences read {label.value}, the identities {held}"]
    report.add(
        "cocycles.classify_2d",
        "one sequence constant one wherever the other moves",
        agree,
        [("classification", label.value)],
        [] if agree else notes,
    )


def _cmd_simulate_groups(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    tol = cfg.tolerances
    g = cfg.groups
    phases = g["phases"]
    # the groups commute iff the pair twisted by the basis phases satisfies
    # the cocycle (the cocycles module docstring derives it)
    twisted = BoundaryEigenvalues.from_pair(
        seam_twisted(g["a"], phases[0]), seam_twisted(g["b"], phases[1]), g["window"]
    )
    grid_n = g["grid_n"]
    coeff_probes = default_probe_coefficients(
        g["window"], g["sub_radius"], g["n_random"], np.random.default_rng(cfg.seed)
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
    # a row (s, t, norm) per pair of times, s outermost
    sweep = np.stack([*np.meshgrid(g["times"], g["times"], indexing="ij"), table], -1)
    with open(outdir / "commutator_sweep.csv", "wb") as sink:
        sink.write(b"s,t,commutator_norm\n")
        rows = np.arange(table.size)[:, None]
        _write_table(sink, (sweep.reshape(-1, 3),), rows, ",,\n")
    worst = float(table.max(initial=0.0))

    cocycle_holds = check_cocycle_2d(twisted, tol["eq_tol"]).holds
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
        1, s0, twisted, phases, grid_n=grid_n, leakage_tol=g["leakage_tol"]
    )
    # the first probes as one stack, each measured on its own row
    vecs = coeff_probes[:MAX_SPECTRAL_PROBES]
    states = synthesize_window_state(vecs, phases, g["window"], grid_n)
    proj = project_to_window(group_action_grid(states, 1, s0, bx), phases, g["window"])
    mismatch = max(
        float(np.linalg.norm(row) / np.linalg.norm(vec))
        for row, vec in zip(op(vecs) - proj, vecs)
    )
    bound = 10 * tol["num_tol"]
    report.add(
        "groups.group_matrix_spectral",
        "shifted-mode matrix action equals the window projection of the "
        "exact grid action",
        mismatch < bound,
        [
            ("max_mismatch", mismatch),
            ("mismatch_bound", bound),
            ("max_leakage", op.max_leakage),
        ],
    )

    samples = [(s, *mn) for s in g["times"][:2] for mn in ((0, 0), (1, -1), (-2, 2))]
    eig = eigenrelation_check(bx, samples, grid_n)
    report.add(
        "groups.eigenrelation_check",
        "U_x(s) multiplies e_{m+phi(n)} x e_{n+beta} by "
        "exp(i*2*pi*(m+phi(n))*s)",
        eig.max_residual < tol["num_tol"],
        [("max_residual", eig.max_residual), ("samples", len(samples))],
    )


def _check_tiling(cfg: RunConfig, report: ReportBuilder, excluded: bool):
    """Add the tiling verdict on the tiling section's torus, with the face
    samples it excludes when asked; return the multiplicity map."""
    mp = multiplicity_map(cfg.spectrum, cfg.tiling["window"], cfg.tiling["resolution"])
    verdict = tiling_verdict(mp)
    metrics = [
        ("overlap_fraction", verdict.overlap_fraction),
        ("gap_fraction", verdict.gap_fraction),
    ]
    if excluded:
        metrics.append(("excluded_face_samples", verdict.n_excluded))
    report.add(
        "tiling.tiling_verdict",
        "translate multiplicity is one off cube faces (finite-torus "
        "surrogate for the full-space statement)",
        verdict.tiles,
        metrics,
    )
    return mp


def _cmd_check_tiling(cfg: RunConfig, report: ReportBuilder, outdir: Path):
    mp = _check_tiling(cfg, report, excluded=True)
    if cfg.spectrum.dimension == 2:
        seps = " " * (mp.counts.shape[1] - 1) + "\n"
        rows = np.arange(len(mp.counts))[:, None]
        with open(outdir / "multiplicity.txt", "wb") as sink:
            _write_table(sink, (mp.counts,), rows, seps)
        emit_tiling_svg(cfg.spectrum, cfg.tiling["window"], outdir / "tiling.svg")


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
    # a row per mass in (k, n) order: its harmonics and height, its re and im
    tables = (density.rows(), density.weights.view(np.float64).reshape(-1, 2))
    seps = ";" * (len(density.periods) - 1) + ",,,\n"
    with open(outdir / "density.txt", "wb") as sink:
        sink.write(b"k,n,re,im\n")
        _write_table(sink, tables, density.sorted_order()[:, None], seps)
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
        scan.min_modulus > cfg.tolerances["num_tol"] and stable,
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
    """Execute one parsed run config; returns the process exit status.

    The artifacts are written into a temporary sibling of outdir and moved
    in, outdir made if need be, only once the command has returned."""
    outdir = Path(os.path.abspath(outdir))
    outdir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{outdir.name}-", dir=outdir.parent))
    try:
        report = ReportBuilder(
            command=cfg.command,
            config_path=config_path,
            seed=cfg.seed,
            tolerances=cfg.tolerances,
        )
        _DISPATCH[cfg.command](cfg, report, staging)
        (staging / "report.txt").write_text(report.render(), encoding="utf-8")
        outdir.mkdir(exist_ok=True)
        for path in sorted(staging.iterdir()):
            path.replace(outdir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
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
    except (SpectralBoxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, never a verdict: keep it off status 1
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
