"""The table writer of gram.txt, spectrum.txt, density.txt and
commutator_sweep.csv against per-entry loops.

The references format one entry at a time, the way the tables were first
written: `format_float` for gram.txt, spectrum.txt and the sweep, a '%'
row template for density.txt.  The writer formats each distinct
magnitude or int once, most floats through a vectorised '%.12e' and the
rest through '%', and writes the rows in blocks of `_BLOCK_CELLS` cells;
it must give the same bytes under `==`, whether it is handed the table as
it stands, the Gram's distinct values and its index, or a density's ints
and floats side by side, and whatever the block size.
"""

import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectralbox import cli
from spectralbox.cli import _write_table
from spectralbox.config import load_config
from spectralbox.diffraction import DiffractionDensity
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
from spectralbox.reporting import format_float

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def text_table(table: np.ndarray, index: np.ndarray, seps: str) -> bytes:
    """All the bytes _write_table writes for table[index]."""
    sink = io.BytesIO()
    _write_table(sink, (table,), index, seps)
    return sink.getvalue()


def points_table_reference(points: np.ndarray) -> bytes:
    lines = ["\t".join(format_float(v) for v in row) for row in points]
    return ("\n".join(lines) + "\n").encode("utf-8")


def gram_table_reference(entries: np.ndarray) -> bytes:
    lines = []
    for row in entries:
        lines.append(
            "\t".join(
                f"{format_float(v.real)},{format_float(v.imag)}" for v in row
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def points_table(points: np.ndarray) -> bytes:
    rows = np.arange(len(points))[:, None]
    return text_table(points, rows, "\t" * (points.shape[1] - 1) + "\n")


def gram_table(entries: np.ndarray) -> bytes:
    seps = (",\t" * entries.shape[1])[:-1] + "\n"
    values = np.ascontiguousarray(entries).view(np.float64)
    return text_table(values, np.arange(len(values))[:, None], seps)


def staircase(radius: int):
    """The Gram of the class-b radius-8 sample's family on a square window."""
    beta = IntFunction(1, 0.15, {-8: 0.6, -3: 0.25, 0: 0.5, 2: 0.05, 5: 0.9, 8: 0.7})
    spec = Tower((IntFunction.constant(0.375), beta), (1, 0))
    points = enumerate_spectrum(spec, LatticeWindow.centered(radius, 2))
    return gram_matrix(UnitCube(2), points)


def staircase_gram() -> np.ndarray:
    return staircase(8).entries


# -0.0, subnormals, huge and tiny magnitudes (three-digit exponents), NaN
# with either sign bit, and both infinities
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1e200, -1e200, 1e-200, -1e-200, 1.7976931348623157e308,
    np.nan, -np.nan, np.inf, -np.inf, 1.0, -0.5, 123456.789,
])


def test_staircase_gram_matches_the_reference():
    entries = staircase_gram()
    assert entries.shape == (289, 289)
    flat = entries.view(np.float64)
    assert np.unique(flat.view(np.uint64)).size < flat.size // 4  # heavy reuse
    assert gram_table(entries) == gram_table_reference(entries)


def test_all_distinct_random_gram_matches_the_reference():
    rng = np.random.default_rng(7)
    entries = rng.standard_normal((289, 289)) + 1j * rng.standard_normal((289, 289))
    assert np.unique(entries.view(np.float64)).size == 2 * entries.size
    assert gram_table(entries) == gram_table_reference(entries)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_one_row_points_table_matches_the_reference(d):
    row = np.array([[0.25, -1.0, 3.0e-12, -0.0, 7.5][:d]])
    assert points_table(row) == points_table_reference(row)


def test_one_by_one_gram_matches_the_reference():
    entries = np.array([[complex(1.0, -0.0)]])
    assert gram_table(entries) == gram_table_reference(entries)
    assert gram_table(entries) == b"1.000000000000e+00,-0.000000000000e+00\n"


def test_special_values_match_the_reference():
    rng = np.random.default_rng(11)
    cells = rng.choice(SPECIAL, size=(40, 7))
    assert points_table(cells) == points_table_reference(cells)
    # parts set one by one: re + 1j*im would turn inf into NaN and lose -0.0
    entries = np.empty((23, 23), dtype=complex)
    entries.real = rng.choice(SPECIAL, size=(23, 23))
    entries.imag = rng.choice(SPECIAL, size=(23, 23))
    assert gram_table(entries) == gram_table_reference(entries)


def test_signed_zeros_and_nans_stay_apart():
    row = np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]])
    assert points_table(row) == (
        b"0.000000000000e+00\t-0.000000000000e+00\tnan\tnan\tinf\t-inf\n"
    )


def coded_gram_table(gram) -> bytes:
    """gram.txt as verify-pair writes it: the table of distinct values and
    the Gram's index into it."""
    seps = (",\t" * gram.index.shape[1])[:-1] + "\n"
    return text_table(gram.table.view(np.float64).reshape(-1, 2), gram.index, seps)


@pytest.mark.parametrize("case", ["staircase", "explicit", "union", "one point"])
def test_gram_written_through_its_index_equals_the_identity_index(case):
    rng = np.random.default_rng(12)
    if case == "staircase":
        beta = IntFunction(1, 0.15, {-8: 0.6, -3: 0.25, 0: 0.5, 2: 0.05})
        points = enumerate_spectrum(
            Tower((IntFunction.constant(0.375), beta), (1, 0)), LatticeWindow.centered(6, 2)
        )
        domain = UnitCube(2)
    elif case == "explicit":
        points = rng.choice(np.array([0.0, -0.0, 0.5, -1.25, 3.0, 1e-300]), size=(40, 3))
        domain = UnitCube(3)
    elif case == "union":
        points = rng.uniform(-2.0, 2.0, size=(30, 1))
        domain = Domain((IntervalUnion(((0.0, 1.0), (2.0, 3.5))),))
    else:
        points, domain = np.array([[0.25, -0.0]]), UnitCube(2)
    gram = gram_matrix(domain, points)
    assert gram.table.size <= gram.entries.size
    assert coded_gram_table(gram) == gram_table(gram.entries)
    assert coded_gram_table(gram) == gram_table_reference(gram.entries)


# ---------------------------------------------------------------------------
# the vectorised '%.12e': every row as '%' writes it
# ---------------------------------------------------------------------------


def column_table(values: np.ndarray) -> bytes:
    """values written one a row."""
    return text_table(values[:, None], np.arange(len(values))[:, None], "\n")


def column_reference(values: np.ndarray) -> bytes:
    return "".join("%.12e\n" % v for v in values.tolist()).encode("ascii")


# the rounding ties 1 234 567 890 000 + (2j + 1)/2, exact in float64:
# round half to even, so 1234567890123.5 prints 1.234567890124e+12
TIES = 1_234_567_890_000 + (2 * np.arange(2000) + 1) / 2
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
# 9.9999999999995e{k} rounds up into the next decade, as may its neighbours
CARRIES = np.array([float(f"9.9999999999995e{k}") for k in range(-310, 308)])


def neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate(
        (values, np.nextafter(values, np.inf), np.nextafter(values, 0.0))
    )


def test_seeded_magnitudes_across_the_whole_range_match_percent():
    rng = np.random.default_rng(2024)
    mags = 10.0 ** rng.uniform(-320.0, np.log10(np.finfo(np.float64).max), 200_000)
    values = mags * rng.choice([-1.0, 1.0], size=mags.size)
    assert (mags < np.finfo(np.float64).tiny).any() and (mags > 1e307).any()
    assert column_table(values) == column_reference(values)


def test_random_bit_patterns_match_percent():
    rng = np.random.default_rng(2025)
    values = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    assert np.isnan(values).any()
    assert column_table(values) == column_reference(values)


def test_ties_powers_of_ten_and_decade_carries_match_percent():
    values = np.concatenate((TIES, neighbours(POWERS), neighbours(CARRIES)))
    assert column_table(values) == column_reference(values)
    assert column_table(np.array([1234567890123.5])) == b"1.234567890124e+12\n"


def test_subnormals_zeros_infinities_and_nans_match_percent():
    tiny = np.finfo(np.float64).tiny
    sub = np.array([5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(tiny, 0.0)])
    values = np.concatenate((sub, -sub, [tiny, -tiny, 0.0, -0.0, np.inf, -np.inf]))
    nans = np.array([np.nan, -np.nan]).view(np.uint64) | np.uint64(12345)
    values = np.concatenate((values, [np.nan, -np.nan], nans.view(np.float64)))
    assert np.signbit(values[-1]) and np.isnan(values[-1])
    assert column_table(values) == column_reference(values)


def percent_calls(monkeypatch) -> list:
    """The magnitudes that the formatter hands to '%' from now on."""
    formatted = []
    padded = cli._padded_texts

    def recording(spec, width, values):
        formatted.extend(values)
        return padded(spec, width, values)

    monkeypatch.setattr(cli, "_padded_texts", recording)
    return formatted


def test_the_ties_go_to_percent(monkeypatch):
    formatted = percent_calls(monkeypatch)
    cli._float_texts(TIES)
    assert formatted == TIES.tolist()


def test_most_distinct_magnitudes_of_a_gram_take_the_vectorised_path(monkeypatch):
    formatted = percent_calls(monkeypatch)
    mags = np.unique(np.abs(staircase(8).table.view(np.float64)))
    cli._float_texts(mags)
    assert len(formatted) < mags.size // 20


# ---------------------------------------------------------------------------
# density.txt and commutator_sweep.csv as the commands write them
# ---------------------------------------------------------------------------


def density_reference(density: DiffractionDensity) -> bytes:
    """density.txt as a '%' row template wrote it, a row per mass, sorted
    by (harmonic tuple, height)."""
    weights = iter(density.weights.tolist())
    masses = sorted(
        (*k, n, next(weights))
        for n in density.heights.tolist()
        for k in density.tuples.tolist()
    )
    row = ";".join(["%d"] * len(density.periods)) + ",%d,%.12e,%.12e"
    rows = [row % (*v[:-1], v[-1].real, v[-1].imag) for v in masses]
    return ("\n".join(["k,n,re,im", *rows]) + "\n").encode("ascii")


def sweep_reference(times: list, table: np.ndarray) -> bytes:
    """commutator_sweep.csv as a format_float loop wrote it."""
    rows = ["s,t,commutator_norm"] + [
        f"{format_float(s)},{format_float(t)},{format_float(table[i, j])}"
        for i, s in enumerate(times)
        for j, t in enumerate(times)
    ]
    return ("\n".join(rows) + "\n").encode("ascii")


def seeded_density(rng, components: int, tuples: int, heights: int) -> DiffractionDensity:
    """A grid of distinct harmonic tuples in [-12, 12], lexicographic, and
    distinct heights in [-30, 30], in random order, whose weights' parts
    are drawn from SPECIAL, '%.12e' ties and normal draws."""
    window = np.indices((25,) * components).reshape(components, -1).T - 12
    picked = np.sort(rng.choice(len(window), tuples, replace=False))
    pool = np.concatenate((SPECIAL, TIES[:50], rng.standard_normal(50)))
    # parts set one by one: re + 1j*im would turn inf into NaN and lose -0.0
    masses = tuples * heights
    weights = np.empty(masses, dtype=complex)
    weights.real = rng.choice(pool, masses)
    weights.imag = rng.choice(pool, masses)
    return DiffractionDensity(
        window[picked],
        rng.choice(np.arange(-30, 31), heights, replace=False),
        weights,
        tuple(np.sqrt([2.0, 3.0, 5.0][:components])),
    )


def density_file(monkeypatch, tmp_path, density: DiffractionDensity) -> bytes:
    """density.txt as the diffraction command writes it for density; the
    pairing and the figure are stubbed, so the run exits 1."""
    monkeypatch.setattr(cli, "build_density", lambda *args: density)
    monkeypatch.setattr(cli, "eval_diffraction", lambda *args: 0j)
    monkeypatch.setattr(cli, "emit_diffraction_svg", lambda *args: None)
    out = tmp_path / "density"
    config = str(CONFIGS / "diffraction_one_harmonic.yaml")
    assert cli.main(["diffraction", "--config", config, "--out", str(out)]) == 1
    return (out / "density.txt").read_bytes()


@pytest.mark.parametrize("components", [1, 2, 3])
def test_density_matches_the_percent_rows(monkeypatch, tmp_path, components):
    density = seeded_density(np.random.default_rng(components), components, 20, 50)
    assert (density.tuples < 0).any() and (density.heights < 0).any()
    text = density_file(monkeypatch, tmp_path, density)
    assert text == density_reference(density)
    assert text.count(b";") == (components - 1) * 1000


def test_sweep_matches_the_format_float_loop(monkeypatch, tmp_path):
    rng = np.random.default_rng(13)
    cells = [np.nan, -np.nan, -0.0, 0.0, 5e-324, 2.5e-16, 0.3, np.inf, 1e200]
    table = rng.choice(cells, size=(5, 5))
    table[0, :3] = np.nan, -0.0, 0.0
    monkeypatch.setattr(cli, "commutator_norm", lambda *args: table)
    config = CONFIGS / "simulate_groups_class_i.yaml"
    out = tmp_path / "out"
    # the stubbed table's NaN reads as not commuting, against the cocycle
    assert cli.main(["simulate-groups", "--config", str(config), "--out", str(out)]) == 1
    times = load_config(config).groups["times"]
    assert len(times) == 5
    assert (out / "commutator_sweep.csv").read_bytes() == sweep_reference(times, table)


# ---------------------------------------------------------------------------
# block boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [1, 7, 64])
def test_any_block_size_gives_the_same_bytes(monkeypatch, tmp_path, block):
    monkeypatch.setattr(cli, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    # 23 rows of 3 cells: 23 is a multiple of no block's row count above 1
    points = rng.choice(SPECIAL, size=(23, 3))
    assert points_table(points) == points_table_reference(points)
    # 10 rows of 20 cells, each row wider than a block of 1 or 7
    entries = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert gram_table(entries) == gram_table_reference(entries)
    # 98 cells a row through the Gram's index: wider than every block here
    gram = staircase(3)
    assert coded_gram_table(gram) == gram_table_reference(gram.entries)
    one = np.array([[complex(-0.25, 1e-300)]])
    assert gram_table(one) == gram_table_reference(one)
    # 23 rows of 3 + 1 ints and 2 floats, the ints' fields padded to the
    # floats' width: 23 tuples at one height
    density = seeded_density(rng, 3, 23, 1)
    assert density_file(monkeypatch, tmp_path, density) == density_reference(density)


# ---------------------------------------------------------------------------
# memory: the writer holds the field table and a block, never the text
# ---------------------------------------------------------------------------


class CountingSink:
    def __init__(self):
        self.bytes = 0

    def write(self, data):
        self.bytes += len(data)


def test_radius_16_gram_streams_in_blocks():
    gram = staircase(16)
    assert gram.index.shape == (1089, 1089)
    parts = gram.table.view(np.float64).reshape(-1, 2)
    seps = (",\t" * 1089)[:-1] + "\n"
    mags = np.unique(np.abs(parts)).size
    # the fields, at most 21 bytes a distinct magnitude; the grouping of the
    # table (its magnitude bits, their sort order and the codes); and one
    # block: its codes, signs, fields, NUL mask and text, under 64 bytes a
    # cell.  At 2^16 cells a block the peak was 5.0 MB against this bound
    # of 9.2 MB.
    bound = 21 * mags + 56 * parts.size + 64 * cli._BLOCK_CELLS
    sink = CountingSink()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _write_table(sink, (parts,), gram.index, seps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sink.bytes == 46_074_258
    assert peak <= bound
