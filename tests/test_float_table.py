"""The table writer of gram.txt and spectrum.txt against per-entry loops.

The references format one entry at a time with `format_float`, the way
the two tables were first written; the writer formats each distinct
float once and must give the same bytes under `==`.
"""

import numpy as np
import pytest

from spectralbox.cli import _text_table
from spectralbox.exponentials import gram_matrix
from spectralbox.model import (
    IntFunction,
    LatticeWindow,
    Tower,
    UnitCube,
    enumerate_spectrum,
)
from spectralbox.reporting import format_float


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
    return _text_table(points, "\t" * (points.shape[1] - 1) + "\n")


def gram_table(entries: np.ndarray) -> bytes:
    seps = (",\t" * entries.shape[1])[:-1] + "\n"
    return _text_table(np.ascontiguousarray(entries).view(np.float64), seps)


def staircase_gram() -> np.ndarray:
    beta = IntFunction(1, 0.15, {-8: 0.6, -3: 0.25, 0: 0.5, 2: 0.05, 5: 0.9, 8: 0.7})
    spec = Tower((IntFunction.constant(0.375), beta), (1, 0))
    points = enumerate_spectrum(spec, LatticeWindow.centered(8, 2))
    return gram_matrix(UnitCube(2), points).entries


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
