"""The table writer of multiplicity.txt against the str join it replaced.

multiplicity.txt was first written row by row, `" ".join(map(str, row))`
and a newline after every row; the writer formats each distinct int64
once, with a space as the separator, and must give the same bytes.
"""

import numpy as np
import pytest

from spectralbox.cli import _text_table


def join_reference(counts: np.ndarray) -> bytes:
    lines = [" ".join(map(str, row)) for row in counts.tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def space_table(counts: np.ndarray) -> bytes:
    rows = np.arange(len(counts))[:, None]
    return _text_table(counts, rows, " " * (counts.shape[1] - 1) + "\n")


EXTREMES = np.array(
    [0, -1, 1, 9, 10, -10, 99, 100, 123456789, -987654321,
     2**62, -(2**62), np.iinfo(np.int64).max, np.iinfo(np.int64).min],
    dtype=np.int64,
)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (17, 23), (64, 64)])
def test_int_table_equals_the_join(shape):
    rng = np.random.default_rng(shape)
    counts = rng.choice(EXTREMES, size=shape)
    assert space_table(counts) == join_reference(counts)


def test_multiplicity_sized_table_of_small_counts_equals_the_join():
    counts = np.random.default_rng(3).integers(0, 4, size=(512, 512))
    assert counts.dtype == np.int64
    assert space_table(counts) == join_reference(counts)


def test_all_zero_and_all_negative_tables():
    zeros = np.zeros((5, 7), dtype=np.int64)
    assert space_table(zeros) == b"0 0 0 0 0 0 0\n" * 5
    negative = -np.arange(1, 13, dtype=np.int64).reshape(3, 4) * 7
    assert space_table(negative) == join_reference(negative)


def test_int_table_takes_any_separators():
    counts = np.array([[3, -40, 500], [0, 7, -8]], dtype=np.int64)
    rows = np.arange(len(counts))[:, None]
    assert _text_table(counts, rows, ",\t\n") == b"3,-40\t500\n0,7\t-8\n"

