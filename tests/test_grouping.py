"""The package's one grouping rule: model.group_codes and model.group_bits.

Every "distinct keys, ascending, and each entry's index" in the package
goes through these two functions: the Gram's per-axis coordinates,
differences and folds, the completeness probe's coordinates, a Tower's
level arguments, the table writer's magnitudes and ints, and the
diffraction stems.  The tests pin both to np.unique(..., return_inverse=
True) bit for bit, key dtype included, and a guard keeps np.unique with
return_inverse out of every other function of the package.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from spectralbox.model import group_bits, group_codes

SOURCE = Path(__file__).resolve().parent.parent / "src" / "spectralbox"


def assert_unique(keys, index, values):
    """keys and index are np.unique(values, return_inverse=True), keys bit
    for bit and in dtype, the index as values' shape."""
    want_keys, want_index = np.unique(values, return_inverse=True)
    assert keys.dtype == want_keys.dtype
    assert keys.tobytes() == want_keys.tobytes()
    assert index.shape == np.shape(values)
    assert np.array_equal(index, want_index.reshape(np.shape(values)))


def shifted(table):
    """The table writer's grouping of an int table: its values less the
    minimum over their span, keys shifted back."""
    low = int(table.min())
    keys, index = group_codes(table - low, int(table.max()) - low + 1)
    return keys + low, index


def test_ints_with_negative_values_group_as_np_unique():
    rng = np.random.default_rng(1)
    table = rng.integers(-40, 25, size=(30, 17))
    assert table.min() < 0
    assert_unique(*shifted(table), table)


def test_a_one_value_table_groups_as_np_unique():
    # check-tiling's multiplicity table on a tiling: one value, 512 x 512
    table = np.full((512, 512), 1, dtype=np.int64)
    keys, index = shifted(table)
    assert_unique(keys, index, table)
    assert keys.tolist() == [1]


@pytest.mark.parametrize("extra, path", [(0, np.int32), (1, np.intp)])
def test_the_span_decides_table_or_sort_at_16_codes_an_entry(extra, path):
    # a span of 16 codes an entry is ranked in a table (int32 index); one
    # more code an entry is sorted (np.unique's intp index)
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 16 * 200, size=(20, 10))
    codes[0, 0] = 16 * 200 - 1
    keys, index = group_codes(codes, 16 * codes.size + extra)
    assert_unique(keys, index, codes)
    assert index.dtype == path


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("span", [1, 7, 10**6])
def test_a_single_entry_groups_as_np_unique(span, dtype):
    codes = np.array([span - 1], dtype=dtype)
    assert_unique(*group_codes(codes, span), codes)


def test_keys_keep_the_dtype_of_int32_codes_on_the_table_path():
    codes = np.random.default_rng(3).integers(0, 50, size=(40, 40)).astype(np.int32)
    keys, index = group_codes(codes, 50)
    assert index.dtype == np.int32
    assert_unique(keys, index, codes)


def special_floats(rng):
    """Seeded float64 values with both zeros, NaNs of several payloads and
    signs, subnormals, both infinities and repeated normals."""
    bits = np.array(
        [
            0x0000000000000000,  # 0.0
            0x8000000000000000,  # -0.0
            0x7FF8000000000000,  # quiet NaN
            0x7FF8000000000001,  # NaN, another payload
            0xFFF8000000000000,  # negative NaN
            0x7FF0000000000001,  # signalling NaN payload
            0x0000000000000001,  # smallest subnormal
            0x800FFFFFFFFFFFFF,  # largest negative subnormal
            0x7FF0000000000000,  # inf
            0xFFF0000000000000,  # -inf
        ],
        dtype=np.uint64,
    )
    normals = rng.normal(size=40)
    values = np.concatenate((bits.view(np.float64), normals, -normals[:10]))
    return rng.choice(values, size=(15, 23))


def test_group_bits_keeps_every_bit_pattern_apart():
    rng = np.random.default_rng(4)
    values = special_floats(rng)
    keys, index = group_bits(values)
    bits = values.view(np.uint64)
    assert_unique(keys.view(np.uint64), index, bits)
    assert keys.dtype == np.float64
    # -0.0 and 0.0, and the NaNs of each payload, are separate keys
    assert np.unique(bits).size == keys.size
    assert keys.size > np.unique(values).size
    assert np.array_equal(keys[index].view(np.uint64), bits)


def test_group_bits_is_value_grouping_on_non_negative_finite_floats():
    # diffraction's stem positions: freq(k) mod 1 and their rounded values
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, size=3000) % 1.0
    values[::7] = np.round(values[::7], 2)
    values[:5] = 0.0
    for table in (values, np.array([round(v, 9) for v in values.tolist()])):
        assert_unique(*group_bits(table), table)


def test_group_bits_on_an_empty_table():
    keys, index = group_bits(np.array([]))
    assert keys.dtype == np.float64 and keys.size == 0 and index.size == 0


# The guard: np.unique(..., return_inverse=...) is called in exactly one
# place, the sort path of model.group_codes, so that no kernel grows a
# grouping of its own.


def inverse_unique_calls(tree):
    """The enclosing function of every call to a `unique` that passes
    return_inverse, by keyword or as the third positional argument."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique"
            and (
                any(k.arg == "return_inverse" for k in node.keywords)
                or len(node.args) >= 3
            )
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_the_guard_sees_each_spelling_of_an_inverse_unique():
    source = (
        "import numpy as np\nfrom numpy import unique\n"
        "def a(x):\n    return np.unique(x, return_inverse=True)\n"
        "def b(x):\n    return unique(x, False, True)\n"
        "def c(x):\n    return np.unique(x)\n"
    )
    assert inverse_unique_calls(ast.parse(source)) == ["a", "b"]


def test_np_unique_with_return_inverse_lives_only_in_group_codes():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, where) for where in inverse_unique_calls(tree)]
    assert found == [("model", "group_codes")]
