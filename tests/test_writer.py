"""The C row writer behind ``io.write_columns`` against ``repr``, ``str`` and the Python cells."""

import io as pyio
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmarket import _kernel
from specmarket import io

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def written(columns, tmp_path, name="out.csv", empty=None) -> bytes:
    """The row bytes ``write_columns`` writes for ``columns``, header lines cut off."""
    path = io.write_columns(tmp_path / name, ("states", 1), [f"c{i}" for i in range(len(columns))],
                            columns, empty)
    return path.read_bytes().split(b"\n", 3)[3]


def python_rows(columns, empty=None) -> bytes:
    """The rows as the Python cell path formats them."""
    n_rows = len(columns[0])
    if n_rows == 0:
        return b""
    cells = [io._cells(column, mask) for column, mask in zip(columns, empty or [None] * len(columns))]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()


def random_doubles(rng, n) -> np.ndarray:
    """Uniform bit patterns, with a tenth forced to subnormals and zeros of either sign."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    bits[: n // 10] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    return bits.view(np.float64)


def edge_doubles() -> np.ndarray:
    """Powers of 2 and 10 over the whole range with their neighbours, and the named corners."""
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    named = [5e-324, sys.float_info.max, sys.float_info.min, 1e-4, 1e16, 9007199254740993.0,
             0.1, 0.3, 2.0 / 3.0, 123456789012345680.0, 0.0, -0.0, np.inf, -np.inf, np.nan,
             -np.nan]
    values = np.array(powers + named)
    finite = values[np.isfinite(values)]
    with np.errstate(over="ignore"):  # the neighbour above the largest double is inf
        neighbours = [np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)]
    values = np.concatenate([values, *neighbours])
    return np.concatenate([values, -values])


def expected_floats(values) -> bytes:
    return ("\n".join(map(repr, values.tolist())) + "\n").encode()


def test_random_bit_patterns_equal_repr(tmp_path):
    values = random_doubles(np.random.default_rng(20261018), 1_000_000)
    assert _kernel.library()
    assert written([values], tmp_path) == expected_floats(values)


def test_edge_values_equal_repr_and_str(tmp_path):
    values = edge_doubles()
    assert written([values], tmp_path) == expected_floats(values)
    ints = np.array([INT64_MIN, INT64_MIN + 1, -(10**18), -1, 0, 1, 9, 10, 10**18, INT64_MAX])
    assert written([ints], tmp_path) == ("\n".join(map(str, ints.tolist())) + "\n").encode()


def test_fixed_and_exponent_notation_switch_where_repr_does(tmp_path):
    values = np.array([1e-4, 9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0, 123.0, -0.0,
                       1.5e300, -np.nan])
    assert written([values], tmp_path) == (b"0.0001\n9.999999999999999e-05\n1e-05\n1e+16\n"
                                           b"9999999999999998.0\n123.0\n-0.0\n1.5e+300\nnan\n")


#: (cell strategy, column maker) of the columns the C row writer takes
NUMERIC_KINDS = (
    (st.floats(allow_nan=True, allow_infinity=True), np.array),
    (st.floats(width=32), lambda v: np.array(v, dtype=np.float32)),
    (st.integers(INT64_MIN, INT64_MAX), lambda v: np.array(v, dtype=np.int64)),
    (st.integers(-(2**31), 2**31 - 1), lambda v: np.array(v, dtype=np.int32)),
    (st.floats(), list),
)
#: columns the C row writer does not take: their tables are formatted by ``io._cells``
OTHER_KINDS = (
    (st.integers(0, 2**64 - 1), lambda v: np.array(v, dtype=np.uint64)),
    (st.booleans(), lambda v: np.array(v, dtype=bool)),
    (st.text(max_size=6).filter(lambda t: "," not in t and "\n" not in t), list),
)


@st.composite
def tables(draw, kinds, other=False):
    """``(columns, empty)``: columns of ``kinds``, at least one of ``OTHER_KINDS`` if
    ``other``, and an explicit bool mask, or None, per column. With ``other`` a table
    has a row, since an empty list of cells is an empty float array."""
    n_rows = draw(st.integers(1 if other else 0, 40))
    picked = [draw(st.sampled_from(kinds)) for _ in range(draw(st.integers(1, 5)))]
    if other:
        picked.insert(draw(st.integers(0, len(picked))), draw(st.sampled_from(OTHER_KINDS)))
    columns, empty = [], []
    for cell, make in picked:
        columns.append(make(draw(st.lists(cell, min_size=n_rows, max_size=n_rows))))
        mask = draw(st.none() | st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
        empty.append(None if mask is None else np.array(mask, dtype=bool))
    return columns, empty


@settings(max_examples=300, deadline=None)
@given(tables(NUMERIC_KINDS))
def test_native_rows_equal_python_cells(table):
    columns, empty = table
    prepared = io._writer_columns(columns)
    assert prepared is not None
    buffer = pyio.BytesIO()
    io._write_rows(_kernel.library(), buffer, prepared, empty, len(columns[0]))
    assert buffer.getvalue() == python_rows(columns, empty)


@settings(max_examples=100, deadline=None)
@given(tables(NUMERIC_KINDS + OTHER_KINDS, other=True))
def test_other_columns_written_by_python_cells(tmp_path_factory, table):
    columns, empty = table
    assert io._writer_columns(columns) is None
    assert written(columns, tmp_path_factory.mktemp("t"), empty=empty) == python_rows(columns, empty)


def test_chunks_join_into_the_python_bytes(tmp_path, monkeypatch):
    """A numeric table, written by the C writer, and one with a text column, written by
    ``_cells``, give the fallback's bytes across chunks."""
    n = 3 * io._CHUNK_ROWS + 5
    rng = np.random.default_rng(3)
    columns = [np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n),
               rng.integers(-5, 5, n)]
    empty = [None, rng.random(n) < 0.1, rng.random(n) < 0.3]
    text = ["ab"[i % 2] * (i % 3) for i in range(n)]
    for columns, empty in ((columns, empty), (columns + [text], empty + [None])):
        native = written(columns, tmp_path, "native.csv", empty)
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "_LIBRARY", False)
            assert written(columns, tmp_path, "python.csv", empty) == native == \
                python_rows(columns, empty)


def test_unequal_column_lengths_refused(tmp_path):
    """The writer reads every column and mask to the first column's length, so a shorter
    one is refused."""
    with pytest.raises(ValueError, match=r"unequal lengths \[3, 2\]"):
        io.write_columns(tmp_path / "out.csv", ("states", 1), ("a", "b"),
                         (np.arange(3), np.ones(2)))
    for empty, message in (([None, np.zeros(2, dtype=bool)], r"unequal lengths \[3, 3, 2\]"),
                           ([None], "1 masks for 2 columns")):
        with pytest.raises(ValueError, match=message):
            io.write_columns(tmp_path / "out.csv", ("states", 1), ("a", "b"),
                             (np.arange(3), np.ones(3)), empty)
    assert not (tmp_path / "out.csv").exists()
