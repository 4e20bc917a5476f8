"""CSV formatter tests: every field against ``repr(float(v))``, and whole
files against the per-value writer the CLI used before.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochord.cli import _write_csv
from stochord.csvformat import CHUNK_ROWS, _block, csv_chunks


def fields(values) -> list[str]:
    return b"".join(csv_chunks([values])).decode("ascii").split("\n")[:-1]


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


def reference_rows(columns, first: int | None = None) -> bytes:
    """The per-value writer's rows: one repr per field, each row ending in
    a newline and, with ``first``, starting with its row number."""
    rows = []
    for k in range(len(columns[0])):
        row = [repr(float(col[k])) for col in columns]
        rows.append(",".join(row if first is None else [str(first + k)] + row) + "\n")
    return "".join(rows).encode("ascii")


def reference_csv(header: str, columns, index: bool) -> bytes:
    """The per-value writer: the header, then one repr per field."""
    return f"{header}\n".encode("ascii") + reference_rows(columns, 1 if index else None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_fields_match_repr(values):
    # st.floats() draws subnormals, signed zeros, infinities and nan
    assert fields(values) == reprs(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20240607)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    assert fields(values) == reprs(values)


def _edge_values() -> list[float]:
    edges = [2.0**k for k in range(-1074, 1024)]
    for k in range(-323, 309):
        v = float(f"1e{k}")
        edges += [v, math.nextafter(v, math.inf), math.nextafter(v, 0.0)]
    # decpt -3 / -4 and 16 / 17: where repr switches to exponent form
    edges += [0.0001, 0.00012345, 0.0009999999999999998, 0.00001, 9.9999e-05,
              1e15, 1234567890123456.0, 9999999999999998.0, 1e16, 1.2345678901234568e16]
    edges += [1000000000000000.25, 5e-324, sys.float_info.max, sys.float_info.min,
              0.1, 0.3, 2.5, 1.0 / 3.0, 123456.789, 0.0, math.inf, math.nan]
    return edges + [-v for v in edges]


def test_edge_values():
    values = _edge_values()
    assert fields(values) == reprs(values)


@pytest.mark.parametrize("rows", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 100_000])
@pytest.mark.parametrize("index", [False, True])
def test_whole_file_matches_per_value_writer(tmp_path, rows, index):
    rng = np.random.default_rng(rows)
    columns = [np.sort(rng.gamma(2.0, size=rows))]
    if not index:
        mixed = rng.normal(scale=10.0 ** rng.integers(-8, 20, size=rows))
        mixed[::97] = 0.0
        mixed[1::89] = math.inf
        mixed[2::83] = math.nan
        columns += [mixed, -columns[0], np.round(mixed, 3)]
    header = "index,value" if index else "x,lhs,rhs,diff"
    path = tmp_path / "out.csv"
    _write_csv(path, header, columns, index=index)
    assert path.read_bytes() == reference_csv(header, columns, index)


# one value of each kind the fast path declines or that switches the layout
_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**-30, 2.0**70, -0.5, 1e-05, 1e+16]


@pytest.mark.parametrize("rows", [1, 2048, CHUNK_ROWS - 1, CHUNK_ROWS + 1])
@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("index", [False, True])
def test_multi_column_file_matches_per_value_writer(tmp_path, rows, width, index):
    rng = np.random.default_rng([rows, width])
    columns = [rng.normal(scale=10.0 ** rng.integers(-8, 20, size=rows)) for _ in range(width)]
    # the first and last rows hold a different special value in each column
    for i in range(min(rows, len(_SPECIALS))):
        for c, col in enumerate(columns):
            col[i] = _SPECIALS[(i + c) % len(_SPECIALS)]
            col[rows - 1 - i] = _SPECIALS[(i + 2 * c + 1) % len(_SPECIALS)]
    header = ",".join(["index"] * index + [f"c{c}" for c in range(width)])
    path = tmp_path / "out.csv"
    _write_csv(path, header, columns, index=index)
    assert path.read_bytes() == reference_csv(header, columns, index)


# the last row number of each digit count, and some of one more digit
_WIDTH_STEPS = [10**d - 1 for d in range(1, 19)]


@pytest.mark.parametrize("last", _WIDTH_STEPS)
def test_row_numbers_across_a_digit_count(last):
    # an index cell holds seven digits and the comma in a word, so 10**7 and
    # 10**15 add a word
    columns = [np.linspace(0.5, 3.0, 6), np.linspace(-1.0, 1e20, 6)]
    for first in (last - 2, last + 1):
        assert _block(columns, first) == reference_rows(columns, first)


def test_row_numbers_across_chunk_boundaries():
    # the digit count steps inside a chunk and the chunks start at 8193,
    # 16385, ...: every step from 9 -> 10 to 99999 -> 100000 is crossed
    values = np.random.default_rng(11).gamma(2.0, size=100_001)
    text = b"".join(csv_chunks([values], index=True))
    assert text == reference_rows([values], 1)
    lines = text.split(b"\n")
    for last in (9, 99, 999, 9999, 99999, CHUNK_ROWS, 2 * CHUNK_ROWS):
        assert lines[last - 1].startswith(b"%d," % last)
        assert lines[last].startswith(b"%d," % (last + 1))


@pytest.mark.parametrize("first", [10**7 - 100, 10**9 + 12345, 2**63 - CHUNK_ROWS])
def test_first_row_number_past_one_word(first):
    rng = np.random.default_rng(first % 1000)
    columns = [rng.gamma(2.0, size=CHUNK_ROWS), rng.normal(size=CHUNK_ROWS)]
    assert _block(columns, first) == reference_rows(columns, first)


@pytest.mark.parametrize("index", [False, True])
def test_chunk_with_every_value_in_repr(index):
    # zeros, infinities, nan, exact powers of two, subnormals and magnitudes
    # past 1e280 all fall back to repr
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**-1074, 1e-300,
                -2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 0.5, -2.0**60]
    values = np.array(specials * (2 * CHUNK_ROWS // len(specials) + 1))
    columns = [values, values[::-1]]
    assert b"".join(csv_chunks(columns, index=index)) == \
        reference_rows(columns, 1 if index else None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                                  min_size=1, max_size=30)),
       st.integers(1, 10**18))
def test_indexed_rows_match_repr(rows, first):
    columns = [np.array(col, dtype=np.float64) for col in zip(*rows)]
    assert b"".join(csv_chunks(columns, index=True)) == reference_rows(columns, 1)
    assert _block(columns, first) == reference_rows(columns, first)


def test_unequal_columns_are_rejected():
    with pytest.raises(ValueError):
        list(csv_chunks([[1.0, 2.0], [1.0]]))
