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
from stochord.csvformat import CHUNK_ROWS, csv_chunks


def fields(values) -> list[str]:
    return b"".join(csv_chunks([values])).decode("ascii").split("\n")[:-1]


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


def reference_csv(header: str, columns, index: bool) -> bytes:
    """The per-value writer: one repr per field, rows joined by newlines."""
    rows = [header]
    for k in range(len(columns[0])):
        row = [repr(float(col[k])) for col in columns]
        rows.append(",".join([str(k + 1)] + row if index else row))
    return ("\n".join(rows) + "\n").encode("ascii")


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


def test_unequal_columns_are_rejected():
    with pytest.raises(ValueError):
        list(csv_chunks([[1.0, 2.0], [1.0]]))
