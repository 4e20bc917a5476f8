"""CSV export of float columns with shortest round-trip decimals.

Every field is byte-identical to ``repr(float(v))``: the shortest digit
string that reads back as ``v``, nearest to ``v`` when several of that
length do, laid out by Python's rules (exponent form iff the decimal
point position ``decpt`` is below -3 or above 16, at least two exponent
digits, ``.0`` after integers). Fields are formatted in numpy,
``CHUNK_ROWS`` rows at a time, so memory stays bounded for any row count;
all float columns of a chunk go through one pass, row by row.

The digits come from the rounding interval of each double
(Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018). ``|v|`` is scaled
by ``10**k`` into [1e16, 1e18) as a double-double (Dekker's exact
two-product against a table of ``10**k`` as hi + lo pairs), which gives
an integer part ``n``, a fraction ``f`` and the scaled half gap ``u``
between ``v`` and its neighbours. Every integer strictly inside
(n + f - u, n + f + u) reads back as ``v``; the largest ``10**J`` with a
multiple in there sets the digit count, and the multiple nearest to
``v`` gives the digits. The scaled value is good to about 1e-13, so any
decision within ``_GUARD`` of an interval end or of a tie goes to
``repr`` instead, as do non-finite values, zeros, exact powers of two
(whose lower gap is half the upper one) and ``|v|`` outside
[1e-280, 1e280] (which covers subnormals and keeps the two-product clear
of overflow).

Fields are laid out without per-value Python, in cells of uint64 words
where every piece has a fixed place and the bytes a field does not use
are NUL. A float field's cell is four words: its text right-aligned in
the first three, with the sign at byte 0, then a word with the exponent
and the separator. The text comes from one SWAR pass over the digits
with a zero digit put in where the dot goes (an integer's trailing
zeros and its closing ``0`` count as digits), ORed with a table row
that makes ASCII of the digits from the first one on and a dot of that
zero. A value that falls back to ``repr`` has that text in the first
three words instead. With row numbers, each row starts with one more
cell: the number's digits and a comma. Dropping every NUL byte of a
chunk's cells at once leaves its CSV text.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence

import numpy as np

CHUNK_ROWS = 8192

_GUARD = 2.0**-30
_FAST_MIN = 1e-280
_FAST_MAX = 1e280
# k = 16 - floor(log10|v|) for |v| in [1e-280, 1e280]
_K_MIN, _K_MAX = -265, 297
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_POW10 = 10 ** np.arange(19, dtype=np.int64)

# A float field's cell: its text in three words, NUL-padded, then a word
# with the exponent and the separator.
_TEXT = 24
_LENGTH = 22  # the longest unsigned text: "0.000" and 17 digits
_FRAC = 20  # the most digits after the dot: "000" and 17 digits
# In place of values that fall back to repr: its shortest repr has 17
# digits, as many as any double needs, so it never lengthens the level
# loop in _shortest.
_PLACEHOLDER = 0.30000000000000004


@cache
def _pow10_table() -> np.ndarray:
    """10**k for k in [_K_MIN, _K_MAX] as rows hi, lo, hi_hi, hi_lo.

    hi is 10**k rounded to a double and lo the rounded remainder, both
    from exact integer arithmetic, so hi + lo carries about 106 bits;
    hi_hi + hi_lo is Dekker's split of hi.
    """
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # correctly rounded int / int division
        h_num, h_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(his)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return np.stack([hi, np.array(los), hi_hi, hi - hi_hi])


def _scaled(a: np.ndarray):
    """Scale positive normal doubles ``a`` by 10**k into [1e16, 1e18).

    Returns the integer part ``n``, the fraction ``f``, the half gap ``u``
    from each value to its neighbours on the same scale, and ``k``.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo, hi_hi, hi_lo = np.take(_pow10_table(), k - _K_MIN, axis=1)
    # Dekker: a * hi == p + err exactly
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * hi
    err = a_hi * hi_hi - p
    err += a_hi * hi_lo
    err += a_lo * hi_hi
    err += a_lo * hi_lo
    err += a * lo
    floor = np.floor(err)
    n = p.astype(np.int64) + floor.astype(np.int64)
    err -= floor
    # the half gap of a normal double with biased exponent E is 2**(E - 1076)
    u = hi * (((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)
    return n, err, u, k


def _shortest(a: np.ndarray):
    """Shortest digits q and decimal point position of each |v| in ``a``.

    Returns (q, nd, decpt, ok) with ``nd`` the digit count of ``q``;
    where ``ok`` is False the result is not certified and the value must
    be formatted by ``repr``.
    """
    ok = (a >= _FAST_MIN) & (a <= _FAST_MAX) & (a.view(np.int64) & (2**52 - 1) != 0)
    n, f, u, k = _scaled(np.where(ok, a, _PLACEHOLDER))
    low = f - u
    u += f
    ends = []
    for end in (low, u):
        whole = np.floor(end)
        end -= whole
        ok &= (end > _GUARD) & (end < 1.0 - _GUARD)
        ends.append(whole.astype(np.int64) + n)
    # the integers strictly inside the interval are x + 1 .. y
    x, y = ends
    width = y - x
    level = np.zeros(a.size, dtype=np.int64)
    for power in _POW10[1:]:
        inside = y % power < width
        if not inside.any():
            break
        level += inside
    power = _POW10[level]
    q, r = np.divmod(n, power)
    below = r + f
    above = (power - r) - f
    ok &= np.abs(above - below) > _GUARD
    q += above < below
    # n has 16 to 18 digits; rounding q up never adds one, since a q that
    # is a power of ten above 1 would have had a multiple one level up
    nd = np.maximum(16 + (n >= _POW10[16]) + (n >= _POW10[17]) - level, 1)
    return q, nd, nd + level - k, ok


def _digit_bytes(v: np.ndarray) -> None:
    """Replace each uint64 0 <= v < 1e8, in place, by its eight decimal
    digits as byte values 0-9, the leading digit in the lowest byte."""
    # SWAR: split into 4 + 4, 2 + 2 and 1 + 1 digits within lanes of 32,
    # 16 and 8 bits
    hi = v // np.uint64(10000)
    v -= hi * np.uint64(10000)
    v <<= np.uint64(32)
    v |= hi
    for mul, shift, mask, base, lane in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(v, np.uint64(mul), out=hi)
        hi >>= np.uint64(shift)
        hi &= np.uint64(mask)
        v -= hi * np.uint64(base)
        v <<= np.uint64(lane)
        v |= hi


@cache
def _float_text() -> np.ndarray:
    """The text around a float field's digits, as rows of three uint64
    words indexed by ``(neg * (_LENGTH + 1) + length) * (_FRAC + 1) + frac``:
    the sign at byte 0, ASCII zero bits on the last ``length`` bytes and
    a dot ``frac`` bytes before the end when ``frac`` is positive. Row 0
    is blank."""
    pos = np.arange(_TEXT)
    neg = np.arange(2)[:, None, None, None]
    length = np.arange(_LENGTH + 1)[:, None, None]
    frac = np.arange(_FRAC + 1)[:, None]
    text = np.where(pos >= _TEXT - length, ord("0"), 0)
    text = np.where((frac > 0) & (pos == _TEXT - 1 - frac), ord("."), text)
    text = np.where(pos == 0, neg * ord("-"), text)
    return text.astype(np.uint8).reshape(-1, _TEXT).view("<u8")


@cache
def _index_text(width: int) -> np.ndarray:
    """The text around the digits of a ``width``-word index cell, indexed
    by digit count - 1: ASCII zero bits on the digits, then a comma."""
    pos = np.arange(8 * width)
    nd = np.arange(1, 8 * width)[:, None]
    text = np.where((pos >= 8 * width - 1 - nd) & (pos < 8 * width - 1), ord("0"), 0)
    text[:, -1] = ord(",")
    return text.astype(np.uint8).view("<u8")


def _float_cells(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The (fields, 4) cells of float fields, each followed by a separator
    from ``seps`` in turn, repeating, so row-major rows of ``seps.size``
    fields take one pass."""
    q, nd, decpt, ok = _shortest(np.abs(values))
    expo = (decpt < -3) | (decpt > 16)
    integral = ~expo & (decpt >= nd)
    # The digits after the dot; an integer's zeros and its closing 0 are
    # digits of q too. A zero digit goes in where the dot will be.
    frac = np.where(expo, nd - 1, np.where(integral, 1, nd - decpt))
    q *= _POW10[np.where(integral, decpt - nd + 1, 0)]
    power = _POW10[np.minimum(frac, 18)]
    q += q // power * np.where(frac > 0, 9 * power, 0)
    length = np.where(expo, 1, np.maximum(decpt, 1)) + frac + (frac > 0)
    layout = ((np.signbit(values) * (_LENGTH + 1) + length) * (_FRAC + 1) + frac) * ok
    # eight digits a word, the leading two in the first
    u = q.astype(np.uint64)
    words = np.empty((3, values.size), dtype=np.uint64)
    np.floor_divide(u, np.uint64(10**8), out=words[1])
    np.subtract(u, words[1] * np.uint64(10**8), out=words[2])
    np.floor_divide(words[1], np.uint64(10**8), out=words[0])
    words[1] -= words[0] * np.uint64(10**8)
    _digit_bytes(words)
    cells = np.empty((values.size, 4), dtype="<u8")
    np.bitwise_or(words.T, np.take(_float_text(), layout, axis=0), out=cells[:, :3])
    cells.reshape(-1, seps.size, 4)[:, :, 3] = seps
    xword = cells[:, 3]
    e = np.flatnonzero(expo & ok)
    if e.size:
        x = decpt[e] - 1
        ax = np.abs(x).astype(np.uint64)
        three = ax >= np.uint64(100)
        digits = np.where(three, ax // np.uint64(100)
                          | (ax // np.uint64(10) % np.uint64(10)) << np.uint64(8)
                          | (ax % np.uint64(10)) << np.uint64(16),
                          ax // np.uint64(10) | (ax % np.uint64(10)) << np.uint64(8))
        digits |= np.where(three, np.uint64(0x303030), np.uint64(0x3030))
        sign = np.where(x < 0, np.uint64(ord("-")), np.uint64(ord("+")))
        xword[e] = (np.uint64(ord("e")) | sign << np.uint64(8) | digits << np.uint64(16)
                    | xword[e] << (np.uint64(32) + np.uint64(8) * three))
    slow = np.flatnonzero(~ok)
    if slow.size:
        reprs = [repr(float(v)).encode("ascii") for v in values[slow]]
        cells.view(np.uint8)[slow, :_TEXT] = np.array(reprs, dtype=f"S{_TEXT}").view(
            np.uint8).reshape(slow.size, _TEXT)
    return cells


def _index_cells(first: int, count: int) -> np.ndarray:
    """The cells of the row numbers first, first + 1, ..., each followed
    by a comma: as many words as the last number's digits and its comma
    need."""
    low, high = len(str(first)), len(str(first + count - 1))
    width = high // 8 + 1
    nd = np.full(count, low, dtype=np.int64)
    for digits in range(low, high):
        nd[10**digits - first:] += 1
    # eight digits a word, the last word seven and the comma's place
    q = first + np.arange(count, dtype=np.int64)
    words = np.empty((width, count), dtype=np.uint64)
    words[-1] = q % 10**7 * 10
    for word in range(1, width):
        words[-1 - word] = q // (10**7 * 10 ** (8 * word - 8)) % 10**8
    _digit_bytes(words)
    return words.T | np.take(_index_text(width), nd - 1, axis=0)


def _block(columns: list[np.ndarray], first_index: int | None) -> bytes:
    """CSV rows of equal-length float columns, each row ending in a
    newline and, with ``first_index``, starting with its row number.

    The float fields are formatted in one pass, row by row."""
    rows = columns[0].size
    seps = np.full(len(columns), ord(","), dtype=np.uint64)
    seps[-1] = ord("\n")
    cells = _float_cells(np.stack(columns, axis=1).ravel(), seps).reshape(rows, -1)
    if first_index is not None:
        cells = np.concatenate((_index_cells(first_index, rows), cells), axis=1)
    text = cells.view(np.uint8).ravel()
    return text[text != 0].tobytes()


def csv_chunks(columns: Sequence, index: bool = False) -> Iterator[bytes]:
    """Yield the CSV rows of equal-length float columns, CHUNK_ROWS at a time.

    Each field is ``repr(float(v))``; fields are joined by commas and
    every row ends in a newline. With ``index`` each row starts with its
    1-based row number.
    """
    cols = [np.asarray(col, dtype=np.float64).ravel() for col in columns]
    count = cols[0].size
    if any(col.size != count for col in cols):
        raise ValueError("CSV columns must have equal length")
    for start in range(0, count, CHUNK_ROWS):
        yield _block([col[start:start + CHUNK_ROWS] for col in cols],
                     start + 1 if index else None)
