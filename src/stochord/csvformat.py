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

Fields are laid out without per-value Python. Each field gets a 32-byte
slot: its digits zero-padded and right-aligned in 24 bytes (eight per
uint64 word), then a word with the exponent and the separator. The
output bytes are gathered from the slots, in row order, and a slot of
constant pieces by ``take``.
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

# A field's slot: 24 bytes of zero-padded, right-aligned digits, with the
# minus sign just before them, and an 8-byte word with the exponent and
# the separator (a value that falls back to repr has its text in the
# first 24 bytes instead). A field is gathered in three segments: the
# head, a middle piece from the constant slot, and its slot from the
# digits after the middle piece through the separator.
_SLOT = 32
_DIGITS_END = 24
_SEGMENTS = 3
_TAKE_STEP = 1 << 15

# The constant slot, first in every chunk's gather source.
_CONST = np.frombuffer((b"-0." + b"0" * 15 + b".0").ljust(_SLOT, b"\0"), dtype="<u8")
_NEG_LEAD = 0  # "-0.": a value below one, with or without its sign
_DOT = 2
_TRAIL_END = 20  # end of "000000000000000.0": zeros then ".0" after an integer


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
    n, f, u, k = _scaled(np.where(ok, a, 1.5))
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


def _fill_slots(slots: np.ndarray, q: np.ndarray, xword) -> None:
    """Write the zero-padded digits of 0 <= q < 1e17 and the exponent
    word into (m, 4) little-endian uint64 slots."""
    u = q.astype(np.uint64)
    v = np.concatenate([(u // np.uint64(10**8)) % np.uint64(10**8),
                        u % np.uint64(10**8)])
    # SWAR: split eight digits into 4 + 4, 2 + 2 and 1 + 1 within lanes of
    # 32, 16 and 8 bits; the leading digit lands in the lowest byte.
    hi4 = v // np.uint64(10000)
    v = hi4 | ((v - hi4 * np.uint64(10000)) << np.uint64(32))
    hi2 = ((v * np.uint64(5243)) >> np.uint64(19)) & np.uint64(0x0000007F0000007F)
    v = hi2 | ((v - hi2 * np.uint64(100)) << np.uint64(16))
    hi1 = ((v * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    v = hi1 | ((v - hi1 * np.uint64(10)) << np.uint64(8))
    v |= np.uint64(0x3030303030303030)
    slots[:, 0] = (u // np.uint64(10**16) << np.uint64(56)) | np.uint64(0x3030303030303030)
    slots[:, 1] = v[:u.size]
    slots[:, 2] = v[u.size:]
    slots[:, 3] = xword


def _float_fields(values: np.ndarray, seps: np.ndarray, slots: np.ndarray, base: int):
    """Fill the slots of a run of float fields, placed at byte ``base`` of
    the gather source, and return their (fields, _SEGMENTS) segment starts
    and lengths; the separator bytes ``seps`` follow the fields in turn,
    repeating, so row-major rows of ``seps.size`` fields take one pass."""
    finite = np.isfinite(values)
    q, nd, decpt, ok = _shortest(np.where(finite, np.abs(values), 1.5))
    ok &= finite
    neg = np.signbit(values)
    expo = ok & ((decpt < -3) | (decpt > 16))
    lead = ~expo & (decpt <= 0)
    integral = ~expo & (decpt >= nd)
    # digits after the middle piece: the fraction, or all but the first
    tail = np.where(integral, 0, nd - decpt)
    trail = decpt - nd + 2
    xword = np.empty(values.size, dtype=np.uint64)
    xword.reshape(-1, seps.size)[:] = seps
    xlen = np.zeros(values.size, dtype=np.int64)
    e = np.flatnonzero(expo)
    if e.size:
        tail[e] = nd[e] - 1
        x = decpt[e] - 1
        ax = np.abs(x).astype(np.uint64)
        three = ax >= np.uint64(100)
        digits = np.where(three, ax // np.uint64(100)
                          | (ax // np.uint64(10) % np.uint64(10)) << np.uint64(8)
                          | (ax % np.uint64(10)) << np.uint64(16),
                          ax // np.uint64(10) | (ax % np.uint64(10)) << np.uint64(8))
        digits |= np.where(three, np.uint64(0x303030), np.uint64(0x3030))
        sign = np.where(x < 0, np.uint64(ord("-")), np.uint64(ord("+")))
        xlen[e] = 4 + three
        xword[e] = (np.uint64(ord("e")) | sign << np.uint64(8) | digits << np.uint64(16)
                    | xword[e] << (np.uint64(8) * xlen[e].astype(np.uint64)))
    _fill_slots(slots, np.where(ok, q, 0), xword)
    text = slots.view(np.uint8)
    signed = np.flatnonzero(neg & ~lead & ok)
    text[signed, _DIGITS_END - 1 - nd[signed]] = ord("-")
    ends = base + _DIGITS_END + _SLOT * np.arange(values.size, dtype=np.int32)
    src = np.empty((values.size, _SEGMENTS), dtype=np.int32)
    lens = np.empty_like(src)
    src[:, 0] = np.where(lead, _NEG_LEAD + 1 - neg, ends - nd - neg)
    lens[:, 0] = np.where(lead, 2 + neg, nd - tail + neg)
    src[:, 1] = np.where(integral, _TRAIL_END - trail, _DOT)
    lens[:, 1] = np.where(integral, trail, ~lead)
    lens[e, 1] = nd[e] > 1
    src[:, 2] = ends - tail
    lens[:, 2] = tail + xlen + 1
    slow = np.flatnonzero(~ok)
    if slow.size:
        reprs = [repr(float(v)).encode("ascii") for v in values[slow]]
        text[slow, :_DIGITS_END] = np.array(reprs, dtype=f"S{_DIGITS_END}").view(
            np.uint8).reshape(slow.size, _DIGITS_END)
        src[slow, 0] = ends[slow] - _DIGITS_END
        lens[slow, 0] = [len(s) for s in reprs]
        lens[slow, 1] = 0
        src[slow, 2] = ends[slow]
        lens[slow, 2] = 1
    return src, lens


def _index_column(first: int, slots: np.ndarray, base: int):
    """Fill the slots of the row numbers first, first + 1, ..., each
    followed by a comma, and return their (rows, 1) segment starts and
    lengths."""
    count = slots.shape[0]
    q = np.arange(first, first + count, dtype=np.int64)
    nd = np.ones(count, dtype=np.int32)
    for power in _POW10[1:]:
        if power >= first + count:
            break
        nd += q >= power
    _fill_slots(slots, q, np.uint64(ord(",")))
    ends = base + _DIGITS_END + _SLOT * np.arange(count, dtype=np.int32)
    return (ends - nd)[:, None], (nd + 1)[:, None]


def _block(columns: list[np.ndarray], first_index: int | None) -> bytes:
    """CSV rows of equal-length float columns, each row ending in a
    newline and, with ``first_index``, starting with its row number.

    The float fields are formatted in one pass, row by row."""
    rows = columns[0].size
    numbered = first_index is not None
    slots = np.empty((1 + (len(columns) + numbered) * rows, _SLOT // 8), dtype="<u8")
    slots[0] = _CONST
    seps = np.full(len(columns), ord(","), dtype=np.uint64)
    seps[-1] = ord("\n")
    start = 1 + numbered * rows
    src, lens = _float_fields(np.stack(columns, axis=1).ravel(), seps, slots[start:],
                              _SLOT * start)
    src, lens = src.reshape(rows, -1), lens.reshape(rows, -1)
    if numbered:
        first_src, first_lens = _index_column(first_index, slots[1:start], _SLOT)
        src = np.concatenate((first_src, src), axis=1)
        lens = np.concatenate((first_lens, lens), axis=1)
    src, lens = src.ravel(), lens.ravel()
    keep = lens > 0
    src, lens = src[keep], lens[keep]
    ends = np.cumsum(lens, dtype=np.int32)
    # source offset of each output byte: steps of one within a segment and
    # a jump to the next segment's start, summed up
    index = np.ones(ends[-1], dtype=np.int32)
    index[0] = src[0]
    index[ends[:-1]] = src[1:] - (src[:-1] + lens[:-1]) + 1
    np.cumsum(index, dtype=np.int32, out=index)
    # take converts its indices to intp: a slice at a time keeps that small
    source = slots.view(np.uint8).ravel()
    out = np.empty(index.size, dtype=np.uint8)
    for start in range(0, index.size, _TAKE_STEP):
        stop = start + _TAKE_STEP
        source.take(index[start:stop], out=out[start:stop])
    return out.tobytes()


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
