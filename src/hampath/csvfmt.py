"""The CSV writer for numeric tables: every cell is exactly ``'%.17g' % v``.

Seventeen significant digits miss CPython's short-repr fast path, so
``%``-formatting runs dtoa's bignum arithmetic at about a microsecond a float.
Here the digits of whole columns come from exact integer arithmetic (Steele and
White 1990; Adams, "Ryu revisited: printf floating point conversion", 2019):

* x = m 2^e2 with m a 53-bit integer, and E = floor(log10 x), estimated by
  ``np.log10`` and moved by one when the window misses, so that the 17-digit
  window v = x 10^s, s = 16 - E, lies in [10^16, 10^17);
* floor(2v) = floor(m F / 2^r), where F holds the top 64 bits of 5^s; the
  product is taken once with F and once with F + 1, and the floor is exact
  when the two agree (always, when 5^s fits in 64 bits);
* 2v is an odd integer, a tie that rounds to even, iff the 2-adic valuation
  of m is -(e2 + s + 1), since 5^s is odd;
* the digits are laid out in fixed notation for -4 <= E < 17 and as
  ``d.ddde+XX`` otherwise, trailing zeros stripped, as ``%g`` does.

Zeros, NaN and infinities are written by mask.  Only cells the arithmetic does
not settle, |x| >= 1e17 and windows whose two bounds disagree (about 1% of the
cells below 1e-11), go through ``'%.17g'`` one by one.  Rows are formatted in
chunks of about ``_CHUNK_CELLS`` cells, so the scratch arrays stay small
whatever the table.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK_CELLS = 8192
# A cell is a field of slots, one per row of a (slot, cell) byte array, so that
# each operation runs along the cells: a sign, the "0.000" prefix, 17 digits
# with a decimal-point slot among them, "e+308" and the separator.  Slots a cell
# does not use hold NUL, and the NULs are deleted from the transposed bytes.
_PREFIX, _BODY, _EXP, _SEP = 1, 6, 24, 29
_FIELD = 30
_COL = np.arange(18, dtype=np.int8)[:, None]  # slot j of the digits and the point
_RANK = np.arange(1, 18, dtype=np.int8)[:, None]  # digit i is the (i+1)-th


@functools.cache
def _pow5():
    """Top 64 bits of 5^s for s = 0..340 (the window of the smallest subnormal),
    with the bit length of 5^s."""
    top, bits = [], []
    for s in range(341):
        p = 5**s
        n = p.bit_length()
        top.append(p >> (n - 64) if n > 64 else p << (64 - n))
        bits.append(n)
    return np.array(top, dtype=np.uint64), np.array(bits, dtype=np.int64)


@functools.cache
def _affixes():
    """The prefix slots of fixed notation, column -E for E = -1..-4 ("0.", "0.0",
    ..), and the exponent slots, column E + 325 for E = -324..17 ("e-324" ..);
    column 0 of both is blank."""
    prefix = [b""] + [b"0." + b"0" * (i - 1) for i in range(1, 5)]
    exponent = [b""] + [b"e%+03d" % E for E in range(-324, 18)]
    return tuple(np.frombuffer(b"".join(t.ljust(5, b"\0") for t in texts), dtype=np.uint8)
                 .reshape(-1, 5).T.copy() for texts in (prefix, exponent))


def _floor_2v(m, e2, E):
    """floor(2 x 10^(16 - E)) for x = m 2^e2, and whether that floor is exact."""
    top, bits = _pow5()
    s = 16 - E
    f = top[s]
    r = 63 - bits[s] - e2 - s
    # the 128-bit product m f as (hi, lo), from 32-bit halves
    lo32 = np.uint64(0xFFFFFFFF)
    mh, ml = m >> np.uint64(32), m & lo32
    fh, fl = f >> np.uint64(32), f & lo32
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> np.uint64(32)) + (lh & lo32) + (hl & lo32)
    lo = (mid << np.uint64(32)) | (ll & lo32)
    hi = mh * fh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    # r >= 64 only when E is one too large; a zero floor sends the cell back down
    rr = np.minimum(r, 63).astype(np.uint64)
    up = np.uint64(64) - rr
    a = (hi << up) | (lo >> rr)
    lo_b = lo + m  # m (f + 1)
    b = ((hi + (lo_b < lo)) << up) | (lo_b >> rr)
    a[r > 63] = 0
    return a, (a == b) | (s <= 27)


def _settle(ax):
    """17 round-half-even digits d in [10^16, 10^17) and exponent E of each
    positive finite ax < 1e17, and a mask of the cells whose floor is exact."""
    mant, e2 = np.frexp(ax)
    m = (mant * 2.0**53).astype(np.uint64)
    e2 = e2.astype(np.int64) - 53
    E = np.clip(np.floor(np.log10(ax)), -324, 16).astype(np.int64)
    q, ok = _floor_2v(m, e2, E)
    lo, hi = np.uint64(2 * 10**16), np.uint64(2 * 10**17)
    off = (q < lo) | (q >= hi)
    if off.any():
        E[off] = np.clip(E[off] + np.where(q[off] >= hi, 1, -1), -324, 16)
        q[off], ok[off] = _floor_2v(m[off], e2[off], E[off])
        ok &= (q >= lo) & (q < hi)
    # 2v = m 5^s / 2^t is an integer iff 2^t divides m (5^s is odd); an odd one is a tie
    t = -(e2 + 16 - E + 1)
    tc = np.clip(t, 0, 63).astype(np.uint64)
    tie = (t >= 0) & (t <= 52) & ((m & ((np.uint64(1) << tc) - np.uint64(1))) == 0)
    # q odd means v lies in [n + 1/2, n + 1): round up, but to even at a tie
    n = q >> np.uint64(1)
    d = n + ((q & np.uint64(1)) & ~(tie & ((n & np.uint64(1)) == 0))).astype(np.uint64)
    carry = d == np.uint64(10**17)
    d[carry] = np.uint64(10**16)
    E[carry] += 1
    return d, E, ok


def _chunk(x, ncols):
    """The bytes of whole rows ``x`` (row-major cells), one field a cell."""
    n = x.size
    ax = np.abs(x)
    regular = (ax > 0) & (ax < 1e17)  # false for NaN and the infinities too
    d, E, ok = _settle(np.where(regular, ax, 1.0))
    slots = np.zeros((_FIELD, n), dtype=np.uint8)
    # D0..D16 in rows 1..17 between two NUL rows, and k, the count of digits up
    # to the last nonzero one; 32-bit halves divide faster than d itself
    digits = np.zeros((19, n), dtype=np.uint8)
    top = d // np.uint64(10**8)
    hi, lo = top.astype(np.uint32), (d - top * np.uint64(10**8)).astype(np.uint32)
    for part, first, count in ((lo, 17, 8), (hi, 9, 9)):
        for j in range(first, first - count, -1):
            quot = part // np.uint32(10)
            digits[j] = part - quot * np.uint32(10)
            part = quot
    k = ((digits[1:18] != 0) * _RANK).max(axis=0)
    digits[1:18] += ord("0")
    fixed = (E >= -4) & (E < 17)
    # the point follows D_E in fixed notation and D0 in exponential notation;
    # fixed notation shows every integer digit
    point = np.where(fixed, np.where(E >= 0, E + 1, 17), 1).astype(np.int8)
    shown = np.where(fixed, np.maximum(k, E + 1), k).astype(np.int8)
    # slot j holds D_j before the point, "." at it and D_(j-1) after it; the
    # arithmetic is branch-free, where masked copies are many times slower
    lower, upper = digits[:-1], digits[1:]
    body = slots[_BODY:_EXP]
    np.copyto(body, lower)
    body += (upper - lower) * (_COL < point)
    body += (ord(".") - lower) * (_COL == point)
    body *= _COL < shown + (_COL > point)
    slots[0] = np.signbit(x) * np.uint8(ord("-"))
    prefix, exponent = _affixes()
    np.take(prefix, np.where(fixed & (E < 0), -E, 0), axis=1, out=slots[_PREFIX:_BODY])
    np.take(exponent, np.where(fixed, 0, E + 325), axis=1, out=slots[_EXP:_SEP])
    sep = slots[_SEP].reshape(-1, ncols)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    if not regular.all():
        nan = np.isnan(x)
        for text, mask in ((b"0", ax == 0), (b"inf", ax == np.inf), (b"nan", nan)):
            slots[1:_SEP, mask] = np.frombuffer(text.ljust(_SEP - 1, b"\0"), np.uint8)[:, None]
        slots[0, nan] = 0
        ok[(ax >= 1e17) & (ax < np.inf)] = False
    for i in np.flatnonzero(~ok):
        text = np.frombuffer(b"%.17g" % x[i], dtype=np.uint8)
        slots[:_SEP, i] = 0
        slots[:text.size, i] = text
    return slots.T.tobytes().translate(None, b"\0")


def csv_text(header, table) -> str:
    """``header`` joined by commas, then one line per row of the 2-D float
    ``table``, each cell ``'%.17g' % cell``; every line ends in ``\\n``."""
    table = np.ascontiguousarray(table, dtype=float)
    nrows, ncols = table.shape
    step = max(1, _CHUNK_CELLS // ncols)
    parts = [(",".join(header) + "\n").encode()]
    for start in range(0, nrows, step):
        parts.append(_chunk(table[start:start + step].ravel(), ncols))
    return b"".join(parts).decode("ascii")
