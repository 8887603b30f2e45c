"""The text of "%.17g" % v for every float64 of a table, vectorized with numpy.

CPython prints 17 significant digits through dtoa's bignum path, about
0.5 us a value; a CSV table of the CLI holds up to 3e5 of them.  Here each
value with 1e-280 <= |v| <= 1e280 is scaled to an integer of 17 digits by a
double-double product, rounded to nearest, and laid out as %g does; the
few it cannot round with certainty (a fraction near 1/2, maybe a tie), and
zeros, nan, inf and values outside that range, go through "%.17g" % v.
The scheme is the fast path with exact fallback of Loitsch, "Printing
floating-point numbers quickly and accurately with integers" (PLDI 2010).
"""

from __future__ import annotations

import functools

import numpy as np

from .burr3 import _BLOCK

# Decimal exponents the fast path meets, its +-1 corrections included.
_EMIN, _EMAX = -281, 281
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant

# A cell is 13 little-endian uint32 words of ASCII with NUL gaps, which the
# final compaction drops: the sign and "0.000" prefix (2 words, whose last
# byte holds the 17th integer digit), the integer digits right-aligned (4),
# the point (1), the fraction digits left-aligned (4), then the exponent
# and the separator (2).
_WORDS = 13


def _word(text):
    return int.from_bytes(text.ljust(4, b"\0"), "little")


@functools.cache
def _tables():
    """Read-only lookup tables, built on first use (a few ms)."""
    # 10**p = hi + lo, lo being hi's rounding error rounded; row i holds
    # p = 16 - e for the exponent e = _EMIN + i
    pow10 = []
    for p in range(16 - _EMIN, 15 - _EMAX, -1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (q * den)
        pow10.append((hi, lo))
    hi, lo = np.array(pow10).T
    hh = _SPLIT * hi
    hh -= hh - hi
    # each 4-digit chunk as 4 ASCII bytes: in full, without its leading
    # zeros, and without its trailing zeros
    c = np.arange(10000)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    lead = np.cumsum(digits, axis=1) > 0
    trail = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0
    chunks = np.stack([digits + 48, (digits + 48) * lead, (digits + 48) * trail])
    # per exponent, the layout of %g: fixed notation for -4 <= e < 17
    es = range(_EMIN, _EMAX + 1)
    int_digits = np.array([e + 1 if 0 <= e < 17 else 1 for e in es], np.int64)
    prefix = [b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"") for e in es]
    suffix = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in es]
    tables = {
        "hi": hi,
        "hh": hh,
        "hl": hi - hh,
        "lo": lo,
        "chunks": chunks.astype(np.uint8).view("<u4").ravel(),
        "div": 10 ** (17 - int_digits),
        "mul": 10 ** (int_digits - 1),
        "point": np.array([0 if -4 <= e < 0 else ord(".") for e in es], np.uint32),
        "pre0": np.array([_word(s[:4]) for s in prefix], np.uint32),
        "pre1": np.array([_word(s[4:]) for s in prefix], np.uint32),
        "suf0": np.array([_word(s[:4]) for s in suffix], np.uint32),
        "suf1": np.array([_word(s[4:]) for s in suffix], np.uint32),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(a, i, t):
    """a * 10**(16 - e) for e = _EMIN + i: its integer part and fraction.

    A Dekker product with 10**(16 - e) as a double-double; the sum is off
    by less than 1e-14 on values near 1e17.
    """
    hi, hh, hl, lo = (t[k].take(i) for k in ("hi", "hh", "hl", "lo"))
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    s = a * hi
    r = ((ah * hh - s) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(r)
    r -= whole
    return s.astype(np.int64) + whole.astype(np.int64), r


def _fill(cells, v, seps, t):
    """Writes the cells of the values v, one column of cells each."""
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _EMIN
    big, frac = _scaled(a, i, t)
    off = np.flatnonzero((big < 10**16) | (big >= 10**17))
    if off.size:
        # log10 was one off; for 1e23 only the fraction shows it
        i[off] += np.where(big[off] < 10**16, -1, 1)
        big[off], frac[off] = _scaled(a[off], i[off], t)
    fast &= np.abs(frac - 0.5) >= 1e-3
    big += frac > 0.5
    top = big == 10**17
    big[top] = 10**16
    i += top
    d = t["div"].take(i)
    whole = big // d
    part = (big - whole * d) * t["mul"].take(i)
    chunks = t["chunks"]
    # the integer digits, right-aligned without leading zeros
    r = whole
    for k in (5, 4, 3, 2):
        q = r // 10000
        chunks.take((r - q * 10000) + 10000 * (q == 0), out=cells[k])
        r = q
    np.bitwise_or(t["pre0"].take(i), (v < 0) * np.uint32(ord("-")), out=cells[0])
    np.bitwise_or(t["pre1"].take(i), ((r > 0) * (r + 48)).astype(np.uint32) << 24, out=cells[1])
    np.multiply(t["point"].take(i), part != 0, out=cells[6])
    # the fraction digits, left-aligned without trailing zeros
    r = part
    zero = np.ones(n, bool)
    for k in (10, 9, 8):
        q = r // 10000
        c = r - q * 10000
        chunks.take(c + 20000 * zero, out=cells[k])
        zero &= c == 0
        r = q
    chunks.take(r + 20000 * zero, out=cells[7])
    t["suf0"].take(i, out=cells[11])
    np.bitwise_or(t["suf1"].take(i), seps, out=cells[12])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        cells[:, slow] = 0
        cells[:6, slow] = text.view("<u4").reshape(-1, 6).T
        cells[12, slow] = seps[slow]


def table_text(columns):
    """Rows of "%.17g" texts joined by commas, each row ending in a newline, as ASCII bytes.

    columns are equal-length 1-d float64 arrays.  The table goes through
    in blocks of about _BLOCK values, whole rows each, so that every
    temporary comes from the heap rather than fresh pages.
    """
    ncols = len(columns)
    values = np.column_stack(columns).ravel()
    step = max(1, _BLOCK // ncols) * ncols
    seps = np.array([ord(",")] * (ncols - 1) + [ord("\n")], np.uint32) << 24
    seps = np.tile(seps, step // ncols)
    cells = np.empty((_WORDS, step), "<u4")
    rows = np.empty((step, _WORDS), "<u4")
    t = _tables()
    out = []
    for start in range(0, values.size, step):
        v = values[start : start + step]
        n = v.size
        _fill(cells[:, :n], v, seps[:n], t)
        np.copyto(rows[:n], cells[:, :n].T)
        text = rows[:n].view(np.uint8).ravel()
        out.append(text[text != 0].tobytes())
    return b"".join(out)
