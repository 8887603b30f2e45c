"""The "%.17g" <-> float64 mapping of the CLI's text files, vectorized with numpy.

Writing.  CPython prints 17 significant digits through dtoa's bignum path,
about 0.5 us a value; a CSV table of the CLI holds up to 3e5 of them.  Here
each value with 1e-280 <= |v| <= 1e280 is scaled to an integer of 17 digits
by a double-double product, rounded to nearest, and laid out as %g does; the
few it cannot round with certainty (a fraction near 1/2, maybe a tie), and
zeros, nan, inf and values outside that range, go through "%.17g" % v.  The
scheme is the fast path with exact fallback of Loitsch, "Printing
floating-point numbers quickly and accurately with integers" (PLDI 2010).
Each value becomes a 32-byte cell of four words with NUL gaps, its digits
made eight at a time by multiply-shift steps on uint64 words; one
bytes.translate drops the gaps.

Reading.  line_values parses every line that is an ASCII decimal
[+-]digits[.digits][(e|E)[+-]digits] of at most 32 bytes and 19
significant digits: the digits as one uint64 mantissa M, eight at a time,
and M * 10**e rounded to nearest through the same double-double powers of
ten (Clinger, "How to read floating point numbers accurately", PLDI 1990;
the word-parallel digits of Lemire, "Number parsing at a gigabyte per
second", Software: Practice and Experience 51, 2021).  One test checks
the mantissa [+-]digits[.digits]: first on every whole line, then, on
the lines that fail it, on the bytes before an exponent split off at the
line's last non-digit (or at the byte before it, when that is a sign),
which must be an e or E with 1-3 digits after it.  It marks as not
parsed every other line, and every value it cannot round with certainty,
for the caller to give to float().
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Decimal exponents the writer meets, its +-1 corrections included.
_EMIN, _EMAX = -281, 281
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_U = np.uint64
# Bytes of a cell of the writer, and of a line the reader parses.
_WIDTH = 32
# Bytes of the file the reader finds line ends in first.
_STEP = 1 << 17
# Values the writer formats per block, and twice the lines the reader
# parses per block, whose 32-byte windows take 128 KiB.  The bulk kernels'
# burr3._BLOCK is sized for float64 temporaries instead.
_TEXT_BLOCK = 1 << 13
_ONES = 0x0101010101010101


def _bytes(byte):
    """byte repeated in each byte of a word."""
    return _U(byte * _ONES)


def _span(lo, hi):
    """Bytes lo to hi - 1 of 32, as four little-endian words."""
    mask = ((1 << 8 * max(hi - lo, 0)) - 1) << 8 * lo
    return [mask >> 64 * w & (2**64 - 1) for w in range(4)]


@functools.cache
def _tables():
    """Read-only lookup tables, built on first use (a few ms)."""
    # 10**p = hi + lo, lo being hi's rounding error rounded; row i holds
    # p = 16 - e for the exponent e = _EMIN + i, as (hi, hh, hl, lo) with
    # hi = hh + hl split for Dekker's product
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
        hh = _SPLIT * hi
        hh -= hh - hi
        pow10.append((hi, hh, hi - hh, lo))
    # per exponent, the layout of %g: fixed notation for -4 <= e < 17, with
    # q digits before the point (none for "0.000..."), else exponential
    es = range(_EMIN, _EMAX + 1)
    q = [e + 1 if 0 <= e < 17 else 0 if e < 0 <= e + 4 else 1 for e in es]
    prefix = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in es]
    suffix = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in es]
    # a cell's first three words hold the sign (byte 0), the "0.000" prefix
    # (bytes 1-5) and the digits with their point (bytes 6-23).  Per q and
    # the index z of the last nonzero of the 17 digits, which bytes come
    # from the digits at bytes 6-22 (those before the point), which from
    # the digits at bytes 7-23 (after it, trailing zeros dropped), and the
    # point, if any digit follows it
    before, after, point = [], [], []
    for qq in range(18):
        for z in range(17):
            dot = 0x2E2E2E2E2E2E2E2E if 1 <= qq <= z else 0
            before.append(_span(0, 6 + qq)[:3])
            after.append(_span(7 + qq, 8 + z)[:3])
            point.append([w & dot for w in _span(6 + qq, 7 + qq)[:3]])
    tables = {
        "pow10": np.array(pow10).T.copy(),
        "q17": np.array(q) * 17,
        "pre": np.array([int.from_bytes(s.rjust(6, b"\0"), "little") for s in prefix], _U),
        "suf": np.array([int.from_bytes(s, "little") for s in suffix], _U),
        "before": np.array(before, _U).T.copy(),
        "after": np.array(after, _U).T.copy(),
        "point": np.array(point, _U).T.copy(),
        "last": np.array([_span(_WIDTH - k, _WIDTH) for k in range(_WIDTH + 1)], _U),
        "sign": np.array([1.0, -1.0]),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _product(a, i, t):
    """a * 10**(16 - e) for e = _EMIN + i as s + r, and the power's hi.

    A Dekker product with 10**(16 - e) as a double-double: s is a * hi
    rounded, r the rest, off by less than 2**-100 of the product.
    """
    hi, hh, hl, lo = (part.take(i) for part in t["pow10"])
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    s = a * hi
    return s, ((ah * hh - s) + ah * hl + al * hh) + al * hl + a * lo, hi


def _scaled(a, i, t):
    """a * 10**(16 - e) for e = _EMIN + i: its integer part and fraction.

    The sum is off by less than 1e-14 on values near 1e17.
    """
    s, r, _ = _product(a, i, t)
    whole = np.floor(r)
    r -= whole
    return s.astype(np.int64) + whole.astype(np.int64), r


def _digits8(x):
    """The 8 decimal digits of each x < 10**8 as bytes 0-9, the first in the lowest byte."""
    hi = (x * _U(109951163)) >> _U(40)  # x // 10000
    x = hi | ((x - hi * _U(10000)) << _U(32))
    hi = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # // 100 per half
    x = ((x - hi * _U(100)) << _U(16)) + hi
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10 per quarter
    return hi + ((x - hi * _U(10)) << _U(8))


def _nonzero(x):
    """One bit for each nonzero byte 0-9 of each word, the lowest byte's the lowest bit."""
    return (((x + _bytes(0x7F)) & _bytes(0x80)) * _U(0x0002040810204081)) >> _U(56)


def _fill(rows, v, seps, t):
    """Writes the cells of the values v, one row of four words each."""
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
    # the 17 digits: the first, then two words of eight
    big = big.view(_U)
    first = big // _U(10**16)
    big -= first * _U(10**16)
    hi = big // _U(10**8)
    lo = _digits8(big - hi * _U(10**8))
    hi = _digits8(hi)
    # the last nonzero digit: one bit a nonzero digit, then the highest bit
    z = _U(1) | _nonzero(hi) << _U(1) | _nonzero(lo) << _U(9)
    c = t["q17"].take(i) + np.frexp(z.astype(np.float64))[1] - 1
    hi += _bytes(0x30)
    lo += _bytes(0x30)
    first += _U(0x30)
    # two copies of the digits, at bytes 7-23 (first, hi, lo as they stand)
    # and one byte earlier: a cell takes those before the point from the
    # earlier copy, then the point, then the rest from the later copy
    before, after, point = t["before"], t["after"], t["point"]
    cell = (((first << _U(48)) | (hi << _U(56))) & before[0].take(c)) | ((first << _U(56)) & after[0].take(c))
    cell |= point[0].take(c)
    np.bitwise_or(cell, t["pre"].take(i) | (v < 0).astype(_U) * _U(ord("-")), out=rows[:, 0])
    cell = (((hi >> _U(8)) | (lo << _U(56))) & before[1].take(c)) | (hi & after[1].take(c))
    np.bitwise_or(cell, point[1].take(c), out=rows[:, 1])
    cell = ((lo >> _U(8)) & before[2].take(c)) | (lo & after[2].take(c))
    np.bitwise_or(cell, point[2].take(c), out=rows[:, 2])
    np.bitwise_or(t["suf"].take(i), seps, out=rows[:, 3])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        rows[slow, :3] = text.view(_U).reshape(-1, 3)
        rows[slow, 3] = seps[slow]


def table_text(columns):
    """Rows of "%.17g" texts joined by commas, each row ending in a newline, as ASCII bytes.

    columns are equal-length 1-d float64 arrays.  The table goes through
    in blocks of about _TEXT_BLOCK values, whole rows each, so that every
    temporary comes from the heap rather than fresh pages.
    """
    ncols = len(columns)
    values = np.column_stack(columns).ravel()
    step = max(1, _TEXT_BLOCK // ncols) * ncols
    seps = np.array([ord(",")] * (ncols - 1) + [ord("\n")], _U) << _U(56)
    seps = np.tile(seps, step // ncols)
    rows = np.empty((step, 4), _U)
    t = _tables()
    out = []
    for start in range(0, values.size, step):
        v = values[start : start + step]
        n = v.size
        _fill(rows[:n], v, seps[:n], t)
        out.append(rows[:n].tobytes().translate(None, b"\0"))
    return b"".join(out)


def _line_bounds(raw, lo, hi):
    """Where each line of raw[lo:hi] starts and stops in raw, its end excluded.

    Lines end as universal newlines end them: at \\n, \\r\\n or a lone \\r.
    """
    b = np.frombuffer(raw, np.uint8, hi - lo, lo)
    lf = b == 10
    crs = raw.find(b"\r", lo, hi) >= 0
    if crs:
        # a \r ends its line, unless a \n follows to end it
        cr = b == 13
        end = lf.copy()
        end[:-1] |= cr[:-1] & ~lf[1:]
        end[-1:] |= cr[-1:]
        lf = end
    ends = np.flatnonzero(lf)
    starts = np.empty(ends.size + 1, np.intp)
    starts[0] = 0
    np.add(ends, 1, out=starts[1:])
    stops = np.append(ends, b.size)
    if crs:
        stops[:-1] -= (b[ends] == 10) & (b[ends - 1] == 13) & (ends > 0)
    return starts + lo, stops + lo


def _parse8(x):
    """The number each word's 8 digit bytes 0-9 spell, the first in the lowest byte."""
    x = (x * _U(10 * 256 + 1)) >> _U(8)
    x = ((x & _U(0x00FF00FF00FF00FF)) * _U(100 * 2**16 + 1)) >> _U(16)
    return ((x & _U(0x0000FFFF0000FFFF)) * _U(10000 * 2**32 + 1)) >> _U(32)


def _low(x):
    """Which bit is the lowest set bit of each word below 2**_WIDTH, _WIDTH for none."""
    x = x | _U(1 << _WIDTH)
    return ((x & (_U(0) - x)).astype(np.float64).view(np.int64) >> 52) - 1023


def _mantissa(flat, base, first, lead, bits, end):
    """Which lines spell [+-]digits[.digits] in slots first to end - 1, and the slot of each one's point.

    bits marks the slots of those bytes that are not 0-9, lead whether
    slot first holds a sign.  The point's slot is _WIDTH for none.
    """
    rest = bits ^ (lead.astype(_U) << first.astype(_U))
    point = _low(rest)
    good = ((rest & (rest - _U(1))) == 0) & (np.minimum(point, end) > first + lead)
    good &= (rest == 0) | ((flat.take(base + np.minimum(point, _WIDTH - 1)) == ord(".")) & (point < end - 1))
    return good, point


def _read_block(windows, stops, size, t):
    """The values of some lines, and whether each is certain: see line_values.

    Window stops[j] holds the bytes that end line j, of size[j] bytes.
    """
    n = stops.size
    fits = (size > 0) & (size <= _WIDTH)
    # each line right-aligned in a 32-byte window, the bytes before it from
    # the lines before; slot k is byte k
    g = windows[stops]
    flat = g.reshape(-1)
    base = np.arange(0, n * _WIDTH, _WIDTH)
    size = np.minimum(size, _WIDTH)
    first = np.minimum(_WIDTH - size, _WIDTH - 1)
    # the non-digit slots of each line, one bit a slot: a byte's high bit
    # set when it is not 0-9, eight bits gathered from each word
    x = g.view(_U).reshape(-1) ^ _bytes(0x30)
    x = (((x & _bytes(0x7F)) + _bytes(0x76)) | x) & _bytes(0x80)
    x = ((x * _U(0x0002040810204081)) >> _U(56)).astype(np.uint8).view(np.uint32).ravel()
    nondigit = ((_U(1) << size.astype(_U)) - _U(1)) << (_WIDTH - size).astype(_U) & x
    # the mantissa test runs on every whole line; a line it fails has its
    # exponent split off at its last non-digit, or at the byte before it
    # if that is a sign.  That byte must be an e or E with 1-3 digits after
    # it, and the same test runs on the bytes before it (so that at least
    # one digit comes first)
    c0 = flat.take(base + first)
    lead = (c0 == ord("-")) | (c0 == ord("+"))
    good, point = _mantissa(flat, base, first, lead, nondigit, _WIDTH)
    good &= fits
    mark = np.full(n, _WIDTH)
    exp10 = np.zeros(n, np.intp)
    other = np.flatnonzero(fits & ~good)
    if other.size:
        bits, at = nondigit[other], base[other]
        last = np.frexp(bits.astype(np.float64))[1] - 1
        sign = flat.take(at + last)
        mk = last - ((sign == ord("-")) | (sign == ord("+")))
        digits = _WIDTH - 1 - last
        # a byte ORed with 0x20 is "e" for e and E alone
        ok = (flat.take(at + mk) | 0x20 == ord("e")) & (digits > 0) & (digits <= 3)
        bits &= (_U(1) << mk.astype(_U)) - _U(1)
        mantissa, pt = _mantissa(flat, at, first[other], lead[other], bits, mk)
        ok &= mantissa
        rows = other[ok]
        if rows.size:
            good[rows] = True
            point[rows] = pt[ok]
            mark[rows] = mk[ok]
            # the exponent's digits, from the line's last three bytes
            keep = t["last"][:, 3].take(digits[ok])
            ex = (g.view(_U)[rows, 3] & keep ^ _bytes(0x30) & keep) >> _U(40)
            ex = ((ex & _U(0xFF)) * _U(100) + (ex >> _U(8) & _U(0xFF)) * _U(10) + (ex >> _U(16))).astype(np.intp)
            exp10[rows] = np.where(sign[ok] == ord("-"), -ex, ex)
            # the mantissa right-aligned in its own window
            g = g.copy()
            g[rows] = windows[stops[rows] - _WIDTH + mark[rows]]
    haspt = point < _WIDTH
    frac = np.where(haspt, mark - point - 1, 0)
    ndigits = mark - first - lead - haspt
    exp10 -= frac
    # the mantissa's digits as bytes 0-9, the point taken out by moving the
    # bytes before it one slot on, then eight digits a word
    x = g.view(_U).reshape(-1) ^ _bytes(0x30)
    moved = x << _U(8)
    moved[1:] |= x[:-1] >> _U(56)
    keep = t["last"].take(np.where(haspt, frac, ndigits), axis=0, mode="clip").reshape(-1)
    x = (moved & (t["last"].take(ndigits, axis=0, mode="clip").reshape(-1) ^ keep)) | (x & keep)
    x = _parse8(x).reshape(n, 4)
    good &= (x[:, 0] == 0) & (x[:, 1] < 1000)
    m = (x[:, 1] * _U(10**8) + x[:, 2]) * _U(10**8) + x[:, 3]
    # m * 10**exp10 rounded to nearest: mh * 10**exp10 as a double-double,
    # plus (m - mh) * 10**exp10; the sum is off by less than 2**-100 of it
    good &= (exp10 >= -265) & (exp10 <= 288)
    exp10[~good] = 0
    m[~good] = 0
    mh = m.astype(np.float64)
    s, r, hi = _product(mh, 16 - _EMIN - exp10, t)
    r += (m - mh.astype(_U)).view(np.int64).astype(np.float64) * hi
    v = s + r
    err = r - (v - s)
    # v is the nearest double when both ends of the error bound round to it
    bound = v * 2.0**-99
    good &= (v + (err + bound) == v) & (v + (err - bound) == v)
    v *= t["sign"].take(c0 == ord("-"))
    return v, good


def line_values(raw):
    """The float of each line of raw, bytes, where a strict grammar gives it exactly.

    Lines end as universal newlines end them.  Yields, for each block of
    at most _TEXT_BLOCK // 2 lines (128 KiB of windows), (starts, stops,
    values, parsed): line j of the block is raw[starts[j]:stops[j]], and where
    parsed[j] values[j] is float() of it, bit for bit.  A line is parsed
    when it is an ASCII [+-]digits[.digits][(e|E)[+-]digits] of at most 32
    bytes, 19 significant digits and 3 exponent digits, its digits make
    m * 10**e with -265 <= e <= 288, and the double-double product rounds
    it with certainty.  Blank lines, comments, whitespace, delimiters, nan
    and the rest are not parsed.  Line ends are found a step at a time,
    the first of about _STEP bytes and each next one 8 times longer, so a
    caller that stops after the first blocks pays for little more.
    """
    t = _tables()
    lo, step = 0, _STEP
    while True:
        # a step ends after a \n, so that no \r\n straddles two
        hi = raw.find(b"\n", lo + step) + 1 or len(raw)
        starts, stops = _line_bounds(raw, lo, hi)
        if hi < len(raw):
            # the empty line after the step's last \n starts the next step
            starts, stops = starts[:-1], stops[:-1]
        # window k holds the 32 bytes of raw before byte lo + k, NULs before
        # its start
        if lo:
            b = np.frombuffer(raw, np.uint8, hi - lo + _WIDTH, lo - _WIDTH)
        else:
            b = np.frombuffer(bytes(_WIDTH) + raw[:hi], np.uint8)
        windows = sliding_window_view(b, _WIDTH)
        for k in range(0, starts.size, _TEXT_BLOCK // 2):
            j = slice(k, k + _TEXT_BLOCK // 2)
            yield (starts[j], stops[j], *_read_block(windows, stops[j] - lo, stops[j] - starts[j], t))
        if hi == len(raw):
            return
        lo, step = hi, 8 * step
