"""The CSV float writer against its reference, "%.17g" % v."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esbiii._g17 import table_text


def _want(*columns):
    return "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in zip(*(c.tolist() for c in columns))
    ).encode("ascii")


def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


NAMED = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    sys.float_info.max,
    -sys.float_info.max,
    sys.float_info.min,
    1e23,
    1000000000000000.25,  # a tie at 17 digits, which rounds to even
    # below their power of ten, which 17 digits round up to: a carry into 10**17
    1e-14,
    1e98,
    1e-243,
    math.nan,
    math.inf,
    -math.inf,
    1e-280,
    1e280,
    *_neighbours(1e-5),
    *_neighbours(1e-4),
    *_neighbours(1e16),
    *_neighbours(1e17),
    *_neighbours(1.0),
    0.1,
    -1.0 / 3.0,
    123456789012345678.0,
    99999999999999999.0,
]


@pytest.mark.parametrize("x", NAMED, ids=repr)
def test_named_values(x):
    assert table_text([np.array([x])]) == b"%.17g\n" % x


def test_named_values_in_one_table():
    col = np.array(NAMED)
    assert table_text([col, col[::-1], -col]) == _want(col, col[::-1], -col)


def test_random_bit_patterns():
    bits = np.random.default_rng(20240613).integers(0, 2**64, 1_000_002, dtype=np.uint64)
    values = bits.view(np.float64)
    text = ["%.17g" % v for v in values.tolist()]
    assert table_text([values]) == ("\n".join(text) + "\n").encode("ascii")
    rows = np.array(text, dtype=object).reshape(-1, 3)
    want = "".join(",".join(r) + "\n" for r in rows.tolist())
    assert table_text([values[0::3], values[1::3], values[2::3]]) == want.encode("ascii")


def test_every_power_of_two_and_decimal_grid():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    grid = np.round(np.linspace(-1e4, 1e4, 20001), 2) * 10.0 ** np.arange(-20, 21).repeat(500)[:20001]
    for col in (powers, grid):
        assert table_text([col]) == _want(col)


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 3))
def test_any_floats(xs, ncols):
    col = np.array(xs)
    columns = [np.roll(col, i) for i in range(ncols)]
    assert table_text(columns) == _want(*columns)
