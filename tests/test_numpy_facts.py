"""Facts about numpy on which the fitter's cheaper calls keep every result bit for bit.

The fitter's objective lines take their plateau values from burr3's
_log_density on Python floats, its trust-region subproblem takes norms as
sqrt(v @ v), and its probes take their three sums from one row-wise reduce
of a 3-row scratch.  Each must give the bits of the numpy path it stands
in for, on any numpy the package supports, so the NumPy-floor CI job runs
this file too.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from esbiii.burr3 import _log_density, _log_density_sum
from esbiii.fit import _norm


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64).tolist()


@settings(max_examples=500)
@given(
    log_const=st.floats(-1e3, 1e3),
    c=st.floats(1e-300, 1e300),
    k=st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 1e3), st.floats(1e3, 1e300)),
    log_z=st.floats(-700.0, 700.0),
)
@example(log_const=0.0, c=5.0, k=0.2, log_z=math.log(1e-3 / 0.7))
@example(log_const=0.0, c=1e300, k=1e300, log_z=-700.0)
def test_log_density_of_a_float_is_its_array_path(log_const, c, k, log_z):
    # the float path uses the operators where the array path uses ufuncs.  A
    # 0-d array takes log1p_exp's scalar branch, as a float does; a 1-d one
    # takes numpy's exp and log1p, which may differ from math's in the last bit
    got = _log_density(log_const, c, k, log_z)
    assert type(got) is float
    with np.errstate(all="ignore"):
        want = _log_density(log_const, c, k, np.array(log_z))
    assert _bits(got) == _bits(want)


@settings(max_examples=500)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        min_size=1,
        max_size=5,
    )
)
@example([3.0, -4.0])
@example([1e200, 1e200, -1e-320])
def test_sqrt_of_the_dot_is_numpys_norm(values):
    v = np.array(values)
    with np.errstate(over="ignore"):
        assert _bits(math.sqrt(v @ v)) == _bits(np.linalg.norm(v))
        assert _bits(_norm(v)) == _bits(np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.integers(0, 300), st.integers(8185, 8200), st.integers(8201, 20000)),
    extra=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=16368, extra=3, seed=1)
def test_row_wise_reduce_is_three_reduces(m, extra, seed):
    # the probe's scratch is a (3, n) array cut to its first m columns
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, m + extra)) * rng.uniform(1e-3, 1e3, (3, 1))
    rows = rows[:, :m]
    together = np.add.reduce(rows, 1)
    assert _bits(together) == _bits([np.add.reduce(rows[i]) for i in range(3)])


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.integers(1, 300), st.integers(2000, 20000)),
    c=st.floats(0.05, 50.0),
    k=st.floats(0.01, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_density_sum_of_three_rows_is_its_one_row_path(m, c, k, seed):
    lz = np.random.default_rng(seed).uniform(-30.0, 30.0, m)
    rows = np.empty((3, m + 7))[:, :m]
    rows[0] = lz
    assert _bits(_log_density_sum(rows, c, k)) == _bits(_log_density_sum(lz.copy(), c, k))
