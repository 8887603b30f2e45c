"""The bulk kernels run in blocks of BLOCK elements; blocks must not show.

Every per-element output of an array equals the output on any split of
the array, and sample, burr3_sample, quantile and cdf equal their one-shot
formulas.  loglik and score add
per-block partial sums, so only they may move, and only in trailing bits.
A tracemalloc guard keeps the temporaries of a 1e6-element call at block
size.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esbiii import Params, cdf, logpdf, pdf, quantile, sample
from esbiii.burr3 import _BLOCK as BLOCK, Burr3Params, burr3_quantile, burr3_sample
from esbiii.errors import DensityLimitWarning
from esbiii.fit import loglik, score
from esbiii.gof import Dataset

# one short of, at and one past a block, of 8192 elements (the kernels'
# first block size) and of BLOCK, and a size across blocks
SIZES = (8191, 8192, 8193, BLOCK - 1, BLOCK, BLOCK + 1, 24581)
KERNELS = (pdf, logpdf, cdf, quantile)
REGIMES = ((2.0, 1.0, -0.3), (5.0, 0.2, 0.4), (5.0, 0.1, 0.2))

params = st.builds(
    Params,
    mu=st.floats(-5.0, 5.0),
    sigma=st.floats(0.01, 100.0),
    c=st.floats(0.2, 30.0),
    k=st.floats(0.05, 20.0),
    eps=st.floats(-0.95, 0.95),
)


def _inputs(fn, p, n, seed):
    """Probabilities for quantile; draws with a few points at mu otherwise."""
    rng = np.random.default_rng(seed)
    if fn is quantile:
        return rng.uniform(1e-12, 1.0 - 1e-12, n)
    y = sample(p, n, seed)
    y[rng.integers(0, n, 3)] = p.mu
    return y


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _quiet(fn, p, y):
    # extreme draws may overflow a density; the test is about bits, not warnings
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", DensityLimitWarning)
        return fn(p, y)


@given(
    p=params,
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(0, SIZES[-1]), max_size=4),
)
def test_kernels_equal_their_values_on_any_split(p, n, seed, cuts):
    edges = sorted({0, n, *(c for c in cuts if c < n)})
    for fn in KERNELS:
        y = _inputs(fn, p, n, seed)
        whole = _quiet(fn, p, y)
        pieces = [_quiet(fn, p, y[a:b]) for a, b in zip(edges, edges[1:])]
        assert np.array_equal(_bits(whole), _bits(np.concatenate(pieces))), fn.__name__
        rows = y[: n // 7 * 7].reshape(7, -1)
        flat = _quiet(fn, p, rows.ravel()).reshape(rows.shape)
        assert np.array_equal(_bits(_quiet(fn, p, rows)), _bits(flat))
        # a scalar is a block of its own; outside quantile its softplus takes
        # the math branch, as before blocking, so only the last bits may differ
        v = float(y[n // 2])
        one = _quiet(fn, p, v)
        assert isinstance(one, float)
        if fn is quantile:
            assert _bits(one) == _bits(whole[n // 2])
        else:
            assert one == pytest.approx(whole[n // 2], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c, k, eps", REGIMES)
def test_sample_is_the_one_shot_formula(n, c, k, eps):
    p = Params(0.3, 1.7, c, k, eps)
    rng = np.random.default_rng(29)
    u = rng.random(n)
    u = np.where(u == 0.0, 2.0**-53, u)
    z = burr3_quantile(Burr3Params(c, k), u)
    v = rng.random(n)
    u_mix = np.where(v < 0.5 * (1.0 + eps), 1.0 + eps, -(1.0 - eps))
    y = p.mu + p.sigma * z * u_mix
    on_mu = y == p.mu
    y[on_mu] = np.nextafter(p.mu, np.copysign(np.inf, u_mix[on_mu]))
    assert np.array_equal(_bits(sample(p, n, 29)), _bits(y))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c, k", [regime[:2] for regime in REGIMES])
def test_burr3_sample_is_the_one_shot_formula(n, c, k):
    p = Burr3Params(c, k)
    u = np.random.default_rng(29).random(n)
    u = np.where(u == 0.0, 2.0**-53, u)
    assert np.array_equal(_bits(burr3_sample(p, n, 29)), _bits(burr3_quantile(p, u)))


def _tail_probs(p, n, seed):
    """Uniform probabilities, led by tail ones from 1e-300 to 1 - 2**-53 and the split."""
    rng = np.random.default_rng(seed)
    q = rng.random(n)
    q[q == 0.0] = 0.5
    tails = np.concatenate([10.0 ** -np.arange(1.0, 301.0), 1.0 - 2.0 ** -np.arange(1.0, 54.0)])
    q[: tails.size + 1] = np.append(tails, 0.5 * (1.0 - p.eps))
    return q


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c, k, eps", REGIMES)
def test_quantile_is_the_two_branch_formula(n, c, k, eps):
    p = Params(0.3, 1.7, c, k, eps)
    q = _tail_probs(p, n, 31)
    half_lo, half_hi = 0.5 * (1.0 - eps), 0.5 * (1.0 + eps)
    pos = q > half_lo
    half = np.where(pos, half_hi, -half_lo)
    r = (pos - q) / half  # 1 - u, formed from prob
    u = (q - half_lo) / half_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        # -log u: from u itself right of the split where u <= 1/2, else from r
        a = np.where(pos & (r >= 0.5), -np.log(u), -np.log1p(-r)) / k
        log_t = np.where(a > 33.0, a + np.log1p(-np.exp(-a)), np.log(np.expm1(np.minimum(a, 33.0))))
    y = p.mu + np.exp(-log_t / c) * (2.0 * half) * p.sigma
    assert np.array_equal(_bits(quantile(p, q)), _bits(y))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c, k, eps", REGIMES)
def test_cdf_is_the_two_branch_formula(n, c, k, eps):
    p = Params(0.3, 1.7, c, k, eps)
    y = sample(p, n, 37)
    y[:7] = p.mu, -1e300, 1e300, np.nextafter(p.mu, -1.0), np.nextafter(p.mu, 1.0), -1e-300, 1e-300
    half_lo, half_hi = 0.5 * (1.0 - eps), 0.5 * (1.0 + eps)
    d = y - p.mu
    pos = d >= 0.0
    w = np.abs(d) / np.where(pos, p.sigma * (1.0 + eps), p.sigma * (1.0 - eps))
    with np.errstate(divide="ignore"):
        s = -c * np.log(w)
    t = -k * (np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))))  # -k log(1 + w**-c)
    want = np.where(pos, half_lo + half_hi * np.exp(t), -half_lo * np.expm1(t))
    assert np.array_equal(_bits(cdf(p, y)), _bits(want))


@pytest.mark.parametrize("c, k, eps", REGIMES)
def test_loglik_sums_blocks_to_the_pointwise_total(c, k, eps):
    p = Params(0.3, 1.7, c, k, eps)
    x = sample(p, SIZES[-1], 5)
    ref = math.fsum(logpdf(p, x))
    assert abs(loglik(p, Dataset(x)) / ref - 1.0) <= 1e-13


def test_block_sums_that_fsum_cannot_round_give_the_single_pass_result():
    # finite block partials whose total overflows: math.fsum raises
    big = Params(0.0, 1.0, 1.5e301, 1.0, 0.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert loglik(big, Dataset(np.full(3 * BLOCK, 1e300))) == -math.inf
    # mu terms of +inf and -inf in different blocks: math.fsum raises
    p = Params(0.0, 1.7, 2.0, 0.2, 0.3)
    x = sample(p, 2 * BLOCK, 4)
    x[[5, BLOCK + 5]] = 1e-323, -1e-323
    with pytest.warns(RuntimeWarning):  # overflow in coef/d, then inf - inf
        g = score(p, Dataset(x))
    assert math.isnan(g[0]) and np.all(np.isfinite(g[1:]))


def test_ties_in_several_blocks_warn_once():
    p = Params(0.3, 1.7, 5.0, 0.1, 0.2)  # c*k < 1: the density diverges at mu
    y = sample(p, 3 * BLOCK, 3)
    y[[5, BLOCK + 5, 2 * BLOCK + 5]] = p.mu
    for fn in (pdf, logpdf):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            fn(p, y)
        assert [w.category for w in seen] == [DensityLimitWarning]


N_PEAK = 1_000_000
MB = 1_000_000


def _peak_bytes(call):
    """Largest traced allocation above the start while call runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big():
    p = Params(0.3, 1.7, 5.0, 0.2, 0.4)
    x = sample(p, N_PEAK, 1)
    prob = np.random.default_rng(1).uniform(1e-6, 1.0 - 1e-6, N_PEAK)
    return p, x, prob, Dataset(x)


@pytest.mark.parametrize(
    "name, bound",
    [
        ("pdf", 8 * MB + 1.5 * MB),
        ("logpdf", 8 * MB + 1.5 * MB),
        ("cdf", 8 * MB + 1.5 * MB),
        ("quantile", 8 * MB + 1.5 * MB),
        ("sample", 2 * 8 * MB + 1.5 * MB),
        ("burr3_sample", 8 * MB + 1.5 * MB),
        ("loglik", 1.5 * MB),
        ("score", 1.5 * MB),
    ],
)
def test_peak_memory_stays_at_block_size(big, name, bound):
    p, x, prob, data = big
    calls = {
        "pdf": lambda: pdf(p, x),
        "logpdf": lambda: logpdf(p, x),
        "cdf": lambda: cdf(p, x),
        "quantile": lambda: quantile(p, prob),
        "sample": lambda: sample(p, N_PEAK, 2),
        "burr3_sample": lambda: burr3_sample(Burr3Params(p.c, p.k), N_PEAK, 2),
        "loglik": lambda: loglik(p, data),
        "score": lambda: score(p, data),
    }
    assert _peak_bytes(calls[name]) <= bound
