import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import esbiii
from esbiii import (
    CfSpec,
    EntropySpec,
    ModeStructure,
    MomentSpec,
    Params,
    cdf,
    cf_partial_sum,
    logpdf,
    mean,
    mode_structure,
    pdf,
    quantile,
    raw_moment,
    renyi_entropy,
    sample,
    shape_stats,
    variance,
)
from esbiii.errors import DensityLimitWarning, DomainError, MomentDoesNotExistError
from esbiii.gof import Dataset, ks_pvalue, ks_statistic
from esbiii.special_math import beta_fn, integrate

# grid used by the normalization / reflection / mode-structure checks
GRID = [
    Params(0.0, 1.0, c, k, e)
    for c in (0.8, 2.0, 5.0, 20.0)
    for k in (0.07, 0.2, 1.0, 3.0)
    for e in (-0.8, 0.0, 0.5)
]

loc_scale = st.builds(
    Params,
    mu=st.floats(-5.0, 5.0),
    sigma=st.floats(0.1, 10.0),
    c=st.floats(0.5, 20.0),
    k=st.floats(0.1, 5.0),
    eps=st.floats(-0.9, 0.9),
)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, sigma=0.0, c=2.0, k=1.0, eps=0.0),
            dict(mu=0.0, sigma=-1.0, c=2.0, k=1.0, eps=0.0),
            dict(mu=0.0, sigma=1.0, c=0.0, k=1.0, eps=0.0),
            dict(mu=0.0, sigma=1.0, c=2.0, k=-0.1, eps=0.0),
            dict(mu=0.0, sigma=1.0, c=2.0, k=1.0, eps=1.0),
            dict(mu=0.0, sigma=1.0, c=2.0, k=1.0, eps=-1.5),
            dict(mu=math.nan, sigma=1.0, c=2.0, k=1.0, eps=0.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            Params(**kwargs)


class TestPdf:
    def test_symmetric_hand_value(self):
        assert pdf(Params(0.0, 1.0, 2.0, 1.0, 0.0), 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_skew_hand_value(self):
        assert pdf(Params(0.0, 1.0, 2.0, 1.0, 0.5), -1.0) == pytest.approx(0.08, rel=1e-13)

    def test_normalization_microarray_point(self):
        p = Params(-0.0061, 0.0770, 2.3826, 0.7786, 0.0533)
        r = integrate(lambda y: pdf(p, y), -math.inf, math.inf, tol=1e-9)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"c{p.c}_k{p.k}_e{p.eps}")
    def test_normalization_grid(self, p):
        r = integrate(lambda y: pdf(p, y), -math.inf, math.inf, tol=1e-9)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_reflection(self):
        for p in GRID:
            q = Params(p.mu, p.sigma, p.c, p.k, -p.eps)
            for d in (0.05, 0.3, 1.0, 4.0):
                assert pdf(p, p.mu + d) == pytest.approx(pdf(q, q.mu - d), rel=1e-13)

    def test_at_location_bimodal_regime(self):
        # c*k > 1: the density dips to 0 between the two peaks
        assert pdf(Params(1.0, 2.0, 2.0, 1.0, 0.3), 1.0) == 0.0

    def test_at_location_boundary_regime(self):
        # c*k = 1: finite two-sided limit c*k / (2 sigma)
        p = Params(1.0, 2.0, 5.0, 0.2, 0.3)
        assert pdf(p, 1.0) == pytest.approx(1.0 / 4.0, rel=1e-13)

    def test_at_location_spiked_regime(self):
        # c*k < 1: saturated sentinel plus a warning
        p = Params(0.0, 1.0, 2.0, 0.25, 0.0)
        with pytest.warns(DensityLimitWarning):
            v = pdf(p, 0.0)
        assert v == sys.float_info.max

    def test_logpdf_matches_pdf(self):
        p = Params(0.3, 1.7, 5.0, 0.4, -0.2)
        ys = np.array([-3.0, -0.1, 0.5, 2.0, 11.0])
        assert np.allclose(np.exp(logpdf(p, ys)), pdf(p, ys), rtol=1e-13)

    def test_scale_change_of_variables(self):
        p1 = Params(0.0, 1.0, 2.0, 1.0, 0.4)
        p2 = Params(3.0, 2.5, 2.0, 1.0, 0.4)
        for x in (-2.0, -0.3, 0.7, 5.0):
            assert pdf(p2, 3.0 + 2.5 * x) == pytest.approx(pdf(p1, x) / 2.5, rel=1e-12)


class TestCdf:
    def test_value_at_location_exact(self):
        assert cdf(Params(0.0, 1.0, 2.0, 1.0, 0.5), 0.0) == 0.25
        assert cdf(Params(0.0, 1.0, 5.0, 0.2, 0.0), 0.0) == 0.5
        for p in GRID:
            assert cdf(p, p.mu) == (1.0 - p.eps) / 2.0

    def test_against_quadrature(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        r = integrate(lambda y: pdf(p, y), -math.inf, 2.0, tol=1e-11)
        assert cdf(p, 2.0) == pytest.approx(r.value, abs=1e-9)

    def test_nondecreasing(self):
        for p in (GRID[0], GRID[17], GRID[-1]):
            ys = p.mu + p.sigma * np.linspace(-50.0, 50.0, 1001)
            assert np.all(np.diff(cdf(p, ys)) >= 0.0)

    def test_limits(self):
        p = Params(0.0, 1.0, 2.0, 1.0, -0.4)
        assert cdf(p, -1e9) < 1e-12
        assert cdf(p, 1e9) > 1.0 - 1e-12


class TestQuantile:
    def test_median_split_exact(self):
        assert quantile(Params(0.0, 1.0, 2.0, 1.0, 0.5), 0.25) == 0.0
        assert quantile(Params(3.0, 2.0, 2.0, 1.0, 0.0), 0.5) == 3.0

    def test_round_trip_999_grid(self):
        p = Params(1.0, 2.0, 5.0, 0.2, -0.3)
        probs = np.linspace(0.001, 0.999, 999)
        assert np.allclose(cdf(p, quantile(p, probs)), probs, atol=1e-9)

    def test_quantile_of_cdf_away_from_location(self):
        p = Params(0.0, 1.0, 2.0, 1.0, 0.4)
        ys = np.array([-4.0, -1.2, -0.3, 0.4, 1.1, 6.0])
        assert np.allclose(quantile(p, cdf(p, ys)), ys, atol=1e-8)

    @given(loc_scale, st.floats(1e-4, 1.0 - 1e-4))
    def test_round_trip_property(self, p, prob):
        assert cdf(p, quantile(p, prob)) == pytest.approx(prob, abs=1e-9)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_prob_rejected(self, prob):
        with pytest.raises(DomainError):
            quantile(Params(0.0, 1.0, 2.0, 1.0, 0.0), prob)

    @staticmethod
    def _smaller_tail(p, y):
        """P(Y <= y) below mu, P(Y > y) above it, each without cancellation."""
        if y < p.mu:
            return cdf(p, y)
        w = (y - p.mu) / (p.sigma * (1.0 + p.eps))
        t = math.log1p(math.exp(-p.c * math.log(w)))  # log(1 + w**-c)
        return 0.5 * (1.0 + p.eps) * -math.expm1(-p.k * t)

    @pytest.mark.parametrize(
        "p",
        [
            Params(0.3, 1.7, 5.0, 0.1, 0.2),
            Params(0.0, 1.0, 5.0, 0.2, 0.4),
            Params(1.0, 2.0, 2.0, 1.0, -0.3),
        ],
    )
    @pytest.mark.parametrize(
        "prob", [1e-300, 1e-17, 1e-15, 1e-6, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
    )
    def test_tails_keep_relative_accuracy(self, p, prob):
        q = quantile(p, prob)
        assert math.isfinite(q)
        want = min(prob, 1.0 - prob)
        assert abs(self._smaller_tail(p, q) - want) <= 1e-10 * want
        assert quantile(p, np.array([prob]))[0] == q


class TestSample:
    def test_deterministic(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        assert np.array_equal(sample(p, 10, seed=42), sample(p, 10, seed=42))
        assert not np.array_equal(sample(p, 10, seed=42), sample(p, 10, seed=43))

    def test_sign_split_probability(self):
        # P(Y > mu) = (1 + eps) / 2
        p = Params(0.0, 1.0, 2.0, 1.0, 0.999)
        draws = sample(p, 10_000, seed=5)
        assert abs(np.mean(draws > 0.0) - 0.9995) < 0.01

    def test_symmetric_mean_near_zero(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.0)
        draws = sample(p, 100_000, seed=9)
        se = np.std(draws) / math.sqrt(draws.size)
        assert abs(np.mean(draws)) < 3.0 * se

    def test_ks_against_own_cdf(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        draws = sample(p, 100_000, seed=3)
        d = ks_statistic(Dataset(draws), lambda y: cdf(p, y))
        assert ks_pvalue(d, draws.size) > 0.01

    def test_location_scale_shift(self):
        a = sample(Params(0.0, 1.0, 2.0, 1.0, 0.3), 50, seed=21)
        b = sample(Params(4.0, 3.0, 2.0, 1.0, 0.3), 50, seed=21)
        assert np.allclose(b, 4.0 + 3.0 * a, rtol=1e-12, atol=1e-12)


class TestRawMoment:
    def test_odd_moment_vanishes_when_symmetric(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.0)
        assert raw_moment(p, MomentSpec(1)) == pytest.approx(0.0, abs=1e-15)
        assert raw_moment(p, MomentSpec(3)) == pytest.approx(0.0, abs=1e-15)

    def test_second_moment_hand_reduction(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.0)
        assert raw_moment(p, MomentSpec(2)) == pytest.approx(
            0.2 * beta_fn(0.6, 0.6), rel=1e-13
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_against_quadrature(self, r):
        p = Params(0.0, 1.0, 10.0, 0.1, 0.4)
        q = integrate(lambda x: x**r * pdf(p, x), -math.inf, math.inf, tol=1e-11)
        assert raw_moment(p, MomentSpec(r)) == pytest.approx(q.value, abs=1e-8)

    def test_existence_boundary(self):
        with pytest.raises(MomentDoesNotExistError):
            raw_moment(Params(0.0, 1.0, 3.0, 0.5, 0.2), MomentSpec(3))
        with pytest.raises(MomentDoesNotExistError):
            raw_moment(Params(0.0, 1.0, 2.0, 1.0, 0.0), MomentSpec(2))

    def test_standard_form_required(self):
        with pytest.raises(DomainError):
            raw_moment(Params(1.0, 1.0, 5.0, 0.2, 0.0), MomentSpec(1))

    def test_invalid_order_rejected(self):
        with pytest.raises(DomainError):
            MomentSpec(0)
        with pytest.raises(DomainError):
            MomentSpec(-2)


class TestMeanVariance:
    def test_mean_symmetric(self):
        assert mean(Params(3.0, 2.0, 5.0, 0.2, 0.0)) == pytest.approx(3.0, abs=1e-14)

    def test_mean_hand_reduction(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        assert mean(p) == pytest.approx(0.4 * 0.2 * 2.0 * beta_fn(0.8, 0.4), rel=1e-13)

    def test_mean_location_scale(self):
        m0 = mean(Params(0.0, 1.0, 5.0, 0.2, 0.4))
        assert mean(Params(2.0, 3.0, 5.0, 0.2, 0.4)) == pytest.approx(
            2.0 + 3.0 * m0, rel=1e-13
        )

    def test_variance_symmetric_reduction(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.0)
        assert variance(p) == pytest.approx(0.2 * beta_fn(0.6, 0.6), rel=1e-13)

    def test_variance_from_raw_moments(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        ex1 = raw_moment(p, MomentSpec(1))
        ex2 = raw_moment(p, MomentSpec(2))
        assert variance(p) == pytest.approx(ex2 - ex1 * ex1, rel=1e-12)

    def test_variance_scale_law(self):
        v1 = variance(Params(0.0, 1.0, 5.0, 0.2, 0.4))
        v2 = variance(Params(0.0, 2.0, 5.0, 0.2, 0.4))
        assert v2 == pytest.approx(4.0 * v1, rel=1e-14)

    def test_existence(self):
        with pytest.raises(MomentDoesNotExistError):
            mean(Params(0.0, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(MomentDoesNotExistError):
            variance(Params(0.0, 1.0, 2.0, 1.0, 0.0))

    def test_empirical_agreement(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        draws = sample(p, 1_000_000, seed=17)
        n = draws.size
        se_mean = np.std(draws) / math.sqrt(n)
        assert abs(np.mean(draws) - mean(p)) < 4.0 * se_mean
        s2 = np.var(draws)
        m4 = np.mean((draws - np.mean(draws)) ** 4)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - variance(p)) < 4.0 * se_var


class TestShapeStats:
    @pytest.mark.parametrize(
        "c,k,eps,skew,kurt",
        [
            (20.0, 0.20, 0.0, 0.0000, 1.1600),
            (5.0, 0.20, 0.4, 1.7271, 5.3371),
            (7.0, 1.0 / 9.0, 0.8, 1.6338, 3.1809),
        ],
    )
    def test_reference_cells(self, c, k, eps, skew, kurt):
        st_ = shape_stats(Params(0.0, 1.0, c, k, eps))
        assert st_.skewness == pytest.approx(skew, abs=2e-3)
        assert st_.kurtosis == pytest.approx(kurt, abs=2e-3)

    def test_location_scale_invariance(self):
        a = shape_stats(Params(0.0, 1.0, 5.0, 0.2, 0.4))
        b = shape_stats(Params(5.0, 3.0, 5.0, 0.2, 0.4))
        assert b.skewness == pytest.approx(a.skewness, abs=1e-12)
        assert b.kurtosis == pytest.approx(a.kurtosis, abs=1e-12)

    def test_symmetric_has_zero_skewness(self):
        assert shape_stats(Params(0.0, 1.0, 6.0, 0.5, 0.0)).skewness == pytest.approx(
            0.0, abs=1e-14
        )

    def test_convention_recorded(self):
        st_ = shape_stats(Params(0.0, 1.0, 5.0, 0.2, 0.4))
        assert "m3" in st_.convention and "m4" in st_.convention

    def test_requires_fourth_moment(self):
        with pytest.raises(MomentDoesNotExistError):
            shape_stats(Params(0.0, 1.0, 4.0, 0.2, 0.0))


class TestCfPartialSum:
    def test_at_zero(self):
        for terms in (1, 2, 4):
            v = cf_partial_sum(Params(0.0, 1.0, 5.0, 0.2, 0.4), CfSpec(0.0, terms))
            assert v == 1.0 + 0.0j

    def test_symmetric_first_order_term_vanishes(self):
        v = cf_partial_sum(Params(0.0, 1.0, 5.0, 0.2, 0.0), CfSpec(0.7, 1))
        assert v == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_location_phase(self):
        t = 0.5
        base = cf_partial_sum(Params(0.0, 1.0, 20.0, 0.2, 0.4), CfSpec(t, 3))
        shifted = cf_partial_sum(Params(2.0, 1.0, 20.0, 0.2, 0.4), CfSpec(t, 3))
        assert shifted == pytest.approx(cmath.exp(1j * t * 2.0) * base, rel=1e-13)

    def test_truncation_bound_enforced(self):
        with pytest.raises(DomainError):
            cf_partial_sum(Params(0.0, 1.0, 5.0, 0.2, 0.4), CfSpec(0.5, 5))
        # terms up to floor(c) - 1 are fine
        cf_partial_sum(Params(0.0, 1.0, 5.0, 0.2, 0.4), CfSpec(0.5, 4))

    def test_against_oscillatory_quadrature(self):
        p = Params(0.0, 1.0, 20.0, 0.2, 0.4)
        t = 0.5
        re = integrate(lambda x: math.cos(t * x) * pdf(p, x), -math.inf, math.inf, tol=1e-10)
        im = integrate(lambda x: math.sin(t * x) * pdf(p, x), -math.inf, math.inf, tol=1e-10)
        approx = cf_partial_sum(p, CfSpec(t, 4))
        assert abs(approx - complex(re.value, im.value)) < 0.05


class TestRenyiEntropy:
    def test_skewness_free(self):
        a = renyi_entropy(Params(0.0, 1.0, 5.0, 0.2, 0.0), EntropySpec(2.0))
        b = renyi_entropy(Params(0.0, 1.0, 5.0, 0.2, 0.4), EntropySpec(2.0))
        c = renyi_entropy(Params(0.0, 1.0, 5.0, 0.2, -0.8), EntropySpec(2.0))
        assert a == pytest.approx(b, rel=1e-14)
        assert a == pytest.approx(c, rel=1e-14)

    @pytest.mark.parametrize(
        "c,k,eps,alpha",
        [
            (5.0, 0.2, 0.4, 2.0),
            (2.0, 1.0, 0.0, 2.0),
            (2.0, 1.0, 0.3, 0.5),
            (5.0, 0.2, -0.6, 3.0),
        ],
    )
    def test_against_quadrature(self, c, k, eps, alpha):
        p = Params(0.0, 1.0, c, k, eps)
        q = integrate(lambda x: pdf(p, x) ** alpha, -math.inf, math.inf, tol=1e-12)
        expected = math.log(q.value) / (1.0 - alpha)
        assert renyi_entropy(p, EntropySpec(alpha)) == pytest.approx(expected, abs=1e-8)

    def test_divergent_orders_rejected(self):
        # alpha(1 + 1/c) - 1/c <= 0 for alpha = 0.5, c = 0.8
        with pytest.raises(DomainError):
            renyi_entropy(Params(0.0, 1.0, 0.8, 1.0, 0.0), EntropySpec(0.5))

    def test_standard_form_required(self):
        with pytest.raises(DomainError):
            renyi_entropy(Params(0.0, 2.0, 5.0, 0.2, 0.0), EntropySpec(2.0))

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            EntropySpec(1.0)


def _count_grid_modes(p):
    # any mode sits within a few standardized units of the location, so a
    # fixed body window beats quantile windows (heavy tails blow those up);
    # runs of equal values (plateaus, underflowed-to-zero valleys) are
    # compressed so a flat top still counts as one mode
    ys = p.mu + p.sigma * np.linspace(-5.0, 5.0, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DensityLimitWarning)
        f = pdf(p, ys)
    g = f[np.concatenate(([True], np.diff(f) != 0.0))]
    interior = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
    return int(np.sum(interior))


class TestModeStructure:
    @pytest.mark.parametrize(
        "c,k,expected",
        [
            (20.0, 0.2, ModeStructure.SKEW_BIMODAL),
            (2.0, 0.25, ModeStructure.SKEW_UNIMODAL),
            (1.0, 1.0, ModeStructure.SKEW_UNIMODAL),  # boundary ck = 1
        ],
    )
    def test_classification(self, c, k, expected):
        assert mode_structure(Params(0.0, 1.0, c, k, 0.3)) is expected

    @pytest.mark.parametrize("p", GRID, ids=lambda p: f"c{p.c}_k{p.k}_e{p.eps}")
    def test_agrees_with_grid_mode_count(self, p):
        expected = 2 if p.c * p.k > 1.0 else 1
        assert _count_grid_modes(p) == expected
        got = mode_structure(p)
        want = (
            ModeStructure.SKEW_BIMODAL if expected == 2 else ModeStructure.SKEW_UNIMODAL
        )
        assert got is want
