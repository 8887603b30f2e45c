import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esbiii import Params, cdf, sample
from esbiii.errors import DomainError
from esbiii.gof import (
    Dataset,
    ModelFit,
    aic,
    compare_models,
    ecdf,
    ks_pvalue,
    ks_statistic,
)


class TestDataset:
    def test_basic(self):
        d = Dataset([3.0, 1.0, 2.0], label="toy")
        assert d.n == 3
        assert d.sorted_values.tolist() == [1.0, 2.0, 3.0]
        assert d.label == "toy"

    def test_values_are_frozen(self):
        d = Dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            d.values[0] = 9.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Dataset([])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Dataset([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(DomainError):
            Dataset([1.0, float("inf")])

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(DomainError):
            Dataset([10**400] * 30)

    def test_two_d_rejected(self):
        with pytest.raises(DomainError):
            Dataset([[1.0, 2.0], [3.0, 4.0]])


class TestEcdf:
    def test_step_values(self):
        d = Dataset([1.0, 2.0, 3.0])
        assert ecdf(d, 2.0) == pytest.approx(2.0 / 3.0)
        assert ecdf(d, 0.5) == 0.0
        assert ecdf(d, 3.0) == 1.0
        assert ecdf(d, 99.0) == 1.0

    def test_right_continuity(self):
        d = Dataset([0.0, 0.0, 1.0])
        assert ecdf(d, 0.0) == pytest.approx(2.0 / 3.0)
        assert ecdf(d, -1e-12) == 0.0

    def test_array_argument(self):
        d = Dataset([1.0, 2.0])
        out = ecdf(d, np.array([0.0, 1.5, 5.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    @given(st.permutations(list(range(8))))
    def test_order_invariance(self, perm):
        base = np.array([0.3, -1.0, 2.5, 0.3, 7.0, -4.2, 1.1, 0.0])
        d1 = Dataset(base)
        d2 = Dataset(base[perm])
        ys = np.linspace(-5.0, 8.0, 27)
        assert np.array_equal(ecdf(d1, ys), ecdf(d2, ys))


class TestKsStatistic:
    def test_exact_quantile_sample(self):
        # points at the (i - 1/2)/n quantiles of U(0,1): D = 1/(2n)
        n = 10
        d = Dataset((np.arange(n) + 0.5) / n)
        dist = ks_statistic(d, lambda x: np.clip(x, 0.0, 1.0))
        assert dist == pytest.approx(0.5 / n, rel=1e-12)

    def test_single_point_at_median(self):
        d = Dataset([0.0])
        p = Params(0.0, 1.0, 2.0, 1.0, 0.0)
        with np.errstate(divide="ignore"):
            dist = ks_statistic(d, lambda x: cdf(p, x))
        assert dist == pytest.approx(0.5)

    def test_large_sample_close_to_model(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        d = Dataset(sample(p, 10_000, seed=11))
        assert ks_statistic(d, lambda x: cdf(p, x)) < 0.02

    def test_invariance_under_increasing_transform(self):
        p = Params(0.0, 1.0, 2.0, 1.0, 0.3)
        xs = sample(p, 500, seed=4)
        d1 = ks_statistic(Dataset(xs), lambda x: cdf(p, x))
        d2 = ks_statistic(
            Dataset(np.exp(xs)),
            lambda y: cdf(p, np.log(np.maximum(y, 1e-300))),
        )
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_bad_cdf_rejected(self):
        d = Dataset([1.0, 2.0])
        with pytest.raises(DomainError):
            ks_statistic(d, lambda x: np.asarray(x) * 5.0)

    def test_scalar_only_cdf_goes_point_by_point(self):
        # math.exp refuses an array, so the cdf is valued once per point, in
        # sorted order, with floats
        xs = [0.7, -1.2, 0.1, -0.4, 2.3]
        seen = []

        def logistic(x):
            seen.append(x)
            return 1.0 / (1.0 + math.exp(-x))

        dist = ks_statistic(Dataset(xs), logistic)
        assert isinstance(seen[0], np.ndarray)  # the one array call, refused
        assert [type(x) for x in seen[1:]] == [float] * len(xs)
        assert seen[1:] == sorted(xs)
        want = ks_statistic(Dataset(xs), lambda x: 1.0 / (1.0 + np.exp(-x)))
        assert dist == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("vectorized", [True, False], ids=["array", "scalar"])
    def test_non_finite_cdf_value_names_its_point(self, bad, vectorized):
        d = Dataset([3.0, 1.0, 2.5, 2.0])
        if vectorized:
            f = lambda x: np.where(x >= 2.0, bad, 0.5)
        else:
            f = lambda x: bad if x >= 2.0 else 0.5
        with pytest.raises(DomainError, match=rf"non-finite value {bad} at x=2\.0$"):
            ks_statistic(d, f)

    @pytest.mark.parametrize("vectorized", [True, False], ids=["array", "scalar"])
    def test_cdf_outside_unit_interval_rejected(self, vectorized):
        d = Dataset([1.0, 2.0, 3.0])
        if vectorized:
            f = lambda x: np.asarray(x) / 2.0 - 0.25
        else:
            f = lambda x: x / 2.0 - 0.25
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            ks_statistic(d, f)


class TestKsPvalue:
    def test_zero_distance(self):
        assert ks_pvalue(0.0, 100) == 1.0

    def test_total_mismatch(self):
        assert ks_pvalue(1.0, 10_000) < 1e-12

    def test_classic_five_percent_point(self):
        # Kolmogorov law: Q(1.358) ~ 0.05
        n = 10_000
        lam = 1.358
        d = lam / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
        assert ks_pvalue(d, n) == pytest.approx(0.05, abs=5e-4)

    def test_branch_continuity(self):
        # theta-function branch below lam = 1.18 meets the series branch
        n = 400
        factor = math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)
        lo = ks_pvalue(1.18 * (1.0 - 1e-9) / factor, n)
        hi = ks_pvalue(1.18 * (1.0 + 1e-9) / factor, n)
        assert lo == pytest.approx(hi, abs=1e-7)

    def test_monotone_in_distance(self):
        ds = np.linspace(0.0, 0.4, 81)
        ps = [ks_pvalue(float(v), 200) for v in ds]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            ks_pvalue(-0.1, 10)
        with pytest.raises(DomainError):
            ks_pvalue(1.5, 10)
        with pytest.raises(DomainError):
            ks_pvalue(0.1, 0)
        with pytest.raises(DomainError):  # an integer beyond the float range
            ks_pvalue(0.5, 10**400)

    def test_null_distribution_roughly_uniform(self):
        # under the null the p-value should not pile up near 0
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        small = 0
        reps = 200
        for seed in range(reps):
            data = Dataset(sample(p, 500, seed=1000 + seed))
            pv = ks_pvalue(ks_statistic(data, lambda x: cdf(p, x)), data.n)
            small += pv < 0.1
        assert 0.05 <= small / reps <= 0.17


class TestAic:
    def test_hand_values(self):
        assert aic(0.0, 5) == 10.0
        assert aic(-10.0, 3) == 26.0
        assert aic(221.24465, 5) == pytest.approx(-432.4893)

    def test_free_params_validation(self):
        with pytest.raises(DomainError):
            aic(0.0, 0)
        with pytest.raises(DomainError):
            aic(0.0, 2.5)
        with pytest.raises(DomainError):  # beyond the float range
            aic(0.0, 10**400)


class TestCompareModels:
    def _fits(self, p_true, p_wrong):
        return [
            ModelFit("true", lambda x: cdf(p_true, x), loglik=0.0, free_params=5),
            ModelFit("wrong", lambda x: cdf(p_wrong, x), loglik=0.0, free_params=5),
        ]

    def test_single_model(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        data = Dataset(sample(p, 300, seed=0))
        reports = compare_models(data, self._fits(p, p)[:1])
        assert len(reports) == 1
        assert reports[0].model_label == "true"
        assert reports[0].n == 300
        assert reports[0].aic == aic(0.0, 5)
        assert "optimistic" in reports[0].caveat

    def test_true_model_usually_first(self):
        p_true = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        p_wrong = Params(0.0, 2.5, 5.0, 0.2, 0.4)
        wins = 0
        reps = 50
        for seed in range(reps):
            data = Dataset(sample(p_true, 400, seed=seed))
            reports = compare_models(data, self._fits(p_true, p_wrong))
            wins += reports[0].model_label == "true"
        assert wins / reps > 0.9

    def test_tie_broken_by_aic_then_input_order(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        data = Dataset(sample(p, 200, seed=5))
        f = lambda x: cdf(p, x)
        fits = [
            ModelFit("a", f, loglik=-100.0, free_params=5),
            ModelFit("b", f, loglik=-90.0, free_params=5),
            ModelFit("c", f, loglik=-90.0, free_params=5),
        ]
        labels = [r.model_label for r in compare_models(data, fits)]
        assert labels == ["b", "c", "a"]
