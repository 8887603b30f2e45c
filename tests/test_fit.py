import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from esbiii import (
    Dataset,
    FitConfig,
    Params,
    fit_ml,
    loglik,
    moment_init,
    sample,
    score,
    solve_coordinate,
    standardize,
)
from esbiii.errors import (
    DegenerateDataError,
    DensityLimitWarning,
    DomainError,
    NoBracketError,
    SmallSampleError,
)
from esbiii.fit import COORD_NAMES

TRUTH = Params(0.0, 1.0, 5.0, 0.2, 0.4)


@pytest.fixture(scope="module")
def synthetic():
    data = Dataset(sample(TRUTH, 2000, seed=42), label="synthetic", source="seed 42")
    return data, fit_ml(data)


def _richardson(f, x, h):
    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestLoglik:
    def test_single_point_hand_value(self):
        p = Params(0.0, 1.0, 2.0, 1.0, 0.0)
        assert loglik(p, Dataset([1.0])) == pytest.approx(math.log(0.25), rel=1e-14)

    def test_additivity_over_copies(self):
        p = Params(0.3, 1.2, 2.0, 1.0, -0.4)
        one = loglik(p, Dataset([2.2]))
        many = loglik(p, Dataset([2.2] * 7))
        assert many == pytest.approx(7.0 * one, rel=1e-14)

    def test_matches_pointwise_log_density(self):
        from esbiii import logpdf

        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Params(
                mu=rng.uniform(-2, 2),
                sigma=rng.uniform(0.3, 3),
                c=rng.uniform(0.6, 12),
                k=rng.uniform(0.1, 4),
                eps=rng.uniform(-0.8, 0.8),
            )
            x = sample(p, 40, seed=int(rng.integers(1 << 16)))
            assert loglik(p, Dataset(x)) == pytest.approx(
                float(np.sum(logpdf(p, x))), abs=1e-10 * 40
            )

    def test_tie_with_location_spiked_regime(self):
        p = Params(1.0, 1.0, 2.0, 0.25, 0.0)
        with pytest.warns(DensityLimitWarning):
            v = loglik(p, Dataset([1.0, 2.0]))
        assert v == math.inf

    def test_tie_with_location_bimodal_regime(self):
        p = Params(1.0, 1.0, 2.0, 1.0, 0.0)
        assert loglik(p, Dataset([1.0, 2.0])) == -math.inf


class TestStandardize:
    def test_signs_and_magnitudes(self):
        p = Params(1.0, 2.0, 2.0, 1.0, 0.5)
        std = standardize(p, Dataset([1.0, 4.0, -2.0]))
        assert std.s.tolist() == [1.0, 1.0, -1.0]  # sign(0) = +1
        assert std.z[0] == 0.0  # tie with mu
        assert std.z[1] == pytest.approx(3.0 / (2.0 * 1.5), rel=1e-14)
        assert std.z[2] == pytest.approx(3.0 / (2.0 * 0.5), rel=1e-14)
        assert np.all(std.z[1:] > 0.0)


class TestScore:
    def test_k_component_hand_formula(self):
        p = Params(0.0, 1.0, 2.0, 1.0, 0.0)
        data = Dataset([0.5, 2.0])
        z = standardize(p, data).z
        expected = 2.0 / p.k - float(np.sum(np.log1p(z**-p.c)))
        assert score(p, data)[3] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            p = Params(
                mu=rng.uniform(-1, 1),
                sigma=rng.uniform(0.5, 2),
                c=rng.uniform(1.0, 8),
                k=rng.uniform(0.15, 3),
                eps=rng.uniform(-0.7, 0.7),
            )
            data = Dataset(sample(p, 60, seed=int(rng.integers(1 << 16))))
            if np.min(np.abs(data.values - p.mu)) < 1e-3 * p.sigma:
                continue  # keep the mu finite-difference step clear of ties
            g = score(p, data)
            for i, name in enumerate(COORD_NAMES):
                scale = getattr(p, name) if name in ("sigma", "c", "k") else 1.0
                h = 1e-5 * max(abs(scale), 0.1)

                def ll(v, name=name):
                    return loglik(replace(p, **{name: v}), data)

                num = _richardson(ll, getattr(p, name), h)
                assert g[i] == pytest.approx(num, rel=1e-6, abs=1e-8), name
            checked += 1

    def test_tie_rejected(self):
        p = Params(1.0, 1.0, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            score(p, Dataset([1.0, 2.0]))


class TestSolveCoordinate:
    def test_k_closed_form(self):
        x = sample(Params(0.0, 1.0, 2.0, 1.0, 0.3), 200, seed=5)
        data = Dataset(x)
        p = Params(float(np.min(x) - 1.0), 1.0, 2.0, 1.0, 0.3)
        z = standardize(p, data).z
        expected = x.size / float(np.sum(np.log1p(z**-p.c)))
        assert solve_coordinate(p, "k", data) == pytest.approx(expected, abs=1e-10)

    def test_mu_shift_equivariance(self):
        x = sample(Params(0.0, 1.0, 2.0, 1.0, 0.3), 200, seed=6)
        p = Params(0.1, 1.1, 2.0, 1.0, 0.25)
        root = solve_coordinate(p, "mu", Dataset(x))
        shifted = solve_coordinate(
            replace(p, mu=p.mu + 5.0), "mu", Dataset(x + 5.0)
        )
        assert shifted == pytest.approx(root + 5.0, abs=1e-6)

    def test_sigma_near_truth_on_synthetic_data(self):
        x = sample(Params(0.0, 1.0, 2.0, 1.0, 0.0), 4000, seed=8)
        p = Params(0.0, 1.4, 2.0, 1.0, 0.0)
        root = solve_coordinate(p, "sigma", Dataset(x))
        assert abs(root - 1.0) < 0.1

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(DomainError):
            solve_coordinate(TRUTH, "tau", Dataset([1.0, 2.0, 3.0]))


class TestMomentInit:
    def test_symmetric_data(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.standard_normal(2000))
        init = moment_init(data)
        assert abs(init.eps) <= 0.05

    def test_location_shift_exact(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(501)
        a = moment_init(Dataset(x))
        b = moment_init(Dataset(x + 7.0))
        assert b.mu == pytest.approx(a.mu + 7.0, abs=1e-12)
        assert b.sigma == pytest.approx(a.sigma, rel=1e-12)

    def test_start_close_to_fit(self, synthetic):
        data, result = synthetic
        ll0 = loglik(moment_init(data), data)
        assert abs(ll0 - result.loglik) <= 0.2 * abs(result.loglik)

    def test_zero_iqr_rejected(self):
        with pytest.raises(DegenerateDataError):
            moment_init(Dataset([1.0] * 30 + [5.0]))


class TestFitMl:
    def test_parameter_recovery(self, synthetic):
        _, r = synthetic
        p = r.params
        assert abs(p.mu - TRUTH.mu) < 0.1
        assert abs(p.sigma - TRUTH.sigma) < 0.15
        assert abs(p.c - TRUTH.c) < 1.0
        assert abs(p.k - TRUTH.k) < 0.08
        assert abs(p.eps - TRUTH.eps) < 0.1

    def test_beats_truth(self, synthetic):
        data, r = synthetic
        assert r.loglik >= loglik(TRUTH, data)

    def test_converged_with_small_score(self, synthetic):
        data, r = synthetic
        assert r.converged
        assert r.score_norm < 1e-5 * data.n

    def test_trace_monotone_and_consistent(self, synthetic):
        _, r = synthetic
        lls = [v for _, v in r.trace]
        assert all(b >= a for a, b in zip(lls, lls[1:]))
        assert r.loglik == lls[-1]
        assert r.trace[0][0] == 0
        assert r.cycles == r.trace[-1][0]

    def test_aic_relation(self, synthetic):
        _, r = synthetic
        assert r.free_params == 5
        assert r.aic == pytest.approx(10.0 - 2.0 * r.loglik, rel=1e-14)

    def test_scale_equivariance(self, synthetic):
        data, r = synthetic
        r2 = fit_ml(Dataset(2.0 * data.values))
        assert r2.params.mu == pytest.approx(2.0 * r.params.mu, abs=1e-6)
        assert r2.params.sigma == pytest.approx(2.0 * r.params.sigma, abs=1e-6)
        assert r2.params.c == pytest.approx(r.params.c, abs=1e-6)
        assert r2.params.k == pytest.approx(r.params.k, abs=1e-6)
        assert r2.params.eps == pytest.approx(r.params.eps, abs=1e-6)

    def test_reflection_equivariance(self, synthetic):
        data, r = synthetic
        r3 = fit_ml(Dataset(-data.values))
        assert r3.params.mu == pytest.approx(-r.params.mu, abs=1e-6)
        assert r3.params.sigma == pytest.approx(r.params.sigma, abs=1e-6)
        assert r3.params.c == pytest.approx(r.params.c, abs=1e-6)
        assert r3.params.k == pytest.approx(r.params.k, abs=1e-6)
        assert r3.params.eps == pytest.approx(-r.params.eps, abs=1e-6)

    def test_fixed_c(self, synthetic):
        data, _ = synthetic
        r = fit_ml(data, FitConfig(fixed_c=5.0))
        assert r.params.c == 5.0
        assert r.free_params == 4
        assert r.aic == pytest.approx(8.0 - 2.0 * r.loglik, rel=1e-14)
        assert r.converged

    def test_user_init(self, synthetic):
        data, free = synthetic
        r = fit_ml(data, FitConfig(init=TRUTH))
        assert r.loglik >= loglik(TRUTH, data)
        assert abs(r.params.c - free.params.c) < 0.5

    def test_small_sample_refused(self):
        with pytest.raises(SmallSampleError):
            fit_ml(Dataset(np.arange(19.0)))

    def test_constant_data_refused(self):
        with pytest.raises(DegenerateDataError):
            fit_ml(Dataset(np.ones(50)))

    def test_spiked_regime_fit_is_finite_and_ordered(self):
        # c*k < 1: the exact likelihood is unbounded in mu (a spike at every
        # observation), so the fitter maximizes the resolution-floored
        # working objective; the exact log-likelihood at its answer is at
        # least the reported value and still beats the truth
        truth = Params(0.0, 1.0, 2.0, 0.25, -0.3)
        data = Dataset(sample(truth, 1200, seed=77))
        r = fit_ml(data)
        assert math.isfinite(r.loglik)
        exact = loglik(r.params, data)
        assert exact >= r.loglik
        assert exact >= loglik(truth, data)
        lls = [v for _, v in r.trace]
        assert all(b >= a for a, b in zip(lls, lls[1:]))
        assert abs(r.params.c * r.params.k - 0.5) < 0.2


@pytest.fixture(scope="module")
def spiked():
    # c*k < 1; from the eps = 0.6 start below the ascent reaches a point
    # that a full cycle leaves unchanged, with the score norm above tolerance
    return Dataset(sample(Params(0.0, 1.0, 5.0, 0.1, 0.2), 2000, seed=1))


class TestFixedPointExit:
    def test_stalled_start_stops_at_its_fixed_point(self, spiked, caplog):
        start = replace(
            moment_init(spiked), mu=float(np.quantile(spiked.values, 0.2)), eps=0.6
        )
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(spiked, FitConfig(init=start))
        assert not r.converged
        assert r.cycles < 500
        assert r.cycles == r.trace[-1][0]
        assert r.loglik == r.trace[-1][1]
        exits = [rec for rec in caplog.records if "fixed point" in rec.getMessage()]
        assert len(exits) == 1
        assert exits[0].getMessage().startswith(f"cycle {r.cycles}: ")
        # one more cycle from the returned point changes nothing
        again = fit_ml(spiked, FitConfig(init=r.params, max_cycles=1))
        assert again.params == r.params
        assert again.loglik == r.loglik

    def test_default_fit_is_the_converged_moment_start(self, spiked):
        r = fit_ml(spiked)
        assert r == fit_ml(spiked, FitConfig(init=moment_init(spiked)))
        assert r.converged
        assert r.cycles == 42

    def test_swallowed_solve_error_is_logged(self, monkeypatch, caplog):
        def refuse(p, which, data, cfg=None):
            raise NoBracketError(f"no {which} bracket")

        monkeypatch.setattr("esbiii.fit.solve_coordinate", refuse)
        data = Dataset(sample(TRUTH, 200, seed=3))
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(data, FitConfig(init=moment_init(data), max_cycles=3))
        failed = [rec.getMessage() for rec in caplog.records]
        assert "cycle 1: mu update failed: NoBracketError('no mu bracket')" in failed
        assert sum("update failed" in m for m in failed) == 5 * r.cycles
        # the golden-section fallback still climbs
        lls = [v for _, v in r.trace]
        assert all(b >= a for a, b in zip(lls, lls[1:]))
        assert lls[-1] > lls[0]


class TestFloorOncePerFit:
    @pytest.fixture
    def resolution_calls(self, monkeypatch):
        import esbiii.fit

        calls = []
        orig = esbiii.fit._data_resolution

        def counted(x):
            calls.append(x.size)
            return orig(x)

        monkeypatch.setattr(esbiii.fit, "_data_resolution", counted)
        return calls

    def test_default_fit_sorts_the_data_at_most_twice(self, resolution_calls):
        # once in fit_ml, once in moment_init; never per coordinate solve
        r = fit_ml(Dataset(sample(TRUTH, 200, seed=3)))
        assert r.cycles >= 1
        assert len(resolution_calls) <= 2

    def test_public_solve_computes_the_floor_itself(self, resolution_calls):
        data = Dataset(sample(TRUTH, 200, seed=3))
        start = moment_init(data)
        before = len(resolution_calls)
        solve_coordinate(start, "k", data)
        assert len(resolution_calls) == before + 1


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_cycles=0),
            dict(param_tol=0.0),
            dict(param_tol=-1e-3),
            dict(score_tol=-1.0),
            dict(fixed_c=0.0),
            dict(fixed_c=-2.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FitConfig(**kwargs)
