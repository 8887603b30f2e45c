import copy
import functools
import logging
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    NonConvergenceError,
    SmallSampleError,
)
from esbiii.burr3 import _BLOCK
from esbiii.fit import COORD_NAMES, _fit_ml

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

    @pytest.mark.parametrize("shape", [(2.0, 1.0, -0.3), (5.0, 0.2, 0.4), (5.0, 0.1, 0.2)])
    def test_density_folds_a_point_as_the_likelihood_does(self, shape):
        from esbiii import logpdf
        from esbiii.burr3 import _log_density

        p = Params(0.3, 1.7, *shape)
        x = sample(p, 2000, seed=3)  # no draw lands on mu
        z = standardize(p, Dataset(x)).z
        want = _log_density(math.log(p.c * p.k / (2.0 * p.sigma)), p.c, p.k, np.log(z))
        assert logpdf(p, x).tobytes() == want.tobytes()

    def test_tie_with_location_spiked_regime(self):
        p = Params(1.0, 1.0, 2.0, 0.25, 0.0)
        with pytest.warns(DensityLimitWarning):
            v = loglik(p, Dataset([1.0, 2.0]))
        assert v == math.inf

    def test_tie_with_location_bimodal_regime(self):
        p = Params(1.0, 1.0, 2.0, 1.0, 0.0)
        assert loglik(p, Dataset([1.0, 2.0])) == -math.inf

    def test_tie_with_location_boundary_regime(self):
        # c*k = 1: the tied point contributes the finite density limit ck/(2 sigma)
        from esbiii import logpdf

        p = Params(1.0, 1.0, 2.0, 0.5, 0.0)
        v = loglik(p, Dataset([1.0, 2.0]))
        assert math.isfinite(v)
        want = math.log(p.c * p.k / (2.0 * p.sigma)) + logpdf(p, 2.0)
        assert v == pytest.approx(want, rel=1e-14)

    def test_point_whose_z_underflows_counts_as_a_tie(self):
        # |x - mu| = 5e-324 over sigma = 2 rounds z to 0
        p = Params(0.0, 2.0, 2.0, 0.5, 0.0)
        near = loglik(p, Dataset([5e-324, 1.0, 2.0]))
        assert near == loglik(p, Dataset([0.0, 1.0, 2.0]))
        assert math.isfinite(near)
        assert loglik(replace(p, k=1.0), Dataset([5e-324, 1.0])) == -math.inf


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

    def test_point_whose_z_underflows_is_a_tie(self):
        # 1e-320 / 1e10 rounds z to 0, the tie rule of loglik
        p = Params(0.0, 1e10, 2.0, 1.0, 0.0)
        data = Dataset([*np.linspace(-3.0, 3.0, 50), 1e-320])
        assert loglik(p, data) == -math.inf
        with pytest.raises(DomainError):
            score(p, data)


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

    def test_tied_majority_fits_from_a_given_start(self):
        # over half the points tied: the IQR is zero, so only a given start
        # can fit, and the range sets the standardizing scale
        x = np.concatenate([np.zeros(30), sample(Params(0.0, 1.0, 2.0, 1.0, 0.0), 21, seed=3)])
        with pytest.raises(DegenerateDataError):
            fit_ml(Dataset(x))
        r = fit_ml(Dataset(x), FitConfig(init=Params(0.0, 1.0, 2.0, 1.0, 0.0)))
        assert math.isfinite(r.loglik) and r.cycles >= 1

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

    def test_spiked_small_sample_keeps_the_near_mu_root(self):
        # a mu update that took the best of all scanned roots jumped to a
        # far bracket and led this fit into a c*k > 1 basin (loglik -132.17)
        data = Dataset(sample(Params(0.0, 1.0, 5.0, 0.1, 0.2), 200, seed=11))
        r = fit_ml(data)
        assert r.converged
        assert r.params.c * r.params.k < 1.0
        assert r.loglik > -100.0


@pytest.fixture(scope="module")
def centred():
    # median exactly 0: the fit's standardization then maps the fitted
    # parameters back to the data bit for bit, so a rerun from them starts
    # where the first run ended
    x = sample(Params(0.0, 1.0, 5.0, 0.1, 0.2), 2001, seed=1)
    return Dataset(x - np.median(x))


class TestFixedPointExit:
    def test_stalled_start_stops_at_its_fixed_point(self, centred, caplog):
        # no point meets a score tolerance of 1e-300, so the loop runs until
        # an iteration leaves every parameter unchanged
        cfg = FitConfig(init=moment_init(centred), score_tol=1e-300)
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(centred, cfg)
        assert not r.converged
        assert r.cycles < 500
        assert r.cycles == r.trace[-1][0]
        assert r.loglik == r.trace[-1][1]
        exits = [rec for rec in caplog.records if "fixed point" in rec.getMessage()]
        assert len(exits) == 1
        assert exits[0].getMessage().startswith(f"cycle {r.cycles}: ")
        # one more iteration from the returned point changes nothing
        again = fit_ml(centred, replace(cfg, init=r.params, max_cycles=1))
        assert again.params == r.params
        assert again.loglik == r.loglik

    def test_default_fit_beats_the_moment_start(self, centred):
        r = fit_ml(centred)
        assert r.converged
        assert r.loglik >= fit_ml(centred, FitConfig(init=moment_init(centred))).loglik

    def test_secular_solve_error_propagates(self, monkeypatch):
        # the trust-region step's secular equation is solved by find_root;
        # a failure there ends the fit instead of being swallowed
        def refuse(*args, **kwargs):
            raise NonConvergenceError("no root")

        monkeypatch.setattr("esbiii.fit.find_root", refuse)
        data = Dataset(sample(TRUTH, 200, seed=3))
        with pytest.raises(NonConvergenceError, match="no root"):
            fit_ml(data, FitConfig(init=moment_init(data)))


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
        # once in fit_ml, once in moment_init; never per iteration
        r = fit_ml(Dataset(sample(TRUTH, 200, seed=3)))
        assert r.cycles >= 1
        assert len(resolution_calls) <= 2

    def test_public_solve_computes_the_floor_itself(self, resolution_calls):
        data = Dataset(sample(TRUTH, 200, seed=3))
        start = moment_init(data)
        before = len(resolution_calls)
        solve_coordinate(start, "k", data)
        assert len(resolution_calls) == before + 1


class TestLikelihoodSums:
    """The blocked objective and the score's sum of log(1 + z**-c) against per-point references.

    The kernels take the softplus sums from terms they already make (sums
    of log z and |log z|, or t split by the sign of log z); these cases put
    points where that can go wrong: beyond sigma (1 +- eps), where e**(c
    log z) overflows for large c, and at c log z in (708, 710), where t is
    subnormal or 0.
    """

    MU, SIGMA, EPS = 0.2, 1.3, 0.3

    def _data(self, c, kind):
        mu, s_pos, s_neg = self.MU, self.SIGMA * (1.0 + self.EPS), self.SIGMA * (1.0 - self.EPS)
        if kind == "drawn":
            return sample(Params(mu, self.SIGMA, c, 1.0 / c, self.EPS), 3000, seed=4)
        if kind == "beyond":
            z = np.geomspace(1.01, 1e6, 200)
        else:  # c log z from 708.05 to 709.95
            z = np.exp(np.linspace(708.05, 709.95, 100) / c)
        x = np.concatenate([mu + s_pos * z, mu - s_neg * z])
        if kind == "mixed":
            x = np.concatenate([x, self._data(c, "beyond"), self._data(c, "drawn")[:50]])
        return x

    CASES = [
        (c, kind, floor)
        for c in (0.5, 2.0, 5.0, 20.0, 300.0, 1e6)
        for kind in ("drawn", "beyond", "window", "mixed")
        for floor in (0.0, 1e-3)
        if not (c < 1.0 and kind in ("window", "mixed"))  # z = e**(1418) is not a float
    ]

    @pytest.mark.parametrize("c, kind, floor", CASES)
    def test_sums_match_the_per_point_terms(self, c, kind, floor):
        from esbiii.burr3 import _fold, _log_density
        from esbiii.fit import _block_loglik, _deriv_sums, _grad_sums
        from esbiii.special_math import log1p_exp

        mu, sigma, eps, k = self.MU, self.SIGMA, self.EPS, 1.0 / c
        x = self._data(c, kind)
        u = np.log(_fold(x, mu, sigma, eps, floor)[2])
        tail = log1p_exp(-c * u)
        want = math.fsum(tail.tolist())
        # a term below the smallest normal float comes from a subnormal t, or
        # from t = 0 where e**(c log z) overflowed: it is exact only to 2**-1022
        tiny = x.size * 2.0**-1022
        for got in (
            _grad_sums(x, mu, sigma, c, k, eps, floor)[5],
            _deriv_sums(x, mu, sigma, c, k, eps, floor)[-1],
        ):
            assert abs(got - want) <= 1e-12 * want + tiny
        ll = _log_density(math.log(c * k / (2.0 * sigma)), c, k, u)
        # the summed form's own scale: the (c+1) log z and (k+1) softplus parts
        scale = math.fsum((np.abs((c + 1.0) * u) + (k + 1.0) * tail).tolist())
        assert abs(_block_loglik(x, mu, sigma, c, k, eps, floor) - math.fsum(ll.tolist())) <= 1e-13 * scale

    @pytest.mark.parametrize("c", [0.5, 2.0, 20.0, 300.0, 1e3, 1e6])
    @pytest.mark.parametrize("kind", ["drawn", "beyond", "mixed"])
    def test_public_sums_stay_finite(self, c, kind):
        # RuntimeWarnings are errors here: t = 0 must not reach a log that warns
        from esbiii.burr3 import _fold
        from esbiii.fit import _floored, _work_score
        from esbiii.special_math import log1p_exp

        if c < 1.0 and kind == "mixed":
            kind = "beyond"
        p = Params(self.MU, self.SIGMA, c, 1.0 / c, self.EPS)
        x = self._data(c, kind)
        data = Dataset(x)
        assert math.isfinite(loglik(p, data))
        assert np.all(np.isfinite(score(p, data)))
        assert np.all(np.isfinite(_work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, 0.0)))
        assert np.all(np.isfinite(_work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, 1e-3)))
        # the k update is n over the sum of log(1 + z**-c) at the resolution floor,
        # undefined where every term underflows to 0
        z = _fold(x, p.mu, p.sigma, p.eps, _floored(x).floor)[2]
        tail = math.fsum(log1p_exp(-c * np.log(z)).tolist())
        if tail > 0.0:
            assert solve_coordinate(p, "k", data) == pytest.approx(x.size / tail, rel=1e-12)
        else:
            with pytest.raises(NoBracketError):
                solve_coordinate(p, "k", data)

    @pytest.mark.parametrize("c", [0.5, 2.0, 20.0, 300.0, 1e6])
    def test_a_point_at_mu_keeps_the_tie_rule(self, c):
        # c*k = 1: the tied point adds exactly its density limit's log, ck / (2 sigma)
        p = Params(self.MU, self.SIGMA, c, 1.0 / c, self.EPS)
        x = self._data(c, "drawn")[:200]
        tied = loglik(p, Dataset([*x, p.mu]))
        assert tied == math.log(p.c * p.k / (2.0 * p.sigma)) + loglik(p, Dataset(x))
        assert loglik(replace(p, k=2.0 / c), Dataset([*x, p.mu])) == -math.inf
        with pytest.raises(DomainError):
            score(p, Dataset([*x, p.mu]))


class TestGridKernels:
    """The working mu score at nodes on and inside the floor of an observation."""

    P = Params(0.1, 1.3, 2.0, 1.0, -0.3)

    def test_mu_score_and_objective(self):
        from esbiii.fit import _data_resolution, _work_score

        p = self.P
        x = sample(p, 2000, seed=5)
        floor = _data_resolution(x)
        # an observation and points inside its floor
        obs = float(x[7])
        nodes = [obs, obs + 0.5 * floor, obs - 0.9 * floor]
        # an observation inside the floor adds nothing to the working mu score
        rest = np.delete(x, 7)
        for m in nodes:
            g = _work_score(x, m, p.sigma, p.c, p.k, p.eps, floor)[0]
            assert g == pytest.approx(
                _work_score(rest, m, p.sigma, p.c, p.k, p.eps, floor)[0], rel=1e-12
            )


class TestSortedSample:
    """The fitter works on its sample sorted once; the data's order cannot reach a fit."""

    # "tied": 60 values 1 + j 2**-52 among 40 drawn ones, so the floor is
    # 2**-53 and mu in the cluster is far beyond _SCALED_REACH floors, where
    # scaled values subtracted would cancel; 8193 is one past the kernels'
    # first block size, _BLOCK + 1 one past the current one
    @pytest.mark.parametrize("n", [20, 2000, 8193, _BLOCK + 1, 20000, "tied"])
    @pytest.mark.parametrize("shape", [(5.0, 0.2), (2.0, 1.0), (0.5, 4.0)])
    def test_slice_objective_is_the_masked_one(self, n, shape):
        from esbiii.burr3 import _fold
        from esbiii.fit import _SCALED_REACH, _fit_loglik, _floored, _sorted_loglik

        c, k = shape
        if n == "tied":
            drawn = sample(Params(0.0, 1.0, c, k, 0.3), 40, seed=7)
            x = np.concatenate([drawn, 1.0 + 2.0**-52 * np.arange(60)])
            n = x.size
        else:
            x = sample(Params(0.0, 1.0, c, k, 0.3), n, seed=7)
        data = _floored(x)
        ys, floor = data.ys, data.floor
        # an observation whose gaps to its neighbours exceed the floor
        gaps = np.diff(data.values)
        i = next(i for i in range(n // 2, n - 1) if min(gaps[i - 1], gaps[i]) > floor)
        obs, d_below, d_above = ys[i], ys[i] - ys[i - 1], ys[i + 1] - ys[i]
        cases = [
            # mu below all data, above all, on an observation, inside its floor
            (ys[0] - 1.0, 1.1, 0.3),
            (ys[-1] + 1.0, 0.8, -0.4),
            (obs, 1.1, 0.3),
            (obs + 0.5 * floor, 0.9, -0.2),
            # a neighbour of mu at z = 1 exactly: sigma (1 -+ 0.5) is that gap
            (obs, 2.0 * d_below, 0.5),
            (obs, 2.0 * d_above, -0.5),
            # both side scales within the floor: no point has z < 1
            (obs + 0.25 * floor, 0.5 * floor, 0.2),
            (obs, 0.1 * floor, -0.3),
            # a scale beyond nearly all the data: z < 1 almost everywhere
            (obs, 1e6, 0.1),
        ]
        # mu on both sides of the switch from scaled values to _fold's z
        reach = _SCALED_REACH * floor
        for edge in (-reach, reach):
            cases += [(edge, 1.1, 0.3), (math.nextafter(edge, math.copysign(math.inf, edge)), 0.9, -0.2)]
        for mu, sigma, eps in cases:
            got = _sorted_loglik(data, mu, sigma, c, k, eps)
            want = _fit_loglik(x, mu, sigma, c, k, eps, floor)
            assert abs(got - want) <= 1e-13 * abs(want), (mu, sigma, eps)
            if sigma in (2.0 * d_below, 2.0 * d_above):
                assert 1.0 in _fold(x, mu, sigma, eps, floor)[2]

    @settings(max_examples=60, deadline=None)
    @given(
        # mu in floors: up to 2**16 of them crosses the switch at 2**15
        st.one_of(st.floats(-1e3, 1e3), st.floats(-(2.0**16), 2.0**16)),
        st.floats(1e-3, 10.0),
        st.floats(0.3, 20.0),
        st.floats(0.05, 5.0),
        st.floats(-0.9, 0.9),
        st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 10.0), st.floats(-0.9, 0.9)),
    )
    @example(2.0**15, 1.1, 5.0, 0.2, 0.4, (0.1, 0.7, -0.3))
    @example(math.nextafter(2.0**15, math.inf), 1.1, 5.0, 0.2, 0.4, (0.1, 0.7, -0.3))
    def test_one_point_is_a_probe_of_its_line(self, floors, sigma, c, k, eps, other):
        # the fitter compares _sorted_loglik's values with its lines' probes,
        # so they must be one arithmetic, bit for bit, also when another
        # line has filled the sample's scaled buffers in between
        from esbiii.fit import _mu_line, _sorted_loglik

        data = self._line_sample()
        mu = floors * data.floor
        f = _mu_line(data, sigma, c, k, eps)[0]
        first = f(mu)
        assert math.isfinite(first)
        other_mu, other_sigma, other_eps = other
        _mu_line(data, other_sigma, c, k, other_eps)[0](other_mu)
        assert _sorted_loglik(data, mu, sigma, c, k, eps) == first
        _mu_line(data, other_sigma, c, k, other_eps)[0](other_mu)
        assert f(mu) == first

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _line_sample():
        from esbiii.fit import _floored

        return _floored(sample(Params(0.0, 1.0, 5.0, 0.2, 0.4), 200, seed=3))

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fit_as_drawn(truth, n, seed):
        x = sample(Params(0.0, 1.0, *truth), n, seed=seed)
        return x, fit_ml(Dataset(x))

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([((5.0, 0.2, 0.4), 200), ((2.0, 1.0, -0.3), 200), ((5.0, 0.1, 0.2), 50)]),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_any_permutation_gives_the_same_fit(self, case, seed, rnd):
        (truth, n) = case
        x, r = self._fit_as_drawn(truth, n, seed)
        order = list(range(n))
        rnd.shuffle(order)
        permuted = fit_ml(Dataset(x[order]))
        # every field, bit for bit: a float's repr is exact
        assert repr(permuted) == repr(r)


@st.composite
def _window_cases(draw):
    """(ys, centre, radius): sorted floats at and one or two ulps beside centre +- radius.

    Half the draws put centre +- radius on a rounding tie, at a power of two
    times an integer radius of 53 bits, whose ulp is 1, and a centre of an
    odd half: there the bisect ends need _within's steps.
    """
    if draw(st.booleans()):
        centre, radius = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-12, 1e6))
    else:
        scale = 2.0 ** draw(st.integers(-60, 10))
        centre = scale * (draw(st.integers(-4, 3)) + 0.5)
        radius = scale * draw(st.integers(2**52, 2**53 - 1))
    pool = [centre]
    for edge in (centre - radius, centre + radius):
        pool += [edge, *(math.nextafter(edge, to) for to in (-math.inf, math.inf))]
        pool += [math.nextafter(v, to) for v, to in zip(pool[-2:], (-math.inf, math.inf))]
    pool += draw(st.lists(st.floats(-2e3, 2e3), max_size=4))
    return sorted(draw(st.lists(st.sampled_from(pool), max_size=12))), centre, radius


class TestWithin:
    """_within's bisect ends and rounding steps select what numpy's mask selects."""

    @settings(max_examples=300)
    @given(_window_cases())
    # one case for each of the four steps: back and on from the lower end's
    # bisect, then back and on from the upper end's
    @example(([-(2.0**52 + 1)], -0.5, 2.0**52))
    @example(([-(2.0**52 + 2)], -0.5, 2.0**52 + 1))
    @example(([2.0**52 + 2], 0.5, 2.0**52 + 1))
    @example(([2.0**52 + 1], 0.5, 2.0**52))
    def test_the_run_numpy_selects(self, case):
        from esbiii.fit import _within

        ys, centre, radius = case
        i, j = _within(ys, centre, radius)
        y = np.array(ys, dtype=float)
        inside = np.abs(y - centre) <= radius
        assert inside[i:j].all() and not inside[:i].any() and not inside[j:].any()
        # an empty run sits between the points below and those above
        assert (centre - y[:i] > radius).all() and (y[j:] - centre > radius).all()


class TestMuMove:
    def test_returned_mu_is_a_local_maximum(self):
        from esbiii.fit import _data_resolution, _fit_loglik

        data = Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 200, seed=1))
        r = fit_ml(data)
        p, floor = r.params, _data_resolution(data.values)
        ll = _fit_loglik(data.values, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        assert ll == pytest.approx(r.loglik, rel=1e-9)
        for step in (-1e-6 * p.sigma, 1e-6 * p.sigma):
            moved = _fit_loglik(
                data.values, p.mu + step, p.sigma, p.c, p.k, p.eps, floor
            )
            assert moved - ll <= 1e-9 * abs(ll)

    @pytest.fixture
    def scans(self, monkeypatch):
        """Each mu move's scan, in order: a dict of its data, p, ll, nodes and result.

        nodes holds (mu, value) of every line call the move makes before
        _finish_mu starts: the scan's nodes but the centre, which takes the
        move's ll, so a scan that values v nodes makes v - 1 calls.
        """
        import esbiii.fit

        seen, scanning = [], []

        def line(data, *args, orig=esbiii.fit._mu_line):
            f, plateau = orig(data, *args)

            def recorded(mu):
                val = f(mu)
                if scanning:
                    seen[-1]["nodes"].append((mu, val))
                return val

            return recorded, plateau

        def move(data, p, ll, orig=esbiii.fit._comb_mu_update):
            seen.append({"data": data, "p": p, "ll": ll, "nodes": []})
            scanning.append(True)
            try:
                seen[-1]["result"] = orig(data, p, ll)
            finally:
                scanning.clear()
            return seen[-1]["result"]

        def finish(*args, orig=esbiii.fit._finish_mu):
            scanning.clear()
            return orig(*args)

        monkeypatch.setattr(esbiii.fit, "_mu_line", line)
        monkeypatch.setattr(esbiii.fit, "_comb_mu_update", move)
        monkeypatch.setattr(esbiii.fit, "_finish_mu", finish)
        return seen

    @pytest.fixture(scope="class")
    def bimodal_mode(self):
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1)
        return x, _floored(x), fit_ml(Dataset(x)).params

    @pytest.fixture
    def full_scan(self, monkeypatch):
        """The mu move with its window's half-width set to the grid's 20 cells: a forced 41-node scan.

        The widening step then has no nodes left.  Requested after scans,
        it runs through that fixture's record of the move.
        """
        import esbiii.fit

        def move(data, p, ll, orig=esbiii.fit._comb_mu_update):
            with monkeypatch.context() as m:
                m.setattr(esbiii.fit, "_HALF", 20)
                return orig(data, p, ll)

        return move

    @staticmethod
    def _grid(p, data):
        """The mu move's 41 scan nodes at p, in order: node i at index i + 20, p.mu itself at 20."""
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        return [p.mu + i * cell for i in range(-20, 21)]

    def _check_scan(self, scan):
        """The scan values the five-node window first, and all 41 nodes only when its best is an edge one.

        Returns the number of nodes valued, the centre's included.
        """
        grid, called = self._grid(scan["p"], scan["data"]), [mu for mu, _ in scan["nodes"]]
        value = {**dict(scan["nodes"]), grid[20]: scan["ll"]}
        window = grid[18:23]
        assert sorted(called[:4]) == window[:2] + window[3:]
        edge = int(np.argmax([value[mu] for mu in window])) in (0, 4)
        assert sorted(called) == (grid[:20] + grid[21:] if edge else window[:2] + window[3:])
        return 1 + len(called)

    @pytest.mark.parametrize(
        "cells, nodes", [(0.0, 5), (1.0, 5), (2.5, 41), (-2.5, 41), (25.0, 41), (-25.0, 41)]
    )
    def test_a_move_scans_the_window_first(self, scans, bimodal_mode, full_scan, cells, nodes):
        # mu `cells` scan cells from the fitted mode: up to one cell off the
        # best of the five window nodes is an inner one, beyond it an edge one;
        # beyond the grid's 20 cells the best of all 41 is the grid's edge node
        from esbiii.fit import _comb_mu_update, _sorted_loglik

        x, data, p = bimodal_mode
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        q = replace(p, mu=p.mu + cells * cell)
        ll = _sorted_loglik(data, q.mu, q.sigma, q.c, q.k, q.eps)
        move = _comb_mu_update(data, q, ll)
        assert self._check_scan(scans[-1]) == nodes
        assert full_scan(data, q, ll) == move
        grid = self._grid(q, data)
        assert sorted(mu for mu, _ in scans[-1]["nodes"]) == grid[:20] + grid[21:]

    def test_every_move_of_a_fit_scans_the_window_first(self, scans, full_scan, monkeypatch):
        # a start's first move as well as every later one: the centre takes the
        # run's objective and the four window nodes are line calls; the other
        # 36 follow only when the best of the five is an edge node, and the
        # move is the forced 41-node scan's
        import esbiii.fit

        def ascend(data, p, *args, orig=esbiii.fit._ascend):
            first.append(len(scans))
            return orig(data, p, *args)

        first = []
        monkeypatch.setattr(esbiii.fit, "_ascend", ascend)
        fit_ml(Dataset(sample(Params(0.0, 1.0, 5.0, 0.2, 0.4), 2000, seed=1)))
        moves = list(scans)
        assert len(first) > 1 and len(moves) > len(first)
        valued = [self._check_scan(scan) for scan in moves]
        assert set(valued) == {5, 41}
        for scan in moves:
            assert full_scan(scan["data"], scan["p"], scan["ll"]) == scan["result"]
        # a start's first move, too, values five nodes when their best is an inner one
        assert any(valued[j] == 5 for j in first)

    @pytest.mark.parametrize(
        "truth, n, seed",
        [
            ((2.0, 1.0, -0.3), 2000, 1),
            ((5.0, 0.2, 0.4), 2000, 1),
            ((5.0, 0.1, 0.2), 2000, 1),
            ((3.0, 0.5, 0.3), 200, 3),
            ((2.0, 1.0, -0.3), 8193, 1),
            ((2.0, 1.0, -0.3), _BLOCK + 1, 1),
        ],
    )
    def test_fit_equals_the_fit_with_every_scan_full(self, monkeypatch, full_scan, truth, n, seed):
        import esbiii.fit

        data = Dataset(sample(Params(0.0, 1.0, *truth), n, seed=seed))
        windowed = fit_ml(data)
        forced = []

        def move(data, p, ll):
            forced.append(p)
            return full_scan(data, p, ll)

        monkeypatch.setattr(esbiii.fit, "_comb_mu_update", move)
        full = fit_ml(data)
        assert forced
        fields = ("params", "loglik", "converged", "cycles", "score_norm", "trace")
        assert [getattr(windowed, f) for f in fields] == [getattr(full, f) for f in fields]

    @pytest.mark.parametrize("truth, n", [((3.0, 0.5, 0.3), 200), ((5.0, 0.1, 0.2), 2000)])
    def test_a_fit_makes_no_masked_objective_call(self, monkeypatch, truth, n):
        # every objective value the fitter compares is a _mu_line line's;
        # the masked kernel serves loglik alone
        import esbiii.fit

        def refuse(*args):
            raise AssertionError("the fitter called the masked kernel")

        monkeypatch.setattr(esbiii.fit, "_block_loglik", refuse)
        x = sample(Params(0.0, 1.0, *truth), n, seed=2)
        r, ledger = _fit_ml(Dataset(x))
        solve_coordinate(r.params, "mu", Dataset(x))
        assert ledger.probes > 0

    def test_every_run_ends_on_the_line_value_at_its_end_point(self, scans, monkeypatch):
        # the CLI chain's second fit: a move that keeps p's mu hands back the
        # run's objective, not a rounding of it from another kernel, so the
        # objective a run ends with is _sorted_loglik's at its end point
        import esbiii.fit
        from esbiii.fit import _sorted_loglik

        runs = []

        def ascend(data, *args, orig=esbiii.fit._ascend):
            runs.append((data, orig(data, *args)))
            return runs[-1][1]

        monkeypatch.setattr(esbiii.fit, "_ascend", ascend)
        fit_ml(Dataset(sample(Params(0.0, 1.0, 3.0, 0.5, 0.3), 200, seed=2)))
        assert len(runs) > 1 and len(scans) > len(runs)
        for data, (p, ll, *_) in runs:
            assert ll == _sorted_loglik(data, p.mu, p.sigma, p.c, p.k, p.eps)
        for scan in scans:
            mu, val = scan["result"]
            assert mu != scan["p"].mu or val == scan["ll"]

    @staticmethod
    def _elements_of_a_fit(truth):
        """(objective and mu slope elements, objective elements) of one n = 2000 fit, from its ledger."""
        ledger = _fit_ml(Dataset(sample(Params(0.0, 1.0, *truth), 2000, seed=1)))[1]
        return 2000 * (ledger.probes + ledger.slopes), 2000 * ledger.probes

    def test_objective_elements_of_a_boundary_fit(self):
        # a count, not a wall time: 5,776,000 objective (_mu_line) elements,
        # 1,000,000 of them the mu scan's nodes, and 550,000 mu slope elements
        elements, line = self._elements_of_a_fit((5.0, 0.2, 0.4))
        assert elements <= 1.1 * 6_326_000
        # the line's probes are most of the work: a count that misses them is blind
        assert 0.9 * 5_776_000 <= line <= 1.1 * 5_776_000

    @pytest.mark.parametrize(
        "truth, count",
        [
            # objective + mu slope elements, the objective's including the scan's
            # nodes: 2,434,000 (520,000) + 250,000 and 2,454,000 (472,000) + 164,000
            ((2.0, 1.0, -0.3), 2_684_000),
            ((5.0, 0.1, 0.2), 2_618_000),
        ],
        # named for the shape, not the ceiling, so a tightened count keeps the name
        ids=["bimodal", "spiked"],
    )
    def test_objective_elements_of_a_bimodal_and_a_spiked_fit(self, truth, count):
        assert self._elements_of_a_fit(truth)[0] <= 1.1 * count

    def test_one_derivative_and_one_score_pass_per_iteration(self, monkeypatch):
        # the trust-region step's gradient and Hessian come from one pass; the
        # convergence test's score is needed only in an iteration that meets
        # param_tol, and for the norm a run returns
        import esbiii.fit

        met = []

        def rel_change(*args, orig=esbiii.fit._rel_change):
            met.append(orig(*args))
            return met[-1]

        monkeypatch.setattr(esbiii.fit, "_rel_change", rel_change)
        ledger = _fit_ml(Dataset(sample(Params(0.0, 1.0, 5.0, 0.2, 0.4), 2000, seed=1)))[1]
        ends = len(ledger.starts) + sum(change <= FitConfig().param_tol for change in met)
        assert ledger.iterations > ends
        assert ledger.derivs <= ledger.iterations
        assert ledger.scores <= ends

    @pytest.fixture(scope="class")
    def smooth_case(self):
        """Bimodal data (fitted c*k near 2), drawn and sorted, the fitted point and scan cell."""
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1)
        data = _floored(x)
        p = fit_ml(Dataset(x)).params
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        return x, data, p, cell

    @pytest.fixture(scope="class")
    def spiked_case(self):
        """Spiked data (fitted c*k near 0.52), drawn and sorted, the fitted point and scan cell."""
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 5.0, 0.1, 0.2), 2000, seed=1)
        data = _floored(x)
        p = fit_ml(Dataset(x)).params
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        return x, data, p, cell

    @pytest.fixture
    def brackets(self, monkeypatch):
        """Each bracket golden section yields, (a, b, x, f(x)): the last is the finish's final one."""
        import esbiii.fit

        seen = []

        def recorded(f, a, b, orig=esbiii.fit._golden_max):
            for item in orig(f, a, b):
                seen.append(item)
                yield item

        monkeypatch.setattr(esbiii.fit, "_golden_max", recorded)
        return seen

    @pytest.fixture
    def newton_calls(self, monkeypatch):
        import esbiii.fit

        calls = []

        def counted(*args, orig=esbiii.fit._newton_max):
            calls.append(args[1:3])
            return orig(*args)

        monkeypatch.setattr(esbiii.fit, "_newton_max", counted)
        return calls

    @staticmethod
    def _finish(data, p, a, b):
        """The move's objective in mu at p, and _finish_mu's end on [a, b]."""
        from esbiii.fit import _finish_mu, _mu_line

        f, plateau = _mu_line(data, p.sigma, p.c, p.k, p.eps)
        return f, plateau, _finish_mu(data, p, f, plateau, a, b)

    @staticmethod
    def _breaks(data, plateau, a, b):
        """(at, landing, tests) of each break in [a, b], as the finish lists them."""
        from esbiii.fit import _breakpoints, _within

        i, j = _within(data.ys, 0.5 * (a + b), 0.5 * (b - a) + data.floor)
        breaks = _breakpoints(data.ys[i:j], plateau, data.floor, 1e-6 * data.floor / 1024.0)
        return [brk for brk in breaks if a <= brk[0] <= b]

    def _oracle(self, data, f, plateau, bracket):
        """The best of f on 4001 points over the final bracket and at each of its breaks' landings.

        The grid stops the finish's tolerance, a millionth of the floor,
        short of each end: Newton stops that close to a maximum on the
        bracket's edge.
        """
        a, b = bracket[:2]
        tol = 1e-6 * data.floor
        grid = [f(v) for v in np.linspace(a + tol, b - tol, 4001)]
        return max(grid + [f(mu) for _, mu, _ in self._breaks(data, plateau, a, b)])

    @staticmethod
    def _slope(data, p, mu):
        from esbiii.fit import _mu_sums

        return _mu_sums(data.values, mu, p.sigma, p.c, p.k, p.eps, data.floor)[0]

    def _first_single_break(self, data, plateau, brackets):
        """The first bracket narrower than the floor that holds at most one break, and its breaks."""
        for a, b, m, fm in brackets:
            if b - a < data.floor:
                held = self._breaks(data, plateau, a, b)
                if len(held) <= 1:
                    return (a, b, m, fm), held
        raise AssertionError("no bracket narrower than the floor holds at most one break")

    @pytest.mark.parametrize("shift, d_eps", [(0.0, 0.0), (0.3, 0.02), (-0.6, -0.05)])
    def test_newton_finish_ends_at_a_local_maximum(
        self, brackets, newton_calls, smooth_case, shift, d_eps
    ):
        x, data, p, cell = smooth_case
        floor = data.floor
        p = replace(p, eps=p.eps + d_eps)
        centre = p.mu + shift * cell
        f, plateau, (mu, val) = self._finish(data, p, centre - cell, centre + cell)
        a, b, _, fm = brackets[-1]
        assert b - a < floor
        assert np.min(np.abs(x - 0.5 * (a + b))) > 0.5 * (b - a) + floor  # a smooth bracket
        assert newton_calls == [(a, b)]
        assert a <= mu <= b
        assert val == f(mu) >= fm
        assert val >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)
        step = 1e-6 * floor
        # no gain beyond the objective's rounding, and the exact slope
        # changes sign across the probes
        assert max(f(mu - step), f(mu + step)) <= val + 1e-13 * abs(val)
        assert self._slope(data, p, mu - step) >= 0.0 >= self._slope(data, p, mu + step)

    def test_floor_edge_corner_that_beats_every_probe_is_not_landed_on(self, brackets, smooth_case):
        # at c*k near 2.14 the corner at the edge of an observation's floor
        # is convex, so never a maximum, though its value beats every probe
        # made before golden section's bracket holds it alone
        x, data, p, cell = smooth_case
        floor = data.floor
        obs = float(x[np.argmin(np.abs(x - p.mu))])
        f, plateau, (mu, val) = self._finish(data, p, obs + 0.4 * floor, obs + 1.3 * floor)
        (_, _, _, fm), held = self._first_single_break(data, plateau, brackets)
        assert [brk[0] for brk in held] == [obs + floor]
        corner = f(obs + floor)
        assert corner >= fm
        assert self._slope(data, p, obs + floor + 1e-3 * floor) > 0.0  # the slope beyond points away
        assert not self._breaks(data, plateau, *brackets[-1][:2])  # it went on to a smooth bracket
        assert abs(mu - (obs + floor)) > 0.1 * floor
        assert val == f(mu) > corner
        assert val >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)

    def test_break_that_a_probe_beats_is_not_landed_on(self, brackets, smooth_case):
        # at c*k = 1 the first bracket around the eighth observation nearest
        # mu to hold one break holds a jump whose slopes point at it, but a
        # probe already beats its value: landing there would end 0.14 below
        x, data, p, cell = smooth_case
        p = replace(p, c=1.0 / p.k, eps=p.eps + 0.1)
        centre = float(x[np.argsort(np.abs(x - p.mu))[7]])
        f, plateau, (mu, val) = self._finish(data, p, centre - cell, centre + cell)
        (_, _, _, fm), held = self._first_single_break(data, plateau, brackets)
        [(at, landing, tests)] = held
        assert at in x  # a jump
        assert all(sign * self._slope(data, p, v) >= 0.0 for v, sign in tests)
        assert f(landing) < fm
        assert mu != landing
        assert val == f(mu) >= f(landing) + 0.1
        assert val >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)

    def test_smooth_bracket_takes_newton_below_c_k_1(self, brackets, newton_calls, smooth_case):
        x, data, p, cell = smooth_case
        floor = data.floor
        p = replace(p, c=0.9 / p.k)
        a, b = p.mu - 0.45 * floor, p.mu + 0.45 * floor
        assert np.min(np.abs(x - p.mu)) > 1.45 * floor  # no observation within the floor
        f, plateau, (mu, val) = self._finish(data, p, a, b)
        assert newton_calls == [(a, b)] and len(brackets) == 1  # no golden step, Newton at once
        assert a <= mu <= b
        assert val == f(mu) >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)

    @pytest.mark.parametrize("case", ["jump, c*k = 0.9", "corner, c*k = 0.9", "spiked"])
    def test_break_landing_beats_brent_at_half_the_calls(
        self, brackets, newton_calls, smooth_case, spiked_case, case
    ):
        x, data, p, cell = spiked_case if case == "spiked" else smooth_case
        floor = data.floor
        centre = p.mu
        if case != "spiked":
            p = replace(p, c=0.9 / p.k)
            if case.startswith("jump"):
                centre = float(x[np.argmin(np.abs(x - p.mu))])
        probes, slopes = data.ledger.probes, data.ledger.slopes
        f, plateau, (mu, val) = self._finish(data, p, centre - cell, centre + cell)
        # golden section's two first probes and one a step, then the landing
        # and its one or two slope tests alone
        assert data.ledger.probes - probes == len(brackets) + 2
        assert data.ledger.slopes - slopes <= 2
        assert newton_calls == []
        [(_, landing, _)] = self._breaks(data, plateau, *brackets[-1][:2])
        assert mu == landing
        assert val == f(mu) >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)
        gap = np.abs(x - mu)
        # on a break: beside an observation's jump, or on a corner of its floor
        assert min(gap.min(), np.abs(gap - floor).min()) <= 1e-9 * floor
        assert (gap.min() <= 1e-9 * floor) == case.startswith(("jump", "spiked"))
        assert gap.min() > math.ulp(mu)  # never on an observation or 1 ulp beside it

    @pytest.mark.parametrize("case", ["smooth", "one break", "many breaks"])
    def test_move_from_the_scan_cells_beats_the_oracle(self, brackets, smooth_case, spiked_case, case):
        # the two scan cells around the fitted mu: smooth on the bimodal fit,
        # one corner once narrower than the floor at c*k = 0.9, and a
        # hundred observations on the spiked fit
        x, data, p, cell = spiked_case if case == "many breaks" else smooth_case
        if case == "one break":
            p = replace(p, c=0.9 / p.k)
        f, plateau, (mu, val) = self._finish(data, p, p.mu - cell, p.mu + cell)
        if case == "many breaks":
            assert len(self._breaks(data, plateau, *brackets[0][:2])) > 100
        else:
            held = self._first_single_break(data, plateau, brackets)[1]
            assert len(held) == {"smooth": 0, "one break": 1}[case]
        assert val == f(mu) >= self._oracle(data, f, plateau, brackets[-1]) * (1.0 + 1e-13)

    @pytest.mark.parametrize("offset", [1e-3, 1e-5])
    def test_newton_stops_when_its_step_rounds_away(self, offset):
        # the maximum of 3m - m**4/4: Newton's iterates reach the nearest
        # double of 3**(1/3) in two or three steps, where the next step is
        # below half an ulp; bisecting on from there takes 6 to 8 passes
        from esbiii.fit import _newton_max

        root = 3.0 ** (1.0 / 3.0)
        passes = []

        def slope_curv(m):
            passes.append(m)
            return 3.0 - m**3, -3.0 * m * m

        m = _newton_max(slope_curv, root - 1.0, root + 1.0, root + offset, 1e-15)
        assert len(passes) <= 4
        assert abs(m - root) <= math.ulp(root)


class TestBenchmarkFitCheck:
    """The benchmark's check of a boundary fit, with the fitter's objective as the oracle."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_converged_consistent_and_no_mu_step_gains(self, seed):
        # loglik must be the working objective of the data as given: a mu
        # landed beside an observation's jump and mapped back to the data's
        # scale must stay on the jump's side.  A relative step of 1e-4 may
        # gain what the convergence test allows, 1e-5 n 1e-4, plus rounding.
        self._check(sample(Params(0.0, 1.0, 5.0, 0.2, 0.4), 2000, seed=seed))

    @pytest.mark.parametrize(
        "shape, n, seed, offset",
        [
            # mu ended beside an observation's jump, and mapping it back put
            # it on the observation: loglik 5e-3 relative above the data's
            ((5.0, 0.2, 0.4), 200, 2, 1e6),
            ((5.0, 0.2, 0.4), 200, 2, -1e6),
            ((5.0, 0.2, 0.4), 2000, 3, 1e4),
            ((5.0, 0.2, 0.4), 2000, 3, 1e6),
            ((5.0, 0.1, 0.2), 2000, 1, 1e4),
            ((5.0, 0.1, 0.2), 2000, 2, -1e6),
        ],
    )
    def test_offset_data(self, shape, n, seed, offset):
        self._check(sample(Params(0.0, 1.0, *shape), n, seed=seed) + offset)

    @staticmethod
    def _check(x):
        from esbiii.fit import _data_resolution, _fit_loglik

        r = fit_ml(Dataset(x))
        assert r.converged
        p, floor = r.params, _data_resolution(x)

        def objective(mu):
            return _fit_loglik(x, mu, p.sigma, p.c, p.k, p.eps, floor)

        ref = objective(p.mu)
        assert abs(r.loglik - ref) <= 1e-9 * abs(ref)
        tol = 1e-5 * x.size * 1e-4 + 1e-10 * abs(ref)
        for step in (-1e-4, 1e-4):
            assert objective(p.mu + step * p.sigma) - ref <= tol


class TestMapMu:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [-1e-13, 0.0, 1e-13])
    def test_mapped_mu_keeps_each_observation_on_its_side(self, sign, delta):
        # 1e-13 is far below the spacing of x near 1e6 (1.2e-10), so the
        # plain map rounds onto the observation; and a point at mu counts on
        # the positive side, which the reflection swaps
        from esbiii.fit import _floored, _map_mu

        x = 1e6 + 0.25 * np.arange(41.0)
        med, scale = 1e6 + 5.0, 16.0
        data = _floored(sign * (x - med) / scale)
        j = 17
        xj = x[j] if sign > 0.0 else x[x.size - 1 - j]  # data are sorted: the reflection reverses x
        mu = data.values[j] + delta
        out = _map_mu(x, data, mu, med, sign, scale)
        assert (xj - out >= 0.0) == ((data.values[j] - mu >= 0.0) == (sign > 0.0))
        assert abs(out - xj) <= math.ulp(xj)
        # away from the observations it is the plain map
        far = data.values[j] + 0.5 * abs(data.values[1] - data.values[0])
        assert _map_mu(x, data, far, med, sign, scale) == med + sign * scale * far


def _model_gain(g, hess, s):
    return float(g @ s + 0.5 * s @ hess @ s)


class TestAnalyticDerivatives:
    """_theta_derivs against the score it differentiates."""

    STEP = 1e-5  # central-difference step in theta, times sigma for mu

    @staticmethod
    def _theta_score(x, p, floor):
        from esbiii.fit import _work_score

        g = _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        return g * [1.0, p.sigma, p.c, p.k, 1.0 - p.eps * p.eps]

    @pytest.fixture(params=[(2.0, 1.0, -0.3), (5.0, 0.2, 0.4), (5.0, 0.1, 0.2), (0.8, 0.5, 0.2)])
    def point(self, request):
        """Data from the shape, and a point off the truth with mu mid-way across a wide gap."""
        c, k, eps = request.param
        x = np.sort(sample(Params(0.0, 1.0, c, k, eps), 500, seed=3))
        gaps = np.where(np.abs(x[:-1]) < 0.5, np.diff(x), 0.0)
        i = int(np.argmax(gaps))
        p = Params(0.5 * (x[i] + x[i + 1]), 1.1, 1.1 * c, 0.9 * k, eps + 0.05)
        assert np.min(np.abs(x - p.mu)) >= 1e3 * self.STEP * p.sigma
        return x, p

    def test_hessian_matches_central_differences_of_the_score(self, point):
        from esbiii.fit import _moved, _theta_derivs

        x, p = point
        _, hess = _theta_derivs(x, p, 0.0)
        cols = []
        for i in range(5):
            h = self.STEP * (p.sigma if i == 0 else 1.0)
            cols.append(_richardson(lambda t: self._theta_score(x, _moved(p, [i], [t]), 0.0), 0.0, h))
        numeric = np.array(cols)
        scale = np.sqrt(np.outer(np.abs(np.diag(hess)), np.abs(np.diag(hess))))
        assert np.all(np.abs(hess - numeric) <= 1e-6 * scale)
        assert np.array_equal(hess, hess.T)

    def test_gradient_is_the_working_score(self, point):
        from esbiii.fit import _data_resolution, _theta_derivs

        x, p = point
        floor = _data_resolution(x)
        # floor 0, and a floor with mu inside an observation's
        for q, fl in ((p, 0.0), (replace(p, mu=float(x[250]) + 0.5 * floor), floor)):
            g, _ = _theta_derivs(x, q, fl)
            np.testing.assert_allclose(g, self._theta_score(x, q, fl), rtol=1e-12, atol=0.0)

    def test_a_block_reduced_in_pieces(self, monkeypatch):
        # _BLOCK + 1 points: a full block, reduced in products of _DERIV_CHUNK
        # points, and a block of one
        import esbiii.fit
        from esbiii.fit import _DERIV_CHUNK, _data_resolution, _theta_derivs

        assert _BLOCK > _DERIV_CHUNK
        x = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), _BLOCK + 1, seed=3)
        floor = _data_resolution(x)
        for p, fl in (
            (Params(0.05, 1.1, 2.2, 0.9, -0.25), 0.0),
            (Params(float(x[4100]) + 0.5 * floor, 1.1, 2.2, 0.9, -0.25), floor),
        ):
            g, hess = _theta_derivs(x, p, fl)
            np.testing.assert_allclose(g, self._theta_score(x, p, fl), rtol=1e-12, atol=0.0)
            monkeypatch.setattr(esbiii.fit, "_DERIV_CHUNK", _BLOCK)  # one product per block
            g1, hess1 = _theta_derivs(x, p, fl)
            monkeypatch.undo()
            np.testing.assert_allclose(g, g1, rtol=1e-12, atol=0.0)
            scale = np.sqrt(np.outer(np.abs(np.diag(hess1)), np.abs(np.diag(hess1))))
            assert np.all(np.abs(hess - hess1) <= 1e-12 * scale)
            assert np.array_equal(hess, hess.T)


class TestTrustRegionStep:
    """The exact trust-region subproblem, on random 5 x 5 models."""

    def test_non_finite_derivatives_leave_the_point_with_a_record(self, caplog):
        from esbiii.fit import _RADIUS0, _floored, _tr_move

        # mu on an observation with no floor: the mu slope is infinite
        x = sample(TRUTH, 200, seed=3)
        p = replace(TRUTH, mu=float(x[5]))
        data = replace(_floored(x), floor=0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
                got = _tr_move(data, p, -1e3, [0, 1, 2, 3, 4], 0.5)
        assert got == (p, -1e3, _RADIUS0)
        (rec,) = [r for r in caplog.records if "not finite" in r.getMessage()]
        assert rec.levelno == logging.DEBUG
        assert repr(p.mu) in rec.getMessage()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "hard", "near-hard", "definite"]),
        st.floats(-3.0, 1.0),
    )
    def test_inside_the_radius_and_beats_the_cauchy_point(self, seed, kind, log_radius):
        from esbiii.fit import _tr_subproblem

        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        curv = rng.uniform(-10.0, 10.0, 5)
        if kind == "definite":
            curv = -np.abs(curv) - 0.1
        else:
            curv[0] = abs(curv[0]) + 1.0  # an ascent direction of the model
        hess = q @ np.diag(curv) @ q.T
        hess = 0.5 * (hess + hess.T)
        g = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3)
        top = q[:, int(np.argmax(curv))]
        if kind == "hard":
            g -= (g @ top) * top  # no gradient along the top curvature
        elif kind == "near-hard":
            g -= (g @ top) * top * (1.0 - 1e-12)
        radius = 10.0**log_radius
        s = _tr_subproblem(g, hess, radius)
        assert np.linalg.norm(s) <= radius * (1.0 + 1e-12)
        # the Cauchy point: the best step along g within the radius
        gnorm, ghg = np.linalg.norm(g), g @ hess @ g
        t = radius if ghg >= 0.0 else min(radius, gnorm**3 / -ghg)
        cauchy = _model_gain(g, hess, t * g / gnorm)
        gain = _model_gain(g, hess, s)
        assert gain >= cauchy - 1e-9 * abs(cauchy)
        if kind != "definite":  # positive curvature: the step ends on the boundary
            assert np.linalg.norm(s) == pytest.approx(radius, rel=1e-9)


class TestEquivariance:
    def test_negated_fit_is_a_bitwise_mirror(self):
        # the data of acceptance test 11
        data = Dataset(sample(TRUTH, 2000, seed=42))
        r = fit_ml(data)
        m = fit_ml(Dataset(-data.values))
        p = r.params
        assert m.params == Params(-p.mu, p.sigma, p.c, p.k, -p.eps)
        assert (m.loglik, m.cycles, m.trace, m.converged) == (
            r.loglik, r.cycles, r.trace, r.converged
        )

    @pytest.fixture(scope="class")
    def bimodal(self):
        data = Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=11))
        return data, fit_ml(data)

    def test_shift_by_1e12(self, bimodal):
        # the shifted data themselves round by up to 6e-5
        data, r = bimodal
        s = fit_ml(Dataset(data.values + 1e12))
        assert s.converged
        for name in ("sigma", "c", "k", "eps"):
            assert getattr(s.params, name) == pytest.approx(getattr(r.params, name), rel=1e-4)

    def test_scale_by_1e_minus_6(self, bimodal):
        data, r = bimodal
        s = fit_ml(Dataset(1e-6 * data.values))
        assert s.converged
        p = r.params
        want = Params(1e-6 * p.mu, 1e-6 * p.sigma, p.c, p.k, p.eps)
        for name in COORD_NAMES:
            assert getattr(s.params, name) == pytest.approx(getattr(want, name), rel=1e-6), name


class TestFlatRidge:
    def test_converges(self):
        # a flat ridge along which sigma falls as k rises; the profile
        # likelihood in k peaks near k = 57 and falls by 0.005 toward its
        # k -> inf limit, so the maximum is interior, far from the truth
        r = fit_ml(Dataset(sample(Params(0.0, 1.0, 1.5, 3.0, 0.0), 200, seed=11)))
        assert r.converged
        assert 0.05 < r.params.sigma < 0.2
        assert 30.0 < r.params.k < 100.0


class TestBoundaryRay:
    def test_stop_below_the_floor_is_not_convergence(self):
        # the fit stops where sigma, three orders of magnitude below the
        # data's resolution, and k = 53 trade off along the k -> inf ray
        from esbiii.fit import _data_resolution

        x = sample(Params(0.0, 1.0, 0.8, 0.5, 0.2), 200, seed=2)
        r, ledger = _fit_ml(Dataset(x))
        assert not r.converged
        assert r.cycles < FitConfig().max_cycles
        assert r.params.sigma * (1.0 + abs(r.params.eps)) < _data_resolution(x)
        assert "boundary ray" in ledger.starts[ledger.won][1]

    def test_drift_along_the_ray_ends_early(self):
        # sigma (1 + |eps|) falls below floor / n within a few iterations;
        # without the stop the run drifted for 500 of them to sigma = 2e-9
        data = Dataset(sample(Params(0.0, 1.0, 1.0, 1.0, 0.0), 50, seed=4))
        t0 = time.perf_counter()
        r, ledger = _fit_ml(data)
        assert time.perf_counter() - t0 < 0.5
        assert not r.converged
        assert r.cycles < 50
        assert ledger.starts[ledger.won][1] == "left on the boundary ray"


class TestPowerLimitRay:
    def test_shoulder_inside_the_floor_is_not_convergence(self):
        # the run stops at c = 1e7 to 1e9, where the objective's last digits
        # are rounding, at the tolerances or at a fixed point, while the
        # objective still rises along c -> inf with c k fixed; the kernel's
        # shoulder, sigma (1 + |eps|) / c wide, is far inside the data's resolution
        from esbiii.fit import _data_resolution

        x = sample(Params(0.0, 1.0, 20.0, 0.2, 0.5), 20, seed=4)
        r, ledger = _fit_ml(Dataset(x))
        p = r.params
        assert not r.converged
        assert p.sigma * (1.0 + abs(p.eps)) / p.c < _data_resolution(x)
        assert "boundary ray" in ledger.starts[ledger.won][1]


class TestOneBlockDirectCall:
    """Up to one block the fit kernels are called directly, with the blocked sum's bits."""

    ARGS = (0.05, 1.2, 2.1, 0.9, -0.25)

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_objective_and_score_match_the_blocked_sum(self, monkeypatch, floor):
        import esbiii.fit
        from esbiii.burr3 import _BLOCK

        x = sample(Params(0.1, 1.3, 2.0, 1.0, -0.3), _BLOCK, seed=5)
        direct_ll = esbiii.fit._fit_loglik(x, *self.ARGS, floor)
        direct_g = esbiii.fit._work_score(x, *self.ARGS, floor)
        # below the size the direct call is taken for, both go through _blockwise and _fsum
        monkeypatch.setattr(esbiii.fit, "_BLOCK", _BLOCK - 1)
        blocked_ll = esbiii.fit._fit_loglik(x, *self.ARGS, floor)
        blocked_g = esbiii.fit._work_score(x, *self.ARGS, floor)
        assert type(direct_ll) is float
        assert np.float64(direct_ll).tobytes() == np.float64(blocked_ll).tobytes()
        assert direct_g.tobytes() == blocked_g.tobytes()


class TestDuplicateStarts:
    def test_a_start_that_joins_an_end_would_have_reached_it(self, monkeypatch):
        # bimodal: most starts find one optimum; those that reach an earlier
        # start's converged end stop there, and run on alone they end on it
        import esbiii.fit

        runs = []
        orig = esbiii.fit._ascend

        def recorded(*args):
            runs.append((args, orig(*args)))
            return runs[-1][1]

        monkeypatch.setattr(esbiii.fit, "_ascend", recorded)
        r, ledger = _fit_ml(Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1)))
        assert r.converged
        stops = [re.fullmatch(r"joined start (\d+)'s end point", stop) for _, stop in ledger.starts]
        duplicates = [(*run, int(m.group(1))) for run, m in zip(runs, stops) if m]
        assert duplicates
        for (floored, p0, cfg, score_tol, ends), run, joined in duplicates:
            (end_ll,) = [q_ll for j, _, q_ll in ends if j == joined]
            assert not run[2]
            assert run[1] <= end_ll <= max(other[1][1] for other in runs)
            alone = orig(floored, p0, cfg, score_tol)
            assert alone[1] == pytest.approx(end_ll, rel=1e-9, abs=0.0)


class TestLedger:
    """The fit's own count of its work, which the reference set and the work pins read."""

    DATA = Dataset(sample(Params(0.0, 1.0, 3.0, 0.5, 0.3), 200, seed=3))  # the CLI chain's third fit

    def test_lines_and_probes_match_a_line_wrapper_and_the_runs_add_up(self, monkeypatch):
        import esbiii.fit

        counts = {"lines": 0, "probes": 0}

        def line(*args, orig=esbiii.fit._mu_line):
            f, plateau = orig(*args)
            counts["lines"] += 1

            def probe(mu):
                counts["probes"] += 1
                return f(mu)

            return probe, plateau

        monkeypatch.setattr(esbiii.fit, "_mu_line", line)
        r, ledger = _fit_ml(self.DATA)
        assert counts == {"lines": ledger.lines, "probes": ledger.probes} and ledger.probes > ledger.lines
        # each run's iterations add up to the total, and the winner's are the result's
        assert len(ledger.starts) > 1 and sum(i for i, _ in ledger.starts) == ledger.iterations
        cycles, stop = ledger.starts[ledger.won]
        assert cycles == r.cycles and (stop == "converged") == r.converged

    def test_each_fit_counts_into_a_ledger_of_its_own(self):
        r, first = _fit_ml(self.DATA)
        kept = copy.deepcopy(first)
        solve_coordinate(r.params, "mu", self.DATA)
        solve_coordinate(r.params, "sigma", self.DATA)
        moment_init(self.DATA)
        second = _fit_ml(self.DATA)[1]
        assert second is not first and first == kept == second


class TestTmix:
    """1 / (1 + z**c) with one exp, against the softplus form it replaced."""

    def test_matches_the_softplus_form(self):
        from esbiii.burr3 import _tmix

        u = np.linspace(-800.0, 800.0, 200_001)
        ref = np.exp(-np.logaddexp(0.0, u))
        got = _tmix(u / 2.5, 2.5)
        keep = ref >= 1e-300
        assert keep.sum() > 100_000
        np.testing.assert_allclose(got[keep], ref[keep], rtol=4e-15, atol=0.0)

    def test_overflow_gives_exactly_zero_without_warning(self):
        from esbiii.burr3 import _tmix

        # pytest's filterwarnings turns an overflow RuntimeWarning into an error
        u = np.array([710.0, 711.0, 1e3, 1e300, math.inf])
        assert np.array_equal(_tmix(u, 1.0), np.zeros(u.size))
        assert _tmix(np.float64(800.0), 1.0) == 0.0

    def test_scalar_in_float_out(self):
        from esbiii.burr3 import _tmix

        for lz in (np.float64(0.3), np.float64(-40.0), 2.0):
            t = _tmix(lz, 1.7)
            assert isinstance(t, np.float64) and math.isfinite(t)
        assert _tmix(np.float64(0.0), 3.0) == 0.5


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
            dict(max_cycles=2.5),
            dict(max_cycles=math.nan),
            dict(fixed_c=math.inf),
            dict(max_cycles=math.inf),
            dict(param_tol=math.inf),
            dict(score_tol=math.inf),
            dict(score_tol=math.nan),
            # integers beyond the float range, refused like an infinity
            dict(fixed_c=10**400),
            dict(score_tol=10**400),
            dict(param_tol=10**400),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FitConfig(**kwargs)
