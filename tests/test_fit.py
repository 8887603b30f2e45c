import logging
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    NonConvergenceError,
    SmallSampleError,
)
from esbiii.burr3 import _BLOCK
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


class TestGridKernels:
    """The mu scan evaluates a column of nodes per block; a node alone must give its bits."""

    P = Params(0.1, 1.3, 2.0, 1.0, -0.3)

    def test_mu_score_and_objective(self):
        from esbiii.fit import _block_loglik, _data_resolution, _fit_loglik, _work_score

        p = self.P
        x = sample(p, 2000, seed=5)
        floor = _data_resolution(x)
        # an observation, points inside its floor, and ordinary nodes
        obs = float(x[7])
        nodes = [obs, obs + 0.5 * floor, obs - 0.9 * floor, *np.linspace(-3, 3, 20)]
        col = np.array(nodes).reshape(-1, 1)
        ll = np.concatenate(
            [_block_loglik(x, col[i : i + 4], p.sigma, p.c, p.k, p.eps, floor) for i in (0, 4, 8, 12, 16, 20)]
        )
        assert ll.tolist() == [_fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor) for m in nodes]
        # an observation inside the floor adds nothing to the working mu score
        rest = np.delete(x, 7)
        for m in nodes[:3]:
            g = _work_score(x, m, p.sigma, p.c, p.k, p.eps, floor)[0]
            assert g == pytest.approx(
                _work_score(rest, m, p.sigma, p.c, p.k, p.eps, floor)[0], rel=1e-12
            )


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
    def objective_calls(self, monkeypatch):
        """(x.size, shape of mu) of every _block_loglik call; a column of mu is a scan.

        The mu slope kernel's calls are listed too, with shape (), so that
        the mu move's work cannot hide in it.
        """
        import esbiii.fit

        calls = []
        for name in ("_block_loglik", "_mu_sums"):

            def counted(x, mu, *args, orig=getattr(esbiii.fit, name)):
                calls.append((x.size, np.shape(mu)))
                return orig(x, mu, *args)

            monkeypatch.setattr(esbiii.fit, name, counted)
        return calls

    @pytest.fixture(scope="class")
    def bimodal_mode(self):
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1)
        return x, _floored(x), fit_ml(Dataset(x)).params

    @pytest.mark.parametrize("cells, nodes", [(0.0, 5), (1.0, 5), (2.5, 41), (-2.5, 41)])
    def test_later_moves_scan_the_window_first(self, objective_calls, bimodal_mode, cells, nodes):
        # mu `cells` scan cells from the fitted mode: up to one cell off the
        # best of the five window nodes is an inner one, beyond it an edge one
        from esbiii.fit import _comb_mu_update

        x, data, p = bimodal_mode
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        q = replace(p, mu=p.mu + cells * cell)
        near = _comb_mu_update(x, q, data.floor, data.spread, full=False)
        assert sum(shape[0] for _, shape in objective_calls if len(shape) == 2) == nodes
        objective_calls.clear()
        assert _comb_mu_update(x, q, data.floor, data.spread) == near
        assert sum(shape[0] for _, shape in objective_calls if len(shape) == 2) == 41

    @pytest.mark.parametrize(
        "truth, n, seed",
        [
            ((2.0, 1.0, -0.3), 2000, 1),
            ((5.0, 0.2, 0.4), 2000, 1),
            ((5.0, 0.1, 0.2), 2000, 1),
            ((3.0, 0.5, 0.3), 200, 3),
            ((2.0, 1.0, -0.3), _BLOCK + 1, 1),
        ],
    )
    def test_fit_equals_the_fit_with_every_scan_full(self, monkeypatch, truth, n, seed):
        import esbiii.fit

        data = Dataset(sample(Params(0.0, 1.0, *truth), n, seed=seed))
        windowed = fit_ml(data)
        orig, local = esbiii.fit._comb_mu_update, []

        def full_scan(x, p, floor, spread, full=True):
            local.append(not full)
            return orig(x, p, floor, spread)

        monkeypatch.setattr(esbiii.fit, "_comb_mu_update", full_scan)
        forced = fit_ml(data)
        assert any(local)
        fields = ("params", "loglik", "converged", "cycles", "score_norm", "trace")
        assert [getattr(windowed, f) for f in fields] == [getattr(forced, f) for f in fields]

    @staticmethod
    def _elements_of_a_fit(calls, truth):
        fit_ml(Dataset(sample(Params(0.0, 1.0, *truth), 2000, seed=1)))
        return sum(size * math.prod(shape) for size, shape in calls)

    def test_objective_elements_of_a_boundary_fit(self, objective_calls):
        # a count, not a wall time: 6,696,000 objective and 580,000 mu slope
        # elements with the landing on breaks; 8,192,000 and 398,000 with
        # Brent's method closing in on them, 16,648,000 objective elements
        # with every mu scan at 41 nodes
        assert self._elements_of_a_fit(objective_calls, (5.0, 0.2, 0.4)) <= 1.1 * 7_276_000

    @pytest.mark.parametrize(
        "truth, count",
        [
            ((2.0, 1.0, -0.3), 3_180_000),  # 2,834,000 objective + 346,000 mu slope
            ((5.0, 0.1, 0.2), 3_002_000),  # 2,804,000 + 198,000
        ],
    )
    def test_objective_elements_of_a_bimodal_and_a_spiked_fit(self, objective_calls, truth, count):
        assert self._elements_of_a_fit(objective_calls, truth) <= 1.1 * count

    def test_one_derivative_and_one_score_pass_per_iteration(self, monkeypatch):
        # the trust-region step's gradient and Hessian come from one pass, and
        # the convergence test's score from one more
        import esbiii.fit

        counts = {"_deriv_sums": 0, "_score_sums": 0, "iterations": 0}
        for name in ("_deriv_sums", "_score_sums"):

            def counted(*args, name=name, orig=getattr(esbiii.fit, name)):
                counts[name] += 1
                return orig(*args)

            monkeypatch.setattr(esbiii.fit, name, counted)

        def ascend(*args, orig=esbiii.fit._ascend):
            run = orig(*args)
            counts["iterations"] += run[3]
            return run

        monkeypatch.setattr(esbiii.fit, "_ascend", ascend)
        fit_ml(Dataset(sample(Params(0.0, 1.0, 5.0, 0.2, 0.4), 2000, seed=1)))
        assert counts["iterations"] > 0
        assert counts["_deriv_sums"] <= counts["iterations"]
        assert counts["_score_sums"] <= counts["iterations"]

    @pytest.fixture(scope="class")
    def smooth_case(self):
        """Bimodal data (fitted c*k near 2), the fitted point, and its floor and scan cell."""
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1)
        data = _floored(x)
        p = fit_ml(Dataset(x)).params
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        return x, data.floor, p, cell

    @staticmethod
    def _objective(x, p, floor):
        from esbiii.fit import _fit_loglik

        return lambda m: _fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor)

    @pytest.mark.parametrize("shift, d_eps", [(0.0, 0.0), (0.3, 0.02), (-0.6, -0.05)])
    def test_newton_finish_ends_at_a_local_maximum(self, monkeypatch, smooth_case, shift, d_eps):
        import esbiii.fit
        from esbiii.fit import _finish_mu, _golden_max, _mu_sums

        def refuse(*args):
            raise AssertionError("Brent's stage ran on a smooth bracket")

        monkeypatch.setattr(esbiii.fit, "_line_max", refuse)
        x, floor, p, cell = smooth_case
        p = replace(p, eps=p.eps + d_eps)
        f = self._objective(x, p, floor)
        centre = p.mu + shift * cell
        a, b, m, fm = _golden_max(f, centre - cell, centre + cell, floor)
        assert np.min(np.abs(x - 0.5 * (a + b))) > 0.5 * (b - a) + floor  # a smooth bracket
        mu, val = _finish_mu(x, p, floor, a, b, m, fm)
        assert a <= mu <= b
        assert val == f(mu) >= fm
        step = 1e-6 * floor
        # no gain beyond the objective's rounding, and the exact slope
        # changes sign across the probes
        assert max(f(mu - step), f(mu + step)) <= val + 1e-13 * abs(val)
        slope = [_mu_sums(x, v, p.sigma, p.c, p.k, p.eps, 0.0)[0] for v in (mu - step, mu + step)]
        assert slope[0] >= 0.0 >= slope[1]

    def test_floor_edge_bracket_keeps_brents_end(self, smooth_case):
        # at c*k near 2.14 the corner at the edge of an observation's floor
        # is convex, so never a maximum, though its value beats every probe
        # made before Brent's bracket holds it alone
        from esbiii.fit import _finish_mu, _line_max

        x, floor, p, cell = smooth_case
        obs = float(x[np.argmin(np.abs(x - p.mu))])
        a, b = obs + 0.4 * floor, obs + 1.3 * floor
        f = self._objective(x, p, floor)
        m = a + 0.618 * (b - a)
        assert _finish_mu(x, p, floor, a, b, m, f(m)) == _line_max(f, a, b, m, f(m), 1e-6 * floor)

    def test_break_that_a_probe_beats_keeps_brents_end(self, smooth_case):
        # at c*k = 1 the bracket around the eighth observation nearest mu
        # holds a jump whose slopes point at it, but a probe already beats
        # its value: landing there would end 0.14 below Brent's end
        from esbiii.fit import _finish_mu, _golden_max, _line_max

        x, floor, p, cell = smooth_case
        p = replace(p, c=1.0 / p.k, eps=p.eps + 0.1)
        centre = float(x[np.argsort(np.abs(x - p.mu))[7]])
        f = self._objective(x, p, floor)
        a, b, m, fm = _golden_max(f, centre - cell, centre + cell, floor)
        assert _finish_mu(x, p, floor, a, b, m, fm) == _line_max(f, a, b, m, fm, 1e-6 * floor)

    def test_smooth_bracket_takes_newton_below_c_k_1(self, monkeypatch, smooth_case):
        import esbiii.fit
        from esbiii.fit import _finish_mu, _line_max

        x, floor, p, cell = smooth_case
        p = replace(p, c=0.9 / p.k)
        a, b = p.mu - 0.45 * floor, p.mu + 0.45 * floor
        assert np.min(np.abs(x - p.mu)) > 1.45 * floor  # no observation within the floor
        f = self._objective(x, p, floor)
        m = a + 0.618 * (b - a)
        brent = _line_max(f, a, b, m, f(m), 1e-6 * floor)

        def refuse(*args):
            raise AssertionError("Brent's stage ran on a smooth bracket")

        monkeypatch.setattr(esbiii.fit, "_line_max", refuse)
        mu, val = _finish_mu(x, p, floor, a, b, m, f(m))
        assert a <= mu <= b
        assert val == f(mu) >= brent[1]

    @pytest.fixture(scope="class")
    def spiked_case(self):
        """Spiked data (fitted c*k near 0.52), the fitted point, and its floor and scan cell."""
        from esbiii.fit import _floored

        x = sample(Params(0.0, 1.0, 5.0, 0.1, 0.2), 2000, seed=1)
        data = _floored(x)
        p = fit_ml(Dataset(x)).params
        cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0
        return x, data.floor, p, cell

    @pytest.mark.parametrize("case", ["jump, c*k = 0.9", "corner, c*k = 0.9", "spiked"])
    def test_break_landing_beats_brent_at_half_the_calls(
        self, objective_calls, smooth_case, spiked_case, case
    ):
        from esbiii.fit import _finish_mu, _golden_max, _line_max

        x, floor, p, cell = spiked_case if case == "spiked" else smooth_case
        centre = p.mu
        if case != "spiked":
            p = replace(p, c=0.9 / p.k)
            if case.startswith("jump"):
                centre = float(x[np.argmin(np.abs(x - p.mu))])
        f = self._objective(x, p, floor)
        a, b, m, fm = _golden_max(f, centre - cell, centre + cell, floor)
        assert np.min(np.abs(x - 0.5 * (a + b))) <= 0.5 * (b - a) + floor  # observations near
        objective_calls.clear()
        mu, val = _finish_mu(x, p, floor, a, b, m, fm)
        finish = len(objective_calls)
        objective_calls.clear()
        brent = _line_max(f, a, b, m, fm, 1e-6 * floor)
        assert 2 * finish <= len(objective_calls)
        assert val == f(mu) >= brent[1]
        gap = np.abs(x - mu)
        # on a break: beside an observation's jump, or on a corner of its floor
        assert min(gap.min(), np.abs(gap - floor).min()) <= 1e-9 * floor
        assert (gap.min() <= 1e-9 * floor) == case.startswith(("jump", "spiked"))
        assert gap.min() > math.ulp(mu)  # never on an observation or 1 ulp beside it


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
        mu = data.values[j] + delta
        out = _map_mu(x, data, mu, med, sign, scale)
        assert (x[j] - out >= 0.0) == ((data.values[j] - mu >= 0.0) == (sign > 0.0))
        assert abs(out - x[j]) <= math.ulp(x[j])
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


class TestTrustRegionStep:
    """The exact trust-region subproblem, on random 5 x 5 models."""

    def test_non_finite_derivatives_leave_the_point_with_a_record(self, caplog):
        from esbiii.fit import _RADIUS0, _tr_move

        # mu on an observation with no floor: the mu slope is infinite
        x = sample(TRUTH, 200, seed=3)
        p = replace(TRUTH, mu=float(x[5]))
        with np.errstate(divide="ignore", invalid="ignore"):
            with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
                got = _tr_move(x, p, -1e3, [0, 1, 2, 3, 4], 0.5, 0.0)
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
    def test_stop_below_the_floor_is_not_convergence(self, caplog):
        # the fit stops where sigma, three orders of magnitude below the
        # data's resolution, and k = 53 trade off along the k -> inf ray
        from esbiii.fit import _data_resolution

        x = sample(Params(0.0, 1.0, 0.8, 0.5, 0.2), 200, seed=2)
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(Dataset(x))
        assert not r.converged
        assert r.cycles < FitConfig().max_cycles
        assert r.params.sigma * (1.0 + abs(r.params.eps)) < _data_resolution(x)
        assert "boundary ray" in caplog.text

    def test_drift_along_the_ray_ends_early(self, caplog):
        # sigma (1 + |eps|) falls below floor / n within a few iterations;
        # without the stop the run drifted for 500 of them to sigma = 2e-9
        data = Dataset(sample(Params(0.0, 1.0, 1.0, 1.0, 0.0), 50, seed=4))
        t0 = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(data)
        assert time.perf_counter() - t0 < 0.5
        assert not r.converged
        assert r.cycles < 50
        assert "boundary ray" in caplog.text


class TestPowerLimitRay:
    def test_shoulder_inside_the_floor_is_not_convergence(self, caplog):
        # the tolerances are met at c = 1.4e7, k = 3.7e-7 while the objective
        # still rises along c -> inf with c k fixed; the kernel's shoulder,
        # sigma (1 + |eps|) / c wide, is far inside the data's resolution
        from esbiii.fit import _data_resolution

        x = sample(Params(0.0, 1.0, 20.0, 0.2, 0.5), 20, seed=4)
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(Dataset(x))
        p = r.params
        assert not r.converged
        assert p.sigma * (1.0 + abs(p.eps)) / p.c < _data_resolution(x)
        assert "boundary ray" in caplog.text


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
    def test_a_start_that_joins_an_end_would_have_reached_it(self, monkeypatch, caplog):
        # bimodal: most starts find one optimum; those that reach an earlier
        # start's converged end stop there, and run on alone they end on it
        import esbiii.fit

        runs = []
        orig = esbiii.fit._ascend

        def recorded(data, p, cfg, score_tol, ends=()):
            before = len(caplog.records)
            run = orig(data, p, cfg, score_tol, ends)
            joined = [
                int(m.group(1))
                for rec in caplog.records[before:]
                if (m := re.search(r"joined start (\d+)", rec.getMessage()))
            ]
            runs.append((data, p, cfg, score_tol, list(ends), run, joined))
            return run

        monkeypatch.setattr(esbiii.fit, "_ascend", recorded)
        data = Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 2000, seed=1))
        with caplog.at_level(logging.DEBUG, logger="esbiii.fit"):
            r = fit_ml(data)
        assert r.converged
        duplicates = [run for run in runs if run[6]]
        assert duplicates
        for floored, p0, cfg, score_tol, ends, run, joined in duplicates:
            (end_ll,) = [q_ll for j, _, q_ll in ends if j == joined[0]]
            assert not run[2]
            assert run[1] <= end_ll <= max(other[5][1] for other in runs)
            alone = orig(floored, p0, cfg, score_tol)
            assert alone[1] == pytest.approx(end_ll, rel=1e-9, abs=0.0)


class TestTmix:
    """1 / (1 + z**c) with one exp, against the softplus form it replaced."""

    def test_matches_the_softplus_form(self):
        from esbiii.fit import _tmix

        u = np.linspace(-800.0, 800.0, 200_001)
        ref = np.exp(-np.logaddexp(0.0, u))
        got = _tmix(u / 2.5, 2.5)
        keep = ref >= 1e-300
        assert keep.sum() > 100_000
        np.testing.assert_allclose(got[keep], ref[keep], rtol=4e-15, atol=0.0)

    def test_overflow_gives_exactly_zero_without_warning(self):
        from esbiii.fit import _tmix

        # pytest's filterwarnings turns an overflow RuntimeWarning into an error
        u = np.array([710.0, 711.0, 1e3, 1e300, math.inf])
        assert np.array_equal(_tmix(u, 1.0), np.zeros(u.size))
        assert _tmix(np.float64(800.0), 1.0) == 0.0

    def test_scalar_in_float_out(self):
        from esbiii.fit import _tmix

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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FitConfig(**kwargs)
