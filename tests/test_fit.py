import logging
import math
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
    BracketError,
    DegenerateDataError,
    DensityLimitWarning,
    DomainError,
    NoBracketError,
    NonConvergenceError,
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


class TestGridKernels:
    """Each scan grid is one broadcast pass; a node alone must give its bits."""

    P = Params(0.1, 1.3, 2.0, 1.0, -0.3)

    @pytest.fixture(scope="class")
    def parts(self):
        from esbiii.fit import _data_resolution, _fold

        # n = 2000 splits every grid below into several row chunks
        x = sample(self.P, 2000, seed=5)
        floor = _data_resolution(x)
        _, s, mag = _fold(x, self.P.mu, floor)
        return x, floor, s, mag, 1.0 + s * self.P.eps

    @staticmethod
    def _check(kernel, nodes, n):
        from esbiii.fit import _at, _on_grid

        grid = _on_grid(kernel, nodes, n)
        assert grid.shape == (len(nodes),)
        assert np.array_equal(grid, [_at(kernel, v) for v in nodes])
        return grid

    def _work(self, x, floor, **kw):
        from esbiii.fit import _work_score

        q = replace(self.P, **kw)
        return _work_score(x, q.mu, q.sigma, q.c, q.k, q.eps, floor)

    def test_mu_score_and_objective(self, parts):
        from esbiii.fit import _fit_loglik, _mu_score

        x, floor, *_ = parts
        p = self.P
        # an observation, points inside its floor, and ordinary nodes
        obs = float(x[7])
        nodes = [obs, obs + 0.5 * floor, obs - 0.9 * floor, *np.linspace(-3, 3, 20)]
        g = self._check(
            lambda m: _mu_score(x, m, p.sigma, p.c, p.k, p.eps, floor), nodes, x.size
        )
        assert g.tolist() == [self._work(x, floor, mu=m)[0] for m in nodes]
        ll = self._check(
            lambda m: _fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor), nodes, x.size
        )
        assert ll.tolist() == [
            _fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor) for m in nodes
        ]

    def test_eps_score(self, parts):
        from esbiii.fit import _EPS_GRID, _eps_score

        x, floor, s, mag, _ = parts
        p = self.P
        nodes = [-(1.0 - 1e-9), *_EPS_GRID.tolist(), 1.0 - 1e-9]
        g = self._check(
            lambda e: _eps_score(s, mag, p.sigma, p.c, p.k, e), nodes, x.size
        )
        assert g.tolist() == [self._work(x, floor, eps=e)[4] for e in nodes]

    def test_c_score(self, parts):
        from esbiii.fit import _c_score

        x, floor, _, mag, w = parts
        p = self.P
        lz = np.log(mag / (p.sigma * w))
        offsets = (-16.0, -8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        nodes = [math.exp(math.log(p.c) + o) for o in offsets]
        g = self._check(lambda c: _c_score(lz, lz.sum(), p.k, c), nodes, x.size)
        assert g.tolist() == [self._work(x, floor, c=c)[2] for c in nodes]

    def test_sigma_score(self, parts):
        from esbiii.fit import _sigma_score_scaled

        x, floor, _, mag, w = parts
        p = self.P
        steps = (-8.0, -1.0, -0.25, 0.0, 0.5, 2.0, 16.0)
        nodes = [p.sigma * math.exp(t) for t in steps]
        g = self._check(
            lambda sg: _sigma_score_scaled(mag, w, p.c, p.k, sg), nodes, x.size
        )
        # the same score component as the working score, scaled by sigma
        want = [sg * self._work(x, floor, sigma=sg)[1] for sg in nodes]
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-9 * x.size)


class TestFallingMuBrackets:
    """Counters only: the mu update refines no bracket that cannot hold a maximum."""

    def test_no_mu_refinement_fails(self, monkeypatch):
        import esbiii.fit
        from esbiii.fit import _data_resolution, _fit_loglik

        coord = []
        calls = []  # (g(lo), raised) of every mu refinement
        solve, root = esbiii.fit.solve_coordinate, esbiii.fit.find_root

        def traced_solve(p, which, data, cfg=None):
            coord.append(which)
            return solve(p, which, data, cfg)

        def traced_root(g, lo, hi, **kw):
            if coord[-1] != "mu":
                return root(g, lo, hi, **kw)
            g_lo = g(lo)
            try:
                res = root(g, lo, hi, **kw)
            except (BracketError, NonConvergenceError):
                calls.append((g_lo, True))
                raise
            calls.append((g_lo, False))
            return res

        monkeypatch.setattr(esbiii.fit, "solve_coordinate", traced_solve)
        monkeypatch.setattr(esbiii.fit, "find_root", traced_root)
        data = Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 200, seed=1))
        r = fit_ml(data)
        assert calls
        assert [c for c in calls if c[1]] == []
        assert all(g_lo > 0.0 for g_lo, _ in calls)
        # the returned mu is a local maximum of the working objective
        p, floor = r.params, _data_resolution(data.values)
        ll = _fit_loglik(data.values, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        assert ll == r.loglik
        for step in (-1e-6 * p.sigma, 1e-6 * p.sigma):
            moved = _fit_loglik(
                data.values, p.mu + step, p.sigma, p.c, p.k, p.eps, floor
            )
            assert moved - ll <= 1e-9 * abs(ll)


class TestNearestFirstScan:
    """The eps and c scans stop early yet pick the full scan's sign change."""

    _VALUES = st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.floats(-3.0, 3.0),
    )

    @settings(max_examples=400)
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=60, unique=True),
        st.data(),
    )
    def test_picks_the_full_scans_nearest_pair(self, nodes, data):
        import esbiii.fit
        from esbiii.fit import _nearest_root, _scan_brackets

        grid = sorted(nodes)
        vals = data.draw(st.lists(self._VALUES, min_size=len(grid), max_size=len(grid)))
        v0 = data.draw(
            st.one_of(
                st.sampled_from([grid[0], grid[-1], *grid]),
                st.floats(grid[0] - 1.0, grid[-1] + 1.0),
            )
        )
        n = data.draw(st.sampled_from([1, 2000]))  # 2000: four nodes per chunk
        table = dict(zip(grid, vals))

        def kern(col):
            return np.array([table[v] for v in col[:, 0]])

        def brent(f, a, b, tol, known):
            # the scan holds both endpoints, with the grid's values
            assert known[a] == table[a] and known[b] == table[b]
            return (a, b)

        pairs = _scan_brackets(grid, vals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(esbiii.fit, "_brent_root", brent)
            if not pairs:
                with pytest.raises(NoBracketError):
                    _nearest_root(kern, grid, v0, n, 1e-9, "none")
                return
            got = _nearest_root(kern, grid, v0, n, 1e-9, "none")
        a, b = min(pairs, key=lambda ab: min(abs(ab[0] - v0), abs(ab[1] - v0)))
        assert got == (a if a == b else (a, b))

    def test_scans_stay_near_and_brent_reads_their_nodes(self, monkeypatch):
        import esbiii.fit

        solves = []  # [coordinate, nodes scanned, nodes evaluated by find_root]
        in_root = [False]
        solve, root = esbiii.fit.solve_coordinate, esbiii.fit.find_root

        def traced_solve(p, which, data, cfg=None):
            solves.append([which, [], []])
            return solve(p, which, data, cfg)

        def traced_root(*args, **kw):
            in_root[0] = True
            try:
                return root(*args, **kw)
            finally:
                in_root[0] = False

        def counted(name, pos):
            kernel = getattr(esbiii.fit, name)

            def wrapped(*args):
                solves[-1][2 if in_root[0] else 1].extend(np.ravel(args[pos]).tolist())
                return kernel(*args)

            monkeypatch.setattr(esbiii.fit, name, wrapped)

        counted("_mu_score", 1)
        counted("_sigma_score_scaled", 4)
        counted("_c_score", 3)
        counted("_eps_score", 5)
        monkeypatch.setattr(esbiii.fit, "solve_coordinate", traced_solve)
        monkeypatch.setattr(esbiii.fit, "find_root", traced_root)
        fit_ml(Dataset(sample(Params(0.0, 1.0, 2.0, 1.0, -0.3), 200, seed=1)))
        for which in ("c", "eps"):
            scans = [len(scan) for w, scan, _ in solves if w == which]
            assert scans and sum(scans) / len(scans) <= 8.0, which
        assert any(brent for *_, brent in solves)
        for which, scan, brent in solves:
            assert not set(scan) & set(brent), which


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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FitConfig(**kwargs)
