import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from esbiii import Params, logpdf, sample
from esbiii.errors import DomainError
from esbiii.fit import COORD_NAMES, score
from esbiii.gof import Dataset
from esbiii.robustness import (
    build_score_report,
    heavy_tail_check,
    log_sf_standard,
    psi,
    psi_limits,
    redescend_point,
    rho_conditions,
)

P21 = Params(0.0, 1.0, 2.0, 1.0, 0.0)

# shapes whose B**2 in redescend_point overflows a double
HUGE_B_SHAPES = [(c, k) for c in (1e77, 1e154, 1e300) for k in (1e-300, 0.5, 3.0)] + [
    (1.0, 1e300),
    (2.0, 1e200),
]

PROBE_SETS = [
    Params(0.0, 1.0, 2.0, 1.0, 0.0),
    Params(0.0, 1.0, 5.0, 0.2, 0.5),
    Params(0.0, 1.0, 5.0, 0.2, -0.6),
    Params(0.0, 1.0, 1.5, 3.0, 0.2),
    Params(0.0, 1.0, 20.0, 0.2, 0.4),
]


def _dpsi_dtheta(p, which, x):
    # numeric derivative of log f in one parameter, standardized form
    if which in ("mu", "sigma"):
        base = 0.0 if which == "mu" else 1.0
        h = 1e-6

        def f(v):
            kw = {which: v} if which == "sigma" else {"mu": v}
            return float(logpdf(replace(p, **kw), x))

        return (f(base + h) - f(base - h)) / (2.0 * h)
    h = 1e-6 * max(abs(getattr(p, which)), 0.01)

    def f(v):
        return float(logpdf(replace(p, **{which: v}), x))

    return (f(getattr(p, which) + h) - f(getattr(p, which) - h)) / (2.0 * h)


class TestPsi:
    def test_k_hand_value(self):
        assert psi(P21, "k", 1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-13)

    def test_sigma_limit_probe(self):
        assert psi(P21, "sigma", 1e8) == pytest.approx(2.0, abs=1e-6)

    def test_matches_parameter_derivative_of_log_density(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = Params(
                0.0,
                1.0,
                c=rng.uniform(0.8, 10.0),
                k=rng.uniform(0.15, 4.0),
                eps=rng.uniform(-0.7, 0.7),
            )
            x = float(rng.uniform(0.05, 6.0) * rng.choice([-1.0, 1.0]))
            for which in ("mu", "sigma", "c", "k", "eps"):
                num = _dpsi_dtheta(p, which, x)
                got = psi(p, which, x)
                assert got == pytest.approx(num, rel=1e-6, abs=1e-7), which

    def test_x_zero_rejected(self):
        with pytest.raises(DomainError):
            psi(P21, "mu", 0.0)

    def test_unknown_component_rejected(self):
        with pytest.raises(DomainError):
            psi(P21, "theta", 1.0)

    def test_array_evaluation(self):
        xs = np.array([-3.0, -0.5, 0.4, 2.0])
        vals = psi(P21, "sigma", xs)
        assert vals.shape == xs.shape
        assert vals[2] == psi(P21, "sigma", 0.4)


class TestPsiIsTheScoreTerm:
    @pytest.mark.parametrize("shape", [(2.0, 1.0, -0.3), (5.0, 0.2, 0.4), (5.0, 0.1, 0.2), (0.8, 0.5, 0.2)])
    def test_score_is_the_sum_of_psi(self, shape):
        p = Params(0.0, 1.0, *shape)
        x = sample(p, 2000, seed=1)
        g = score(p, Dataset(x))
        for j, name in enumerate(COORD_NAMES):
            terms = psi(p, name, x)
            assert abs(g[j] - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms)), name

    @pytest.mark.parametrize("eps", [1.0 - 1e-9, -(1.0 - 1e-9)])
    def test_eps_term_at_the_ends_of_its_range(self, eps):
        # one side's scale 1 - |eps| is 1e-9: 1 - eps**2 would lose its last eight digits
        p = Params(0.0, 1.0, 5.0, 0.2, eps)
        c, k = p.c, p.k
        x = np.array([-40.0, -3.0, -1.2, -0.6, -0.05, 0.05, 0.6, 1.2, 3.0, 40.0])
        s = np.sign(x)
        t = 1.0 / (1.0 + np.exp(c * np.log(s * x / (1.0 + s * eps))))
        direct = s * ((c + 1.0) - c * (k + 1.0) * t) / (1.0 + s * eps)
        assert np.all(np.abs(psi(p, "eps", x) / direct - 1.0) <= 1e-14)
        assert abs(score(p, Dataset(x))[4] / math.fsum(direct) - 1.0) <= 1e-14


class TestPsiLimits:
    def test_reference_set(self):
        lims = psi_limits(P21)
        assert lims["mu"].value_pos == 0.0
        assert lims["sigma"].value_pos == 2.0
        assert lims["k"].value_pos == 1.0
        assert lims["eps"].value_pos == pytest.approx(3.0)
        assert lims["eps"].value_neg == pytest.approx(-3.0)
        assert not lims["c"].finite
        for name in ("mu", "sigma", "k", "eps"):
            assert lims[name].finite
            assert lims[name].confirmed

    def test_k_limit_is_reciprocal(self):
        lims = psi_limits(Params(0.0, 1.0, 5.0, 0.2, 0.5))
        assert lims["k"].value_pos == pytest.approx(5.0)

    def test_eps_limits_are_one_sided(self):
        p = Params(0.0, 1.0, 5.0, 0.2, 0.5)
        lims = psi_limits(p)
        assert lims["eps"].value_pos == pytest.approx((5.0 + 1.0) / 1.5)
        assert lims["eps"].value_neg == pytest.approx(-(5.0 + 1.0) / 0.5)

    @pytest.mark.parametrize("p", PROBE_SETS, ids=lambda p: f"c{p.c}_k{p.k}_e{p.eps}")
    def test_probes_confirm_analytic_limits(self, p):
        lims = psi_limits(p)
        for name, lim in lims.items():
            assert lim.confirmed, name
        # the c component keeps growing between the two probe radii
        # (logarithmically, so the ratio is about log(1e8)/log(1e6) = 4/3)
        pp = lims["c"].probes_pos
        assert abs(pp[1]) > abs(pp[0]) + 4.0
        assert abs(pp[1]) / abs(pp[0]) > 1.25


class TestRedescendPoint:
    def test_symmetric_reference(self):
        r = redescend_point(P21)
        assert r.x0 == pytest.approx(1.4679, abs=2e-4)
        # numeric critical point of psi_mu
        h = 1e-6
        slope = (psi(P21, "mu", r.x0 + h) - psi(P21, "mu", r.x0 - h)) / (2.0 * h)
        assert abs(slope) < 1e-6 * abs(psi(P21, "mu", r.x0)) / r.x0

    def test_quarter_power_case(self):
        r = redescend_point(Params(0.0, 1.0, 5.0, 0.2, 0.0))
        assert r.x0 == pytest.approx(4.0 ** (1.0 / 5.0), rel=1e-12)

    def test_absent_at_unit_product(self):
        r = redescend_point(Params(0.0, 1.0, 1.0, 1.0, 0.0))
        assert r.x0 is None
        assert r.reason == "ck=1"

    @pytest.mark.parametrize("k", [1e100, 1e300])
    def test_peak_beyond_the_float_range(self, k):
        # x0 = u0**(-1/c), or the exp form once B**2 overflows, is past 1e308
        p = Params(0.0, 1.0, 0.1, k, 0.0)
        r = redescend_point(p)
        assert r.x0 is None
        assert r.reason == "x0 beyond the float range"
        assert rho_conditions(p).mu_redescending is True

    def test_skewness_scales_linearly(self):
        base = redescend_point(P21).x0
        skew = redescend_point(Params(0.0, 1.0, 2.0, 1.0, 0.5)).x0
        assert skew == pytest.approx(1.5 * base, rel=1e-12)

    @pytest.mark.parametrize("c, k", HUGE_B_SHAPES)
    def test_root_where_b_squared_overflows(self, c, k):
        # the same root as the docstring's quadratic, at 60 digits
        eps = 0.3
        with localcontext() as ctx:
            ctx.prec = 60
            dc, dk = Decimal(c), Decimal(k)
            big_b = -(dc * dc * dk) - dc * dc - dc * dk + dc + 2
            disc = big_b * big_b - 4 * (dc + 1) * (1 - dc * dk)
            u0 = 2 * (dc + 1) / (disc.sqrt() - big_b)
            want = (1 + Decimal(eps)) * (-u0.ln() / dc).exp()
            x0 = redescend_point(Params(0.0, 1.0, c, k, eps)).x0
            assert abs(Decimal(x0) / want - 1) <= Decimal("1e-12")

    def test_rise_and_fall_around_peak(self):
        x0 = redescend_point(P21).x0
        rising = np.linspace(x0 / 2.0, x0, 50)
        falling = np.linspace(x0, 2.0 * x0, 50)
        up = psi(P21, "mu", rising)
        down = psi(P21, "mu", falling)
        assert np.all(np.diff(up) > 0.0)
        assert np.all(np.diff(down) < 0.0)


class TestRhoConditions:
    def test_zero_at_origin_never_holds(self):
        for p in PROBE_SETS:
            assert rho_conditions(p).zero_at_origin is False

    def test_growth_conditions(self):
        r = rho_conditions(Params(0.0, 1.0, 5.0, 0.2, 0.0))
        assert r.unbounded is True
        assert r.sublinear is True

    def test_mu_redescending_flag(self):
        assert rho_conditions(P21).mu_redescending is True
        assert rho_conditions(Params(0.0, 1.0, 1.0, 1.0, 0.0)).mu_redescending is False


class TestHeavyTail:
    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_reference_cases(self, lam):
        assert heavy_tail_check(P21, lam).heavy is True

    def test_bimodal_case(self):
        assert heavy_tail_check(Params(0.0, 1.0, 20.0, 0.2, 0.5), 1.0).heavy is True

    def test_probes_increase(self):
        rep = heavy_tail_check(P21, 0.1)
        vals = [v for _, v in rep.probes]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", [2.0, 5.0])
    def test_tail_index_recovers_c(self, c):
        rep = heavy_tail_check(Params(0.0, 1.0, c, 0.5, 0.2), 1.0)
        assert abs(rep.tail_index_estimate - c) / c < 0.05

    def test_invalid_rate_rejected(self):
        for lam in (0.0, 10**400):  # 10**400: an integer beyond the float range
            with pytest.raises(DomainError):
                heavy_tail_check(P21, lam)
            with pytest.raises(DomainError):
                build_score_report(P21, lam=lam)

    def test_survival_tail_constant(self):
        # x**c * P(X > x) -> k (1 + eps)**(c+1) / 2
        p = Params(0.0, 1.0, 2.0, 1.0, 0.4)
        x = 1e5
        got = math.exp(log_sf_standard(p, x) + p.c * math.log(x))
        want = p.k * (1.0 + p.eps) ** (p.c + 1.0) / 2.0
        assert abs(got - want) / want < 0.01

    def test_log_sf_deep_tail_no_underflow(self):
        p = Params(0.0, 1.0, 20.0, 0.2, 0.0)
        v = log_sf_standard(p, 1e30)
        assert math.isfinite(v)
        assert v == pytest.approx(
            math.log(0.5 * p.k) - p.c * (math.log(1e30)), rel=1e-10
        )


class TestScoreReport:
    def test_bounded_map(self):
        rep = build_score_report(P21)
        assert rep.bounded == {
            "mu": True,
            "sigma": True,
            "c": False,
            "k": True,
            "eps": True,
        }
        assert rep.tail_heavy is True
        assert rep.x0 == pytest.approx(1.4679, abs=2e-4)
        assert rep.rho.zero_at_origin is False

    def test_x0_reason_passthrough(self):
        rep = build_score_report(Params(0.0, 1.0, 1.0, 1.0, 0.0))
        assert rep.x0 is None
        assert rep.x0_reason == "ck=1"
