import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esbiii.errors import BracketError, DomainError, NonConvergenceError
from esbiii.special_math import (
    beta_fn,
    find_root,
    finite_diff,
    integrate,
    ln_gamma,
    log1p_exp,
)


class TestLnGamma:
    def test_gamma_one_and_two(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_against_lgamma_over_range(self):
        # rel error <= 1e-13 on [1e-3, 1e3]
        for x in np.geomspace(1e-3, 1e3, 400):
            ref = math.lgamma(x)
            tol = 1e-13 * max(1.0, abs(ref))
            assert abs(ln_gamma(float(x)) - ref) <= tol, x

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)


class TestBetaFn:
    def test_trivial_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.3])
    def test_beta_a_one(self, a):
        assert beta_fn(a, 1.0) == pytest.approx(1.0 / a, rel=1e-13)

    def test_endpoint_singular_case_vs_quadrature(self):
        # B(0.6, 0.6) = integral of t^-0.4 (1-t)^-0.4 over (0, 1)
        q = integrate(lambda t: t**-0.4 * (1.0 - t) ** -0.4, 0.0, 1.0, tol=1e-10)
        assert beta_fn(0.6, 0.6) == pytest.approx(q.value, abs=1e-8)

    @given(
        st.floats(0.05, 50.0, allow_nan=False),
        st.floats(0.05, 50.0, allow_nan=False),
    )
    def test_symmetry(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_nonpositive_rejected(self, a, b):
        with pytest.raises(DomainError):
            beta_fn(a, b)


class TestIntegrate:
    def test_exponential_tail(self):
        r = integrate(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert r.abs_error_estimate <= 1e-10
        assert r.subdivisions >= 1

    def test_constant(self):
        r = integrate(lambda x: 1.0, 0.0, 1.0, tol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_standard_normal_both_tails(self):
        r = integrate(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
            -math.inf,
            math.inf,
            tol=1e-10,
        )
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_density_normalization(self):
        from esbiii import Params, pdf

        p = Params(0.0, 1.0, 5.0, 0.2, 0.4)
        r = integrate(lambda y: pdf(p, y), -math.inf, math.inf, tol=1e-9)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: math.inf, 0.0, 1.0, tol=1e-9)

    def test_budget_exhaustion(self):
        # an endpoint singularity needs adaptive refinement; a budget of 3
        # panels cannot get anywhere near tol
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: x**-0.9, 0.0, 1.0, tol=1e-12, max_subdivisions=3)


class TestFindRoot:
    def test_linear(self):
        r = find_root(lambda x: x - 2.0, 0.0, 5.0, tol=1e-12)
        assert r.root == pytest.approx(2.0, abs=1e-12)
        assert abs(r.residual) <= 1e-12

    def test_sqrt_two(self):
        r = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
        assert r.root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_no_sign_change_rejected(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-10)

    @given(st.floats(-3.0, 3.0), st.floats(0.2, 4.0))
    def test_root_stays_inside_bracket(self, center, half_width):
        lo, hi = center - half_width, center + half_width
        r = find_root(lambda x: math.tanh(x - center), lo, hi, tol=1e-10)
        assert lo <= r.root <= hi
        assert abs(r.residual) <= 1e-10

    def test_score_style_self_consistency(self):
        # k-equation for a fixed synthetic positive sample: root of
        # n/k - sum(log(1 + z**-c)) in k has an exact closed form.
        z = np.array([0.4, 0.9, 1.7, 2.3, 5.1])
        c = 2.5
        s = float(np.sum(np.log1p(z**-c)))

        def g(k):
            return z.size / k - s

        r = find_root(g, 1e-3, 1e3, tol=1e-10)
        assert abs(g(r.root)) <= 1e-10
        assert r.root == pytest.approx(z.size / s, rel=1e-10)


class TestFiniteDiff:
    def test_square(self):
        assert finite_diff(lambda x: x * x, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-8)

    def test_sine(self):
        assert finite_diff(math.sin, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_value_rejected(self):
        with pytest.raises(DomainError):
            finite_diff(lambda x: math.inf, 0.0, 1e-6)


class TestLog1pExp:
    @staticmethod
    def _scalar_reference(t):
        # the scalar formula: softplus by cases, no overflow for large |t|
        if t > 0.0:
            return t + math.log1p(math.exp(-t))
        return math.log1p(math.exp(t))

    def test_array_matches_logaddexp(self):
        mag = np.geomspace(1e-300, 1e3, 4001)
        v = np.concatenate([-mag[::-1], [0.0], mag])
        np.testing.assert_allclose(log1p_exp(v), np.logaddexp(0.0, v), rtol=1e-15, atol=0.0)

    def test_array_special_values(self):
        out = log1p_exp(np.array([0.0, math.inf, -math.inf, math.nan]))
        assert out[0] == math.log(2.0)
        assert out[1] == math.inf
        assert out[2] == 0.0
        assert math.isnan(out[3])

    def test_array_keeps_shape_and_input(self):
        v = np.array([[-3.0, 0.5], [40.0, -800.0]])
        before = v.copy()
        out = log1p_exp(v)
        assert out.shape == v.shape
        assert np.array_equal(v, before)

    @pytest.mark.parametrize(
        "t", [-800.0, -30.0, -1.0, -1e-300, 0.0, 1e-300, 0.5, 30.0, 800.0, math.inf, -math.inf]
    )
    def test_scalar_returns_float_of_scalar_formula(self, t):
        for arg in (t, np.float64(t), np.array(t)):
            out = log1p_exp(arg)
            assert type(out) is float
            assert out == self._scalar_reference(t)

    def test_scalar_nan_propagates(self):
        assert math.isnan(log1p_exp(math.nan))

    def test_no_warnings_at_extremes(self):
        extremes = [0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 745.0, -745.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log1p_exp(np.array(extremes))
            for t in extremes:
                log1p_exp(t)
