import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esbiii.burr3 import (
    Burr3Params,
    ShapeClass,
    burr3_cdf,
    burr3_pdf,
    burr3_quantile,
    burr3_sample,
    burr3_shape_class,
    _u_terms,
)
from esbiii.errors import DomainError
from esbiii.gof import Dataset, ks_statistic
from esbiii.special_math import integrate

shape_params = st.builds(
    Burr3Params,
    c=st.floats(0.3, 25.0, allow_nan=False),
    k=st.floats(0.05, 10.0, allow_nan=False),
)


class TestParams:
    @pytest.mark.parametrize("c,k", [(0.0, 1.0), (-1.0, 1.0), (2.0, 0.0), (2.0, -3.0)])
    def test_invalid_shapes_rejected(self, c, k):
        with pytest.raises(DomainError):
            Burr3Params(c=c, k=k)


class TestPdf:
    def test_hand_values(self):
        assert burr3_pdf(Burr3Params(2.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-14)
        assert burr3_pdf(Burr3Params(1.0, 1.0), 1.0) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_nonpositive_rejected(self, z):
        with pytest.raises(DomainError):
            burr3_pdf(Burr3Params(2.0, 1.0), z)

    def test_normalizes(self):
        p = Burr3Params(5.0, 0.2)
        r = integrate(lambda z: burr3_pdf(p, z), 0.0, math.inf, tol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    @given(shape_params, st.floats(1e-3, 1e3))
    def test_nonnegative(self, p, z):
        assert burr3_pdf(p, z) >= 0.0

    def test_extreme_z_no_overflow(self):
        p = Burr3Params(20.0, 0.2)
        assert burr3_pdf(p, 1e-12) >= 0.0
        assert burr3_pdf(p, 1e12) >= 0.0


class TestCdf:
    def test_hand_values(self):
        assert burr3_cdf(Burr3Params(1.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-14)
        assert burr3_cdf(Burr3Params(2.0, 3.0), 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_fitted_microarray_shape_point(self):
        p = Burr3Params(2.3826, 0.7786)
        assert burr3_cdf(p, 1.0) == pytest.approx(2.0**-0.7786, rel=1e-13)

    def test_limits_and_monotonicity(self):
        # G(z) ~ z^(ck) = z near 0 for ck = 1
        p = Burr3Params(5.0, 0.2)
        zs = np.geomspace(1e-6, 1e6, 200)
        vals = burr3_cdf(p, zs)
        assert vals[0] < 1.1e-6
        assert vals[-1] > 1.0 - 1e-8
        assert np.all(np.diff(vals) >= 0.0)

    def test_derivative_matches_pdf(self):
        p = Burr3Params(2.0, 1.5)
        h = 1e-6
        for z in np.geomspace(0.05, 20.0, 40):
            num = (burr3_cdf(p, z + h) - burr3_cdf(p, z - h)) / (2.0 * h)
            assert num == pytest.approx(burr3_pdf(p, z), rel=1e-6, abs=1e-9)


class TestQuantile:
    def test_hand_values(self):
        assert burr3_quantile(Burr3Params(1.0, 1.0), 0.5) == pytest.approx(1.0, rel=1e-14)
        assert burr3_quantile(Burr3Params(2.0, 1.0), 0.8) == pytest.approx(2.0, rel=1e-13)

    def test_round_trip_grid(self):
        p = Burr3Params(5.0, 0.2)
        for u in np.linspace(0.01, 0.99, 99):
            z = burr3_quantile(p, float(u))
            assert burr3_cdf(p, z) == pytest.approx(u, abs=1e-10)

    @given(
        st.builds(
            Burr3Params,
            c=st.floats(0.5, 25.0, allow_nan=False),
            k=st.floats(0.1, 10.0, allow_nan=False),
        ),
        st.floats(1e-4, 1.0 - 1e-4),
    )
    def test_round_trip_property(self, p, u):
        assert burr3_cdf(p, burr3_quantile(p, u)) == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7])
    def test_invalid_prob_rejected(self, u):
        with pytest.raises(DomainError):
            burr3_quantile(Burr3Params(2.0, 1.0), u)


class TestSample:
    def test_deterministic(self):
        p = Burr3Params(3.0, 0.5)
        a = burr3_sample(p, 5, seed=42)
        b = burr3_sample(p, 5, seed=42)
        assert np.array_equal(a, b)
        c = burr3_sample(p, 5, seed=43)
        assert not np.array_equal(a, c)

    def test_all_positive(self):
        draws = burr3_sample(Burr3Params(0.5, 0.5), 10_000, seed=1)
        assert np.all(draws > 0.0)

    def test_median_matches_quantile(self):
        p = Burr3Params(2.0, 1.0)
        draws = burr3_sample(p, 100_000, seed=7)
        med = float(np.median(draws))
        assert abs(med - burr3_quantile(p, 0.5)) < 0.02

    def test_ks_against_own_cdf(self):
        p = Burr3Params(5.0, 1.0)
        n = 100_000
        draws = burr3_sample(p, n, seed=11)
        d = ks_statistic(Dataset(draws), lambda z: burr3_cdf(p, z))
        assert d < 1.36 / math.sqrt(n)


class TestShapeClass:
    @pytest.mark.parametrize(
        "c,k,expected",
        [
            (2.0, 0.5, ShapeClass.L_SHAPED),  # boundary ck=1 is L-shaped
            (2.0, 1.0, ShapeClass.UNIMODAL),
            (20.0, 0.2, ShapeClass.UNIMODAL),
            (0.5, 0.5, ShapeClass.L_SHAPED),
        ],
    )
    def test_classification(self, c, k, expected):
        assert burr3_shape_class(Burr3Params(c, k)) is expected

    def test_density_shape_matches_class(self):
        # ck > 1: interior maximum with small density at 0+; ck < 1:
        # decreasing from a divergent limit at 0+
        zs = np.geomspace(1e-3, 10.0, 500)
        uni = burr3_pdf(Burr3Params(2.0, 1.0), zs)
        assert np.argmax(uni) not in (0, zs.size - 1)
        assert uni[0] < 0.01 * uni.max()
        lsh = burr3_pdf(Burr3Params(2.0, 0.25), zs)
        assert np.all(np.diff(lsh) < 0.0)
        assert lsh[0] > lsh[-1] * 1e3


@pytest.mark.parametrize("floor", [0.0, 0.5])
def test_u_terms_of_a_0d_input_are_its_array_entries(floor):
    x = np.array([-0.7, 0.3, 2.5])  # 0.3 lies within the floor 0.5 of mu
    rows = _u_terms(x, 0.1, 1.3, 2.0, 0.5, 0.2, floor)
    for i, xi in enumerate(x):
        one = _u_terms(np.array(xi), 0.1, 1.3, 2.0, 0.5, 0.2, floor)
        assert [float(a) for a in one] == [float(a[i]) for a in rows]
