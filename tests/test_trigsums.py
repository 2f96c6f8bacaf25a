import math

import numpy as np
import pytest
from conftest import exact_angle_sums
from hypothesis import given, settings
from hypothesis import strategies as st

from extspec import ParameterError, SingularFrequencyError
from extspec.trigsums import (
    arith_trig_sum,
    cross_lag_sum,
    geometric_trig_sum,
    k_weighted_trig_sum,
    tail_weighted_trig_sum,
)

RNG = np.random.default_rng(1729)


def random_freq():
    return float(RNG.uniform(0.01, math.pi - 0.01))


class TestArithmeticSums:
    def test_full_period_cancellation(self):
        assert arith_trig_sum(4, 0.0, math.pi / 2)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_term(self):
        cos_sum, sin_sum = arith_trig_sum(1, 0.3, 1.1)
        assert cos_sum == pytest.approx(math.cos(0.3), abs=1e-15)
        assert sin_sum == pytest.approx(math.sin(0.3), abs=1e-15)

    def test_empty_sum(self):
        assert arith_trig_sum(0, 1.0, 0.5) == (0.0, 0.0)

    def test_matches_direct_summation(self):
        for _ in range(200):
            n = int(RNG.integers(1, 2001))
            lam, x = random_freq(), float(RNG.uniform(-10, 10))
            k = np.arange(n)
            cos_sum, sin_sum = arith_trig_sum(n, x, lam)
            assert cos_sum == pytest.approx(float(np.cos(x + k * lam).sum()), abs=1e-9)
            assert sin_sum == pytest.approx(float(np.sin(x + k * lam).sum()), abs=1e-9)
            lams = np.array([lam, 0.5 * lam, math.pi - lam])
            pointwise = [arith_trig_sum(n, x * v, v) for v in lams]
            for part, array_part in enumerate(arith_trig_sum(n, x * lams, lams)):
                np.testing.assert_array_equal(array_part, [pair[part] for pair in pointwise])

    def test_fourier_full_period_sums_vanish(self):
        # sum over t = 1..n of cos/sin(lam*t) is zero at Fourier frequencies
        for n in (8, 12, 37, 256):
            for j in (1, 2, n // 3 or 1):
                lam = 2 * math.pi * j / n
                if not 0 < lam < math.pi:
                    continue
                assert arith_trig_sum(n, lam, lam) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_singular_frequency(self):
        with pytest.raises(SingularFrequencyError):
            arith_trig_sum(5, 0.0, 2 * math.pi)
        with pytest.raises(SingularFrequencyError):
            arith_trig_sum(5, 0.0, np.array([1.0, 2 * math.pi]))


class TestKWeightedSums:
    def test_hand_value(self):
        # -1*1 + 2*1 at lam = pi
        assert k_weighted_trig_sum(3, math.pi)[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        assert k_weighted_trig_sum(1, 1.0) == (0.0, 0.0)

    def test_matches_direct_summation(self):
        # the reference sums exact angles with one rounding: the sum grows like
        # n/sin(lam/2), where plain double accumulation loses more accuracy than
        # the closed form under test
        for _ in range(200):
            n = int(RNG.integers(1, 2001))
            lam = random_freq()
            ref_cos, ref_sin = exact_angle_sums(np.arange(1.0, n), lam)
            cos_sum, sin_sum = k_weighted_trig_sum(n, lam)
            assert cos_sum == pytest.approx(ref_cos, abs=1e-10)
            assert sin_sum == pytest.approx(ref_sin, abs=1e-10)

    def test_independent_of_long_double_width(self, monkeypatch):
        # the kernel runs in double with exact angles, so it keeps its accuracy and its
        # bits where long double is a plain double
        rng = np.random.default_rng(4411)
        cases, refs = [], []
        for _ in range(300):
            n = max(1, int(math.exp(rng.uniform(0.0, math.log(10_000.0)))))
            lam = float(rng.uniform(0.01, math.pi - 0.01))
            cases.append((n, lam))
            refs += exact_angle_sums(np.arange(1.0, n), lam)

        def kernel():
            return [part for n, lam in cases for part in k_weighted_trig_sum(n, lam)]

        bits = kernel()
        monkeypatch.setattr(np, "longdouble", np.float64)
        values = kernel()
        assert max(abs(v - r) for v, r in zip(values, refs)) <= 1e-10
        assert values == bits


class TestGeometricSums:
    def test_zero_ratio(self):
        for n in (1, 3, None):
            assert geometric_trig_sum(n, 0.0, 1.3)[0] == pytest.approx(1.0, abs=1e-15)

    def test_alternating_series(self):
        # sum of (-1/2)^k = 2/3
        assert geometric_trig_sum(None, 0.5, math.pi)[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_near_one_ratio(self):
        n, p, lam = 50, 0.9, 1.3
        k = np.arange(n)
        assert geometric_trig_sum(n, p, lam)[0] == pytest.approx(
            float((p**k * np.cos(k * lam)).sum()), abs=1e-12
        )

    def test_matches_direct_summation(self):
        for _ in range(200):
            n = int(RNG.integers(1, 500))
            p = float(RNG.uniform(-0.99, 0.99))
            lam = random_freq()
            k = np.arange(n)
            kk = np.arange(1, n)
            cos_sum, sin_sum = geometric_trig_sum(n, p, lam)
            assert cos_sum == pytest.approx(float((p**k * np.cos(k * lam)).sum()), abs=1e-10)
            assert sin_sum == pytest.approx(float((p**kk * np.sin(kk * lam)).sum()), abs=1e-10)
            lams = np.array([lam, 0.5 * lam, math.pi - lam])
            for count in (n, None):
                pointwise = [geometric_trig_sum(count, p, v) for v in lams]
                for part, array_part in enumerate(geometric_trig_sum(count, p, lams)):
                    np.testing.assert_array_equal(array_part, [pair[part] for pair in pointwise])
        with pytest.raises(SingularFrequencyError):
            geometric_trig_sum(5, 1.0, np.array([1.0, 0.0]))

    def test_divergent_infinite_sum(self):
        with pytest.raises(ParameterError):
            geometric_trig_sum(None, 1.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 200),
        p=st.floats(-0.95, 0.95),
        lam=st.floats(0.05, math.pi - 0.05),
    )
    def test_finite_approaches_infinite(self, n, p, lam):
        fin = geometric_trig_sum(n, p, lam)[0]
        inf = geometric_trig_sum(None, p, lam)[0]
        assert abs(fin - inf) <= abs(p) ** n / (1 - abs(p)) ** 2 + 1e-12


class TestCrossLagSums:
    def test_empty_at_h_equals_n(self):
        for kind in ("cs_same", "cs_cross", "cc", "ss"):
            assert cross_lag_sum(10, 10, 1.0, 0.7, kind) == 0.0

    def test_fourier_same_frequency_value(self):
        # lam*n is a multiple of 2*pi, so only the -sin(lam*h) term survives
        assert cross_lag_sum(8, 2, math.pi / 2, math.pi / 2, "cs_same") == pytest.approx(
            -math.sin(math.pi), abs=1e-12
        )

    def test_matches_direct_summation(self):
        for _ in range(150):
            n = int(RNG.integers(2, 2001))
            h = int(RNG.integers(1, n + 1))
            lam = random_freq()
            om = random_freq()
            while abs(lam - om) < 0.01:
                om = random_freq()
            s = np.arange(1, n - h + 1)
            direct = {
                "cs_same": np.cos(lam * s) * np.sin(lam * (s + h))
                + np.cos(lam * (s + h)) * np.sin(lam * s),
                "cs_cross": np.cos(lam * s) * np.sin(om * (s + h))
                + np.cos(lam * (s + h)) * np.sin(om * s),
                "cc": np.cos(lam * s) * np.cos(om * (s + h))
                + np.cos(lam * (s + h)) * np.cos(om * s),
                "ss": np.sin(lam * s) * np.sin(om * (s + h))
                + np.sin(lam * (s + h)) * np.sin(om * s),
            }
            for kind, terms in direct.items():
                assert cross_lag_sum(n, h, lam, om, kind) == pytest.approx(
                    float(terms.sum()), abs=1e-8
                ), kind

    def test_equal_frequencies_singular_for_mixed_kinds(self):
        for kind in ("cs_cross", "cc", "ss"):
            with pytest.raises(SingularFrequencyError):
                cross_lag_sum(50, 3, 1.0, 1.0, kind)

    def test_lag_domain(self):
        with pytest.raises(ParameterError):
            cross_lag_sum(5, 0, 1.0, 0.5, "cc")
        with pytest.raises(ParameterError):
            cross_lag_sum(5, 6, 1.0, 0.5, "cc")


class TestTailWeightedSums:
    def test_empty(self):
        assert tail_weighted_trig_sum(10, 9, 1.0, 0.2) == (0.0, 0.0)

    def test_matches_direct_summation(self):
        for _ in range(150):
            n = int(RNG.integers(2, 3001))
            r = int(RNG.integers(0, n))
            lam = random_freq()
            x = float(RNG.uniform(-10, 10))
            h = np.arange(r + 1, n)
            dc = float(((n - h) * np.cos(lam * h + x)).sum())
            ds = float(((n - h) * np.sin(lam * h + x)).sum())
            cos_sum, sin_sum = tail_weighted_trig_sum(n, r, lam, x)
            assert cos_sum == pytest.approx(dc, abs=1e-7 * n)
            assert sin_sum == pytest.approx(ds, abs=1e-7 * n)

    def test_uniform_envelope(self):
        # the sum stays O(n / sin^2(lam/2)) whatever r and x are
        for _ in range(300):
            n = int(RNG.integers(2, 5001))
            r = int(RNG.integers(0, n))
            lam = random_freq()
            x = float(RNG.uniform(-10, 10))
            bound = 3.0 * n / math.sin(lam / 2.0) ** 2
            cos_sum, sin_sum = tail_weighted_trig_sum(n, r, lam, x)
            assert abs(cos_sum) <= bound
            assert abs(sin_sum) <= bound

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            tail_weighted_trig_sum(10, 10, 1.0, 0.0)
        with pytest.raises(ParameterError):
            tail_weighted_trig_sum(10, -1, 1.0, 0.0)
