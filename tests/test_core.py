import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extspec import (
    Arma11Spec,
    FrequencyGrid,
    IndicatorSeries,
    InputError,
    Interval,
    LowerRay,
    ParameterError,
    PredicateSet,
    StudentT,
    Threshold,
    UpperRay,
    exceedance_indicators,
    fourier_grid,
    simulate_arma11,
    threshold_from_quantile,
)
from extspec.core import smoothing_window_starts, two_product


class TestThreshold:
    def test_enumerated_order_statistic(self):
        thr = threshold_from_quantile(np.arange(1.0, 101.0), 0.98)
        assert thr.a_m == 98.0
        assert thr.exceed_count == 2

    def test_constant_series(self):
        thr = threshold_from_quantile(np.full(100, 3.7), 0.5)
        assert thr.a_m == 3.7
        assert thr.exceed_count == 0

    def test_quantile_domain(self):
        x = np.arange(100.0)
        for q in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                threshold_from_quantile(x, q)

    def test_empty_series(self):
        with pytest.raises(InputError):
            threshold_from_quantile([], 0.5)

    def test_too_short_for_quantile(self):
        with pytest.raises(InputError):
            threshold_from_quantile(np.arange(10.0), 0.98)

    def test_boundary_length_accepted(self):
        # n*(1-q) == 1 exactly: one expected exceedance
        thr = threshold_from_quantile(np.arange(1.0, 51.0), 0.98)
        assert thr.a_m == 49.0

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(st.floats(-1e6, 1e6), min_size=20, max_size=200),
        q1=st.floats(0.05, 0.5),
        q2=st.floats(0.5, 0.95),
    )
    def test_monotone_in_quantile(self, data, q1, q2):
        a1 = threshold_from_quantile(data, q1).a_m
        a2 = threshold_from_quantile(data, q2).a_m
        assert a1 <= a2

    def test_invariant_under_permutation(self):
        # shuffling moves event positions but not the threshold, so the
        # exceedance multiset is preserved; this is what makes shuffled
        # replicates a fair no-dependence reference
        rng = np.random.default_rng(8)
        x = rng.standard_t(3, size=777)
        perm = rng.permutation(x)
        t1 = threshold_from_quantile(x, 0.95)
        t2 = threshold_from_quantile(perm, 0.95)
        assert t1.a_m == t2.a_m
        assert t1.exceed_count == t2.exceed_count
        ind1 = exceedance_indicators(x, UpperRay(1.0), t1)
        ind2 = exceedance_indicators(perm, UpperRay(1.0), t2)
        assert ind1.n_events == ind2.n_events

    def test_exceed_count_on_seeded_simulation(self):
        # continuous data: exceedances above the ceil(q*n)-th order
        # statistic are exactly n - ceil(q*n)
        n = 31757
        spec = Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3))
        x = simulate_arma11(spec, n, seed=1)
        thr = threshold_from_quantile(x, 0.98)
        assert thr.exceed_count == n - math.ceil(0.98 * n)
        assert thr.exceed_count == 635


class TestTailSets:
    def test_upper_ray(self):
        thr = threshold_from_quantile(np.arange(1.0, 101.0), 0.5)
        ind = exceedance_indicators([0.5 * thr.a_m, 2.0 * thr.a_m, -3.0 * thr.a_m], UpperRay(1.0), thr)
        assert ind.bits.tolist() == [False, True, False]

    def test_lower_ray(self):
        thr = threshold_from_quantile(np.arange(1.0, 101.0), 0.5)
        ind = exceedance_indicators([0.5 * thr.a_m, 2.0 * thr.a_m, -3.0 * thr.a_m], LowerRay(1.0), thr)
        assert ind.bits.tolist() == [False, False, True]

    def test_ray_boundary_is_strict(self):
        thr = Threshold(a_m=2.0, exceed_count=1)
        ind = exceedance_indicators([0.5, 2.0, -3.0], UpperRay(1.0), thr)
        # 2.0 / 2.0 == 1.0 is not > 1
        assert ind.bits.tolist() == [False, False, False]

    def test_interval_half_open(self):
        s = Interval(1.0, 2.0)
        got = s.contains(np.array([1.0, 1.5, 2.0, 2.5]))
        assert got.tolist() == [False, True, True, False]

    def test_predicate_set(self):
        s = PredicateSet(lambda x: np.abs(x) > 1.0)
        assert s.contains(np.array([-2.0, 0.5, 3.0])).tolist() == [True, False, True]

    def test_invalid_endpoints(self):
        with pytest.raises(ParameterError):
            UpperRay(0.0)
        with pytest.raises(ParameterError):
            Interval(2.0, 1.0)

    def test_nonpositive_threshold_rejected(self):
        thr = Threshold(a_m=-1.0, exceed_count=0)
        with pytest.raises(ParameterError):
            exceedance_indicators([1.0, 2.0], UpperRay(1.0), thr)

    def test_rate_and_count_are_statistics_of_the_bits(self):
        ind = IndicatorSeries([1, 0, 0, 1, 0, 0, 0, 1])
        assert (ind.n, ind.n_events, ind.p0_hat) == (8, 3, 0.375)
        assert ind.centered().sum() == 0.0
        for bad in ([], [[1, 0], [0, 1]]):
            with pytest.raises(InputError):
                IndicatorSeries(bad)

    @pytest.mark.parametrize("scale", [1e-3, 3.0, 1e6])
    def test_scale_invariance_with_rederived_threshold(self, scale):
        rng = np.random.default_rng(5)
        x = rng.standard_t(3, size=500)
        for tail_set in (UpperRay(1.0), LowerRay(1.0), Interval(1.0, 2.5)):
            base = exceedance_indicators(x, tail_set, threshold_from_quantile(x, 0.9))
            scaled = exceedance_indicators(
                scale * x, tail_set, threshold_from_quantile(scale * x, 0.9)
            )
            assert np.array_equal(base.bits, scaled.bits)


class TestFourierGrid:
    def test_n8(self):
        g = fourier_grid(8)
        assert np.allclose(g.freqs, [math.pi / 4, math.pi / 2, 3 * math.pi / 4])

    def test_n2_empty(self):
        # n = 2 has no Fourier frequency inside (0, pi), and a grid is never empty
        with pytest.raises(ParameterError, match="empty"):
            fourier_grid(2)

    def test_empty_grid_rejected(self):
        for freqs in ([], np.empty(0)):
            with pytest.raises(ParameterError, match="empty"):
                FrequencyGrid.from_frequencies(freqs)

    def test_n7(self):
        g = fourier_grid(7)
        assert np.allclose(g.freqs, [2 * math.pi / 7, 4 * math.pi / 7, 6 * math.pi / 7])

    def test_too_small(self):
        with pytest.raises(InputError):
            fourier_grid(1)

    def test_fourier_grid_carries_n_ref_and_indices_together(self):
        g = fourier_grid(8)
        assert g.fourier and g.n_ref == 8 and g.indices.tolist() == [1, 2, 3]
        assert not FrequencyGrid.from_frequencies(g.freqs).fourier
        for partial in ({"n_ref": 8}, {"indices": [1, 2, 3]}):
            with pytest.raises(ParameterError, match="n_ref and integer indices"):
                FrequencyGrid(g.freqs, **partial)

    def test_indices_must_give_the_frequencies(self):
        # index 3 of n = 64 labelled 1.0 would report the ordinate at 2*pi*3/64 under 1.0,
        # and index 40 lies past the last ordinate of a real transform of 64 values
        f = fourier_grid(64).freqs
        cases = [([1.0], [3]), ([1.0], [40]), (f[[2]], [[3]]), (f[:2], [1]), (f[:2], [1, 3])]
        for freqs, indices in cases:
            with pytest.raises(ParameterError, match="must equal 2\\*pi\\*indices/n_ref"):
                FrequencyGrid(freqs, n_ref=64, indices=indices)
        g = FrequencyGrid(f[2:5], n_ref=64, indices=[3, 4, 5])
        assert g.fourier and g.indices.dtype == np.int64

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 500))
    def test_count_and_interior(self, n):
        g = fourier_grid(n)
        assert len(g) == math.ceil(n / 2) - 1
        assert np.all(np.sin(g.freqs / 2) > 0)
        assert np.all((g.freqs > 0) & (g.freqs < math.pi))


class TestSmoothingGrid:
    def test_snaps_to_next_fourier_frequency(self):
        # 2*pi*16/100 is the first Fourier frequency at or above 1.0
        assert smoothing_window_starts(1.0, 100, 2).tolist() == [14]

    def test_identity_at_fourier_frequency(self):
        lam = 2 * math.pi * 10 / 100
        assert smoothing_window_starts(lam, 100, 0).tolist() == [10]

    def test_rejects_window_leaving_interval(self):
        with pytest.raises(ParameterError, match="maximum half-width"):
            smoothing_window_starts(0.05, 100, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(16, 2000),
        lam=st.floats(0.05, math.pi - 0.05),
        s=st.integers(0, 10),
    )
    def test_grid_frequencies_are_exact_fourier(self, n, lam, s):
        try:
            start = int(smoothing_window_starts(lam, n, s)[0])
        except ParameterError:
            return
        # the window's 2s+1 Fourier frequencies lie inside (0, pi)
        assert start >= 1 and 2 * math.pi * (start + 2 * s) / n < math.pi
        center = 2 * math.pi * (start + s) / n
        # the center snaps to the first Fourier frequency at or above lam
        assert center >= lam - 1e-9
        assert center - 2 * math.pi / n < lam + 1e-9

    @pytest.mark.parametrize("n", [2**17, 10**6, 999_999])
    def test_every_fourier_frequency_maps_to_its_own_index(self, n):
        # lam*n/(2*pi) misses j by more than 1e-12 for j beyond ~2e4
        g = fourier_grid(n)
        assert np.array_equal(smoothing_window_starts(g.freqs, n, 0), g.indices)

    def test_window_starts_reject_first_bad_target(self):
        with pytest.raises(ParameterError, match="around frequency 0.05 leaves"):
            smoothing_window_starts([1.0, 0.05, 4.0], 100, 2)
        with pytest.raises(ParameterError, match="target frequency must lie in"):
            smoothing_window_starts([1.0, 4.0, 0.05], 100, 2)

    def test_suggested_half_width_is_usable(self):
        try:
            smoothing_window_starts(0.3, 100, 30)
        except ParameterError as exc:
            s_max = int(str(exc).rsplit(" ", 1)[-1])
        smoothing_window_starts(0.3, 100, s_max)  # must not raise
        with pytest.raises(ParameterError):
            smoothing_window_starts(0.3, 100, s_max + 1)


def assert_exact_product(a, b):
    hi, lo = two_product(a, b)
    assert hi == a * b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)
    # the array form gives the same bits
    arr_hi, arr_lo = two_product(np.array([a, -a]), np.array([b, b]))
    assert arr_hi.tolist() == [hi, -hi] and arr_lo.tolist() == [lo, -lo]


class TestTwoProduct:
    @settings(max_examples=300, deadline=None)
    @given(v=st.floats(1e-4, 1e17, exclude_max=True), k=st.integers(0, 20))
    def test_exact_on_the_writer_operands(self, v, k):
        # the CSV writer takes |v| times 10**k, the same exact product as |v| * 2**k times 5**k
        assert_exact_product(v, float(10**k))
        assert_exact_product(v * 2.0**k, float(5**k))

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 2**31 - 1),
        lam=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    )
    def test_exact_on_the_angle_products(self, k, lam):
        # the k-weighted trigonometric sums take the angles k*lam
        assert_exact_product(float(k), lam)
