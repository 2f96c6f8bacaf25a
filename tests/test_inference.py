import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from extspec import (
    Band,
    FrequencyGrid,
    ParameterError,
    SpectralDensityOracle,
    SpectralEstimate,
    StudentT,
    UpperRay,
    daniell_window,
    envelope_order_statistics,
    exceedance_indicators,
    exponential_diagnostics,
    fourier_grid,
    permutation_band,
    sample_noise,
    smoothed_at_frequencies,
    smoothed_curve,
    spectral_from_extremogram,
    surrogate_band,
    thin_grid,
    threshold_from_quantile,
)
from extspec.core import MAX_BYTES
from extspec.inference import _Rows


def flat_curve(n_points=20, value=1.0):
    grid = FrequencyGrid.from_frequencies(np.linspace(0.3, 2.8, n_points))
    return SpectralEstimate(grid=grid, values=np.full(n_points, value), kind="smoothed")


class TestSurrogateBand:
    def test_daniell_half_width_factor(self):
        band = surrogate_band(flat_curve(), daniell_window(50))
        factor = 1.96 / math.sqrt(101)
        assert factor == pytest.approx(0.1950, abs=5e-4)
        assert np.allclose(band.lower, 1.0 - factor, atol=1e-12)
        assert np.allclose(band.upper, 1.0 + factor, atol=1e-12)
        assert np.all(band.lower >= 0.805 - 1e-3) and np.all(band.upper <= 1.195 + 1e-3)

    def test_degenerate_window(self):
        band = surrogate_band(flat_curve(value=2.0), daniell_window(0))
        assert np.allclose(band.upper - band.lower, 2.0 * 2 * 1.96, atol=1e-12)

    def test_width_scales_with_window(self):
        b1 = surrogate_band(flat_curve(), daniell_window(10))
        b2 = surrogate_band(flat_curve(), daniell_window(43))
        ratio = (b1.upper - b1.lower) / (b2.upper - b2.lower)
        assert np.allclose(ratio, math.sqrt(87.0 / 21.0), atol=1e-12)

    def test_requires_smoothed_kind(self):
        grid = FrequencyGrid.from_frequencies([0.5, 1.0])
        raw = SpectralEstimate(grid=grid, values=np.ones(2), kind="raw_periodogram")
        with pytest.raises(ParameterError):
            surrogate_band(raw, daniell_window(3))


class TestEnvelopeOrderStatistics:
    def test_standard_95_envelope(self):
        from extspec import envelope_order_statistics

        assert envelope_order_statistics(99, 0.05) == (3, 97)

    @pytest.mark.parametrize(
        "replicates,level,expected",
        [(19, 0.05, (1, 19)), (99, 0.02, (1, 99)), (99, 0.10, (5, 95)), (39, 0.05, (1, 39))],
    )
    def test_rule_values(self, replicates, level, expected):
        from extspec import envelope_order_statistics

        assert envelope_order_statistics(replicates, level) == expected

    def test_always_within_range(self):
        from extspec import envelope_order_statistics

        for replicates in (2, 5, 19, 99, 500):
            for level in (0.001, 0.05, 0.5, 0.99):
                lo, hi = envelope_order_statistics(replicates, level)
                assert 1 <= lo <= hi <= replicates

    def test_validation(self):
        from extspec import envelope_order_statistics

        with pytest.raises(ParameterError):
            envelope_order_statistics(1, 0.05)
        with pytest.raises(ParameterError):
            envelope_order_statistics(99, 0.0)


class TestPermutationBand:
    @staticmethod
    def _band(x, seed, replicates=49, level=0.05, s=10):
        q, win = 0.95, daniell_window(s)
        thr = threshold_from_quantile(x, q)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        grid = thin_grid(smoothed_curve(ind, win).grid, 40)
        band = permutation_band(
            ind, win, grid, replicates=replicates, seed=seed, level=level
        )
        vals = smoothed_at_frequencies(ind, grid.freqs, win).values
        return band, vals

    @staticmethod
    def _indicators(n=512, q=0.9):
        x = sample_noise(StudentT(3), n, 0)
        return exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, q))

    def test_replicate_count_validation(self):
        grid = fourier_grid(512)
        for bad in (0, 1):
            with pytest.raises(ParameterError):
                permutation_band(self._indicators(), daniell_window(2), grid, bad, 0)

    def test_small_replicate_count_warns(self):
        grid = FrequencyGrid.from_frequencies([0.8, 1.4, 2.0])
        with pytest.warns(UserWarning, match="envelope"):
            permutation_band(self._indicators(), daniell_window(2), grid, 5, 0)

    @pytest.mark.parametrize(
        "replicates,level,message",
        [(50, 0.01, "50 replicates cannot resolve a 99% envelope: their minimum and maximum "
                    "cover 96.08%; use 99 or more"),
         (18, 0.05, "18 replicates cannot resolve a 95% envelope: their minimum and maximum "
                    "cover 89.47%; use 19 or more")],
    )
    def test_warning_names_coverage_and_enough_replicates(self, replicates, level, message):
        # (B + 1) * level < 1: the envelope is the minimum and maximum of the B curves
        grid = FrequencyGrid.from_frequencies([0.8, 1.4, 2.0])
        with pytest.warns(UserWarning) as caught:
            permutation_band(self._indicators(), daniell_window(2), grid, replicates, 0, level)
        assert [str(w.message) for w in caught] == [message]

    @pytest.mark.parametrize("replicates,level", [(10, 0.5), (19, 0.05), (99, 0.01)])
    def test_no_warning_once_the_tails_are_resolved(self, replicates, level):
        grid = FrequencyGrid.from_frequencies([0.8, 1.4, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            permutation_band(self._indicators(), daniell_window(2), grid, replicates, 0, level)

    def test_memory_limit_checked_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the band allocated before checking its memory bound")

        ind, win = self._indicators(), daniell_window(2)
        grid = FrequencyGrid.from_frequencies([0.8, 1.4, 2.0])
        # the band holds 4*lo slots per frequency, lo about B/40 at level 0.05:
        # the B that filled MAX_BYTES with one value per replicate now fits,
        # and 20 times that B does not
        def band_bytes(replicates):
            return 8 * 4 * envelope_order_statistics(replicates, 0.05)[0] * len(grid)

        one_value_each = MAX_BYTES // (8 * len(grid)) + 1
        assert band_bytes(one_value_each) <= MAX_BYTES
        too_many = 20 * one_value_each
        assert band_bytes(too_many) > MAX_BYTES
        monkeypatch.setattr(np.random, "SeedSequence", no_allocation)
        for name in ("empty", "full", "zeros"):
            monkeypatch.setattr(np, name, no_allocation)
        with pytest.raises(ParameterError, match="byte limit"):
            permutation_band(ind, win, grid, too_many, 0)

    def test_deterministic_given_seed(self):
        x = sample_noise(StudentT(3), 2048, 3)
        b1, _ = self._band(x, seed=7)
        b2, _ = self._band(x, seed=7)
        assert np.array_equal(b1.lower, b2.lower) and np.array_equal(b1.upper, b2.upper)
        b4, _ = self._band(x, seed=8)
        assert not np.array_equal(b1.lower, b4.lower)

    def test_iid_curve_mostly_inside(self):
        x = sample_noise(StudentT(3), 4096, 12)
        band, vals = self._band(x, seed=99, replicates=99)
        assert band.contains(vals).mean() >= 0.85

    def test_band_ordering(self):
        x = sample_noise(StudentT(3), 2048, 5)
        band, _ = self._band(x, seed=1)
        assert np.all(band.lower <= band.upper)

    def test_pre_shuffling_leaves_band_widths_alone(self):
        # the replicate-generating process only sees the multiset of
        # values, so a fixed pre-shuffle must not move the width scale
        x = sample_noise(StudentT(3), 2048, 17)
        y = np.random.default_rng(123).permutation(x)
        widths_x = [np.mean(b.upper - b.lower) for b in
                    (self._band(x, seed=k)[0] for k in range(6))]
        widths_y = [np.mean(b.upper - b.lower) for b in
                    (self._band(y, seed=k + 50)[0] for k in range(6))]
        assert abs(np.mean(widths_x) - np.mean(widths_y)) < 0.25 * np.mean(widths_x)


def _band_permuting_the_series(x, q, tail_set, window, targets, replicates, seed, level):
    """Reference band: each replicate permutes x and re-derives everything."""
    rows = []
    for child in np.random.SeedSequence(seed).spawn(replicates):
        perm = np.random.default_rng(child).permutation(x)
        ind = exceedance_indicators(perm, tail_set, threshold_from_quantile(perm, q))
        rows.append(smoothed_at_frequencies(ind, targets, window).values)
    reps = np.sort(np.vstack(rows), axis=0)
    lo, hi = envelope_order_statistics(replicates, level)
    return reps[lo - 1], reps[hi - 1]


def _assert_equals_band_from_permuted_series(n, s, q, seed, replicates, level, grid_of):
    x = sample_noise(StudentT(3), n, seed)
    win = daniell_window(s)
    ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, q))
    grid = grid_of(ind, win)
    band = permutation_band(ind, win, grid, replicates, seed, level)
    lower, upper = _band_permuting_the_series(
        x, q, UpperRay(1.0), win, grid.freqs, replicates, seed, level
    )
    assert np.array_equal(band.lower, lower) and np.array_equal(band.upper, upper)


@pytest.mark.filterwarnings("ignore:.*cannot resolve:UserWarning")
class TestPermutationBandProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(64, 2048),
        s=st.integers(0, 10),
        q=st.sampled_from([0.9, 0.95]),
        seed=st.integers(0, 2**32 - 1),
        replicates=st.integers(2, 60),
        level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        fourier=st.booleans(),
        data=st.data(),
    )
    def test_equals_band_from_permuted_series(
        self, n, s, q, seed, replicates, level, fourier, data
    ):
        if fourier:
            def grid_of(ind, win):
                return thin_grid(smoothed_curve(ind, win).grid, data.draw(st.integers(1, 60)))
        else:
            # targets between Fourier frequencies, each with an admissible window
            centers = data.draw(
                st.lists(st.integers(s + 1, (n - 1) // 2 - s), min_size=1, max_size=20, unique=True)
            )
            lams = sorted(2 * math.pi * (j - data.draw(st.floats(0.0, 0.9))) / n for j in centers)

            def grid_of(ind, win):
                return FrequencyGrid.from_frequencies(lams)
        _assert_equals_band_from_permuted_series(n, s, q, seed, replicates, level, grid_of)

    @pytest.mark.parametrize(
        "replicates,level,orders",
        [
            (2, 0.5, (1, 2)),  # one value kept on each side
            (60, 0.1, (4, 57)),  # rows of 8 slots, filled and sorted again often
            (60, 0.3, (10, 51)),  # rows of 20 slots, filled and sorted again
            (60, 0.99, (31, 31)),  # deep and clipped to hi = lo; rows never fill
        ],
    )
    def test_equals_band_from_permuted_series_at_the_corners(self, replicates, level, orders):
        assert envelope_order_statistics(replicates, level) == orders

        def grid_of(ind, win):
            return thin_grid(smoothed_curve(ind, win).grid, 40)

        _assert_equals_band_from_permuted_series(512, 3, 0.9, 11, replicates, level, grid_of)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(1, 40).flatmap(
            lambda b: st.lists(
                st.lists(st.integers(0, 5).map(float), min_size=3, max_size=3),
                min_size=b, max_size=b,
            )
        ),
        data=st.data(),
    )
    def test_kept_values_give_the_sorted_order_statistics(self, values, data):
        # ties included: values are drawn from six integers
        pushed = np.array(values)
        k = data.draw(st.integers(1, len(pushed)))
        order = data.draw(st.integers(1, k))
        kept = _Rows(pushed.shape[1], k)
        for row in pushed:
            kept.push(row.copy())
        assert np.array_equal(kept.smallest(order), np.sort(pushed, axis=0)[order - 1])

    @staticmethod
    def _slots(replicates, level=0.05):
        """The documented bound of the band's kept values: 4*lo slots per frequency."""
        return 4 * envelope_order_statistics(replicates, level)[0]

    def _assert_memory_bound_at_n_2e13(self, replicates):
        # documented bound: the rows of kept order statistics plus O(n)
        n = 2**13
        x = sample_noise(StudentT(3), n, 0)
        q, win = 0.98, daniell_window(50)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, q))
        grid = smoothed_curve(ind, win).grid
        peak = traced_peak(lambda: permutation_band(ind, win, grid, replicates, 1))
        assert peak <= 8 * self._slots(replicates) * len(grid) + 128 * n

    def test_memory_bound(self):
        # the B x T replicate matrix alone (3.2 MB) would break the bound
        self._assert_memory_bound_at_n_2e13(99)

    def test_memory_bound_with_rows_that_fill(self):
        # lo = 25: rows of 50 slots fill and are copied out to be sorted
        # again; the 32 MB replicate matrix would break the 4.2 MB bound
        self._assert_memory_bound_at_n_2e13(999)

    def test_memory_bound_with_many_replicates_on_one_target(self):
        # the B child seeds are made one per replicate: made up front, they
        # would take about 376 bytes each; the 10,000 replicate values
        # (80 kB) would break the bound too
        n, replicates = 256, 10_000
        x = sample_noise(StudentT(3), n, 0)
        win = daniell_window(2)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, 0.9))
        grid = FrequencyGrid.from_frequencies([1.0])
        peak = traced_peak(lambda: permutation_band(ind, win, grid, replicates, 1))
        assert peak <= 8 * self._slots(replicates) * len(grid) + 128 * n


class TestExponentialDiagnostics:
    @staticmethod
    def _flat_oracle():
        return spectral_from_extremogram(np.array([1.0]))

    @staticmethod
    def _estimate(values):
        values = np.asarray(values, dtype=float)
        grid = FrequencyGrid.from_frequencies(np.linspace(0.2, 3.0, values.size))
        return SpectralEstimate(grid=grid, values=values, kind="standardized_periodogram")

    def test_true_exponential_sample_passes(self):
        draws = np.random.default_rng(2718).exponential(size=500)
        diag = exponential_diagnostics(self._estimate(draws), self._flat_oracle())
        assert diag.ks_stat < 1.358 / math.sqrt(500)
        assert diag.ks_pvalue > 0.05
        assert diag.mean_ratio == pytest.approx(1.0, abs=0.15)
        assert diag.cv == pytest.approx(1.0, abs=0.15)

    def test_degenerate_point_mass(self):
        diag = exponential_diagnostics(self._estimate(np.ones(50)), self._flat_oracle())
        assert diag.ks_stat == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert diag.mean_ratio == pytest.approx(1.0, abs=0)
        assert diag.cv == 0.0

    def test_size_control(self):
        # the diagnostic should accept true exponential data at the 5%
        # level in the vast majority of runs
        passes = 0
        for seed in range(100):
            draws = np.random.default_rng(seed).exponential(size=300)
            diag = exponential_diagnostics(self._estimate(draws), self._flat_oracle())
            passes += diag.ks_pvalue > 0.05
        assert passes >= 90

    def test_vanishing_oracle_rejected(self):
        zero = SpectralDensityOracle(fn=lambda f: np.zeros_like(f), provenance="zero")
        with pytest.raises(ParameterError):
            exponential_diagnostics(self._estimate(np.ones(10)), zero)

    def test_rescaling_by_oracle(self):
        # ordinates equal to the oracle density give constant ratio one
        oracle = spectral_from_extremogram(np.array([1.0, 0.3]))
        grid = FrequencyGrid.from_frequencies(np.linspace(0.2, 3.0, 40))
        est = SpectralEstimate(
            grid=grid, values=oracle.evaluate(grid.freqs), kind="standardized_periodogram"
        )
        diag = exponential_diagnostics(est, oracle)
        assert diag.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert diag.cv == pytest.approx(0.0, abs=1e-12)


class TestThinGrid:
    def test_no_op_when_small(self):
        g = fourier_grid(64)
        assert thin_grid(g, 500) is g

    def test_respects_budget_and_order(self):
        g = fourier_grid(4096)
        t = thin_grid(g, 200)
        assert len(t) <= 200
        assert np.all(np.diff(t.freqs) > 0)
        assert np.all(np.isin(t.freqs, g.freqs))

    def test_even_index_spacing(self):
        g = fourier_grid(10000)
        t = thin_grid(g, 100)
        gaps = np.diff(t.indices)
        assert gaps.max() - gaps.min() <= 1


class TestBandContainer:
    def test_rejects_crossed_edges(self):
        grid = FrequencyGrid.from_frequencies([0.5, 1.0])
        with pytest.raises(ParameterError):
            Band(grid=grid, lower=np.array([1.0, 1.0]), upper=np.array([0.5, 2.0]))

    def test_contains(self):
        grid = FrequencyGrid.from_frequencies([0.5, 1.0, 1.5])
        band = Band(
            grid=grid,
            lower=np.array([0.0, 0.0, 0.0]),
            upper=np.array([1.0, 1.0, 1.0]),
        )
        got = band.contains([0.5, 1.5, -0.2])
        assert got.tolist() == [True, False, False]
