import math

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

    def test_memory_limit_checked_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the band allocated before checking its memory bound")

        ind = self._indicators()
        grid = FrequencyGrid.from_frequencies([0.8, 1.4, 2.0])
        too_many = MAX_BYTES // (8 * len(grid)) + 1
        monkeypatch.setattr(np.random, "SeedSequence", no_allocation)
        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(ParameterError, match="byte limit"):
            permutation_band(ind, daniell_window(2), grid, too_many, 0)

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


class TestPermutationBandProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(64, 2048),
        s=st.integers(0, 10),
        q=st.sampled_from([0.9, 0.95]),
        seed=st.integers(0, 2**32 - 1),
        replicates=st.integers(19, 40),
        fourier=st.booleans(),
        data=st.data(),
    )
    def test_equals_band_from_permuted_series(self, n, s, q, seed, replicates, fourier, data):
        x = sample_noise(StudentT(3), n, seed)
        win = daniell_window(s)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, q))
        if fourier:
            grid = thin_grid(smoothed_curve(ind, win).grid, data.draw(st.integers(1, 60)))
        else:
            # targets between Fourier frequencies, each with an admissible window
            centers = data.draw(
                st.lists(st.integers(s + 1, (n - 1) // 2 - s), min_size=1, max_size=20, unique=True)
            )
            lams = [2 * math.pi * (j - data.draw(st.floats(0.0, 0.9))) / n for j in centers]
            grid = FrequencyGrid.from_frequencies(sorted(lams))
        band = permutation_band(ind, win, grid, replicates, seed, 0.1)
        lower, upper = _band_permuting_the_series(
            x, q, UpperRay(1.0), win, grid.freqs, replicates, seed, 0.1
        )
        assert np.array_equal(band.lower, lower) and np.array_equal(band.upper, upper)

    def test_memory_bound(self):
        # documented bound: the B x T replicate matrix plus O(n)
        n, replicates = 2**13, 99
        x = sample_noise(StudentT(3), n, 0)
        q, win = 0.98, daniell_window(50)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, q))
        grid = smoothed_curve(ind, win).grid
        peak = traced_peak(lambda: permutation_band(ind, win, grid, replicates, 1))
        assert peak <= 8 * replicates * len(grid) + 128 * n

    def test_memory_bound_with_many_replicates_on_one_target(self):
        # the B child seeds are made one per replicate: made up front, they
        # would take about 376 bytes each, far above the 8 bytes a cell takes
        n, replicates = 256, 10_000
        x = sample_noise(StudentT(3), n, 0)
        win = daniell_window(2)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, 0.9))
        grid = FrequencyGrid.from_frequencies([1.0])
        peak = traced_peak(lambda: permutation_band(ind, win, grid, replicates, 1))
        assert peak <= 8 * replicates * len(grid) + 128 * n


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
