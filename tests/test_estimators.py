import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from extspec import (
    Arma11Spec,
    DegenerateDataError,
    FrequencyGrid,
    IndicatorSeries,
    ParameterError,
    StudentT,
    TailIndexSpec,
    UpperRay,
    arma11_spectral_oracle,
    canonical_m,
    daniell_window,
    exceedance_indicators,
    fourier_grid,
    lag_window_curve,
    periodogram,
    permutation_band,
    sample_extremogram,
    sample_noise,
    simulate_arma11,
    sine_cosine_transforms,
    smoothed_at_frequencies,
    smoothed_curve,
    standardized_periodogram,
    tail_event_rate,
    threshold_from_quantile,
)
from extspec.core import smoothing_window_starts
from extspec.estimators import (
    WeightWindow,
    _lag_products,
    _power,
    cosine_series,
    smoothed_window_sums,
)
from extspec.oracles import series_lag_for_accuracy


def random_indicators(make_indicators, rng, n=None, rate=None):
    n = n or int(rng.integers(64, 2049))
    rate = rate or float(rng.uniform(0.02, 0.3))
    bits = rng.random(n) < rate
    if not bits.any():
        bits[int(rng.integers(0, n))] = True
    return make_indicators(bits)


class TestEventRate:
    def test_canonical_rate_is_one(self, make_indicators):
        ind = make_indicators([0, 1, 0, 1, 1, 0])
        assert tail_event_rate(ind) == pytest.approx(1.0, abs=0)

    def test_single_event_with_m_equal_n(self, make_indicators):
        ind = make_indicators([0, 0, 1, 0])
        assert tail_event_rate(ind, m=4.0) == pytest.approx(1.0, abs=0)

    def test_nonpositive_m_rejected(self, make_indicators):
        ind = make_indicators([0, 0, 1, 0])
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                tail_event_rate(ind, m=bad)

    def test_zero_events(self, make_indicators):
        ind = make_indicators([0, 0, 0])
        assert tail_event_rate(ind, m=5.0) == 0.0
        with pytest.raises(DegenerateDataError):
            canonical_m(ind)


NO_EVENT_CALLERS = {
    "sample_extremogram": lambda ind: sample_extremogram(ind, 2),
    "standardized_periodogram": lambda ind: standardized_periodogram(ind, fourier_grid(ind.n)),
    "periodogram": lambda ind: periodogram(ind, fourier_grid(ind.n)),
    "tail_event_rate": tail_event_rate,
    "lag_window_curve": lambda ind: lag_window_curve(ind, fourier_grid(ind.n), 2),
    "smoothed_curve": lambda ind: smoothed_curve(ind, daniell_window(1)),
    "smoothed_at_frequencies": lambda ind: smoothed_at_frequencies(ind, [1.5], daniell_window(1)),
    "permutation_band": lambda ind: permutation_band(
        ind, daniell_window(1), FrequencyGrid.from_frequencies([1.5]), 19, 0
    ),
}


@pytest.mark.parametrize("call", NO_EVENT_CALLERS.values(), ids=NO_EVENT_CALLERS.keys())
def test_no_tail_events_one_error(call, make_indicators):
    # every estimator states the rule in the same words
    with pytest.raises(DegenerateDataError) as exc:
        call(make_indicators(np.zeros(64, dtype=bool)))
    assert str(exc.value) == "no tail events: the tail estimators are undefined"


class TestSampleExtremogram:
    def test_hand_counted_pattern(self, make_indicators):
        # events at positions 2, 4, 6, 8, 10 (1-based)
        bits = np.zeros(10, dtype=bool)
        bits[[1, 3, 5, 7, 9]] = True
        ex = sample_extremogram(make_indicators(bits), 3)
        assert ex.rho[0] == 1.0
        assert ex.rho[1] == 0.0
        assert ex.rho[2] == pytest.approx(4.0 / 5.0, abs=0)

    def test_zero_events(self, make_indicators):
        with pytest.raises(DegenerateDataError):
            sample_extremogram(make_indicators([0, 0, 0, 0]), 2)

    def test_lag_bound(self, make_indicators):
        with pytest.raises(ParameterError):
            sample_extremogram(make_indicators([1, 0, 1]), 3)

    def test_iid_stays_at_independence_baseline(self):
        # for independent data the conditional exceedance rate at lag h
        # fluctuates around the marginal event rate, not around zero
        x = sample_noise(StudentT(3), 2**15, 11)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        ex = sample_extremogram(ind, 5)
        se0 = math.sqrt(ind.p0_hat * (1 - ind.p0_hat) / ind.n_events)
        assert np.max(np.abs(ex.rho[1:] - ind.p0_hat)) <= 3 * se0

    def test_arma_matches_oracle_level(self):
        spec = Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3))
        x = simulate_arma11(spec, 2**15, 4)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        ex = sample_extremogram(ind, 1)
        assert ex.rho[1] == pytest.approx(0.5990139687756779, abs=0.1)

    def test_stderr_surrogate(self, make_indicators):
        ex = sample_extremogram(make_indicators([1, 0, 1, 0, 1, 0, 0, 1]), 2)
        se = ex.stderr()
        assert se[0] == 0.0
        assert se[1] == pytest.approx(math.sqrt(ex.rho[1] * (1 - ex.rho[1]) / 4), abs=1e-15)


def double_sum(values, h):
    """sum_t v_t v_{t+h}, term by term."""
    return math.fsum(values[t] * values[t + h] for t in range(len(values) - h))


@st.composite
def event_patterns(draw):
    """0/1 series with at least one event, and a lag bound that may reach past n - 1."""
    n = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(["random", "one", "all"]))
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        bits[draw(st.integers(0, n - 1))] = True
    else:
        bits = [kind == "all"] * n
        bits[draw(st.integers(0, n - 1))] = True
    return bits, draw(st.integers(0, n + 3))


class TestPairCounts:
    @given(case=event_patterns())
    @example(case=([True], 0))
    @example(case=([False, True, False], 5))
    @example(case=([True] * 9, 8))
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_double_sum(self, case):
        bits, max_lag = case
        counts = _lag_products(np.array(bits), max_lag)
        assert counts.dtype == np.int64
        ones = [int(b) for b in bits]
        assert counts.tolist() == [double_sum(ones, h) for h in range(1, max_lag + 1)]

    @given(case=event_patterns(), m=st.sampled_from([None, 0.5, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_lag_window_matches_centred_double_sum(self, case, m):
        bits, r = case
        r = min(r, len(bits) - 1)
        ind = IndicatorSeries(np.array(bits))
        scale = (m or canonical_m(ind)) / ind.n
        c = [b - ind.p0_hat for b in bits]
        gammas = [scale * ind.n_events] + [scale * double_sum(c, h) for h in range(1, r + 1)]
        lams = np.array([0.3, 1.1, 2.9])
        terms = [[gammas[0]] + [2 * math.cos(lam * h) * gammas[h] for h in range(1, r + 1)]
                 for lam in lams]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="lag-window truncation")
            got = lag_window_curve(ind, FrequencyGrid.from_frequencies(lams), r, m=m).values
        for value, row in zip(got, terms):
            assert abs(value - math.fsum(row)) <= 1e-12 * math.fsum(map(abs, row))


class TestTransforms:
    def test_zero_bits_give_zero(self, make_indicators):
        ind = make_indicators([0, 0, 0, 0])
        pair = sine_cosine_transforms(ind, 1.0, m=1.0)
        assert pair.alpha == 0.0 and pair.beta == 0.0

    def test_single_event_power(self, make_indicators):
        bits = np.zeros(8, dtype=bool)
        bits[2] = True  # event at t = 3 (1-based)
        ind = make_indicators(bits)
        pair = sine_cosine_transforms(ind, math.pi / 2, m=8.0)
        assert pair.alpha**2 + pair.beta**2 == pytest.approx(2.0, abs=1e-10)
        assert pair.power() == pytest.approx(1.0, abs=1e-10)

    def test_centering_immaterial_at_fourier_frequencies(self, make_indicators):
        rng = np.random.default_rng(3)
        ind = random_indicators(make_indicators, rng, n=512)
        grid = fourier_grid(ind.n)
        t = np.arange(1, ind.n + 1)
        raw_bits = ind.bits.astype(float)
        for lam in grid.freqs[[0, 5, 100, 254]]:
            pair = sine_cosine_transforms(ind, lam, m=2.0)
            scale = math.sqrt(2 * 2.0 / ind.n)
            alpha_raw = scale * float(np.dot(raw_bits, np.cos(lam * t)))
            beta_raw = scale * float(np.dot(raw_bits, np.sin(lam * t)))
            assert pair.alpha == pytest.approx(alpha_raw, abs=1e-10)
            assert pair.beta == pytest.approx(beta_raw, abs=1e-10)

    def test_frequency_domain_restriction(self, make_indicators):
        ind = make_indicators([1, 0, 1, 0])
        with pytest.raises(ParameterError):
            sine_cosine_transforms(ind, 0.0, m=1.0)
        with pytest.raises(ParameterError):
            sine_cosine_transforms(ind, math.pi, m=1.0)


class TestPeriodogram:
    def test_peak_memory_of_the_fft_path(self):
        # the centered series (8n bytes) dies when the FFT returns: the peak is
        # the series and the half-length complex transform, 16n; holding the
        # series through the modulus and a complex copy of the ordinates made 28n
        n = 2**16
        ind = IndicatorSeries(np.random.default_rng(3).random(n) < 0.05)
        grid = fourier_grid(n)
        assert traced_peak(lambda: standardized_periodogram(ind, grid)) <= 20 * n

    def test_zero_bits(self, make_indicators):
        ind = make_indicators(np.zeros(16, dtype=bool))
        est = periodogram(ind, fourier_grid(16), m=1.0)
        assert np.all(est.values == 0.0)

    def test_single_event_value(self, make_indicators):
        bits = np.zeros(8, dtype=bool)
        bits[2] = True
        ind = make_indicators(bits)
        est = periodogram(ind, fourier_grid(8), m=8.0)
        at = np.argmin(np.abs(est.grid.freqs - math.pi / 2))
        assert est.values[at] == pytest.approx(1.0, abs=1e-10)

    def test_parseval_identity(self, make_indicators):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ind = random_indicators(make_indicators, rng)
            m = float(rng.uniform(0.5, 40.0))
            c = ind.centered()
            full_power = np.abs(np.fft.fft(c)) ** 2
            lhs = (m / ind.n) * full_power.sum()
            rhs = m * float(np.dot(c, c))
            assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-30)

    def test_matches_transform_power(self, make_indicators):
        rng = np.random.default_rng(13)
        ind = random_indicators(make_indicators, rng, n=256)
        grid = fourier_grid(256)
        est = periodogram(ind, grid, m=7.0)
        for i in (0, 31, 90):
            pair = sine_cosine_transforms(ind, grid.freqs[i], m=7.0)
            assert est.values[i] == pytest.approx(pair.power(), abs=1e-10)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(n=st.integers(8, 2048), rate=st.floats(0.005, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_direct_and_fft_paths_agree(self, make_indicators, n, rate, seed):
        ind = random_indicators(make_indicators, np.random.default_rng(seed), n=n, rate=rate)
        grid = fourier_grid(ind.n)
        f = standardized_periodogram(ind, grid).values
        # the same frequencies as an arbitrary grid take the direct sums
        d = standardized_periodogram(ind, FrequencyGrid.from_frequencies(grid.freqs)).values
        assert np.max(np.abs(d - f)) < 1e-10

    def test_no_target_frequencies_rejected(self, make_indicators):
        ind = make_indicators(np.arange(64) % 5 == 0)
        with pytest.raises(ParameterError, match="empty"):
            smoothed_at_frequencies(ind, [], daniell_window(1))


class TestStandardizedPeriodogram:
    def test_single_event_is_flat_one(self, make_indicators):
        bits = np.zeros(16, dtype=bool)
        bits[4] = True
        est = standardized_periodogram(make_indicators(bits), fourier_grid(16))
        assert np.allclose(est.values, 1.0, atol=1e-12)

    def test_m_cancellation(self, make_indicators):
        rng = np.random.default_rng(19)
        ind = random_indicators(make_indicators, rng, n=512)
        grid = fourier_grid(512)
        std = standardized_periodogram(ind, grid).values
        for m in (1.0, 17.3, 512.0):
            ratio = periodogram(ind, grid, m=m).values / tail_event_rate(ind, m)
            assert np.max(np.abs(ratio - std)) < 1e-12

    def test_iid_mean_near_one(self):
        x = sample_noise(StudentT(3), 2**14, 0)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        est = standardized_periodogram(ind, fourier_grid(ind.n))
        assert 0.9 <= est.values.mean() <= 1.1

    def test_zero_events(self, make_indicators):
        ind = make_indicators(np.zeros(8, dtype=bool))
        with pytest.raises(DegenerateDataError):
            standardized_periodogram(ind, fourier_grid(8))
        with pytest.raises(DegenerateDataError):
            smoothed_curve(ind, daniell_window(1))
        with pytest.raises(DegenerateDataError):
            smoothed_at_frequencies(ind, [1.5], daniell_window(1))

    def test_scale_invariant_pipeline(self):
        rng = np.random.default_rng(23)
        x = rng.standard_t(3, size=1024)
        grid = fourier_grid(1024)

        def run(data):
            thr = threshold_from_quantile(data, 0.95)
            ind = exceedance_indicators(data, UpperRay(1.0), thr)
            return standardized_periodogram(ind, grid).values

        assert np.array_equal(run(x), run(1000.0 * x))


class TestLagWindow:
    def test_zero_truncation(self, make_indicators):
        ind = make_indicators([1, 0, 1, 0, 0, 1])
        grid = FrequencyGrid.from_frequencies([1.0])
        assert lag_window_curve(ind, grid, 0).values[0] == pytest.approx(
            tail_event_rate(ind), abs=1e-15
        )
        assert lag_window_curve(ind, grid, 0, standardized=True).values[0] == pytest.approx(
            1.0, abs=1e-15
        )

    def test_matches_direct_formula(self, make_indicators):
        rng = np.random.default_rng(29)
        ind = random_indicators(make_indicators, rng, n=128)
        r, m = 6, 3.0
        c = ind.centered()

        def expected(lam):
            acc = m / 128 * ind.n_events
            for h in range(1, r + 1):
                acc += 2 * math.cos(lam * h) * (m / 128) * float(np.dot(c[:-h], c[h:]))
            return acc

        lams = [0.05, 0.9, 1.7, 2.6, 3.1]
        curve = lag_window_curve(ind, FrequencyGrid.from_frequencies(lams), r, m=m)
        for lam, got in zip(lams, curve.values):
            assert got == pytest.approx(expected(lam), abs=1e-12)

    def test_truncation_bound(self, make_indicators):
        ind = make_indicators([1, 0, 1, 0])
        with pytest.raises(ParameterError):
            lag_window_curve(ind, FrequencyGrid.from_frequencies([1.0]), 4)

    def test_frequency_domain_restriction(self, make_indicators):
        ind = make_indicators([1, 0, 1, 0, 0, 1])
        for lam in (0.0, math.pi, -1.0):
            with pytest.raises(ParameterError):
                lag_window_curve(ind, FrequencyGrid.from_frequencies([lam]), 2)

    def test_can_go_negative(self, make_indicators):
        # a period-2 event pattern concentrates all mass near the top
        # frequency; the truncated series undershoots below zero midway
        bits = np.zeros(32, dtype=bool)
        bits[::2] = True
        ind = make_indicators(bits)
        grid = FrequencyGrid.from_frequencies(np.linspace(0.3, 2.8, 40))
        with pytest.warns(UserWarning):
            values = lag_window_curve(ind, grid, 8, standardized=True).values
        assert values.min() < 0.0

    def test_warns_when_truncation_outruns_events(self, make_indicators):
        bits = np.zeros(64, dtype=bool)
        bits[[3, 17, 31, 49]] = True
        ind = make_indicators(bits)
        with pytest.warns(UserWarning, match="truncation"):
            lag_window_curve(ind, FrequencyGrid.from_frequencies([1.0]), 3)

    def test_iid_standardized_near_one(self):
        x = sample_noise(StudentT(3), 2**15, 11)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        curve = lag_window_curve(ind, FrequencyGrid.from_frequencies([1.0]), 20, standardized=True)
        assert curve.values[0] == pytest.approx(1.0, abs=0.15)

    def test_curve_matches_pointwise_and_may_go_negative(self, make_indicators):
        rng = np.random.default_rng(31)
        ind = random_indicators(make_indicators, rng, n=256)
        grid = fourier_grid(64)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            curve = lag_window_curve(ind, grid, r=9, m=2.0)
            for i in (0, 10, 30):
                point = FrequencyGrid.from_frequencies(grid.freqs[i : i + 1])
                assert curve.values[i] == pytest.approx(
                    lag_window_curve(ind, point, 9, m=2.0).values[0], abs=1e-12
                )
            assert curve.kind == "lag_window"
            # the lag-window kind tolerates negative ordinates
            bits = np.zeros(64, dtype=bool)
            bits[::2] = True
            neg = lag_window_curve(make_indicators(bits), grid, r=8, standardized=True)
        assert neg.values.min() < 0.0

    def test_arma_standardized_near_oracle(self):
        spec = Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3))
        x = simulate_arma11(spec, 2**15, 4)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        grid = FrequencyGrid.from_frequencies([1.0])
        with pytest.warns(UserWarning):
            got = lag_window_curve(ind, grid, 50, standardized=True).values
        oracle = arma11_spectral_oracle(0.8, 0.1, TailIndexSpec(3, 0.5)).evaluate(grid.freqs)
        assert got[0] == pytest.approx(oracle[0], abs=0.25)


def long_double_series(freqs, c0, coefs):
    """The reference: the direct sum c0 + 2 sum_h coefs[h-1] cos(h*lam) in long double."""
    h = np.arange(1, len(coefs) + 1, dtype=np.longdouble)
    c = np.asarray(coefs, dtype=np.longdouble)
    return np.array([np.longdouble(c0) + 2 * np.dot(c, np.cos(np.longdouble(lam) * h))
                     for lam in freqs])


class TestCosineSeries:
    @given(
        k=st.integers(0, 20),
        h=st.integers(0, 300),
        c0=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_long_double_direct_sum(self, k, h, c0, seed):
        # the recurrence is worst at the ends of (0, pi), so they are always tested
        rng = np.random.default_rng(seed)
        freqs = np.concatenate([rng.uniform(0.0, math.pi, k), [0.0, 1e-3, math.pi - 1e-3, math.pi]])
        coefs = rng.standard_normal(h) * 10.0 ** rng.uniform(-3, 3, h)
        got = cosine_series(freqs, c0, coefs)
        scale = abs(c0) + 2.0 * np.abs(coefs).sum()
        assert got.shape == freqs.shape
        assert np.all(np.abs(got - long_double_series(freqs, c0, coefs)) <= 1e-11 * scale)

    @given(
        k=st.integers(1, 200),
        h=st.integers(0, 80),
        cuts=st.lists(st.integers(0, 200), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_bits_do_not_depend_on_how_the_grid_is_split(self, k, h, cuts, seed):
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(0.0, math.pi, k)
        coefs = rng.standard_normal(h)
        edges = sorted({0, k, *(min(c, k) for c in cuts)})
        parts = [cosine_series(freqs[a:b], 0.7, coefs) for a, b in zip(edges, edges[1:])]
        whole = cosine_series(freqs, 0.7, coefs)
        assert np.array_equal(np.concatenate(parts), whole)
        for i in range(0, k, 17):
            assert cosine_series(freqs[i : i + 1], 0.7, coefs)[0] == whole[i]

    def test_peak_memory_is_a_few_grid_lengths_whatever_the_depth(self):
        # 2 cos(lam), the two recurrence arrays and one step's temporaries: a
        # few K-length arrays, where a frequency x lag matrix grows with H
        k = 2**14
        freqs = np.linspace(0.01, 3.13, k)
        peaks = {}
        for h in (64, 4096):
            coefs = np.random.default_rng(h).standard_normal(h)
            peaks[h] = traced_peak(lambda: cosine_series(freqs, 1.0, coefs))
        assert peaks[4096] <= peaks[64] + 4096
        assert peaks[64] <= 7 * 8 * k

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_small_alpha_geometric_series_within_1e_10(self, alpha):
        # rho(h) = 0.8**(alpha h) to the oracle's series depth, H = 12,383 and 123,827;
        # at lam = 0.001 the density is near its peak, at 3.14 near its floor
        depth = series_lag_for_accuracy(0.8, alpha, 1e-12)
        coefs = (0.8**alpha) ** np.arange(1, depth + 1)
        freqs = np.array([0.001, 3.14])
        want = long_double_series(freqs, 1.0, coefs)
        rel = np.abs((cosine_series(freqs, 1.0, coefs) - want) / want)
        assert np.all(rel <= 1e-10), rel


class TestWindows:
    def test_daniell_examples(self):
        w = daniell_window(2)
        assert np.allclose(w.weights, 0.2)
        assert daniell_window(0).weights.tolist() == [1.0]

    def test_normalization_identities(self):
        for s in (0, 1, 5, 50):
            w = daniell_window(s)
            assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert w.sum_sq == pytest.approx(1.0 / (2 * s + 1), abs=1e-12)

    def test_custom_weights_renormalized(self):
        w = WeightWindow(weights=np.array([1.0, 2.0, 1.0]))
        assert w.weights.tolist() == [0.25, 0.5, 0.25]

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            WeightWindow(weights=np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ParameterError):
            WeightWindow(weights=np.array([0.5, 0.5]))


class TestSmoothedPeriodogram:
    def test_single_event_constant_spectrum(self, make_indicators):
        bits = np.zeros(64, dtype=bool)
        bits[10] = True
        ind = make_indicators(bits)
        assert smoothed_at_frequencies(ind, [1.0], daniell_window(3)).values[0] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_convex_combination_bounds(self, make_indicators):
        rng = np.random.default_rng(37)
        for _ in range(10):
            ind = random_indicators(make_indicators, rng, n=512)
            lam = float(rng.uniform(0.4, math.pi - 0.4))
            s = int(rng.integers(0, 6))
            w = daniell_window(s)
            j0 = smoothing_window_starts(lam, 512, s)[0]  # fourier_grid starts at j = 1
            ords = standardized_periodogram(ind, fourier_grid(512)).values[j0 - 1 : j0 + 2 * s]
            got = smoothed_at_frequencies(ind, [lam], w).values[0]
            assert ords.min() - 1e-12 <= got <= ords.max() + 1e-12
            # equal weights reduce to the arithmetic mean
            assert got == pytest.approx(float(ords.mean()), rel=1e-12)

    def test_curve_agrees_with_pointwise(self, make_indicators):
        rng = np.random.default_rng(41)
        ind = random_indicators(make_indicators, rng, n=256)
        w = daniell_window(4)
        curve = smoothed_curve(ind, w)
        picked = [0, 20, len(curve.grid) - 1]
        at = smoothed_at_frequencies(ind, curve.grid.freqs[picked], w)
        assert at.values == pytest.approx(curve.values[picked], rel=1e-10)
        some = curve.grid.freqs[[3, 40, 77]]
        batch = smoothed_at_frequencies(ind, some, w)
        for lam, v in zip(some, batch.values):
            assert v == pytest.approx(smoothed_at_frequencies(ind, [lam], w).values[0], rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(64, 2048), s=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
    def test_curve_equals_at_frequencies_exactly(self, n, s, seed):
        x = sample_noise(StudentT(3), n, seed)
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, 0.9))
        w = daniell_window(s)
        curve = smoothed_curve(ind, w)
        batch = smoothed_at_frequencies(ind, curve.grid.freqs, w)
        assert np.array_equal(curve.values, batch.values)
        # a run that starts and ends inside the curve reads the same sums
        k = seed % len(curve.values)
        part = smoothed_at_frequencies(ind, curve.grid.freqs[k::3], w)
        assert np.array_equal(curve.values[k::3], part.values)

    def test_peak_memory_at_targets(self):
        # the centered series (8n bytes) dies when the FFT returns, as in the
        # periodogram: the peak is the series and the transform, 16n; holding
        # the series through the modulus made 20n
        n = 2**16
        ind = IndicatorSeries(np.random.default_rng(3).random(n) < 0.05)
        w = daniell_window(5)
        assert traced_peak(lambda: smoothed_at_frequencies(ind, [0.3, 1.5, 2.9], w)) <= 16.5 * n

    def test_fourier_run_keeps_the_correlation(self):
        # on the admissible Fourier centers the windows start at lo, lo + 1, ...,
        # so the sums are the correlation itself, read from the ordinates in
        # place: the peak is the sums and the start differences, 2 x 8T bytes
        # for T centers
        n = 2**16
        ind = IndicatorSeries(np.random.default_rng(3).random(n) < 0.05)
        w = daniell_window(5)
        curve = smoothed_curve(ind, w)
        starts = smoothing_window_starts(curve.grid.freqs, n, w.half_width)
        std = _power(np.fft.rfft(ind.centered()), slice(None))
        std /= ind.n_events
        full = standardized_periodogram(ind, fourier_grid(n))
        assert np.array_equal(std[full.grid.indices], full.values)
        assert np.array_equal(smoothed_window_sums(std, w, starts), curve.values)
        assert np.array_equal(smoothed_window_sums(std, w, starts[1::2]), curve.values[1::2])
        peak = traced_peak(lambda: smoothed_window_sums(std, w, starts))
        assert peak < 2.5 * 8 * starts.size

    def test_nonnegative(self, make_indicators):
        rng = np.random.default_rng(43)
        for _ in range(5):
            ind = random_indicators(make_indicators, rng, n=256)
            curve = smoothed_curve(ind, daniell_window(5))
            assert np.all(curve.values >= 0)
