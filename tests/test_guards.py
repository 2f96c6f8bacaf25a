"""The library's guards that no other test reaches, one row each.

Each row is ``(call, exception type, whole message)``.  ``check_guard``
runs the call and holds it to both, as the ``rejected`` fixture of
``test_cli.py`` holds every rejected command to its error line.
"""

import math

import numpy as np
import pytest

from extspec import (
    Band,
    DegenerateDataError,
    Extremogram,
    FrequencyGrid,
    IndicatorSeries,
    InputError,
    LinearFilter,
    ParameterError,
    PredicateSet,
    SpectralEstimate,
    TailIndexSpec,
    Threshold,
    arma11_extremogram_curve,
    arma11_filter,
    arma11_spectral_oracle,
    as_series,
    daniell_window,
    default_burnin,
    exceedance_indicators,
    exponential_diagnostics,
    extremogram_linear,
    sample_noise,
    series_lag_for_accuracy,
    smoothed_at_frequencies,
    spectral_from_extremogram,
    thin_grid,
)
from extspec.trigsums import arith_trig_sum, cross_lag_sum, geometric_trig_sum, k_weighted_trig_sum

GRID = FrequencyGrid.from_frequencies([1.0, 2.0])
ORACLE = arma11_spectral_oracle(0.8, 0.1, TailIndexSpec(3))


def check_guard(call, kind, message):
    """``call()`` raises exactly ``kind``, and its message is exactly ``message``."""
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def row(name, call, kind, message):
    return pytest.param(call, kind, message, id=name)


@pytest.mark.parametrize("call, kind, message", [
    row("as_series-2d", lambda: as_series([[1.0, 2.0]]), InputError,
        "series must be one-dimensional"),
    row("as_series-nan", lambda: as_series([1.0, math.nan]), InputError,
        "series contains NaN or infinite values"),
    row("predicate-set-shape",
        lambda: exceedance_indicators([1.0, 2.0, 3.0], PredicateSet(lambda x: x[:1] > 1),
                                      Threshold(a_m=1.0, exceed_count=2)),
        InputError, "tail set membership must preserve the series shape"),
    row("frequency-grid-2d", lambda: FrequencyGrid.from_frequencies([[1.0, 2.0]]),
        ParameterError, "frequency grid must be one-dimensional"),
    row("window-n-1",
        lambda: smoothed_at_frequencies(IndicatorSeries(np.array([True])), [1.0],
                                        daniell_window(0)),
        ParameterError, "smoothing window of half-width 0 around frequency 1 leaves (0, pi); "
                        "no window around it fits for n = 1"),
    row("extremogram-empty", lambda: Extremogram(rho=[], n_events=1), ParameterError,
        "extremogram needs at least the lag-0 value"),
    row("extremogram-above-1", lambda: Extremogram(rho=[1.0, 1.5], n_events=1), ParameterError,
        "extremogram values must lie in [0, 1]"),
    row("spectral-kind", lambda: SpectralEstimate(GRID, [1.0, 1.0], "bogus"), ParameterError,
        "unknown spectral kind 'bogus'"),
    row("spectral-misaligned", lambda: SpectralEstimate(GRID, [1.0], "smoothed"),
        ParameterError, "values must align with the frequency grid"),
    row("spectral-negative", lambda: SpectralEstimate(GRID, [1.0, -1.0], "smoothed"),
        ParameterError, "smoothed values must be nonnegative"),
    row("band-misaligned", lambda: Band(GRID, [0.0, 0.0], [1.0]), ParameterError,
        "band arrays must align with the grid"),
    row("diagnostics-negative",
        lambda: exponential_diagnostics(SpectralEstimate(GRID, [1.0, -1.0], "lag_window"),
                                        ORACLE),
        ParameterError, "ordinates must be nonnegative"),
    row("diagnostics-all-zero",
        lambda: exponential_diagnostics(SpectralEstimate(GRID, [0.0, 0.0], "smoothed"), ORACLE),
        DegenerateDataError, "all ordinates are zero"),
    row("thin-grid-0", lambda: thin_grid(GRID, max_count=0), ParameterError,
        "need max_count >= 1"),
    row("filter-empty", lambda: LinearFilter([]), ParameterError,
        "filter needs at least one coefficient"),
    row("filter-ratio-1", lambda: LinearFilter([1.0], tail_ratio=1.0), ParameterError,
        "geometric tail ratio must satisfy |ratio| < 1"),
    row("filter-zero-tail-mass", lambda: LinearFilter([1e-200], 0.5).materialize(TailIndexSpec(2)),
        DegenerateDataError, "filter has zero tail mass"),
    row("extremogram-linear-lag",
        lambda: extremogram_linear(arma11_filter(0.8, 0.1), TailIndexSpec(3), -1),
        ParameterError, "need max_lag >= 0"),
    row("series-oracle-empty", lambda: spectral_from_extremogram([]), ParameterError,
        "need rho values for lags 0..H"),
    row("series-oracle-rho0", lambda: spectral_from_extremogram([0.5, 0.1]), ParameterError,
        "lag-0 tail dependence must be 1"),
    row("series-lag-eps-0", lambda: series_lag_for_accuracy(0.8, 3.0, 0.0), ParameterError,
        "eps must lie in (0, 1)"),
    row("noise-spec", lambda: sample_noise("cauchy", 10, 1), ParameterError,
        "unknown noise spec 'cauchy'"),
    row("default-burnin-1", lambda: default_burnin(1.0), ParameterError,
        "memory coefficient must satisfy |c| < 1"),
    row("arith-terms", lambda: arith_trig_sum(-1, 0.5, 0.5), ParameterError,
        "number of terms must be nonnegative"),
    row("k-weighted-terms", lambda: k_weighted_trig_sum(0, 0.5), ParameterError,
        "need n >= 1"),
    row("geometric-terms", lambda: geometric_trig_sum(-1, 0.5, 0.5), ParameterError,
        "number of terms must be nonnegative"),
    row("cross-lag-kind", lambda: cross_lag_sum(5, 1, 0.5, 0.7, "bogus"), ParameterError,
        "unknown kind 'bogus'"),
])  # fmt: skip
def test_guard_raises_its_message(call, kind, message):
    check_guard(call, kind, message)


def test_oracle_extremogram_has_no_standard_errors():
    # both oracle curves carry no event count, so no binomial standard error exists
    assert np.isnan(arma11_extremogram_curve(0.8, 0.1, TailIndexSpec(3), 3).stderr()).all()


def test_empty_geometric_sum_is_zero():
    # the module's promise for every kernel: an empty sum is exactly 0.0
    assert geometric_trig_sum(0, 0.5, 0.5) == (0.0, 0.0)
