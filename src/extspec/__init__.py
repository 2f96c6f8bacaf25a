"""Frequency-domain analysis of serial extremal dependence.

The package estimates how extreme events in a heavy-tailed stationary
series cluster over time: a lag-domain tail dependence function, its
frequency-domain counterpart (a periodogram of exceedance indicators,
raw/standardized/lag-window/smoothed), confidence bands, and exact
theoretical curves for ARMA(1,1)-type filters to validate against.
"""

from .core import (
    DegenerateDataError,
    FrequencyGrid,
    IndicatorSeries,
    InputError,
    Interval,
    LowerRay,
    ParameterError,
    PredicateSet,
    Threshold,
    UpperRay,
    as_series,
    exceedance_indicators,
    fourier_grid,
    threshold_from_quantile,
)
from .estimators import (
    Extremogram,
    SineCosinePair,
    SpectralEstimate,
    WeightWindow,
    canonical_m,
    daniell_window,
    lag_window_curve,
    periodogram,
    sample_extremogram,
    sine_cosine_transforms,
    smoothed_at_frequencies,
    smoothed_curve,
    standardized_periodogram,
    tail_event_rate,
)
from .inference import (
    Band,
    ExpDiagnostics,
    envelope_order_statistics,
    exponential_diagnostics,
    permutation_band,
    surrogate_band,
    thin_grid,
)
from .oracles import (
    LinearFilter,
    SpectralDensityOracle,
    TailIndexSpec,
    UnsupportedCaseError,
    arma11_extremogram_curve,
    arma11_filter,
    arma11_spectral_oracle,
    extremogram_linear,
    series_lag_for_accuracy,
    spectral_from_extremogram,
)
from .simulate import (
    Arma11Spec,
    MaxMaSpec,
    ParetoBalanced,
    StudentT,
    SvSpec,
    default_burnin,
    sample_noise,
    simulate_arma11,
    simulate_max_ma,
    simulate_sv,
)
from .trigsums import SingularFrequencyError

__version__ = "0.1.0"
