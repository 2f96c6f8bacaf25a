"""Uncertainty quantification for the smoothed spectral estimates.

Three tools: a variance-proxy band around a smoothed curve, an empirical
envelope from random permutations of the data (a no-dependence
reference), and goodness-of-fit diagnostics against the unit-mean
exponential limit of standardized ordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it on first use; load it with the package

from .core import (
    DegenerateDataError,
    FrequencyGrid,
    IndicatorSeries,
    ParameterError,
    require_bytes,
    smoothing_window_starts,
)
from .estimators import (
    SpectralEstimate,
    WeightWindow,
    smoothed_window_sums,
)
from .oracles import SpectralDensityOracle


@dataclass(frozen=True)
class Band:
    """Pointwise lower/upper envelope over a frequency grid."""

    grid: FrequencyGrid
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (len(self.grid),) or upper.shape != (len(self.grid),):
            raise ParameterError("band arrays must align with the grid")
        if np.any(lower > upper):
            raise ParameterError("band lower edge exceeds upper edge")

    def contains(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        return (v >= self.lower) & (v <= self.upper)


def surrogate_band(curve: SpectralEstimate, window: WeightWindow) -> Band:
    """Variance-proxy band value * (1 -+ 1.96 * sqrt(sum w^2)).

    The smoothed estimator's asymptotic variance is proportional to the
    sum of squared weights times the squared target, so the relative
    half-width is 1.96*sqrt(sum w^2); for equal weights that is
    1.96/sqrt(2s+1).
    """
    if curve.kind != "smoothed":
        raise ParameterError("surrogate band applies to smoothed estimates only")
    half = 1.96 * math.sqrt(window.sum_sq)
    return Band(
        grid=curve.grid,
        lower=curve.values * (1.0 - half),
        upper=curve.values * (1.0 + half),
    )


def envelope_order_statistics(replicates: int, level: float) -> tuple[int, int]:
    """1-based order statistics bounding a pointwise Monte Carlo envelope.

    Returns (ceil((level/2)(B+1)), floor((1-level/2)(B+1))), clipped into
    [1, B]; with 99 replicates at level 0.05 these are the 3rd and 97th.
    """
    if replicates < 2:
        raise ParameterError("need at least two replicates")
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    lo = math.ceil(level / 2.0 * (replicates + 1) - 1e-9)
    hi = math.floor((1.0 - level / 2.0) * (replicates + 1) + 1e-9)
    lo = min(max(lo, 1), replicates)
    hi = min(max(hi, lo), replicates)
    return lo, hi


def permutation_band(
    ind: IndicatorSeries,
    window: WeightWindow,
    grid: FrequencyGrid,
    replicates: int,
    seed: int,
    level: float = 0.05,
) -> Band:
    """Empirical envelope of smoothed curves over random permutations.

    Each replicate permutes the centered values of the indicator series
    it is given and recomputes the smoothed standardized curve on
    ``grid``.  When the tail set tests each scaled observation on its own,
    this is the band of permuted observation series: a permutation leaves
    the quantile threshold and the event count unchanged and moves only
    the event positions.  The band is the pointwise pair of order
    statistics ceil((level/2)(B+1)) and floor((1-level/2)(B+1)) among the
    B replicates.  The observed series itself is not included among the
    replicates.

    Replicate b draws its permutation from the b-th child of
    ``SeedSequence(seed)``, so the result depends only on ``seed``; each
    child is made when its replicate runs, not all B up front.
    Memory: the B x T replicate matrix (8*B*T bytes for T = len(grid), at
    most ``core.MAX_BYTES``), sorted in place, plus O(n) for one replicate
    at a time.
    """
    lo_k, hi_k = envelope_order_statistics(replicates, level)
    if seed < 0:
        raise ParameterError("band seed must be a nonnegative integer")
    require_bytes(replicates * len(grid), f"{replicates} replicates on {len(grid)} frequencies")
    if replicates < 19:
        warnings.warn(
            f"{replicates} replicates cannot resolve a 95% envelope; use 19 or more",
            stacklevel=2,
        )

    starts = smoothing_window_starts(grid.freqs, ind.n, window.half_width)
    centered = ind.centered()
    reps = np.empty((replicates, len(grid)))
    for b, row in enumerate(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        # the permutation is a temporary: it dies when its transform is made
        row[:] = smoothed_window_sums(
            np.fft.rfft(rng.permutation(centered)), ind.n_events, window, starts
        )
    reps.sort(axis=0)
    return Band(grid=grid, lower=reps[lo_k - 1], upper=reps[hi_k - 1])


@dataclass(frozen=True)
class ExpDiagnostics:
    """Fit of rescaled ordinates to the unit exponential law.

    ``ks_stat`` is the sup distance between the empirical CDF of the
    rescaled ordinates and 1 - exp(-x); ``mean_ratio`` and ``cv`` should
    both be near 1 for exponential data.
    """

    ks_stat: float
    ks_pvalue: float
    mean_ratio: float
    cv: float
    n_ordinates: int


def _ks_statistic_vs_unit_exponential(sample: np.ndarray) -> float:
    x = np.sort(sample)
    n = x.size
    cdf = 1.0 - np.exp(-x)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))


def exponential_diagnostics(
    ordinates: SpectralEstimate, oracle: SpectralDensityOracle
) -> ExpDiagnostics:
    """Rescale ordinates by the oracle density and compare to Exp(1)."""
    ref = oracle.evaluate(ordinates.grid.freqs)
    if np.any(ref <= 0):
        raise ParameterError("oracle density vanishes on the grid; rescaling undefined")
    ratios = ordinates.values / ref
    if np.any(ratios < 0):
        raise ParameterError("ordinates must be nonnegative")
    mean = float(ratios.mean())
    if mean == 0.0:
        raise DegenerateDataError("all ordinates are zero")
    n = ratios.size
    ks = _ks_statistic_vs_unit_exponential(ratios)
    from scipy import stats  # imported here: no command needs scipy

    pvalue = float(stats.kstwo.sf(ks, n)) if n > 1 else float("nan")
    sd = float(ratios.std(ddof=1)) if n > 1 else 0.0
    return ExpDiagnostics(
        ks_stat=ks,
        ks_pvalue=pvalue,
        mean_ratio=mean,
        cv=sd / mean,
        n_ordinates=n,
    )


def thin_grid(grid: FrequencyGrid, max_count: int = 500) -> FrequencyGrid:
    """Evenly spaced (in index) subgrid with at most ``max_count`` entries.

    Neighboring ordinates are the most correlated at finite sample
    sizes, so diagnostics run on a well-separated subset.
    """
    if max_count < 1:
        raise ParameterError("need max_count >= 1")
    total = len(grid)
    if total <= max_count:
        return grid
    pick = np.unique(np.linspace(0, total - 1, max_count).round().astype(int))
    return FrequencyGrid(
        freqs=grid.freqs[pick],
        n_ref=grid.n_ref,
        indices=None if grid.indices is None else grid.indices[pick],
    )
