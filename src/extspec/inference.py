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

from .core import (
    DegenerateDataError,
    FrequencyGrid,
    IndicatorSeries,
    ParameterError,
    require_bytes,
    smoothing_window_starts,
)
from .estimators import SpectralEstimate, WeightWindow, _smoothed
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


def _check_level(level: float) -> None:
    """Reject an envelope level outside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")


def envelope_order_statistics(replicates: int, level: float) -> tuple[int, int]:
    """1-based order statistics bounding a pointwise Monte Carlo envelope.

    Returns (ceil((level/2)(B+1)), floor((1-level/2)(B+1))), clipped into
    [1, B]; with 99 replicates at level 0.05 these are the 3rd and 97th.
    """
    if replicates < 2:
        raise ParameterError("need at least two replicates")
    _check_level(level)
    lo = math.ceil(level / 2.0 * (replicates + 1) - 1e-9)
    hi = math.floor((1.0 - level / 2.0) * (replicates + 1) + 1e-9)
    lo = min(max(lo, 1), replicates)
    hi = min(max(hi, lo), replicates)
    return lo, hi


def _check_band(replicates: int, level: float, seed: int) -> tuple[int, int]:
    """The permutation band's order statistics, after its arguments are checked."""
    if seed < 0:
        raise ParameterError("band seed must be a nonnegative integer")
    return envelope_order_statistics(replicates, level)


class _Rows:
    """The k smallest of the values pushed at each of T frequencies, in rows.

    Each frequency has a row of 2k slots.  The first 2k pushes fill them,
    and then every row is sorted so that its k smallest come first;
    ``kth``, the k-th of them, is the row's entry bar.  After that a value
    is kept only where it lies below the bar, in the row's next free
    slot, and a row whose slots run out is sorted again.  A value that is
    dropped lies at or above k values already seen, so each row holds the
    k smallest.  A push costs one pass to find the rows it enters, plus
    work for those rows only.
    """

    def __init__(self, count: int, k: int):
        self.k, self.width = k, 2 * k
        self.rows = np.full((count, 2 * k), np.inf)
        self.used = np.full(count, k, dtype=np.int32)
        self.kth = None
        self.below = np.empty(count, dtype=bool)
        self.pushed = 0

    def push(self, values: np.ndarray) -> None:
        k, width = self.k, self.width
        if self.pushed < width:
            self.rows[:, self.pushed] = values
            self.pushed += 1
            if self.pushed == width:
                self.rows.sort(axis=1)
                self.kth = self.rows[:, k - 1].copy()
            return
        # most pushes enter no row once B >> k: they allocate nothing
        if not np.less(values, self.kth, out=self.below).any():
            return
        hit = np.flatnonzero(self.below)
        used = self.used[hit]
        self.rows.reshape(-1)[hit * width + used] = values[hit]
        used += 1
        self.used[hit] = used
        full = hit[used == width]
        if full.size:
            # take copies whole rows several times faster than rows[full]
            rows = self.rows.take(full, axis=0)
            rows.sort(axis=1)
            self.rows[full] = rows
            self.kth[full] = rows[:, k - 1]
            self.used[full] = k

    def smallest(self, order: int) -> np.ndarray:
        """The order-th smallest value pushed at each frequency, order <= k."""
        self.rows.partition(order - 1, axis=1)
        return self.rows[:, order - 1].copy()


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
    Memory: the band keeps, at each of the T = len(grid) frequencies, the
    lo smallest values so far and the B + 1 - hi <= lo largest, in 2*lo
    slots each (32*lo*T bytes, at most ``core.MAX_BYTES``), plus
    O(T) bookkeeping, a copy of the rows a replicate fills up, and O(n)
    for one replicate at a time.  Values are only moved, never computed,
    so the band equals that of the sorted B x T replicate matrix bit for
    bit.
    """
    lo_k, hi_k = _check_band(replicates, level, seed)
    require_bytes(
        4 * lo_k * len(grid),
        f"{replicates} replicates at level {level} on {len(grid)} frequencies",
    )
    if level * (replicates + 1) < 1.0 - 1e-9:
        coverage = 100.0 * (replicates - 1) / (replicates + 1)
        # np.ceil, not math.ceil: 1/level overflows to inf for a subnormal level
        enough = np.ceil((1.0 - 1e-9) / level - 1.0)
        warnings.warn(
            f"{replicates} replicates cannot resolve a {100.0 * (1.0 - level):.4g}% envelope: "
            f"their minimum and maximum cover {coverage:.4g}%; use {enough:.0f} or more",
            stacklevel=2,
        )

    starts = smoothing_window_starts(grid.freqs, ind.n, window.half_width)
    # Each push holds a curve and then its negation: the lo smallest values
    # of the first half give the lower edge, and the B + 1 - hi <= lo
    # smallest of the second half, negated back (negation is exact), the
    # upper.
    count = len(grid)
    kept = _Rows(2 * count, lo_k)
    both = np.empty(2 * count)
    curves, negated = both[:count], both[count:]
    for b in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        # the centered series and its permutation die when the transform is made
        curves[:] = _smoothed(
            np.fft.rfft(rng.permutation(ind.centered())), ind.n_events, window, starts
        )
        np.negative(curves, out=negated)
        kept.push(both)
    lower = kept.smallest(lo_k)[:count]
    upper = -kept.smallest(replicates + 1 - hi_k)[count:]
    return Band(grid=grid, lower=lower, upper=upper)


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
    from scipy import stats  # imported here: no command needs scipy

    ks = stats.ks_1samp(ratios, stats.expon.cdf, method="exact")
    pvalue = float(ks.pvalue) if n > 1 else float("nan")
    sd = float(ratios.std(ddof=1)) if n > 1 else 0.0
    return ExpDiagnostics(
        ks_stat=float(ks.statistic),
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
