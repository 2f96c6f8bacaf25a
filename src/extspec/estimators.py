"""Empirical frequency-domain machinery for tail events.

Everything here works on an :class:`~extspec.core.IndicatorSeries`: the
lag-indexed sample extremogram, centered sine/cosine transforms, the
tail-event periodogram and its standardized, lag-window and smoothed
variants.

Normalization
-------------
The raw periodogram carries a scale factor ``m``; the canonical choice
``m = n / (number of events)`` makes the scaled event rate exactly one,
and every standardized output is algebraically free of ``m``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 loads it on first use; load it with the package

from .core import (
    DegenerateDataError,
    FrequencyGrid,
    IndicatorSeries,
    ParameterError,
    fourier_grid,
    require_bytes,
    require_finite,
    smoothing_window_starts,
)

SPECTRAL_KINDS = ("raw_periodogram", "standardized_periodogram", "lag_window", "smoothed")


@dataclass(frozen=True)
class Extremogram:
    """Lag-indexed serial tail dependence, rho(0) = 1.

    ``n_events`` is the denominator count behind the ratios; it feeds the
    binomial surrogate standard errors.
    """

    rho: np.ndarray
    n_events: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 1 or rho.size == 0:
            raise ParameterError("extremogram needs at least the lag-0 value")
        if np.any(rho < -1e-12) or np.any(rho > 1.0 + 1e-12):
            raise ParameterError("extremogram values must lie in [0, 1]")

    def stderr(self) -> np.ndarray:
        """Binomial surrogate standard errors sqrt(rho*(1-rho)/n_events)."""
        if self.n_events <= 0:
            return np.full_like(self.rho, np.nan)
        se = np.sqrt(np.clip(self.rho * (1.0 - self.rho), 0.0, None) / self.n_events)
        se[0] = 0.0
        return se


@dataclass(frozen=True)
class SineCosinePair:
    """Normalized centered cosine and sine transforms at one frequency."""

    alpha: float
    beta: float
    freq: float

    def power(self) -> float:
        """Periodogram ordinate (alpha^2 + beta^2) / 2 at matching m."""
        return 0.5 * (self.alpha**2 + self.beta**2)


@dataclass(frozen=True)
class SpectralEstimate:
    """Frequency-indexed spectral values of one estimator kind."""

    grid: FrequencyGrid
    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.kind not in SPECTRAL_KINDS:
            raise ParameterError(f"unknown spectral kind {self.kind!r}")
        if values.shape != (len(self.grid),):
            raise ParameterError("values must align with the frequency grid")
        # truncated cosine series may legitimately dip below zero
        if self.kind != "lag_window" and np.any(values < 0):
            raise ParameterError(f"{self.kind} values must be nonnegative")


@dataclass(frozen=True)
class WeightWindow:
    """Nonnegative smoothing weights over offsets -s..s, normalized to sum 1."""

    weights: np.ndarray
    half_width: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != 2 * self.half_width + 1:
            raise ParameterError("need 2s+1 weights for half-width s")
        require_finite(w, "weights must be finite")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        total = w.sum()
        if not total > 0:
            raise ParameterError("weights must not all vanish")
        require_finite(total, "weights must have a finite sum")
        object.__setattr__(self, "weights", w / total)

    @property
    def sum_sq(self) -> float:
        return float(np.dot(self.weights, self.weights))


def daniell_window(s: int) -> WeightWindow:
    """Equal weights 1/(2s+1) over offsets -s..s."""
    if s < 0:
        raise ParameterError("half-width must be nonnegative")
    require_bytes(2 * s + 1, f"{2 * s + 1} window weights")
    return WeightWindow(weights=np.full(2 * s + 1, 1.0 / (2 * s + 1)), half_width=s)


def canonical_m(ind: IndicatorSeries) -> float:
    """The normalization n / (event count), under which the event rate is 1."""
    if ind.n_events == 0:
        raise DegenerateDataError("no tail events: canonical normalization undefined")
    return ind.n / ind.n_events


def _resolve_m(ind: IndicatorSeries, m: float | None) -> float:
    if m is None:
        return canonical_m(ind)
    if not m > 0:
        raise ParameterError("normalization m must be positive")
    return float(m)


def tail_event_rate(ind: IndicatorSeries, m: float | None = None) -> float:
    """Scaled event rate (m/n) * sum(I_t); exactly 1 under canonical m."""
    m = _resolve_m(ind, m)
    return m * ind.n_events / ind.n


def sample_extremogram(ind: IndicatorSeries, max_lag: int) -> Extremogram:
    """Ratio-of-counts sample extremogram.

    rho(h) is the fraction of events that are followed by another event
    h steps later: sum_t I_t I_{t+h} / sum_t I_t, with rho(0) = 1.  This
    is the plug-in conditional probability; it stays in [0, 1].
    """
    if ind.n_events < 1:
        raise DegenerateDataError("no tail events: extremogram undefined")
    if not 0 <= max_lag < ind.n:
        raise ParameterError("need 0 <= max_lag < n")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    rho[1:] = _lag_products(ind.bits, max_lag) / ind.n_events
    return Extremogram(rho=rho, n_events=ind.n_events)


def _lag_products(bits: np.ndarray, max_lag: int) -> np.ndarray:
    """Event pairs h apart, sum_t b_t b_{t+h}, for h = 1..max_lag (int64).

    The gaps p[k:] - p[:-k] between events k apart in the position list p
    grow with k, so the loop stops at the first k with no gap <= max_lag.
    Worst-case cost O(events x max_lag), reached when the events are
    adjacent; sparse tail events stop the loop much earlier.
    """
    p = np.flatnonzero(bits)
    counts = np.zeros(max_lag + 1, dtype=np.int64)
    for k in range(1, p.size):
        gaps = p[k:] - p[:-k]
        gaps = gaps[gaps <= max_lag]
        if gaps.size == 0:
            break
        counts += np.bincount(gaps, minlength=max_lag + 1)
    return counts[1:]


# ---------------------------------------------------------------------------
# Transforms and periodograms
#
# The grid picks the evaluation path: one FFT on the Fourier grid of n,
# an O(n)-per-frequency direct sum anywhere else.  They agree to ~1e-10
# and the test suite enforces that.


def _direct_sums(centered: np.ndarray, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine sums of the centered indicators, t = 1..n."""
    t = np.arange(1, centered.size + 1)
    cos_sums = np.empty(len(grid))
    sin_sums = np.empty(len(grid))
    for i, lam in enumerate(grid.freqs):
        ang = lam * t
        cos_sums[i] = np.dot(centered, np.cos(ang))
        sin_sums[i] = np.dot(centered, np.sin(ang))
    return cos_sums, sin_sums


def _fft_power(centered: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """|sum_t c_t e^(-i t lam_j)|^2 at Fourier indices j via one real FFT."""
    spec = np.fft.rfft(centered)
    return np.abs(spec[indices]) ** 2


def _squared_modulus(ind: IndicatorSeries, grid: FrequencyGrid) -> np.ndarray:
    centered = ind.centered()
    if grid.fourier and grid.n_ref == ind.n:
        return _fft_power(centered, grid.indices)
    cos_sums, sin_sums = _direct_sums(centered, grid)
    return cos_sums**2 + sin_sums**2


def sine_cosine_transforms(ind: IndicatorSeries, lam: float, m: float | None = None) -> SineCosinePair:
    """Centered cosine/sine transforms scaled by sqrt(2m/n).

    The indicators are centered at their empirical rate; at Fourier
    frequencies of n the centering provably has no effect because the
    complex exponentials sum to zero over a full period.
    """
    (cos_sum,), (sin_sum,) = _direct_sums(ind.centered(), FrequencyGrid.from_frequencies([lam]))
    scale = math.sqrt(2.0 * _resolve_m(ind, m) / ind.n)
    return SineCosinePair(alpha=scale * float(cos_sum), beta=scale * float(sin_sum), freq=lam)


def periodogram(ind: IndicatorSeries, grid: FrequencyGrid, m: float | None = None) -> SpectralEstimate:
    """Tail-event periodogram (m/n) |sum_t (I_t - p0) e^(-i t lam)|^2."""
    if len(grid) == 0:
        raise ParameterError("frequency grid is empty")
    m = _resolve_m(ind, m)
    values = (m / ind.n) * _squared_modulus(ind, grid)
    return SpectralEstimate(grid=grid, values=values, kind="raw_periodogram")


def standardized_periodogram(ind: IndicatorSeries, grid: FrequencyGrid) -> SpectralEstimate:
    """Periodogram divided by the scaled event rate; free of m.

    Equals |sum_t (I_t - p0) e^(-i t lam)|^2 / sum_t I_t, the ratio in
    which the normalization cancels exactly.
    """
    if len(grid) == 0:
        raise ParameterError("frequency grid is empty")
    if ind.n_events < 1:
        raise DegenerateDataError("no tail events: standardized periodogram undefined")
    values = _squared_modulus(ind, grid) / ind.n_events
    return SpectralEstimate(grid=grid, values=values, kind="standardized_periodogram")


def _warn_if_truncation_outruns(ind: IndicatorSeries, r: int, m: float) -> None:
    # consistency heuristic: the truncation should satisfy r^2 <= n/m
    if r > 0 and r * r > ind.n / m:
        warnings.warn(
            f"lag-window truncation r={r} is large for this event count "
            f"(r^2 exceeds n/m = {ind.n / m:.1f}); the estimate may be unstable",
            stacklevel=3,
        )


def lag_window_curve(
    ind: IndicatorSeries,
    grid: FrequencyGrid,
    r: int,
    m: float | None = None,
    standardized: bool = False,
) -> SpectralEstimate:
    """Lag-window estimate over a whole grid (one autocovariance pass).

    Unlike the squared-modulus estimators the truncated cosine series is
    not nonnegative by construction; values are reported as computed.
    """
    if not 0 <= r < ind.n:
        raise ParameterError("need 0 <= r < n")
    if len(grid) == 0:
        raise ParameterError("frequency grid is empty")
    m = _resolve_m(ind, m)
    _warn_if_truncation_outruns(ind, r, m)
    gammas = np.empty(r + 1)
    gammas[0] = m / ind.n * ind.n_events
    # sum_t (b_t - p0)(b_{t+h} - p0) = C(h) - p0 (A(h) + B(h)) + (n - h) p0^2, where
    # A(h) and B(h) count the events in the first and in the last n - h positions
    h = np.arange(1, r + 1)
    p0, bits = ind.p0_hat, ind.bits
    first = ind.n_events - np.cumsum(bits[::-1][:r])
    last = ind.n_events - np.cumsum(bits[:r])
    cov = _lag_products(bits, r) - p0 * (first + last) + (ind.n - h) * p0**2
    gammas[1:] = (m / ind.n) * cov
    values = gammas[0] + 2.0 * (np.cos(np.outer(grid.freqs, h)) @ gammas[1:])
    if standardized:
        values = values / tail_event_rate(ind, m)
    return SpectralEstimate(grid=grid, values=values, kind="lag_window")


def smoothed_curve(ind: IndicatorSeries, window: WeightWindow) -> SpectralEstimate:
    """Smoothed standardized periodogram at every admissible Fourier frequency.

    Admissible centers are those whose full smoothing window stays
    inside (0, pi).  One FFT pass supplies all ordinates.
    """
    return smooth_ordinates(standardized_periodogram(ind, fourier_grid(ind.n)), window)


def smooth_ordinates(ordinates: SpectralEstimate, window: WeightWindow) -> SpectralEstimate:
    """Window sums of standardized ordinates given on the full Fourier grid of n.

    The result lives on the admissible centers, the Fourier frequencies
    whose full smoothing window stays inside (0, pi); callers that already
    hold the ordinates (as ``analyze`` does) smooth them without a second
    FFT.
    """
    full = ordinates.grid
    if ordinates.kind != "standardized_periodogram" or not (
        full.fourier and len(full) == math.ceil(full.n_ref / 2) - 1
    ):
        raise ParameterError("smoothing needs standardized ordinates on the full Fourier grid")
    s = window.half_width
    if len(full) < 2 * s + 1:
        raise ParameterError("series too short for this smoothing half-width")
    grid = FrequencyGrid(
        freqs=full.freqs[s : len(full) - s],
        fourier=True,
        n_ref=full.n_ref,
        indices=full.indices[s : len(full) - s],
    )
    vals = np.correlate(ordinates.values, window.weights, mode="valid")
    return SpectralEstimate(grid=grid, values=vals, kind="smoothed")


def smoothed_window_sums(centered: np.ndarray, n_events: int, window: WeightWindow, starts):
    """Window sums of the standardized ordinates |sum_t c_t e^(-i t lam_j)|^2 / n_events.

    ``starts`` picks the windows by their first Fourier index, an index
    array as returned by :func:`~extspec.core.smoothing_window_starts`.
    One real FFT of the centered indicators supplies the ordinates; only
    the span from the first to the last window is squared and correlated.
    """
    if n_events < 1:
        raise DegenerateDataError("no tail events: smoothed periodogram undefined")
    lo = int(starts.min()) if starts.size else 1
    hi = int(starts.max(initial=lo)) + window.weights.size
    std = _fft_power(centered, slice(lo, hi)) / n_events
    return np.correlate(std, window.weights, mode="valid")[starts - lo]


def smoothed_at_frequencies(
    ind: IndicatorSeries, freqs, window: WeightWindow
) -> SpectralEstimate:
    """Smoothed standardized periodogram at arbitrary target frequencies.

    Shares one FFT pass across all targets; each value averages the
    window of Fourier ordinates around its target.
    """
    starts = smoothing_window_starts(freqs, ind.n, window.half_width)
    vals = smoothed_window_sums(ind.centered(), ind.n_events, window, starts)
    return SpectralEstimate(
        grid=FrequencyGrid.from_frequencies(np.atleast_1d(freqs)), values=vals, kind="smoothed"
    )
