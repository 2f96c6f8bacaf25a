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
from dataclasses import dataclass, field

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
    """Nonnegative smoothing weights over offsets -s..s (2s+1 of them), normalized to sum 1."""

    weights: np.ndarray
    half_width: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size % 2 == 0:
            raise ParameterError("need an odd number 2s+1 of weights for offsets -s..s")
        require_finite(w, "weights must be finite")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        total = w.sum()
        if not total > 0:
            raise ParameterError("weights must not all vanish")
        require_finite(total, "weights must have a finite sum")
        object.__setattr__(self, "weights", w / total)
        object.__setattr__(self, "half_width", w.size // 2)

    @property
    def sum_sq(self) -> float:
        return float(np.dot(self.weights, self.weights))


def daniell_window(s: int) -> WeightWindow:
    """Equal weights 1/(2s+1) over offsets -s..s."""
    if s < 0:
        raise ParameterError("half-width must be nonnegative")
    require_bytes(2 * s + 1, f"{2 * s + 1} window weights")
    return WeightWindow(np.full(2 * s + 1, 1.0 / (2 * s + 1)))


def _event_count(n_events: int) -> int:
    """The event count that every tail estimator divides by; zero is degenerate."""
    if n_events < 1:
        raise DegenerateDataError("no tail events: the tail estimators are undefined")
    return n_events


def canonical_m(ind: IndicatorSeries) -> float:
    """The normalization n / (event count), under which the event rate is 1."""
    return ind.n / _event_count(ind.n_events)


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
    _event_count(ind.n_events)
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


def _power(spectrum: np.ndarray, indices) -> np.ndarray:
    """|spectrum_j|^2 at the indices j of a real FFT, squared in place (no complex copy)."""
    power = np.abs(spectrum)[indices]
    power **= 2
    return power


def _squared_modulus(ind: IndicatorSeries, grid: FrequencyGrid) -> np.ndarray:
    if grid.fourier and grid.n_ref == ind.n:
        return _power(np.fft.rfft(ind.centered()), grid.indices)
    cos_sums, sin_sums = _direct_sums(ind.centered(), grid)
    return cos_sums**2 + sin_sums**2


def sine_cosine_transforms(ind: IndicatorSeries, lam: float, m: float | None = None) -> SineCosinePair:
    """Centered cosine/sine transforms scaled by sqrt(2m/n).

    The indicators are centered at their empirical rate; at Fourier
    frequencies of n the centering provably has no effect because the
    complex exponentials sum to zero over a full period.
    """
    (cos_sum,), (sin_sum,) = _direct_sums(ind.centered(), FrequencyGrid.from_frequencies([lam]))
    scale = math.sqrt(2.0 * _resolve_m(ind, m) / ind.n)
    return SineCosinePair(alpha=scale * float(cos_sum), beta=scale * float(sin_sum))


def periodogram(ind: IndicatorSeries, grid: FrequencyGrid, m: float | None = None) -> SpectralEstimate:
    """Tail-event periodogram (m/n) |sum_t (I_t - p0) e^(-i t lam)|^2."""
    m = _resolve_m(ind, m)
    values = (m / ind.n) * _squared_modulus(ind, grid)
    return SpectralEstimate(grid=grid, values=values, kind="raw_periodogram")


def standardized_periodogram(ind: IndicatorSeries, grid: FrequencyGrid) -> SpectralEstimate:
    """Periodogram divided by the scaled event rate; free of m.

    Equals |sum_t (I_t - p0) e^(-i t lam)|^2 / sum_t I_t, the ratio in
    which the normalization cancels exactly.
    """
    values = _squared_modulus(ind, grid) / _event_count(ind.n_events)
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
    m = _resolve_m(ind, m)
    _warn_if_truncation_outruns(ind, r, m)
    # sum_t (b_t - p0)(b_{t+h} - p0) = C(h) - p0 (A(h) + B(h)) + (n - h) p0^2, where
    # A(h) and B(h) count the events in the first and in the last n - h positions
    h = np.arange(1, r + 1)
    p0, bits = ind.p0_hat, ind.bits
    first = ind.n_events - np.cumsum(bits[::-1][:r])
    last = ind.n_events - np.cumsum(bits[:r])
    cov = _lag_products(bits, r) - p0 * (first + last) + (ind.n - h) * p0**2
    values = cosine_series(grid.freqs, m / ind.n * ind.n_events, (m / ind.n) * cov)
    if standardized:
        values = values / tail_event_rate(ind, m)
    return SpectralEstimate(grid=grid, values=values, kind="lag_window")


def cosine_series(freqs, c0: float, coefs) -> np.ndarray:
    """c0 + 2 * sum_{h=1..H} coefs[h-1] cos(h*lam) at each lam.

    Clenshaw's recurrence over the lags needs only cos(lam): with
    x = 2 cos(lam), b_h = coefs[h-1] + x b_{h+1} - b_{h+2} runs down from
    h = H to 1 from b_{H+1} = b_{H+2} = 0, and the sum is c0 + b_1 x - 2 b_2.
    Each frequency is computed on its own, so its bits do not depend on
    the rest of the grid; memory is a few K-length arrays, whatever H.
    """
    x = 2.0 * np.cos(freqs)
    b1, b2 = np.zeros(x.size), np.zeros(x.size)
    for c in coefs[::-1]:
        b1, b2 = x * b1 + c - b2, b1
    return c0 + (b1 * x - 2.0 * b2)


def smoothed_curve(ind: IndicatorSeries, window: WeightWindow) -> SpectralEstimate:
    """Smoothed standardized periodogram at every admissible Fourier frequency, from one FFT."""
    return smooth_ordinates(standardized_periodogram(ind, fourier_grid(ind.n)), window)


def smooth_ordinates(ordinates: SpectralEstimate, window: WeightWindow) -> SpectralEstimate:
    """Window sums of the standardized periodogram on the full Fourier grid of n.

    The result lives on the admissible centers, the Fourier frequencies
    whose full smoothing window stays inside (0, pi): rows s to len - s - 1
    of the full grid.  ``analyze``, which holds the ordinates, smooths them
    without a second FFT.
    """
    full, s = ordinates.grid, window.half_width
    if len(full) < 2 * s + 1:
        raise ParameterError("series too short for this smoothing half-width")
    run = slice(s, len(full) - s)
    grid = FrequencyGrid(freqs=full.freqs[run], n_ref=full.n_ref, indices=full.indices[run])
    vals = smoothed_window_sums(ordinates.values, window, np.arange(len(grid)))
    return SpectralEstimate(grid=grid, values=vals, kind="smoothed")


def smoothed_window_sums(ordinates: np.ndarray, window: WeightWindow, starts) -> np.ndarray:
    """Window sums of ``ordinates`` over the windows that begin at the indices ``starts``.

    Only the span from the first to the last window is correlated, and a
    run of starts (all admissible Fourier centers, say) returns all of it.
    """
    lo = int(starts.min())
    hi = int(starts.max()) + window.weights.size
    sums = np.correlate(ordinates[lo:hi], window.weights, mode="valid")
    return sums if bool((np.diff(starts) == 1).all()) else sums[starts - lo]


def _smoothed(spectrum: np.ndarray, n_events: int, window: WeightWindow, starts) -> np.ndarray:
    """Window sums at ``starts`` of the ordinates |spectrum_j|^2 / n_events of a real FFT."""
    spectrum = _power(spectrum, slice(None))  # rebound: the transform dies before the sums
    spectrum /= _event_count(n_events)
    return smoothed_window_sums(spectrum, window, starts)


def smoothed_at_frequencies(
    ind: IndicatorSeries, freqs, window: WeightWindow
) -> SpectralEstimate:
    """Smoothed standardized periodogram at arbitrary target frequencies.

    Shares one FFT pass across all targets; each value averages the
    window of Fourier ordinates around its target.
    """
    grid = FrequencyGrid.from_frequencies(np.atleast_1d(freqs))
    starts = smoothing_window_starts(grid.freqs, ind.n, window.half_width)
    # the series is a temporary: it dies when its transform is made
    vals = _smoothed(np.fft.rfft(ind.centered()), ind.n_events, window, starts)
    return SpectralEstimate(grid=grid, values=vals, kind="smoothed")
