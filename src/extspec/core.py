"""Shared domain objects: tail sets, empirical thresholds, exceedance
indicators and Fourier frequency grids.

All constructors validate their inputs and every object is immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np


class ParameterError(ValueError):
    """A parameter lies outside its documented domain."""


class InputError(ValueError):
    """Input data is unusable (empty, non-numeric, wrong shape)."""


class DegenerateDataError(RuntimeError):
    """The data admits no meaningful estimate (e.g. zero tail events)."""


def as_series(values) -> np.ndarray:
    """Coerce to a 1-d float array and reject NaN/inf entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError("series must be one-dimensional")
    if arr.size == 0:
        raise InputError("series is empty")
    if not np.all(np.isfinite(arr)):
        raise InputError("series contains NaN or infinite values")
    return arr


def require_finite(values, message: str):
    """Return ``values`` unchanged if every entry is finite; else raise ParameterError."""
    if not np.all(np.isfinite(values)):
        raise ParameterError(message)
    return values


# largest array that one input may make the package allocate
MAX_BYTES = 2**30


def require_bytes(count: int, what: str) -> None:
    """Raise ParameterError before allocating ``count`` float64 values above MAX_BYTES."""
    if 8 * count > MAX_BYTES:
        raise ParameterError(f"{what} need {8 * count} bytes, above the {MAX_BYTES}-byte limit")


def two_product(a, b):
    """``hi, lo`` with hi = fl(a*b) and hi + lo == a*b exactly; a and b may be arrays.

    Dekker's product (Numer. Math. 18, 1971) on Veltkamp's split of each factor
    into two 26-bit halves; exact unless a step overflows or underflows.
    """
    halves = []
    for x in (a, b):
        c = x * 134217729.0  # 2**27 + 1
        h = c - (c - x)
        halves += [h, x - h]
    ah, al, bh, bl = halves
    hi = a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


# ---------------------------------------------------------------------------
# Tail sets
#
# A tail set defines which scaled observations x/a count as extreme events.
# Ray endpoints are strict: UpperRay(1) is the open interval (1, inf).


@dataclass(frozen=True)
class UpperRay:
    """Upper tail (a, inf), a > 0."""

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise ParameterError("UpperRay endpoint must be positive")

    def contains(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled) > self.a


@dataclass(frozen=True)
class LowerRay:
    """Lower tail (-inf, -a), a > 0."""

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise ParameterError("LowerRay endpoint must be positive")

    def contains(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled) < -self.a


@dataclass(frozen=True)
class Interval:
    """Half-open interval (a, b] with 0 < a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ParameterError("Interval requires 0 < a < b")

    def contains(self, scaled: np.ndarray) -> np.ndarray:
        x = np.asarray(scaled)
        return (x > self.a) & (x <= self.b)


@dataclass(frozen=True)
class PredicateSet:
    """Opaque membership test on scaled observations.

    The callable receives the scaled array and must return a boolean
    array of the same shape, classifying each value on its own,
    independently of its position and of the other values.  The caller
    is responsible for keeping the set bounded away from zero.
    """

    test: Callable[[np.ndarray], np.ndarray]

    def contains(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(self.test(np.asarray(scaled)), dtype=bool)


TailSet = Union[UpperRay, LowerRay, Interval, PredicateSet]


# ---------------------------------------------------------------------------
# Threshold and indicators


@dataclass(frozen=True)
class Threshold:
    """Empirical threshold: the ceil(q*n)-th ascending order statistic."""

    a_m: float
    exceed_count: int


def threshold_from_quantile(series, q: float) -> Threshold:
    """Empirical quantile threshold of a series.

    The threshold is the ceil(q*n)-th ascending order statistic (no
    interpolation), so exceedance counts stay integral.

    Parameters
    ----------
    series : array_like
        Observations, finite, length n with n*(1-q) >= 1.
    q : float
        Quantile level in (0, 1).
    """
    x = as_series(series)
    if not 0.0 < q < 1.0:
        raise ParameterError("quantile q must lie in (0, 1)")
    n = x.size
    if n * (1.0 - q) < 1.0 - 1e-9:
        raise InputError(
            f"series of length {n} is too short for quantile {q}: "
            "fewer than one exceedance expected"
        )
    k = max(1, math.ceil(q * n - 1e-9))  # 1-based order statistic index
    a_m = float(np.partition(x, k - 1)[k - 1])
    exceed = int(np.count_nonzero(x > a_m))
    return Threshold(a_m=a_m, exceed_count=exceed)


@dataclass(frozen=True)
class IndicatorSeries:
    """0/1 marks of scaled observations falling in a tail set.

    The event count and the empirical event rate ``p0_hat`` are
    statistics of the bits, computed once at construction.
    """

    bits: np.ndarray
    p0_hat: float = field(init=False)
    n_events: int = field(init=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 1 or bits.size == 0:
            raise InputError("indicator bits must form a non-empty 1-d array")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "p0_hat", float(bits.mean()))
        object.__setattr__(self, "n_events", int(np.count_nonzero(bits)))

    @property
    def n(self) -> int:
        return self.bits.size

    def centered(self) -> np.ndarray:
        """Indicator values with the empirical event rate removed."""
        return np.subtract(self.bits, self.p0_hat, dtype=float)


def exceedance_indicators(series, tail_set: TailSet, threshold: Threshold) -> IndicatorSeries:
    """Mark the observations whose scaled value x/a_m falls in the tail set."""
    x = as_series(series)
    if not threshold.a_m > 0:
        raise ParameterError("threshold must be positive: scaling is undefined otherwise")
    bits = np.asarray(tail_set.contains(x / threshold.a_m), dtype=bool)
    if bits.shape != x.shape:
        raise InputError("tail set membership must preserve the series shape")
    return IndicatorSeries(bits)


# ---------------------------------------------------------------------------
# Frequency grids


@dataclass(frozen=True)
class FrequencyGrid:
    """A non-empty, strictly increasing list of frequencies inside (0, pi).

    A Fourier grid carries ``n_ref`` and ``indices``: every frequency
    equals 2*pi*j/n_ref for the integer j stored in ``indices``.
    """

    freqs: np.ndarray
    n_ref: int | None = None
    indices: np.ndarray | None = None

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        object.__setattr__(self, "freqs", freqs)
        if freqs.ndim != 1:
            raise ParameterError("frequency grid must be one-dimensional")
        if freqs.size == 0:
            raise ParameterError("frequency grid is empty")
        if not (np.all(freqs > 0.0) and np.all(freqs < math.pi)):
            raise ParameterError("frequencies must lie strictly inside (0, pi)")
        if np.any(np.diff(freqs) <= 0):
            raise ParameterError("frequencies must be strictly increasing")
        if (self.n_ref is None) != (self.indices is None):
            raise ParameterError("fourier grids carry n_ref and integer indices")
        if self.fourier:
            indices = np.asarray(self.indices, dtype=np.int64)
            object.__setattr__(self, "indices", indices)
            # fourier_grid's expression, so that each label is its ordinate's frequency
            if not np.array_equal(2.0 * np.pi * indices / self.n_ref, freqs):
                raise ParameterError("fourier grid frequencies must equal 2*pi*indices/n_ref")

    @property
    def fourier(self) -> bool:
        return self.indices is not None

    def __len__(self) -> int:
        return self.freqs.size

    @classmethod
    def from_frequencies(cls, freqs) -> "FrequencyGrid":
        return cls(freqs=np.asarray(freqs, dtype=float))


def fourier_grid(n: int) -> FrequencyGrid:
    """All Fourier frequencies 2*pi*j/n strictly inside (0, pi).

    There are exactly ceil(n/2) - 1 of them (j = 1, ..., ceil(n/2) - 1),
    so n = 2 gives an empty grid, which is rejected.
    """
    if n < 2:
        raise InputError("need at least two observations for a Fourier grid")
    jmax = (n + 1) // 2 - 1  # ceil(n/2) - 1 without a float
    require_bytes(jmax, f"{jmax} Fourier frequencies")
    j = np.arange(1, jmax + 1, dtype=np.int64)
    return FrequencyGrid(freqs=2.0 * np.pi * j / n, n_ref=n, indices=j)


def smoothing_window_starts(targets, n: int, s: int) -> np.ndarray:
    """First Fourier index j0 - s of the smoothing window around each target.

    j0 is the first Fourier index of n whose frequency is at or above the
    target frequency.  The first target whose window would leave (0, pi)
    is rejected; the error message reports the largest admissible
    half-width around that target, or that none fits for this n.
    ``s`` is a ``WeightWindow.half_width``, so it is nonnegative.
    """
    lam = np.atleast_1d(np.asarray(targets, dtype=float))
    inside = (lam > 0.0) & (lam < math.pi)
    # lam*n/(2*pi) misses j by a few ulps when lam = 2*pi*j/n (four
    # roundings), so the slack is relative; the 1e-12 floor serves small j
    x = np.where(inside, lam, 0.0) * n / (2.0 * math.pi)
    j0 = np.ceil(x - np.maximum(1e-12, 1e-15 * x)).astype(np.int64)
    j_hi_max = (n - 1) // 2  # largest j with 2*pi*j/n < pi
    bad = ~inside | (j0 <= s) | (j0 > j_hi_max - s)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not inside[i]:
            raise ParameterError("target frequency must lie in (0, pi)")
        s_max = min(int(j0[i]) - 1, j_hi_max - int(j0[i]))
        fit = f"the maximum half-width here is {s_max}"
        raise ParameterError(
            f"smoothing window of half-width {s} around frequency {lam[i]:g} leaves (0, pi); "
            + (fit if s_max >= 0 else f"no window around it fits for n = {n}")
        )
    return j0 - s

