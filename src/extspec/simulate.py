"""Seeded generators for heavy-tailed example processes.

All generators are deterministic functions of (spec, n, seed); identical
arguments reproduce identical output bit for bit.  Independent streams
need distinct seeds.  A draw that overflows the floating-point range
raises ParameterError instead of returning nan or inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ParameterError, require_bytes, require_finite
from .oracles import TailIndexSpec, _check_arma11

_OVERFLOW = "the model parameters overflow the floating-point range"
_CHUNK = 2**12  # values per pass of the scalar filter loop: bounds its two Python lists
_TILE = 64  # lockstep positions per copy of the lanes into a contiguous block
_MIN_LANES = 24  # timed at 4-32 lanes, the lockstep overtook the scalar loop between 16 and 24


@dataclass(frozen=True)
class ParetoBalanced:
    """Two-sided Pareto noise with tail index ``alpha``.

    Magnitudes are drawn as U^(-1/alpha) with U uniform on (0, 1], so
    |Z| >= 1 always, and the sign is +1 with probability ``upper_share``.
    The tail is exactly P(Z > x) = upper_share * x**-alpha for x >= 1.
    """

    alpha: float
    upper_share: float = 0.5

    def __post_init__(self):
        self.tail  # TailIndexSpec validates alpha and upper_share

    @property
    def tail(self) -> TailIndexSpec:
        return TailIndexSpec(self.alpha, self.upper_share)

    def describe(self) -> str:
        return f"pareto:{self.alpha:g}:{self.upper_share:g}"


@dataclass(frozen=True)
class StudentT:
    """Student t noise with ``df`` degrees of freedom (tail index df)."""

    df: float

    def __post_init__(self):
        if not self.df > 0:
            raise ParameterError("degrees of freedom must be positive")
        require_finite(self.df, "degrees of freedom must be finite")

    @property
    def tail(self) -> TailIndexSpec:
        return TailIndexSpec(self.df)

    def describe(self) -> str:
        return f"t:{self.df:g}"


NoiseSpec = Union[ParetoBalanced, StudentT]


def _draw_length(n: int, burnin: int = 0) -> int:
    """The n + burnin values a model draws before it keeps the last n."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if burnin < 0:
        raise ParameterError("burn-in must be nonnegative")
    return n + burnin


def sample_noise(spec: NoiseSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. noise values.

    Student t variates are built as a standard normal over the root of a
    scaled chi-square, both from the seeded generator.
    """
    _draw_length(n)
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    require_bytes(n, f"{n} noise values")
    rng = np.random.default_rng(seed)
    # each draw is transformed in place: one n-long array plus the one being drawn
    if isinstance(spec, ParetoBalanced):
        u = rng.random(n)
        np.subtract(1.0, u, out=u)  # uniform on (0, 1]; keeps U**(-1/alpha) finite
        u **= -1.0 / spec.alpha
        np.negative(u, out=u, where=rng.random(n) >= spec.upper_share)
        return require_finite(u, _OVERFLOW)
    if isinstance(spec, StudentT):
        z = rng.standard_normal(n)
        g = rng.chisquare(spec.df, n)
        g /= spec.df
        np.sqrt(g, out=g)
        z /= g
        return require_finite(z, _OVERFLOW)
    raise ParameterError(f"unknown noise spec {spec!r}")


def default_burnin(c: float) -> int:
    """Burn-in long enough to wash out geometric memory: max(1000, 50/(1-|c|))."""
    if not abs(c) < 1.0:  # nan too
        raise ParameterError("memory coefficient must satisfy |c| < 1")
    return max(1000, math.ceil(50.0 / (1.0 - abs(c))))


@dataclass(frozen=True)
class Arma11Spec:
    """ARMA(1,1): X_t = phi*X_{t-1} + Z_t + theta*Z_{t-1}, 0 < |phi| < 1."""

    phi: float
    theta: float
    noise: NoiseSpec

    def __post_init__(self):
        _check_arma11(self.phi, self.theta)


def _lane_length(a: float) -> int:
    """Values per lane of ``_first_order_filter`` for the coefficient ``a``.

    Two paths of the recursion started from different states differ by a
    factor |a| a step, so they agree to 2**-53 = e**-36.7 after about
    37 / -ln|a| steps; a lane is 12 times that, and at least 2048 values.
    """
    meet = 37.0 / -math.log(abs(a)) if a else 0.0
    return max(2048, math.ceil(12.0 * meet))


def _first_order_filter(x: np.ndarray, b1: float, a: float) -> np.ndarray:
    """y_t = x_t + b1 * x_{t-1} + a * y_{t-1}, started at rest.

    The operations and their order are those of
    ``scipy.signal.lfilter([1, b1], [1, -a], x)`` (transposed direct form
    II: y = s + x, then s = x*b1 - y*(-a)), so the output is the same bit
    for bit, signed zeros, inf and nan included.

    The input is cut into lanes of ``_lane_length(a)`` consecutive values,
    and all lanes run those operations in lockstep from rest, one position
    at a time on numpy vectors.  Lane 0 starts at the true rest state, so
    it is exact.  Since s is a function of x_t and y_t, a lane is exact
    from the first value that equals the true one bit for bit; each later
    lane is rerun as a scalar loop on Python floats (IEEE doubles rounded
    exactly as in C) from the exact end of the one before, ``_TILE`` values
    at a time, until the last value of a tile meets the lane's.  A lane
    that never meets is rerun whole, so the result never rests on
    convergence.  Too few lanes to pay for the lockstep, and the values
    after the last lane, take the scalar loop, ``_CHUNK`` values at a time
    to bound its memory.
    """
    out = np.empty(x.size)
    na = -a
    width = _lane_length(a)
    lanes = x.size // width
    if lanes < _MIN_LANES:
        lanes = 0
    else:
        span = lanes * width
        _lockstep(x[:span].reshape(lanes, width), out[:span].reshape(lanes, width), b1, na)
    for lo in range(width, lanes * width, width):
        _scalar(x, out, lo, lo + width, b1, na, meet=True)
    _scalar(x, out, lanes * width, x.size, b1, na, meet=False)
    return out


def _lockstep(x: np.ndarray, y: np.ndarray, b1: float, na: float) -> None:
    """The filter from rest along each row of x into y, all rows at once."""
    lanes, width = x.shape
    staging = np.empty((lanes, _TILE))  # a copy lane by lane reads x in order
    tile = np.empty((_TILE, lanes))  # the ufuncs run on contiguous positions
    tb1 = np.empty((_TILE, lanes))
    s = np.zeros(lanes)
    with np.errstate(over="ignore", invalid="ignore"):  # as the scalar loop, which never warns
        for lo in range(0, width, _TILE):
            k = min(_TILE, width - lo)
            np.copyto(staging[:, :k], x[:, lo : lo + k])
            np.copyto(tile[:k], staging[:, :k].T)
            np.multiply(staging[:, :k].T, b1, out=tb1[:k])
            for row, t in zip(tile[:k], tb1):
                np.add(s, row, out=row)  # the row now holds y
                np.multiply(row, na, out=s)
                np.subtract(t, s, out=s)
            y[:, lo : lo + k] = tile[:k].T


def _scalar(
    x: np.ndarray, y: np.ndarray, lo: int, hi: int, b1: float, na: float, meet: bool
) -> None:
    """The scalar loop into y[lo:hi], from the exact value y[lo - 1] (from rest if lo = 0).

    With ``meet``, y[lo:hi] holds a lockstep lane, and the loop stops after
    a tile whose last value equals the lane's: from there on the lane is exact.
    """
    s = float(x[lo - 1]) * b1 - float(y[lo - 1]) * na if lo else 0.0
    step = _TILE if meet else _CHUNK  # a repair mostly stops in its first few tiles
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        ys = []
        for xt in x[start:stop].tolist():
            y_t = s + xt
            ys.append(y_t)
            s = xt * b1 - y_t * na
        met = meet and y_t == y[stop - 1] and y_t != 0.0  # == does not tell +0 from -0
        y[start:stop] = ys
        if met:
            return


def simulate_arma11(spec: Arma11Spec, n: int, seed: int, burnin: int | None = None) -> np.ndarray:
    """Simulate the ARMA(1,1) recursion started at rest.

    The recursion runs from X_0 = 0, Z_0 = 0 and the first ``burnin``
    values are discarded (default: long enough for the geometric memory
    to die out).
    """
    burnin = default_burnin(spec.phi) if burnin is None else burnin
    z = sample_noise(spec.noise, _draw_length(n, burnin), seed)
    x = _first_order_filter(z, spec.theta, spec.phi)
    return require_finite(x[burnin:], _OVERFLOW)


@dataclass(frozen=True)
class SvSpec:
    """Stochastic volatility: X_t = exp(V_t) * Z_t.

    V_t is a stationary Gaussian AR(1) with coefficient ``logvol_ar``
    and innovation standard deviation ``logvol_sd``; with logvol_sd = 0
    the volatility is identically one and X coincides with the noise.
    """

    logvol_ar: float
    logvol_sd: float
    noise: NoiseSpec

    def __post_init__(self):
        if not abs(self.logvol_ar) < 1.0:
            raise ParameterError("log-volatility AR coefficient must satisfy |a| < 1")
        if self.logvol_sd < 0:
            raise ParameterError("log-volatility innovation sd must be nonnegative")
        require_finite(self.logvol_sd, "log-volatility innovation sd must be finite")


def simulate_sv(spec: SvSpec, n: int, seed: int, burnin: int | None = None) -> np.ndarray:
    """Simulate the stochastic volatility process.

    The noise stream uses ``seed`` directly (so with logvol_sd = 0 the
    output equals ``sample_noise(spec.noise, ...)`` exactly); the
    volatility stream uses a derived child seed.  V starts from its
    stationary distribution.
    """
    burnin = default_burnin(spec.logvol_ar) if burnin is None else burnin
    total = _draw_length(n, burnin)
    z = sample_noise(spec.noise, total, seed)
    vol_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    a = spec.logvol_ar
    v0 = spec.logvol_sd / math.sqrt(1.0 - a * a) * vol_rng.standard_normal()
    v = vol_rng.standard_normal(total)
    v *= spec.logvol_sd
    v = _first_order_filter(v, 0.0, a)
    if v0 != 0.0:  # the start's share v0 * a**t, built in one array
        w = np.arange(1.0, total + 1)
        np.power(a, w, out=w)
        w *= v0
        v += w
    np.exp(v, out=v)
    v *= z
    return require_finite(v[burnin:], _OVERFLOW)


@dataclass(frozen=True)
class MaxMaSpec:
    """Max-moving average: X_t is the max of psi_i * Z_{t-i} over i.

    ``psi`` is the finite coefficient list actually used.
    """

    psi: tuple
    noise: NoiseSpec

    def __post_init__(self):
        psi = tuple(float(c) for c in np.atleast_1d(np.asarray(self.psi, dtype=float)))
        if len(psi) == 0:
            raise ParameterError("coefficient list is empty")
        require_finite(psi, "max-moving-average coefficients must be finite")
        if all(c == 0.0 for c in psi):
            raise ParameterError("all max-moving-average coefficients are zero: degenerate process")
        object.__setattr__(self, "psi", psi)


def simulate_max_ma(spec: MaxMaSpec, n: int, seed: int) -> np.ndarray:
    """Simulate X_t = max over i of psi_i * Z_{t-i}.

    The noise buffer is extended on the left by len(psi) - 1 values so
    that every output uses a full coefficient window.
    """
    psi = np.asarray(spec.psi, dtype=float)
    s = psi.size - 1
    z = sample_noise(spec.noise, _draw_length(n, s), seed)
    x = np.full(n, -np.inf)
    for i, c in enumerate(psi):
        np.maximum(x, c * z[s - i : s - i + n], out=x)
    return require_finite(x, _OVERFLOW)
