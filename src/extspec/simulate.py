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
import numpy.random  # noqa: F401  numpy 2 loads it on first use; load it with the package

from .core import ParameterError, require_bytes, require_finite
from .oracles import TailIndexSpec

_OVERFLOW = "the model parameters overflow the floating-point range"
_CHUNK = 2**16  # values per pass of the filter loop


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
        if not self.alpha > 0:
            raise ParameterError("tail index alpha must be positive")
        require_finite(self.alpha, "tail index alpha must be finite")
        if not 0.0 <= self.upper_share <= 1.0:
            raise ParameterError("upper tail share must lie in [0, 1]")

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


def sample_noise(spec: NoiseSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. noise values.

    Student t variates are built as a standard normal over the root of a
    scaled chi-square, both from the seeded generator.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    require_bytes(n, f"{n} noise values")
    rng = np.random.default_rng(seed)
    if isinstance(spec, ParetoBalanced):
        u = 1.0 - rng.random(n)  # uniform on (0, 1]; keeps U**(-1/alpha) finite
        mag = u ** (-1.0 / spec.alpha)
        sign = np.where(rng.random(n) < spec.upper_share, 1.0, -1.0)
        return require_finite(sign * mag, _OVERFLOW)
    if isinstance(spec, StudentT):
        z = rng.standard_normal(n)
        g = rng.chisquare(spec.df, n)
        return require_finite(z / np.sqrt(g / spec.df), _OVERFLOW)
    raise ParameterError(f"unknown noise spec {spec!r}")


def default_burnin(*coefs: float) -> int:
    """Burn-in long enough to wash out geometric memory: max(1000, 50/(1-|c|))."""
    worst = max((abs(c) for c in coefs), default=0.0)
    if worst >= 1.0:
        raise ParameterError("memory coefficient must satisfy |c| < 1")
    return max(1000, math.ceil(50.0 / (1.0 - worst)))


@dataclass(frozen=True)
class Arma11Spec:
    """ARMA(1,1): X_t = phi*X_{t-1} + Z_t + theta*Z_{t-1}, 0 < |phi| < 1."""

    phi: float
    theta: float
    noise: NoiseSpec

    def __post_init__(self):
        if not 0.0 < abs(self.phi) < 1.0:
            raise ParameterError(
                "autoregressive coefficient must satisfy 0 < |phi| < 1 "
                "(no stationary causal solution otherwise)"
            )
        require_finite(self.theta, "moving-average coefficient theta must be finite")


def _first_order_filter(x: np.ndarray, b1: float, a: float) -> np.ndarray:
    """y_t = x_t + b1 * x_{t-1} + a * y_{t-1}, started at rest.

    The operations and their order are those of
    ``scipy.signal.lfilter([1, b1], [1, -a], x)`` (transposed direct form
    II: y = s + x, then s = x*b1 - y*(-a)), so the output is the same bit
    for bit, signed zeros included.  The loop runs on Python floats,
    which are IEEE doubles rounded exactly as in C, ``_CHUNK`` at a time
    to bound their memory.
    """
    out = np.empty(x.size)
    na = -a
    s = 0.0
    for start in range(0, x.size, _CHUNK):
        ys = []
        for xt in x[start : start + _CHUNK].tolist():
            y = s + xt
            ys.append(y)
            s = xt * b1 - y * na
        out[start : start + len(ys)] = ys
    return out


def simulate_arma11(spec: Arma11Spec, n: int, seed: int, burnin: int | None = None) -> np.ndarray:
    """Simulate the ARMA(1,1) recursion started at rest.

    The recursion runs from X_0 = 0, Z_0 = 0 and the first ``burnin``
    values are discarded (default: long enough for the geometric memory
    to die out).
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if burnin is None:
        burnin = default_burnin(spec.phi)
    if burnin < 0:
        raise ParameterError("burn-in must be nonnegative")
    z = sample_noise(spec.noise, n + burnin, seed)
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
    if n < 1:
        raise ParameterError("need n >= 1")
    if burnin is None:
        burnin = default_burnin(spec.logvol_ar)
    if burnin < 0:
        raise ParameterError("burn-in must be nonnegative")
    total = n + burnin
    z = sample_noise(spec.noise, total, seed)
    vol_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    a = spec.logvol_ar
    v0 = spec.logvol_sd / math.sqrt(1.0 - a * a) * vol_rng.standard_normal()
    eps = spec.logvol_sd * vol_rng.standard_normal(total)
    v = _first_order_filter(eps, 0.0, a)
    if v0 != 0.0:
        v = v + v0 * a ** np.arange(1, total + 1)
    return require_finite((np.exp(v) * z)[burnin:], _OVERFLOW)


@dataclass(frozen=True)
class MaxMaSpec:
    """Max-moving average: X_t is the max of psi_i * Z_{t-i} over i.

    ``psi`` is the finite coefficient list actually used; when it comes
    from truncating an infinite filter, ``truncation_eps`` records the
    relative tail-mass criterion the truncation satisfied.
    """

    psi: tuple
    noise: NoiseSpec
    truncation_eps: float = 1e-6

    def __post_init__(self):
        psi = tuple(float(c) for c in np.atleast_1d(np.asarray(self.psi, dtype=float)))
        if len(psi) == 0:
            raise ParameterError("coefficient list is empty")
        require_finite(psi, "max-moving-average coefficients must be finite")
        if all(c == 0.0 for c in psi):
            raise ParameterError("all max-moving-average coefficients are zero: degenerate process")
        if not self.truncation_eps > 0:
            raise ParameterError("truncation tolerance must be positive")
        require_finite(self.truncation_eps, "truncation tolerance must be finite")
        object.__setattr__(self, "psi", psi)


def simulate_max_ma(spec: MaxMaSpec, n: int, seed: int) -> np.ndarray:
    """Simulate X_t = max over i of psi_i * Z_{t-i}.

    The noise buffer is extended on the left by len(psi) - 1 values so
    that every output uses a full coefficient window.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    psi = np.asarray(spec.psi, dtype=float)
    s = psi.size - 1
    z = sample_noise(spec.noise, n + s, seed)
    x = np.full(n, -np.inf)
    for i, c in enumerate(psi):
        np.maximum(x, c * z[s - i : s - i + n], out=x)
    return require_finite(x, _OVERFLOW)
