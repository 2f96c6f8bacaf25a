"""Closed-form theoretical tail dependence and spectral densities.

Two independent routes to the same quantities are provided and tested
against each other:

* a brute-force route: the tail-weighted minimum formula for the serial
  tail dependence of a linear (or max-moving-average) filter, summed to
  negligible truncation error, followed by a truncated cosine series for
  the spectral density;
* exact closed forms for the ARMA(1,1) filter: rho(h) is a short list of
  geometric segments in the lag, one list per sign case of (phi, phi+theta),
  and the spectral density sums them with the trigonometric kernels.

The filter coefficients determine both routes: a linear process and a
max-moving average with the same coefficients and noise share the same
tail dependence, hence the same spectral density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DegenerateDataError, FrequencyGrid, ParameterError, require_bytes, require_finite
from .estimators import Extremogram, cosine_series
from .trigsums import arith_trig_sum, geometric_trig_sum


class UnsupportedCaseError(ParameterError):
    """The parameter combination has no closed form here."""


@dataclass(frozen=True)
class TailIndexSpec:
    """Tail index alpha plus the upper/lower balance of the noise tails."""

    alpha: float
    upper_share: float = 0.5

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError("tail index alpha must be positive")
        require_finite(self.alpha, "tail index alpha must be finite")
        if not 0.0 <= self.upper_share <= 1.0:
            raise ParameterError("upper tail share must lie in [0, 1]")

    @property
    def lower_share(self) -> float:
        return 1.0 - self.upper_share


@dataclass(frozen=True)
class LinearFilter:
    """Filter coefficients, either complete or with a geometric tail.

    ``coeffs`` holds the leading coefficients; if ``tail_ratio`` is not
    None, the sequence continues past the last stored coefficient with
    that constant ratio per step.
    """

    coeffs: np.ndarray
    tail_ratio: float | None = None

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.size == 0:
            raise ParameterError("filter needs at least one coefficient")
        if self.tail_ratio is not None and not abs(self.tail_ratio) < 1.0:
            raise ParameterError("geometric tail ratio must satisfy |ratio| < 1")

    def materialize(self, tail: TailIndexSpec, rel_eps: float = 1e-12) -> np.ndarray:
        """Explicit coefficients whose ignored tail has relative alpha-mass < rel_eps.

        The alpha-mass of a coefficient c is at most |c|**alpha; for a
        geometric tail the ignored mass is bounded by a geometric series,
        which fixes how far the expansion must go.
        """
        extra = self._tail_terms(tail, rel_eps)
        if extra == 0:
            return self.coeffs.copy()
        ext = self.coeffs[-1] * self.tail_ratio ** np.arange(1, extra + 1)
        return np.concatenate([self.coeffs, ext])

    def _tail_terms(self, tail: TailIndexSpec, rel_eps: float = 1e-12) -> int:
        """How many geometric-tail coefficients ``materialize`` appends."""
        if not rel_eps > 0:
            raise ParameterError("relative tolerance must be positive")
        require_finite(rel_eps, "relative tolerance must be finite")
        ratio = self.tail_ratio
        if ratio is None or self.coeffs[-1] == 0.0 or ratio == 0.0:
            return 0
        total = float(np.sum(np.abs(self.coeffs) ** tail.alpha))
        if total <= 0:
            raise DegenerateDataError("filter has zero tail mass")
        rr = abs(ratio) ** tail.alpha
        if rr == 1.0:
            raise ParameterError(
                f"|ratio|**alpha rounds to 1 for ratio={ratio!r}, alpha={tail.alpha!r}"
            )
        # smallest L with |c_last|^alpha * rr^... geometric bound below rel_eps*total
        head = abs(self.coeffs[-1]) ** tail.alpha * rr / (1.0 - rr)
        if head <= rel_eps * total:
            return 0
        extra = math.ceil(math.log(rel_eps * total / head) / math.log(rr)) + 2
        require_bytes(extra, f"{extra} filter coefficients")
        return extra


def _check_arma11(phi: float, theta: float = 0.0) -> None:
    """Reject an ARMA(1,1) without a stationary causal solution or with a non-finite theta."""
    if not 0.0 < abs(phi) < 1.0:
        raise ParameterError("need 0 < |phi| < 1 for a stationary causal filter")
    require_finite(theta, "need a finite theta")


def arma11_filter(phi: float, theta: float) -> LinearFilter:
    """Causal ARMA(1,1) filter: psi_0 = 1, psi_j = phi**(j-1) * (phi+theta).

    Stores psi_0..psi_64 explicitly; the analytic geometric tail ratio
    phi lets consumers extend the list to any accuracy.
    """
    _check_arma11(phi, theta)
    j = np.arange(1, 65)
    coeffs = np.concatenate([[1.0], (phi + theta) * phi ** (j - 1.0)])
    return LinearFilter(coeffs=coeffs, tail_ratio=phi)


def extremogram_linear(filt: LinearFilter, tail: TailIndexSpec, max_lag: int) -> Extremogram:
    """Serial tail dependence of a linear filter for the upper tail set (1, inf).

    rho(h) is the ratio of the tail-balanced alpha-mass of coefficient
    pair minima min(psi_i, psi_{i+h}) (positive and negative parts taken
    separately) to the alpha-mass of the coefficients themselves.  The
    same formula is the oracle for max-moving averages with the same
    coefficients and noise.
    """
    if max_lag < 0:
        raise ParameterError("need max_lag >= 0")
    require_bytes(max_lag + 1, f"{max_lag + 1} lags")
    alpha, p, q = tail.alpha, tail.upper_share, tail.lower_share
    # signed alpha-masses sign(c) |c|**alpha; the materialized tail c_last * ratio**k
    # underflows to 0 while its masses still count, so they come from |ratio|**alpha
    head = filt.coeffs
    last, step = (np.sign(c) * abs(c) ** alpha for c in (head[-1], filt.tail_ratio or 0.0))
    k = np.arange(1, filt._tail_terms(tail) + 1)
    signed = np.concatenate([np.sign(head) * np.abs(head) ** alpha, last * step**k])
    pos, neg = np.maximum(signed, 0.0), np.maximum(-signed, 0.0)
    denom = p * pos.sum() + q * neg.sum()
    if denom <= 0:
        raise DegenerateDataError("filter carries no tail mass for this balance")
    pos_pad = np.concatenate([pos, np.zeros(max_lag)])
    neg_pad = np.concatenate([neg, np.zeros(max_lag)])
    m = signed.size
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for h in range(1, max_lag + 1):
        num = p * np.minimum(pos_pad[:m], pos_pad[h : m + h]).sum()
        num += q * np.minimum(neg_pad[:m], neg_pad[h : m + h]).sum()
        rho[h] = num / denom
    return Extremogram(rho=rho, n_events=0)


@dataclass(frozen=True)
class SpectralDensityOracle:
    """Closed-form or series-based spectral density on (0, pi)."""

    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str

    def evaluate(self, freqs) -> np.ndarray:
        """The density at a frequency grid, checked as :class:`FrequencyGrid` checks it."""
        return np.asarray(self.fn(FrequencyGrid.from_frequencies(freqs).freqs), dtype=float)


def spectral_from_extremogram(rho) -> SpectralDensityOracle:
    """Spectral density as the truncated cosine series of a tail dependence sequence.

    f(lam) = 1 + 2 * sum_{h=1..H} rho(h) cos(h*lam), the even extension
    of rho; the caller guarantees the ignored tail is negligible.
    """
    values = rho.rho if isinstance(rho, Extremogram) else np.asarray(rho, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError("need rho values for lags 0..H")
    if abs(values[0] - 1.0) > 1e-9:
        raise ParameterError("lag-0 tail dependence must be 1")
    return SpectralDensityOracle(
        lambda lam: cosine_series(lam, 1.0, values[1:]), f"series_truncation({values.size - 1})"
    )


# ---------------------------------------------------------------------------
# ARMA(1,1) closed forms
#
# For h >= 1, rho(h) is a sum of geometric segments (start, count, step,
# coef, ratio): each adds coef * ratio**k to rho(start + step*k) for
# k = 0..count-1, or for all k >= 0 when count is None.  The sign case of
# (phi, phi+theta) fixes the nonempty segments; every closed form reads them.


def _arma11_case(phi: float, total: float, tail: TailIndexSpec) -> str:
    """Sign case of (phi, phi+theta); pos_neg needs lower-tail noise, the others upper."""
    case = ("pos" if phi > 0 else "neg") + ("_pos" if total > 0 else "_neg")
    side, share = ("lower", "q") if case == "pos_neg" else ("upper", "p")
    if (tail.lower_share if side == "lower" else tail.upper_share) == 0:
        signs = f"phi {'>' if phi > 0 else '<'} 0, phi+theta {'>' if total > 0 else '<'} 0"
        raise UnsupportedCaseError(f"{signs} requires {side} tail mass {share} > 0")
    return case


def _first_index_below_one(step: float, start: float) -> int:
    """min k >= 0 with start * step**k < 1 (0 <= step < 1, start > 0)."""
    if start < 1.0:
        return 0
    if step == 0.0:  # step**k underflowed: start * 0**1 < 1
        return 1
    # log-based guess, then settle the strict float inequality exactly
    k = max(0, int(math.log(start) / -math.log(step)) - 2)
    while start * step**k >= 1.0:
        k += 1
    return k


def _arma11_segments(phi: float, theta: float, tail: TailIndexSpec) -> tuple[str, list[tuple]]:
    """Sign case and segments of the ARMA(1,1) tail dependence.

    A plateau (ratio 1) lasts while the pair minima still involve psi_0 = 1;
    negative phi alternates the filter signs, so those cases step by two lags.
    """
    _check_arma11(phi, theta)
    total = phi + theta
    if total == 0.0:
        return "independent", []
    alpha, p, q = tail.alpha, tail.upper_share, tail.lower_share
    case = _arma11_case(phi, total, tail)
    aphi = abs(phi)
    try:
        sa = abs(total) ** alpha
    except OverflowError:
        raise ParameterError(f"|phi+theta|**alpha overflows for theta={theta!r}") from None
    fa = aphi**alpha
    if fa in (0.0, 1.0):  # 1: rho never decays; 0: the segments divide by fa or take its log
        raise ParameterError(f"|phi|**alpha rounds to {fa:g} for phi={phi!r}, alpha={alpha!r}")
    f2 = aphi ** (2.0 * alpha)

    if case == "pos_pos":
        denom = 1.0 - fa + sa
        h0 = _first_index_below_one(fa, sa)
        segments = [
            (1, h0, 1, (1.0 - fa) / denom, 1.0),
            (1, h0, 1, fa * sa / denom, fa),
            (h0 + 1, None, 1, fa**h0 * sa / denom, fa),
        ]
    elif case == "pos_neg":
        denom = p * (1.0 - fa) + q * sa
        if denom == 0.0:  # p = 0 and |phi+theta|**alpha underflows
            raise ParameterError(f"|phi+theta|**alpha underflows for theta={theta!r}")
        segments = [(1, None, 1, fa * q * sa / denom, fa)]
    elif case == "neg_pos":
        denom = p * (1.0 - f2 + sa) + q * fa * sa
        k1 = _first_index_below_one(aphi**2, total)
        segments = [
            (1, k1, 2, p * (1.0 - f2) / denom, 1.0),
            (2 * k1 + 1, None, 2, f2**k1 * p * sa * (1.0 - f2) / denom, f2),
            (2, None, 2, f2 * (p * sa + q * fa * sa) / denom, f2),
        ]
    else:  # neg_neg: odd lags vanish
        denom = p * (1.0 - f2) + p * fa * sa + q * sa
        k2 = _first_index_below_one(aphi**2, aphi * abs(total))
        segments = [
            (2, k2, 2, p * (1.0 - f2) / denom, 1.0),
            (2, k2, 2, f2 * (p * fa * sa + q * sa) / denom, f2),
            (2 * k2 + 2, None, 2, f2 ** (k2 + 1) * (p * sa / fa + q * sa) / denom, f2),
        ]
    # an underflowed power times an overflowed one leaves nan
    require_finite(
        [coef for _, _, _, coef, _ in segments],
        f"the closed form overflows for phi={phi!r}, theta={theta!r}, alpha={alpha!r}",
    )
    return case, [seg for seg in segments if seg[1] != 0]


def arma11_extremogram_curve(
    phi: float, theta: float, tail: TailIndexSpec, max_lag: int
) -> Extremogram:
    """Closed-form tail dependence at lags 0..max_lag."""
    if max_lag < 0:
        raise ParameterError("lag must be nonnegative")
    require_bytes(max_lag + 1, f"{max_lag + 1} lags")
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    _, segments = _arma11_segments(phi, theta, tail)
    for start, count, step, coef, ratio in segments:
        stop = max_lag + 1 if count is None else min(max_lag + 1, start + step * count)
        lags = np.arange(start, stop, step)
        rho[lags] += coef * ratio ** ((lags - start) // step)
    return Extremogram(rho=rho, n_events=0)


def _segment_sum(freqs, start, count, step, ratio):
    """sum_k ratio**k cos((start + k*step)*lam) at each lam; its arrays die on return."""
    if ratio == 1.0:
        return arith_trig_sum(count, start * freqs, step * freqs)[0]
    g_cos, g_sin = geometric_trig_sum(count, ratio, step * freqs)
    return np.cos(start * freqs) * g_cos - np.sin(start * freqs) * g_sin


def arma11_spectral_oracle(phi: float, theta: float, tail: TailIndexSpec) -> SpectralDensityOracle:
    """Closed-form spectral density f = 1 + 2 sum_h rho(h) cos(h lam)."""
    case, segments = _arma11_segments(phi, theta, tail)

    def fn(freqs: np.ndarray) -> np.ndarray:
        density = np.ones(freqs.shape)
        for start, count, step, coef, ratio in segments:
            density += 2.0 * coef * _segment_sum(freqs, start, count, step, ratio)
        return density

    return SpectralDensityOracle(fn=fn, provenance=f"arma11_closed({case})")


def series_lag_for_accuracy(phi: float, alpha: float, eps: float = 1e-12) -> int:
    """Smallest H with |phi|**(alpha*H) < eps: truncation depth for the series route."""
    _check_arma11(phi)
    TailIndexSpec(alpha)  # alpha positive and finite
    if not (0 < eps < 1):
        raise ParameterError("eps must lie in (0, 1)")
    rate = alpha * math.log(abs(phi))  # negative, or 0.0 where it underflows
    depth = math.log(eps) / rate if rate else math.inf
    if not math.isfinite(depth):
        raise ParameterError(f"series truncation depth is infinite at phi={phi!r}, alpha={alpha!r}")
    return max(1, math.ceil(depth))
