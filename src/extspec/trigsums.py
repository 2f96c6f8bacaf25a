"""Closed-form evaluation of finite trigonometric sums.

Each function returns, in O(1) arithmetic, the exact value of a finite
(or geometrically damped infinite) sum of sines and cosines.  These
kernels back the closed-form spectral density of the ARMA(1,1) tail
model and are tested head-to-head against direct summation.

Conventions
-----------
* Empty sums return 0.0 so that callers can compose ranges without
  case splits.
* Frequencies whose denominator sine falls below ``SIN_EPS`` raise
  :class:`SingularFrequencyError` rather than silently losing accuracy;
  callers that need those frequencies should sum directly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError, two_product

SIN_EPS = 1e-8

CROSS_LAG_KINDS = ("cs_same", "cs_cross", "cc", "ss")


class SingularFrequencyError(ValueError):
    """A denominator sine is numerically zero at the requested frequency."""


def _checked_sin(x, what: str):
    s = np.sin(x)
    if np.any(np.abs(s) < SIN_EPS):
        raise SingularFrequencyError(f"{what} is numerically singular: |sin| {np.abs(s).min():.3e}")
    return s


def _trig(flavor: str):
    """np.cos or np.sin for a flavor name; any other name is a ParameterError."""
    if flavor not in ("cos", "sin"):
        raise ParameterError(f"unknown flavor {flavor!r}")
    return np.cos if flavor == "cos" else np.sin


def _arith_sum(n: int, x, step, trig):
    """Sum of trig(x + k*step) for k = 0, ..., n-1; x and step may be arrays."""
    if n < 0:
        raise ParameterError("number of terms must be nonnegative")
    if n == 0:
        return 0.0
    s = _checked_sin(step / 2.0, "step/2")
    return trig(x + (n - 1) * step / 2.0) * np.sin(n * step / 2.0) / s


def cos_arith_sum(n: int, x, step):
    """Sum of cos(x + k*step) for k = 0, ..., n-1; x and step may be arrays."""
    return _arith_sum(n, x, step, np.cos)


def sin_arith_sum(n: int, x, step):
    """Sum of sin(x + k*step) for k = 0, ..., n-1; x and step may be arrays."""
    return _arith_sum(n, x, step, np.sin)


def k_weighted_trig_sum(n: int, lam: float, flavor: str = "cos") -> float:
    """Sum of k*cos(k*lam) (or k*sin(k*lam)) for k = 1, ..., n-1."""
    trig = _trig(flavor)
    if n < 1:
        raise ParameterError("need n >= 1")
    if n == 1:
        return 0.0
    s = _checked_sin(lam / 2.0, "lam/2")
    # The value grows like n / sin(lam/2) and the angles n*lam and (2n - 1)*lam/2
    # like n, so rounding them would cost ~n*eps absolute accuracy.  Each angle is
    # taken exactly as hi + lo, and trig(hi + lo) = trig(hi) +- lo trig'(hi) + O(lo^2).
    hi, lo = two_product(np.array([n, 2 * n - 1], dtype=float), np.array([lam, lam / 2.0]))
    (cos_n, cos_h), (sin_n, sin_h) = np.cos(hi) - lo * np.sin(hi), np.sin(hi) + lo * np.cos(hi)
    if trig is np.cos:
        return float(n * sin_h / (2 * s) - (1 - cos_n) / (4 * s * s))
    return float(sin_n / (4 * s * s) - n * cos_h / (2 * s))


def geometric_trig_sum(n: int | None, p: float, lam, flavor: str = "cos"):
    """Geometrically damped trigonometric sum.

    For finite ``n`` returns sum of p^k*cos(k*lam) over k = 0, ..., n-1
    (cos flavor) or p^k*sin(k*lam) over k = 1, ..., n-1 (sin flavor).
    ``n=None`` evaluates the infinite series, which requires |p| < 1.
    ``lam`` may be an array.
    """
    trig = _trig(flavor)
    if n is None:
        if abs(p) >= 1.0:
            raise ParameterError("infinite geometric trig sum requires |p| < 1")
    elif n < 0:
        raise ParameterError("number of terms must be nonnegative")
    elif n == 0:
        return 0.0
    denom = 1.0 - 2.0 * p * np.cos(lam) + p * p
    if np.any(denom < 1e-14):
        raise SingularFrequencyError(
            f"geometric denominator 1 - 2p cos(lam) + p^2 = {np.min(denom):.3e} is singular"
        )
    # sum over k >= 0 of p^k e^(ik lam) = (1 - p e^(-i lam)) / denom
    num = 1.0 - p * np.cos(lam) if trig is np.cos else p * np.sin(lam)
    if n is not None:
        # less the terms k >= n: p^n e^(in lam) (1 - p e^(-i lam)) / denom
        num = num - p**n * trig(n * lam) + p ** (n + 1) * trig((n - 1) * lam)
    return num / denom


# product-to-sum signs of the (lam+omega, lam-omega) sums of each mixed kind
_MIXED_KINDS = {"cs_cross": (np.sin, 1.0, -1.0), "cc": (np.cos, 1.0, 1.0), "ss": (np.cos, -1.0, 1.0)}


def cross_lag_sum(n: int, h: int, lam: float, omega: float, kind: str) -> float:
    """Symmetric lagged cross-sum of two sinusoids.

    Evaluates, for s = 1, ..., n-h,

    * ``cs_same``:  sum of cos(lam*s) sin(lam*(s+h)) + cos(lam*(s+h)) sin(lam*s)
      (``omega`` is ignored; the two frequencies coincide),
    * ``cs_cross``: sum of cos(lam*s) sin(omega*(s+h)) + cos(lam*(s+h)) sin(omega*s),
    * ``cc``:       sum of cos(lam*s) cos(omega*(s+h)) + cos(lam*(s+h)) cos(omega*s),
    * ``ss``:       sum of sin(lam*s) sin(omega*(s+h)) + sin(lam*(s+h)) sin(omega*s).

    The mixed kinds are singular when lam = omega (use ``cs_same`` or sum
    directly) and when lam + omega is a multiple of 2*pi.
    """
    if not 1 <= h <= n:
        raise ParameterError("need 1 <= h <= n")
    if kind not in CROSS_LAG_KINDS:
        raise ParameterError(f"unknown kind {kind!r}")
    m = n - h
    if kind == "cs_same":  # each term is sin(lam*(2s+h))
        return _arith_sum(m, lam * (h + 2), 2 * lam, np.sin)
    # each product is half a sum and difference at lam+omega and lam-omega,
    # shifted by omega*h in one product and by lam*h in the other
    trig, sign_p, sign_m = _MIXED_KINDS[kind]
    total = 0.0
    for freq, sign, shift in ((lam + omega, sign_p, omega * h), (lam - omega, sign_m, -omega * h)):
        for x in (freq + shift, freq + lam * h):
            total += sign * _arith_sum(m, x, freq, trig)
    return 0.5 * total


def tail_weighted_trig_sum(n: int, r: int, lam: float, x: float, flavor: str = "cos") -> float:
    """Sum of (n-h)*cos(lam*h + x) (or sine flavor) for h = r+1, ..., n-1.

    Composed from the arithmetic and k-weighted closed forms, so the
    whole evaluation stays O(1).  The result is O(n / sin^2(lam/2))
    uniformly in r and x.
    """
    trig = _trig(flavor)
    if not 0 <= r <= n - 1:
        raise ParameterError("need 0 <= r <= n-1")
    if r == n - 1:
        return 0.0
    plain = _arith_sum(n - 1 - r, x + (r + 1) * lam, lam, trig)
    # h-weighted part, via prefix sums of k cos(k lam) and k sin(k lam) and
    # trig(lam*h + x) = trig(x) cos(lam*h) + trig(x + pi/2) sin(lam*h)
    kc = k_weighted_trig_sum(n, lam, "cos") - k_weighted_trig_sum(r + 1, lam, "cos")
    ks = k_weighted_trig_sum(n, lam, "sin") - k_weighted_trig_sum(r + 1, lam, "sin")
    return n * plain - (trig(x) * kc + trig(x + math.pi / 2) * ks)
