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

from .core import ParameterError

SIN_EPS = 1e-8

CROSS_LAG_KINDS = ("cs_same", "cs_cross", "cc", "ss")


class SingularFrequencyError(ValueError):
    """A denominator sine is numerically zero at the requested frequency."""


def _checked_sin(x, what: str):
    s = np.sin(x)
    if np.any(np.abs(s) < SIN_EPS):
        raise SingularFrequencyError(f"{what} is numerically singular: |sin| {np.abs(s).min():.3e}")
    return s


def cos_arith_sum(n: int, x, step):
    """Sum of cos(x + k*step) for k = 0, ..., n-1; x and step may be arrays."""
    if n < 0:
        raise ParameterError("number of terms must be nonnegative")
    if n == 0:
        return 0.0
    s = _checked_sin(step / 2.0, "step/2")
    return np.cos(x + (n - 1) * step / 2.0) * np.sin(n * step / 2.0) / s


def sin_arith_sum(n: int, x: float, step: float) -> float:
    """Sum of sin(x + k*step) for k = 0, ..., n-1."""
    if n < 0:
        raise ParameterError("number of terms must be nonnegative")
    if n == 0:
        return 0.0
    s = _checked_sin(step / 2.0, "step/2")
    return math.sin(x + (n - 1) * step / 2.0) * math.sin(n * step / 2.0) / s


def k_weighted_trig_sum(n: int, lam: float, flavor: str = "cos") -> float:
    """Sum of k*cos(k*lam) (or k*sin(k*lam)) for k = 1, ..., n-1."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if flavor not in ("cos", "sin"):
        raise ParameterError(f"unknown flavor {flavor!r}")
    if n == 1:
        return 0.0
    _checked_sin(lam / 2.0, "lam/2")
    # The value grows like n / sin(lam/2) and the trig arguments like
    # n*lam, so plain double evaluation loses ~n*eps absolute accuracy.
    # Extended precision keeps the error near 1e-9 up to n ~ 1e5.
    lam_e = np.longdouble(lam)
    s = np.sin(lam_e / 2)
    if flavor == "cos":
        val = n * np.sin((2 * n - 1) * lam_e / 2) / (2 * s) - (
            1 - np.cos(n * lam_e)
        ) / (4 * s * s)
    else:
        val = np.sin(n * lam_e) / (4 * s * s) - n * np.cos(
            (2 * n - 1) * lam_e / 2
        ) / (2 * s)
    return float(val)


def geometric_trig_sum(n: int | None, p: float, lam, flavor: str = "cos"):
    """Geometrically damped trigonometric sum.

    For finite ``n`` returns sum of p^k*cos(k*lam) over k = 0, ..., n-1
    (cos flavor) or p^k*sin(k*lam) over k = 1, ..., n-1 (sin flavor).
    ``n=None`` evaluates the infinite series, which requires |p| < 1.
    ``lam`` may be an array.
    """
    if n is None:
        if abs(p) >= 1.0:
            raise ParameterError("infinite geometric trig sum requires |p| < 1")
    else:
        if n < 0:
            raise ParameterError("number of terms must be nonnegative")
        if n == 0:
            return 0.0
    denom = 1.0 - 2.0 * p * np.cos(lam) + p * p
    if np.any(denom < 1e-14):
        raise SingularFrequencyError(
            f"geometric denominator 1 - 2p cos(lam) + p^2 = {np.min(denom):.3e} is singular"
        )
    if flavor == "cos":
        if n is None:
            num = 1.0 - p * np.cos(lam)
        else:
            num = (
                1.0
                - p * np.cos(lam)
                - p**n * np.cos(n * lam)
                + p ** (n + 1) * np.cos((n - 1) * lam)
            )
    elif flavor == "sin":
        if n is None:
            num = p * np.sin(lam)
        else:
            num = (
                p * np.sin(lam)
                - p**n * np.sin(n * lam)
                + p ** (n + 1) * np.sin((n - 1) * lam)
            )
    else:
        raise ParameterError(f"unknown flavor {flavor!r}")
    return num / denom


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
    if h == n:
        return 0.0

    if kind == "cs_same":
        s = _checked_sin(lam, "lam")
        return math.sin(lam * n) * math.sin(lam * (n - h + 1)) / s - math.sin(lam * h)

    sp = _checked_sin((lam + omega) / 2.0, "(lam+omega)/2")
    sm = _checked_sin((lam - omega) / 2.0, "(lam-omega)/2")
    rp = math.sin((n - h + 1) * (lam + omega) / 2.0) / sp
    rm = math.sin((n - h + 1) * (lam - omega) / 2.0) / sm
    ap = (n - h) * (lam + omega) / 2.0
    am = (n - h) * (lam - omega) / 2.0

    if kind == "cs_cross":
        return (
            -math.sin(omega * h)
            + 0.5 * rp * (math.sin(omega * h + ap) + math.sin(lam * h + ap))
            - 0.5 * rm * (math.sin(-omega * h + am) + math.sin(lam * h + am))
        )
    if kind == "cc":
        return (
            -math.cos(omega * h)
            - math.cos(lam * h)
            + 0.5 * rp * (math.cos(omega * h + ap) + math.cos(lam * h + ap))
            + 0.5 * rm * (math.cos(-omega * h + am) + math.cos(lam * h + am))
        )
    # kind == "ss"
    return 0.5 * rm * (
        math.cos(-omega * h + am) + math.cos(lam * h + am)
    ) - 0.5 * rp * (math.cos(omega * h + ap) + math.cos(lam * h + ap))


def tail_weighted_trig_sum(n: int, r: int, lam: float, x: float, flavor: str = "cos") -> float:
    """Sum of (n-h)*cos(lam*h + x) (or sine flavor) for h = r+1, ..., n-1.

    Composed from the arithmetic and k-weighted closed forms, so the
    whole evaluation stays O(1).  The result is O(n / sin^2(lam/2))
    uniformly in r and x.
    """
    if not 0 <= r <= n - 1:
        raise ParameterError("need 0 <= r <= n-1")
    if flavor not in ("cos", "sin"):
        raise ParameterError(f"unknown flavor {flavor!r}")
    if r == n - 1:
        return 0.0
    count = n - 1 - r
    # plain part: sum over h = r+1 .. n-1 of cos/sin(lam*h + x)
    if flavor == "cos":
        plain = cos_arith_sum(count, x + (r + 1) * lam, lam)
    else:
        plain = sin_arith_sum(count, x + (r + 1) * lam, lam)
    # h-weighted part, via prefix sums of k cos(k lam) and k sin(k lam)
    kc = k_weighted_trig_sum(n, lam, "cos") - k_weighted_trig_sum(r + 1, lam, "cos")
    ks = k_weighted_trig_sum(n, lam, "sin") - k_weighted_trig_sum(r + 1, lam, "sin")
    if flavor == "cos":
        weighted = math.cos(x) * kc - math.sin(x) * ks
    else:
        weighted = math.sin(x) * kc + math.cos(x) * ks
    return n * plain - weighted
