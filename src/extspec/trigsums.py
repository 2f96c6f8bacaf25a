"""Closed-form evaluation of finite trigonometric sums.

Each function returns, in O(1) arithmetic, the exact value of a finite
(or geometrically damped infinite) sum of sines and cosines.  These
kernels back the closed-form spectral density of the ARMA(1,1) tail
model and are tested head-to-head against direct summation.

Conventions
-----------
* Each kernel but ``cross_lag_sum`` returns its cosine and sine sums
  together, as ``(cos_sum, sin_sum)``: the two share every factor.
* Empty sums are 0.0 so that callers can compose ranges without
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


def arith_trig_sum(n: int, x, step):
    """Sums of cos(x + k*step) and sin(x + k*step) for k = 0, ..., n-1; x and step may be arrays."""
    if n < 0:
        raise ParameterError("number of terms must be nonnegative")
    if n == 0:
        return 0.0, 0.0
    s = _checked_sin(step / 2.0, "step/2")
    mid, half = x + (n - 1) * step / 2.0, np.sin(n * step / 2.0)
    return np.cos(mid) * half / s, np.sin(mid) * half / s


def k_weighted_trig_sum(n: int, lam: float) -> tuple[float, float]:
    """Sums of k*cos(k*lam) and k*sin(k*lam) for k = 1, ..., n-1."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if n == 1:
        return 0.0, 0.0
    s = _checked_sin(lam / 2.0, "lam/2")
    # The value grows like n / sin(lam/2) and the angles n*lam and (2n - 1)*lam/2
    # like n, so rounding them would cost ~n*eps absolute accuracy.  Each angle is
    # taken exactly as hi + lo, and trig(hi + lo) = trig(hi) +- lo trig'(hi) + O(lo^2).
    hi, lo = two_product(np.array([n, 2 * n - 1], dtype=float), np.array([lam, lam / 2.0]))
    (cos_n, cos_h), (sin_n, sin_h) = np.cos(hi) - lo * np.sin(hi), np.sin(hi) + lo * np.cos(hi)
    return (
        float(n * sin_h / (2 * s) - (1 - cos_n) / (4 * s * s)),
        float(sin_n / (4 * s * s) - n * cos_h / (2 * s)),
    )


def geometric_trig_sum(n: int | None, p: float, lam):
    """Geometrically damped trigonometric sums, as (cos_sum, sin_sum).

    For finite ``n`` returns the sums of p^k*cos(k*lam) and p^k*sin(k*lam)
    over k = 0, ..., n-1.  ``n=None`` evaluates the infinite series, which
    requires |p| < 1.  ``lam`` may be an array.
    """
    if n is None:
        if abs(p) >= 1.0:
            raise ParameterError("infinite geometric trig sum requires |p| < 1")
    elif n < 0:
        raise ParameterError("number of terms must be nonnegative")
    elif n == 0:
        return 0.0, 0.0
    cos = np.cos(lam)
    denom = 1.0 - 2.0 * p * cos + p * p
    if np.any(denom < 1e-14):
        raise SingularFrequencyError(
            f"geometric denominator 1 - 2p cos(lam) + p^2 = {np.min(denom):.3e} is singular"
        )
    # sum over k >= 0 of p^k e^(ik lam) = (1 - p e^(-i lam)) / denom
    real = 1.0 - p * cos
    del cos  # one grid-length array fewer while the sine part is made
    imag = p * np.sin(lam)
    if n is not None:
        # less the terms k >= n: p^n e^(in lam) (1 - p e^(-i lam)) / denom
        real = real - p**n * np.cos(n * lam) + p ** (n + 1) * np.cos((n - 1) * lam)
        imag = imag - p**n * np.sin(n * lam) + p ** (n + 1) * np.sin((n - 1) * lam)
    real /= denom
    imag /= denom
    return real, imag


# product-to-sum part (0 cos, 1 sin) and signs of the (lam+omega, lam-omega) sums of each mixed kind
_MIXED_KINDS = {"cs_cross": (1, 1.0, -1.0), "cc": (0, 1.0, 1.0), "ss": (0, -1.0, 1.0)}


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
        return arith_trig_sum(m, lam * (h + 2), 2 * lam)[1]
    # each product is half a sum and difference at lam+omega and lam-omega,
    # shifted by omega*h in one product and by lam*h in the other
    part, sign_p, sign_m = _MIXED_KINDS[kind]
    total = 0.0
    for freq, sign, shift in ((lam + omega, sign_p, omega * h), (lam - omega, sign_m, -omega * h)):
        for x in (freq + shift, freq + lam * h):
            total += sign * arith_trig_sum(m, x, freq)[part]
    return 0.5 * total


def tail_weighted_trig_sum(n: int, r: int, lam: float, x: float):
    """Sums of (n-h)*cos(lam*h + x) and (n-h)*sin(lam*h + x) for h = r+1, ..., n-1.

    Composed from the arithmetic and k-weighted closed forms, so the
    whole evaluation stays O(1).  Each sum is O(n / sin^2(lam/2))
    uniformly in r and x.
    """
    if not 0 <= r <= n - 1:
        raise ParameterError("need 0 <= r <= n-1")
    if r == n - 1:
        return 0.0, 0.0
    plain_cos, plain_sin = arith_trig_sum(n - 1 - r, x + (r + 1) * lam, lam)
    # h-weighted part, via prefix sums of k cos(k lam) and k sin(k lam) and
    # trig(lam*h + x) = trig(x) cos(lam*h) + trig(x + pi/2) sin(lam*h)
    (kc_n, ks_n), (kc_r, ks_r) = k_weighted_trig_sum(n, lam), k_weighted_trig_sum(r + 1, lam)
    kc, ks, shifted = kc_n - kc_r, ks_n - ks_r, x + math.pi / 2
    return (
        n * plain_cos - (np.cos(x) * kc + np.cos(shifted) * ks),
        n * plain_sin - (np.sin(x) * kc + np.sin(shifted) * ks),
    )
