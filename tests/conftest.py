import math
import tracemalloc

import numpy as np
import pytest

from extspec import IndicatorSeries
from extspec.core import two_product


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs.

    numpy.random loads on a command's first draw; it is loaded before tracing starts,
    so that the peak counts the command's arrays and not the module's import.
    """
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exact_angle_sums(weights, lam: float) -> tuple[float, float]:
    """Sums of w_k cos(k lam) and w_k sin(k lam), k = 1..len(weights), at exact angles.

    Each angle k*lam splits exactly into hi + lo (Dekker's product), so
    cos(k lam) = cos hi - lo sin hi and sin(k lam) = sin hi + lo cos hi hold
    to within lo**2 / 2, below 2e-24 for k*lam < 2**15; math.fsum adds the
    terms with one rounding.  Plain double throughout: no platform's long
    double changes the reference.
    """
    w = np.asarray(weights, dtype=float)
    hi, lo = two_product(np.arange(1.0, w.size + 1), lam)
    cos, sin = np.cos(hi), np.sin(hi)
    return math.fsum((w * (cos - lo * sin)).tolist()), math.fsum((w * (sin + lo * cos)).tolist())


@pytest.fixture
def make_indicators():
    """Factory: indicator series straight from a 0/1 pattern."""

    def _make(bits):
        return IndicatorSeries(np.asarray(bits, dtype=bool))

    return _make
