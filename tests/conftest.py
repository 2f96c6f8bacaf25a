import tracemalloc

import numpy as np
import pytest

from extspec import IndicatorSeries


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def make_indicators():
    """Factory: indicator series straight from a 0/1 pattern."""

    def _make(bits):
        return IndicatorSeries(np.asarray(bits, dtype=bool))

    return _make
