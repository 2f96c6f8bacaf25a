import numpy as np
import pytest

from extspec import IndicatorSeries


@pytest.fixture
def make_indicators():
    """Factory: indicator series straight from a 0/1 pattern."""

    def _make(bits):
        return IndicatorSeries(np.asarray(bits, dtype=bool))

    return _make
