"""Unit tests for the measurement helpers in :mod:`repro.sim.stats`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import OnlineStats, TimeSeries, percentile


# ---------------------------------------------------------------------------
# OnlineStats
# ---------------------------------------------------------------------------


def test_online_stats_basic():
    s = OnlineStats()
    s.extend([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.variance == pytest.approx(5.0 / 3.0)
    assert s.minimum == 1.0 and s.maximum == 4.0


def test_online_stats_empty():
    s = OnlineStats()
    assert s.mean == 0.0
    assert s.variance == 0.0


@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
@settings(max_examples=50)
def test_online_stats_matches_numpy(xs):
    import numpy as np

    s = OnlineStats()
    s.extend(xs)
    assert s.mean == pytest.approx(np.mean(xs), abs=1e-6, rel=1e-9)
    assert s.variance == pytest.approx(np.var(xs, ddof=1), abs=1e-5, rel=1e-7)


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------


def test_percentile_basics():
    xs = [1, 2, 3, 4, 5]
    assert percentile(xs, 0) == 1
    assert percentile(xs, 100) == 5
    assert percentile(xs, 50) == 3


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == pytest.approx(2.5)


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------


def test_time_series_average():
    ts = TimeSeries()
    ts.append(0, 10.0)
    ts.append(50, 20.0)
    assert ts.time_average(100) == pytest.approx(15.0)
    assert ts.maximum() == 20.0


def test_time_series_rejects_unordered():
    ts = TimeSeries()
    ts.append(10, 1.0)
    with pytest.raises(ValueError):
        ts.append(5, 2.0)
