"""Unit tests for the service metrics registry."""

from __future__ import annotations

import math

import pytest

from repro.service import ServiceMetrics
from repro.telemetry import Histogram


class TestLatencyStat:
    """The histogram behind ``ServiceMetrics.latency``."""

    def test_nearest_rank_quantiles_are_exact(self):
        stat = Histogram("t")
        for value in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
            stat.observe(value)
        assert stat.quantile(0.5) == 0.5
        assert stat.quantile(0.99) == 1.0
        assert stat.quantile(0.0) == 0.1
        assert stat.quantile(1.0) == 1.0

    def test_running_aggregates(self):
        stat = Histogram("t")
        stat.observe(2.0)
        stat.observe(4.0)
        assert stat.count == 2
        assert stat.mean == 3.0
        assert stat.min == 2.0 and stat.max == 4.0

    def test_empty_stat_is_all_nan(self):
        # an empty stat has no latency: every summary field is nan, so
        # a missing signal can never masquerade as "0 ms" in a report
        stat = Histogram("t")
        assert math.isnan(stat.quantile(0.5))
        assert math.isnan(stat.quantile(0.0))
        assert math.isnan(stat.quantile(1.0))
        assert math.isnan(stat.mean)
        data = stat.to_dict()
        assert data["count"] == 0
        for field in ("mean_ms", "p50_ms", "p99_ms", "min_ms", "max_ms"):
            assert math.isnan(data[field]), field
        assert "nan" in repr(stat)

    def test_single_observation_leaves_nan_behind(self):
        stat = Histogram("t")
        stat.observe(0.5)
        assert stat.quantile(0.5) == 0.5
        assert stat.mean == 0.5
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in stat.to_dict().values()
        )

    def test_reservoir_bound_keeps_counting(self):
        stat = Histogram("t", max_samples=10)
        for i in range(100):
            stat.observe(float(i))
        assert stat.count == 100
        assert stat.max == 99.0
        assert len(stat._samples) == 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Histogram("t", max_samples=0)
        stat = Histogram("t")
        with pytest.raises(ValueError):
            stat.observe(-1.0)
        with pytest.raises(ValueError):
            stat.quantile(1.5)

    def test_to_dict_is_in_milliseconds(self):
        stat = Histogram("t")
        stat.observe(0.25)
        data = stat.to_dict()
        assert data["p50_ms"] == 250.0
        assert data["max_ms"] == 250.0


class TestServiceMetrics:
    def test_counters_accumulate(self):
        metrics = ServiceMetrics()
        assert metrics.inc("events") == 1
        assert metrics.inc("events", 5) == 6
        assert metrics.counters["events"] == 6

    def test_gauge_max_tracks_high_water_mark(self):
        metrics = ServiceMetrics()
        metrics.observe_gauge_max("depth", 3)
        metrics.observe_gauge_max("depth", 1)
        assert metrics.gauges["depth"] == 3
        metrics.set_gauge("depth", 0.5)
        assert metrics.gauges["depth"] == 0.5

    def test_latency_registry_is_memoized(self):
        metrics = ServiceMetrics()
        assert metrics.latency("a") is metrics.latency("a")
        metrics.latency("a").observe(0.1)
        assert metrics.to_dict()["latencies"]["a"]["count"] == 1

    def test_to_dict_shape(self):
        metrics = ServiceMetrics()
        metrics.inc("z")
        metrics.inc("a")
        metrics.set_gauge("g", 1.0)
        data = metrics.to_dict()
        assert list(data["counters"]) == ["a", "z"]  # sorted
        assert set(data) == {"counters", "gauges", "latencies"}
