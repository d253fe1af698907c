"""Tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TelemetryError
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import (
    Histogram,
    POWER_BUCKETS_W,
    PROJECTION_ERROR_BUCKETS_W,
)


class TestCounter:
    def test_accumulates(self):
        counter = MetricsRegistry().counter("ticks")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("ticks")
        with pytest.raises(TelemetryError):
            counter.inc(-1.0)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("limit_w")
        gauge.set(14.5)
        gauge.set(20.0)
        assert gauge.value == 20.0


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram("h", [1.0, 2.0, 3.0])
        for value in (0.5, 1.0, 1.5, 2.5, 99.0):
            hist.observe(value)
        # <=1, <=2, <=3, overflow
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == 99.0
        assert hist.mean == pytest.approx((0.5 + 1.0 + 1.5 + 2.5 + 99.0) / 5)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(-10.0, 40.0) | st.sampled_from(
                [float("inf"), float("-inf"), float("nan"), -0.0, 2.0]
            ),
            max_size=40,
        ),
        st.integers(0, 40),
    )
    def test_observe_many_matches_linear_scan(self, values, split):
        """Buffered observation equals observing one value at a time
        with the first-bound-that-fits linear scan, in any chunking."""
        bounds = POWER_BUCKETS_W
        counts = [0] * (len(bounds) + 1)
        total, low, high = 0.0, float("inf"), float("-inf")
        for value in values:
            index = len(bounds)
            for i, bound in enumerate(bounds):
                if value <= bound:
                    index = i
                    break
            counts[index] += 1
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        hist = Histogram("h", bounds)
        hist.observe_many(values[:split])
        for value in values[split:split + 1]:
            hist.observe(value)
        hist.observe_many(values[split + 1:])
        assert hist.bucket_counts == counts
        assert hist.count == len(values)
        assert repr(hist.sum) == repr(total)  # NaN-safe, bit-exact
        assert (hist.min, hist.max) == (low, high)

    def test_buckets_must_ascend(self):
        with pytest.raises(TelemetryError):
            Histogram("h", [2.0, 1.0])
        with pytest.raises(TelemetryError):
            Histogram("h", [])

    def test_default_bucket_layouts(self):
        assert POWER_BUCKETS_W == tuple(sorted(POWER_BUCKETS_W))
        assert PROJECTION_ERROR_BUCKETS_W[0] < 0 < PROJECTION_ERROR_BUCKETS_W[-1]

    def test_registry_requires_buckets_on_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("h")
        created = registry.histogram("h", [1.0])
        assert registry.histogram("h") is created


class TestRegistry:
    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x", [1.0])

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc(3)
        registry.gauge("limit").set(14.5)
        registry.histogram("power", POWER_BUCKETS_W).observe(12.0)
        snap = registry.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["counters"]["ticks"] == 3
        assert parsed["gauges"]["limit"] == 14.5
        assert parsed["histograms"]["power"]["count"] == 1

    def test_empty_histogram_snapshot_has_null_extremes(self):
        registry = MetricsRegistry()
        registry.histogram("power", [1.0])
        snap = registry.snapshot()["histograms"]["power"]
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert registry.counter("ticks").value == 0.0
