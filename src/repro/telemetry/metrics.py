"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numeric side of the telemetry subsystem: while the
event bus carries *what happened*, the registry accumulates *how much*
-- p-state residency, transition counts, power-limit violations,
projection-error distributions.  Everything is plain Python floats and
dicts so a snapshot is trivially JSON-serialisable.

Metrics are get-or-create by name: ``registry.counter("x")`` returns the
same :class:`Counter` on every call, so hot-loop call sites need no
registration ceremony.  Requesting an existing name as a different
metric type raises :class:`~repro.errors.TelemetryError`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Sequence

from repro.errors import TelemetryError

#: Default watt buckets for power histograms (Pentium M 755 spans
#: ~4 W idle to ~26 W worst-case; 2 W resolution).
POWER_BUCKETS_W: tuple[float, ...] = tuple(float(w) for w in range(2, 31, 2))

#: Default buckets for signed power projection errors (estimate minus
#: measurement); the paper's model errs well inside +/-2 W.
PROJECTION_ERROR_BUCKETS_W: tuple[float, ...] = tuple(
    round(-4.0 + 0.5 * i, 2) for i in range(17)
)

#: Counter-name prefix for runs that took the scalar loop instead of the
#: fused kernel: one counter per ``repro.core.blockloop.fallback_reason``.
FALLBACK_COUNTER = "controller.fast_path_fallback"


class Counter:
    """A monotonically increasing sum (ticks, transitions, seconds)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current accumulated value."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self._value += amount


class Gauge:
    """A point-in-time value (current limit, final duration)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self._value = float(value)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max running stats.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit
    overflow bucket.  ``bucket_counts`` therefore has
    ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets:
            raise TelemetryError(f"histogram {name!r} needs buckets")
        bounds = tuple(float(b) for b in buckets)
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be strictly ascending"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record ``values`` in order, exactly as repeated :meth:`observe`.

        Loops that buffer a block's observations fold them in with one
        call; the running sum adds in the same order, so the result is
        bit-identical to observing each value as it happened.
        """
        buckets = self.buckets
        counts = self.bucket_counts
        overflow = len(buckets)
        total = self.sum
        low = self.min
        high = self.max
        n = 0
        for value in values:
            # First bound >= value; NaN compares false everywhere and
            # lands in the overflow bucket.
            counts[
                bisect_left(buckets, value) if value == value else overflow
            ] += 1
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
            n += 1
        self.count += n
        self.sum = total
        self.min = low
        self.max = high

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named, typed metric store with snapshot/reset semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _guard(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, store in owners.items():
            if other != kind and name in store:
                raise TelemetryError(
                    f"metric {name!r} already registered as a {other}"
                )

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            self._guard(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            self._guard(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        """Get or create the histogram ``name``.

        ``buckets`` is required on first creation; on later calls it is
        ignored (the original bucket layout wins).
        """
        metric = self._histograms.get(name)
        if metric is None:
            self._guard(name, "histogram")
            if buckets is None:
                raise TelemetryError(
                    f"histogram {name!r} does not exist yet; buckets required"
                )
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (names and values)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
