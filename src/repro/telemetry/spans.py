"""Span-based wall-clock timing for the control loop's phases.

The paper claims its monitoring driver has "negligible performance
impact"; to make the same claim about this reproduction's governor
overhead, the hot path is wrapped in nested spans::

    with spans.span("run"):
        with spans.span("sample"):
            ...
        with spans.span("decide"):
            ...

Spans nest by *path* ("run/sample"), and the recorder keeps aggregate
statistics per path (count/total/min/max wall seconds) rather than an
unbounded span log, so instrumenting a hundred-thousand-tick run costs
O(paths) memory.  Timing uses :func:`time.perf_counter`.

The recorder is deliberately not thread-safe: each controller owns its
recorder, matching the package's one-run-one-thread design.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.errors import TelemetryError


class SpanStats:
    """Aggregate wall-clock statistics for one span path."""

    __slots__ = ("path", "count", "total_s", "min_s", "max_s")

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, elapsed_s: float) -> None:
        """Fold one completed span into the aggregate."""
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        """Mean span duration (0.0 when no spans completed)."""
        return self.total_s / self.count if self.count else 0.0


class _Span:
    """Context manager measuring one span; returned by ``span()``."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._recorder._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._recorder._pop(elapsed)


class SpanRecorder:
    """Produces nested spans and aggregates their wall-clock durations."""

    def __init__(self) -> None:
        self._stack: List[str] = []
        self._stats: Dict[str, SpanStats] = {}

    def span(self, name: str) -> _Span:
        """A context manager timing ``name`` under the current path."""
        if not name or "/" in name:
            raise TelemetryError(
                f"span name must be non-empty and slash-free, got {name!r}"
            )
        return _Span(self, name)

    @property
    def current_path(self) -> str:
        """The active span path ("" at top level)."""
        return "/".join(self._stack)

    @property
    def depth(self) -> int:
        """Current nesting depth."""
        return len(self._stack)

    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, elapsed_s: float) -> None:
        path = "/".join(self._stack)
        self._stack.pop()
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats(path)
        stats.record(elapsed_s)

    def stats_under(self, name: str) -> SpanStats:
        """Get or create the aggregate for ``name`` under the current path.

        For loops that time a phase with their own clock reads instead of
        a context manager: each ``record(elapsed_s)`` on the result counts
        as one completed ``span(name)`` at the same path.  Create it only
        when a span is about to be recorded, so paths that never ran stay
        out of the snapshot.
        """
        path = "/".join(self._stack + [name])
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats(path)
        return stats

    def stats(self, path: str) -> SpanStats:
        """Aggregate stats for ``path``; KeyError if never recorded."""
        return self._stats[path]

    def snapshot(self) -> dict:
        """JSON-safe dump: path -> {count, total_s, mean_s, min_s, max_s}."""
        return {
            path: {
                "count": s.count,
                "total_s": s.total_s,
                "mean_s": s.mean_s,
                "min_s": s.min_s if s.count else None,
                "max_s": s.max_s,
            }
            for path, s in sorted(self._stats.items())
        }

    def reset(self) -> None:
        """Drop all aggregates (the active stack must be empty)."""
        if self._stack:
            raise TelemetryError(
                f"cannot reset inside an active span ({self.current_path!r})"
            )
        self._stats.clear()
