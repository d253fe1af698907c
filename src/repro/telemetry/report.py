"""Aggregation of an exported telemetry directory.

``repro-power telemetry-report <dir>`` reads what a
:class:`~repro.telemetry.exporters.TelemetryDirectory` wrote --
``events.jsonl``, ``trace.csv``, ``metrics.json`` -- cross-checks the
three views of the same run, and renders a digest: runs and their
totals, event counts by kind, transition/reallocation activity, trace
statistics, fast-path fallbacks and governor-overhead spans.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import List, Mapping

from repro.errors import TelemetryError
from repro.telemetry.exporters import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    TRACE_FILENAME,
)
from repro.telemetry.metrics import FALLBACK_COUNTER


@dataclass
class TelemetryReport:
    """Parsed + aggregated contents of one telemetry directory."""

    directory: str
    events: List[dict] = field(default_factory=list)
    trace_rows: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    #: Malformed/truncated JSONL lines skipped while loading the log.
    skipped_lines: int = 0
    #: True when the final event/trace line was torn mid-write (the
    #: expected signature of a SIGKILL'd run), as opposed to interior
    #: corruption counted in ``skipped_lines``.
    truncated_tail: bool = False

    @property
    def event_counts(self) -> Mapping[str, int]:
        """Event count per kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def runs(self) -> List[dict]:
        """The ``run_finished`` payloads, in completion order."""
        return [e for e in self.events if e.get("kind") == "run_finished"]

    @property
    def tick_count(self) -> int:
        """Rows in the CSV trace."""
        return len(self.trace_rows)

    @property
    def mean_measured_power_w(self) -> float:
        """Mean of the trace's measured power column (0.0 when empty)."""
        if not self.trace_rows:
            return 0.0
        total = sum(float(r["measured_power_w"]) for r in self.trace_rows)
        return total / len(self.trace_rows)


def load_events(path: str | os.PathLike) -> tuple[List[dict], int, bool]:
    """Parse a JSONL event log, tolerating damage.

    A journal from a crashed or killed run is routinely truncated
    mid-line, and a corrupted disk can garble arbitrary lines; neither
    should make the *report* fail.  Returns ``(events,
    skipped_line_count, truncated_tail)``: a malformed *final* line
    with no trailing newline is the expected tear of a SIGKILL'd run
    and is reported as ``truncated_tail`` rather than counted with the
    interior damage in ``skipped_line_count``.
    """
    events: List[dict] = []
    skipped = 0
    truncated_tail = False
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise TelemetryError(f"cannot read event log {path}: {error}") from None
    text = data.decode(errors="replace")
    complete_tail = text.endswith("\n")
    lines = text.splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1 and not complete_tail:
                truncated_tail = True
            else:
                skipped += 1
            continue
        if not isinstance(event, dict):
            skipped += 1
            continue
        events.append(event)
    return events, skipped, truncated_tail


def load_report(directory: str | os.PathLike) -> TelemetryReport:
    """Read every file a :class:`TelemetryDirectory` produces."""
    directory = os.fspath(directory)
    events_path = os.path.join(directory, EVENTS_FILENAME)
    if not os.path.isdir(directory):
        raise TelemetryError(f"no such telemetry directory: {directory}")
    if not os.path.exists(events_path):
        raise TelemetryError(
            f"{directory} has no {EVENTS_FILENAME}; was it written with "
            "--telemetry?"
        )
    report = TelemetryReport(directory=directory)
    report.events, report.skipped_lines, report.truncated_tail = load_events(
        events_path
    )

    trace_path = os.path.join(directory, TRACE_FILENAME)
    if os.path.exists(trace_path):
        with open(trace_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # A kill can also tear the final CSV row mid-write; DictReader
        # fills its missing columns with None, which would crash the
        # float() parses downstream.  (temperature_c is legitimately
        # empty on unhardened runs, so it does not count as damage.)
        if rows and any(
            value is None or value == ""
            for column, value in rows[-1].items()
            if column is not None and column != "temperature_c"
        ):
            rows.pop()
            report.truncated_tail = True
        report.trace_rows = rows

    metrics_path = os.path.join(directory, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path) as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            snapshot = {}  # a truncated snapshot degrades, never raises
        if isinstance(snapshot, dict):
            report.metrics = snapshot.get("metrics", {})
            report.spans = snapshot.get("spans", {})
    return report


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1e3:.3f} ms"


def render_report(directory: str | os.PathLike) -> str:
    """Aggregate ``directory`` and render the human-readable report."""
    report = load_report(directory)
    lines = [f"telemetry report: {report.directory}", ""]

    lines.append(f"events ({len(report.events)} total):")
    for kind, count in sorted(report.event_counts.items()):
        lines.append(f"  {kind:16} {count}")
    if report.skipped_lines:
        lines.append(
            f"  (skipped {report.skipped_lines} malformed journal lines)"
        )
    if report.truncated_tail:
        lines.append(
            "  (final line torn mid-write -- run was killed; ignored)"
        )
    lines.append("")

    for run in report.runs:
        lines.append(
            f"run: {run.get('workload')} under {run.get('governor')}"
        )
        lines.append(f"  duration     {run.get('duration_s', 0.0):.3f} s")
        lines.append(
            f"  instructions {run.get('instructions', 0.0) / 1e9:.3f} G"
        )
        lines.append(
            f"  energy       {run.get('measured_energy_j', 0.0):.2f} J"
        )
        lines.append(f"  transitions  {run.get('transitions', 0)}")
        lines.append("")

    if report.trace_rows:
        lines.append(f"trace: {report.tick_count} ticks, mean measured "
                     f"power {report.mean_measured_power_w:.2f} W")
        lines.append("")

    reallocations = [
        e for e in report.events if e.get("kind") == "reallocation"
    ]
    if reallocations:
        last = reallocations[-1]
        lines.append(f"fleet: {len(reallocations)} budget reallocations; "
                     f"final grants "
                     + ", ".join(f"{n}={w:.1f}W"
                                 for n, w in sorted(
                                     last.get("grants_w", {}).items())))
        lines.append("")

    counters = report.metrics.get("counters", {})
    violations = counters.get("controller.limit_violations")
    ticks = counters.get("controller.ticks")
    if ticks:
        lines.append(f"metrics: {ticks:.0f} ticks"
                     + (f", {violations:.0f} limit violations"
                        if violations is not None else ""))
        lines.append("")

    prefix = FALLBACK_COUNTER + "."
    fallbacks = {
        name[len(prefix):]: count
        for name, count in counters.items()
        if name.startswith(prefix)
    }
    if fallbacks:
        lines.append("fast-path fallbacks (runs on the scalar loop):")
        for reason, count in sorted(fallbacks.items()):
            lines.append(f"  {reason:16} {count:.0f}")
        lines.append("")

    if report.spans:
        lines.append("governor overhead (wall clock):")
        for path, s in sorted(report.spans.items()):
            lines.append(
                f"  {path:24} count {s['count']:>6}  "
                f"total {_fmt_seconds(s['total_s'])}  "
                f"mean {_fmt_seconds(s['mean_s'])}"
            )
        lines.append("")
    return "\n".join(lines)
