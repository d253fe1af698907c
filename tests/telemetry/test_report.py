"""Tests for the telemetry-directory aggregation report."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    TelemetryDirectory,
    TelemetryRecorder,
    load_report,
    render_report,
)
from repro.telemetry.metrics import FALLBACK_COUNTER
from repro.telemetry.bus import (
    BudgetReallocated,
    RunFinished,
    RunStarted,
    TickCompleted,
)


def _write_directory(path):
    recorder = TelemetryRecorder()
    sink = TelemetryDirectory(path)
    sink.attach(recorder)
    recorder.emit(RunStarted(time_s=0.0, workload="ammp", governor="PM"))
    for i in range(3):
        recorder.metrics.counter("controller.ticks").inc()
        recorder.emit(
            TickCompleted(
                time_s=0.01 * (i + 1), frequency_mhz=1800.0,
                measured_power_w=14.0 + i, true_power_w=14.0,
                instructions=2e7, duty=1.0, temperature_c=None,
            )
        )
    recorder.emit(
        BudgetReallocated(
            time_s=0.02, budget_w=30.0, demands_w={"a": 18.0},
            grants_w={"a": 18.0}, active_nodes=1,
        )
    )
    recorder.emit(
        RunFinished(
            time_s=0.03, workload="ammp", governor="PM", duration_s=0.03,
            instructions=6e7, measured_energy_j=0.42, transitions=2,
        )
    )
    sink.finalize(recorder)
    return recorder


class TestLoadReport:
    def test_aggregates_all_views(self, tmp_path):
        _write_directory(tmp_path / "t")
        report = load_report(tmp_path / "t")
        assert report.event_counts["tick"] == 3
        assert report.tick_count == 3
        assert report.mean_measured_power_w == pytest.approx(15.0)
        assert len(report.runs) == 1
        assert report.metrics["counters"]["controller.ticks"] == 3

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_report(tmp_path / "nope")

    def test_directory_without_events_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(TelemetryError, match="events.jsonl"):
            load_report(tmp_path / "empty")

    def test_malformed_event_lines_skipped_and_counted(self, tmp_path):
        # A journal from a crashed run is routinely truncated mid-line;
        # damage is skipped and counted, never fatal to the report.
        d = tmp_path / "bad"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "tick"}\n'
            "not json\n"
            '{"kind": "tick", "time_s": 0.0\n'  # truncated mid-object
            '["not", "an", "object"]\n'
            '{"kind": "decision"}\n'
        )
        report = load_report(d)
        assert report.skipped_lines == 3
        assert report.event_counts == {"tick": 1, "decision": 1}

    def test_torn_final_line_is_truncated_tail_not_damage(self, tmp_path):
        # The signature of a SIGKILLed run: the last line is a partial
        # JSON object with no trailing newline.  That is expected, not
        # interior corruption, so it must not count as a skipped line.
        d = tmp_path / "killed"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "tick"}\n'
            '{"kind": "tick"}\n'
            '{"kind": "tick", "time_s": 0.0'  # torn mid-write, no \n
        )
        report = load_report(d)
        assert report.truncated_tail is True
        assert report.skipped_lines == 0
        assert report.event_counts == {"tick": 2}
        assert "torn mid-write" in render_report(d)

    def test_interior_damage_still_counts_as_skipped(self, tmp_path):
        # Same partial-object text, but followed by valid lines: that is
        # real corruption, not a kill signature.
        d = tmp_path / "corrupt"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "tick"}\n'
            '{"kind": "tick", "time_s": 0.0\n'
            '{"kind": "tick"}\n'
        )
        report = load_report(d)
        assert report.truncated_tail is False
        assert report.skipped_lines == 1
        assert report.event_counts == {"tick": 2}

    def test_torn_final_trace_row_is_dropped(self, tmp_path):
        # A trace.csv row cut off mid-write must be dropped instead of
        # poisoning the power aggregates with Nones.
        d = tmp_path / "torntrace"
        d.mkdir()
        (d / "events.jsonl").write_text('{"kind": "tick"}\n')
        (d / "trace.csv").write_text(
            "time_s,frequency_mhz,measured_power_w,true_power_w,"
            "instructions,duty,temperature_c\n"
            "0.01,1800.0,14.0,14.0,2e7,1.0,\n"
            "0.02,1800.0,15.0,15.0,2e7,1.0,\n"
            "0.03,1800.0,16."  # torn mid-field
        )
        report = load_report(d)
        assert report.truncated_tail is True
        assert report.tick_count == 2
        assert report.mean_measured_power_w == pytest.approx(14.5)

    def test_corrupt_metrics_snapshot_degrades(self, tmp_path):
        d = tmp_path / "halfmetrics"
        d.mkdir()
        (d / "events.jsonl").write_text('{"kind": "tick"}\n')
        (d / "metrics.json").write_text('{"metrics": {"counters":')
        report = load_report(d)
        assert report.metrics == {}
        assert report.spans == {}


class TestRenderReport:
    def test_renders_runs_fleet_and_spans(self, tmp_path):
        _write_directory(tmp_path / "t")
        text = render_report(tmp_path / "t")
        assert "ammp under PM" in text
        assert "3 ticks" in text
        assert "budget reallocations" in text
        assert "a=18.0W" in text

    def test_lists_fast_path_fallbacks(self, tmp_path):
        recorder = TelemetryRecorder()
        sink = TelemetryDirectory(tmp_path / "t")
        sink.attach(recorder)
        recorder.metrics.counter(f"{FALLBACK_COUNTER}.faults").inc(3)
        recorder.metrics.counter(f"{FALLBACK_COUNTER}.forced").inc()
        sink.finalize(recorder)
        text = render_report(tmp_path / "t")
        assert "fast-path fallbacks" in text
        lines = text.splitlines()
        assert any(line.split() == ["faults", "3"] for line in lines)
        assert any(line.split() == ["forced", "1"] for line in lines)

    def test_no_fallback_section_without_fallbacks(self, tmp_path):
        _write_directory(tmp_path / "t")
        assert "fast-path fallbacks" not in render_report(tmp_path / "t")

    def test_tolerates_partial_directories(self, tmp_path):
        # Only an event log: trace/metrics are optional.
        d = tmp_path / "partial"
        d.mkdir()
        (d / "events.jsonl").write_text(
            json.dumps({"kind": "run_started", "time_s": 0.0,
                        "workload": "gzip", "governor": "PM"}) + "\n"
        )
        text = render_report(d)
        assert "run_started" in text
