"""Generated-input oracle: the fused kernel against the scalar loop.

Hypothesis draws run cells -- workload, PM/PS/DBS and their knobs,
scales down to a few ticks, seeds, seed offsets, initial frequencies
and constraint schedules -- and runs each twice, on the fast loop and
with ``FAST_LOOP = False``.  With telemetry on, everything observable
must agree: the float-exact result digest, every metric (counters,
gauges, histogram buckets/count/sum/min/max), the span paths and
counts, and the full event stream an attached subscriber sees.  The
only difference allowed is the fallback counter the scalar leg adds.

The tier-1 profile is derandomised and bounded to a few seconds;
``REPRO_FUZZ=long`` widens it to a soak run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.acpi.pstates import pentium_m_755_table
from repro.checkpoint import run_result_digest
from repro.core import blockloop
from repro.telemetry.metrics import FALLBACK_COUNTER
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.limits import ConstraintSchedule, ScheduledChange
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    as_governor_spec,
    execute_cell,
)
from repro.telemetry import TelemetryRecorder

LONG = os.environ.get("REPRO_FUZZ") == "long"

ORACLE = settings(
    max_examples=2000 if LONG else 150,
    derandomize=not LONG,
    deadline=None,
    database=None,
)

WORKLOADS = ("ammp", "gzip", "mcf", "swim", "art", "crafty", "galgel")
FREQUENCIES = pentium_m_755_table().frequencies_mhz

#: Change times: the run start, mid-run, and long after any run ends.
#: Drawing several changes from a few times makes coinciding changes.
CHANGE_TIME = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.3).map(lambda t: round(t, 2)),
    st.just(60.0),
)


@contextmanager
def _fast_loop(enabled: bool):
    saved = blockloop.FAST_LOOP
    blockloop.FAST_LOOP = enabled
    try:
        yield
    finally:
        blockloop.FAST_LOOP = saved


@st.composite
def _governor(draw):
    kind = draw(st.sampled_from(("pm", "ps", "dbs")))
    if kind == "pm":
        spec = GovernorSpec.pm(
            draw(st.floats(7.0, 22.0)),
            power_model="paper",
            raise_window=draw(st.integers(1, 12)),
            guardband_w=draw(st.floats(0.0, 1.5)),
        )
    elif kind == "ps":
        spec = GovernorSpec.ps(draw(st.floats(0.1, 1.0)))
    else:
        up = draw(st.floats(0.4, 1.0))
        down = draw(st.floats(0.05, up - 0.05))
        spec = as_governor_spec(
            lambda table: DemandBasedSwitching(table, up, down)
        )
    return kind, spec


def _set_guardband(at, watts):
    """A change that keeps PM's raise streak, unlike a limit change."""
    return ScheduledChange(
        at, lambda governor: governor.set_guardband(watts),
        label=f"guardband={watts}W",
    )


def _schedule(draw, kind):
    if kind == "dbs":
        return None  # DBS has no runtime constraint to change
    times = draw(st.lists(CHANGE_TIME, min_size=1, max_size=3))
    schedule = ConstraintSchedule()
    for _ in range(draw(st.integers(1, 5))):
        at = draw(st.sampled_from(times))
        if kind == "pm" and draw(st.booleans()):
            schedule.changes.append(
                _set_guardband(at, draw(st.floats(0.0, 2.0)))
            )
            schedule.changes.sort(key=lambda change: change.time_s)
        elif kind == "pm":
            schedule.add_power_limit(at, draw(st.floats(6.0, 24.0)))
        else:
            schedule.add_performance_floor(at, draw(st.floats(0.1, 1.0)))
    return schedule


@st.composite
def _cell(draw, scheduled):
    kind, spec = draw(_governor())
    cell = RunCell(
        workload=draw(st.sampled_from(WORKLOADS)),
        governor=spec,
        seed_offset=draw(st.integers(0, 300)),
        initial_frequency_mhz=draw(st.none() | st.sampled_from(FREQUENCIES)),
        schedule=_schedule(draw, kind) if scheduled else None,
    )
    config = ExperimentConfig(
        scale=draw(st.floats(0.005, 0.5)),
        seed=draw(st.integers(0, 1000)),
        keep_trace=draw(st.booleans()),
    )
    return cell, config


def _observe(cell, config, fast, subscribe=True):
    recorder = TelemetryRecorder()
    events = []
    if subscribe:
        recorder.bus.subscribe(events.append)
    with _fast_loop(fast):
        result = execute_cell(cell, config, telemetry=recorder)
    metrics = recorder.metrics.snapshot()
    fallbacks = {
        name for name in metrics["counters"]
        if name.startswith(FALLBACK_COUNTER)
    }
    for name in fallbacks:
        del metrics["counters"][name]
    spans = {
        path: stats["count"]
        for path, stats in recorder.spans.snapshot().items()
    }
    return {
        "digest": run_result_digest(result),
        "metrics": metrics,
        "spans": spans,
        "events": events,
        "fallbacks": fallbacks,
    }


def _assert_same(cell, config, subscribe=True):
    fast = _observe(cell, config, True, subscribe)
    scalar = _observe(cell, config, False, subscribe)
    # The fast leg really ran fast; the scalar leg says why it did not.
    assert fast["fallbacks"] == set()
    assert scalar["fallbacks"] == {f"{FALLBACK_COUNTER}.forced"}
    for key in ("digest", "metrics", "spans", "events"):
        assert fast[key] == scalar[key], key


@ORACLE
@given(_cell(scheduled=False), st.booleans())
def test_telemetry_on_fast_matches_scalar(drawn, subscribe):
    cell, config = drawn
    _assert_same(cell, config, subscribe)


@ORACLE
@given(_cell(scheduled=True))
def test_scheduled_fast_matches_scalar(drawn):
    cell, config = drawn
    _assert_same(cell, config)
    # And uninstrumented, where the kernel takes no telemetry branch.
    digests = []
    for fast in (True, False):
        with _fast_loop(fast):
            digests.append(run_result_digest(execute_cell(cell, config)))
    assert digests[0] == digests[1]


def test_change_during_raise_streak_keeps_the_streak():
    """PM starts slow under a high limit, so it is part-way through its
    raise window when the guardband changes: the kernel must hand the
    streak to the governor before the change and take it back after."""
    schedule = ConstraintSchedule()
    schedule.changes.append(_set_guardband(0.05, 0.7))
    cell = RunCell(
        workload="ammp",
        governor=GovernorSpec.pm(20.0, power_model="paper", raise_window=12),
        schedule=schedule,
        initial_frequency_mhz=600.0,
    )
    _assert_same(cell, ExperimentConfig(scale=0.3, seed=0))
