"""Generated-input oracle: the fused kernel against the scalar loop.

Hypothesis draws run cells -- workload, PM/PS/DBS and their knobs,
scales down to a few ticks, seeds, seed offsets, initial frequencies,
constraint schedules, fault plans and resilience configs -- and runs
each twice, on the fast loop and with ``FAST_LOOP = False``.  With
telemetry on, everything observable must agree: the float-exact result
digest, every metric (counters, gauges, histogram buckets/count/sum/
min/max), the span paths and counts, and the full event stream an
attached subscriber sees, injected faults, recoveries, watchdog trips
and degradations included.  The only difference allowed is the
fallback counter the scalar leg adds.  Faulted cells are also
checkpointed, cut at a random durable record and resumed, which must
end where the uninterrupted run does.

The tier-1 profile is derandomised and bounded to a few seconds;
``REPRO_FUZZ=long`` widens it to a soak run.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.acpi.pstates import pentium_m_755_table
from repro.checkpoint import (
    RunCheckpointer,
    RunJournal,
    resume_run,
    run_result_digest,
)
from repro.core import blockloop
from repro.core.resilience import ResilienceConfig
from repro.telemetry.metrics import FALLBACK_COUNTER
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.limits import ConstraintSchedule, ScheduledChange
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    as_governor_spec,
    execute_cell,
    prepare_cell,
)
from repro.faults import (
    FaultPlan,
    MeterFaults,
    SampleFaults,
    TransitionFaults,
)
from repro.telemetry import TelemetryRecorder

LONG = os.environ.get("REPRO_FUZZ") == "long"

ORACLE = settings(
    max_examples=2000 if LONG else 150,
    derandomize=not LONG,
    deadline=None,
    database=None,
)
#: Faulted cells are slower on the scalar leg; fewer of them in tier 1.
FAULT_ORACLE = settings(ORACLE, max_examples=2000 if LONG else 60)
RESUME_ORACLE = settings(ORACLE, max_examples=500 if LONG else 15)

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


#: Probabilities: often off, so plans mix one or two fault kinds.
PROBABILITY = st.just(0.0) | st.floats(0.0, 0.5)


@st.composite
def _fault_plan(draw):
    """Every sampler, meter and transition fault kind, plus gain drift."""
    return FaultPlan(
        seed=draw(st.integers(0, 1000)),
        sample=SampleFaults(
            drop_prob=draw(PROBABILITY),
            duplicate_prob=draw(PROBABILITY),
            garble_prob=draw(PROBABILITY),
            garble_magnitude=draw(st.floats(0.0, 4.0)),
            overflow_prob=draw(PROBABILITY),
        ),
        meter=MeterFaults(
            dropout_prob=draw(PROBABILITY),
            spike_prob=draw(PROBABILITY),
            spike_factor=draw(st.floats(2.0, 8.0)),
            drift_rate_per_s=draw(st.just(0.0) | st.floats(0.0, 0.5)),
            drift_start_s=draw(st.floats(0.0, 0.3)),
            drift_max_gain=draw(st.floats(0.0, 1.0)),
        ),
        transition=TransitionFaults(
            fail_prob=draw(st.just(0.0) | st.floats(0.0, 1.0)),
            stall_prob=draw(PROBABILITY),
            stall_s=draw(st.floats(0.0, 0.02)),
        ),
    )


@st.composite
def _resilience(draw):
    """Hardening knobs, small enough that watchdog trips and degraded
    mode happen within a few ticks; a small ``max_plausible_rate``
    makes clean samples implausible too."""
    return ResilienceConfig(
        max_transition_retries=draw(st.integers(0, 3)),
        retry_backoff_s=draw(st.floats(0.0, 0.003)),
        retry_backoff_factor=draw(st.floats(1.0, 3.0)),
        watchdog_fault_ticks=draw(st.integers(1, 6)),
        degrade_after_faults=draw(st.integers(1, 4)),
        safe_frequency_mhz=draw(st.none() | st.sampled_from(FREQUENCIES)),
        power_window=draw(st.integers(1, 12)),
        power_outlier_factor=draw(st.floats(1.1, 4.0)),
        power_floor_w=draw(st.floats(0.0, 8.0)),
        max_plausible_rate=draw(st.just(100.0) | st.floats(0.1, 3.0)),
    )


#: A fault plan, a resilience config or both (a plan alone runs under
#: the default ``ResilienceConfig``, as ``execute_cell`` arranges).
HARDENING = st.one_of(
    st.tuples(_fault_plan(), st.none()),
    st.tuples(st.none(), _resilience()),
    st.tuples(_fault_plan(), _resilience()),
)


def _observe(cell, config, fast, subscribe=True, **options):
    recorder = TelemetryRecorder()
    events = []
    if subscribe:
        recorder.bus.subscribe(events.append)
    with _fast_loop(fast):
        result = execute_cell(cell, config, telemetry=recorder, **options)
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


def _assert_same(cell, config, subscribe=True, **options):
    fast = _observe(cell, config, True, subscribe, **options)
    scalar = _observe(cell, config, False, subscribe, **options)
    # The fast leg really ran fast; the scalar leg says why it did not.
    assert fast["fallbacks"] == set()
    assert scalar["fallbacks"] == {f"{FALLBACK_COUNTER}.forced"}
    for key in ("digest", "metrics", "spans", "events"):
        assert fast[key] == scalar[key], key
    return fast


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


@FAULT_ORACLE
@given(st.booleans().flatmap(_cell), HARDENING)
def test_faulted_fast_matches_scalar(drawn, hardening):
    cell, config = drawn
    plan, resilience = hardening
    _assert_same(cell, config, fault_plan=plan, resilience=resilience)


def test_watchdog_and_degraded_mode_match_scalar():
    """A fixed faulted cell that drives every rare path at least once:
    injected sampler/meter/driver faults, holdover, retries, the
    watchdog and degraded mode."""
    plan = FaultPlan(
        seed=4,
        sample=SampleFaults(drop_prob=0.5, garble_prob=0.1),
        meter=MeterFaults(spike_prob=0.2, drift_rate_per_s=0.2),
        transition=TransitionFaults(fail_prob=0.5, stall_prob=0.3),
    )
    resilience = ResilienceConfig(
        watchdog_fault_ticks=2, safe_frequency_mhz=1000.0
    )
    cell = RunCell(
        workload="gzip",
        governor=GovernorSpec.pm(14.5, power_model="paper"),
        initial_frequency_mhz=600.0,
    )
    observed = _assert_same(
        cell, ExperimentConfig(scale=0.3, seed=2, keep_trace=True),
        fault_plan=plan, resilience=resilience,
    )
    kinds = {type(event).__name__ for event in observed["events"]}
    assert {
        "FaultInjected", "FaultRecovered", "WatchdogTripped",
        "DegradedModeEntered",
    } <= kinds


@RESUME_ORACLE
@given(
    _cell(scheduled=False),  # a generated guardband change is a lambda
    HARDENING,
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_faulted_checkpoint_resume_matches_uninterrupted(
    drawn, hardening, interval, cut_at, resume_fast
):
    """Checkpoint a faulted cell on the fast loop, cut its journal at a
    random durable record (plus a torn tail), resume on either loop."""
    cell, config = drawn
    plan, resilience = hardening
    options = {"fault_plan": plan, "resilience": resilience}
    baseline = run_result_digest(execute_cell(cell, config, **options))
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "run"
        journal = RunJournal.create(
            directory, kind="run", interval_ticks=interval
        )
        try:
            checkpointed = prepare_cell(cell, config, **options).execute(
                RunCheckpointer(journal)
            )
        finally:
            journal.close()
        assert run_result_digest(checkpointed) == baseline
        records = RunJournal.open(directory).records()
        cut = records[min(int(cut_at * len(records)), len(records) - 1)]
        with open(directory / "run.journal", "r+b") as handle:
            handle.truncate(cut.end_offset + 7)
        with _fast_loop(resume_fast):
            resumed, _state = resume_run(directory)
    assert run_result_digest(resumed) == baseline


def test_implausible_second_rate_matches_scalar():
    """mcf under PS retires ~0.4 instructions per cycle with ~1 DCU miss
    outstanding: a plausibility cap between the two rejects clean
    samples on the second rate alone."""
    cell = RunCell(workload="mcf", governor=GovernorSpec.ps(0.8))
    observed = _assert_same(
        cell, ExperimentConfig(scale=0.1, seed=1, keep_trace=True),
        resilience=ResilienceConfig(max_plausible_rate=0.6),
    )
    kinds = {type(event).__name__ for event in observed["events"]}
    assert {"FaultRecovered", "WatchdogTripped"} <= kinds
