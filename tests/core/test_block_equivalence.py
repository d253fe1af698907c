"""The batched-loop contract: FAST_LOOP on/off is unobservable.

``controller._run_loop`` dispatches eligible runs to the fused block
kernel (:mod:`repro.core.blockloop`); everything else takes the
historical scalar loop.  The contract is *bit-identical results* -- the
float-exact :func:`run_result_digest` (which covers every trace row,
meter sample, and energy accumulator) must not change with the
dispatch decision, for eligible and ineligible runs alike, including
kills and resumes that land mid-block.
"""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint import (
    RunCheckpointer,
    RunJournal,
    resume_run,
    run_result_digest,
)
from repro.core import blockloop
from repro.core.controller import PowerManagementController
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.limits import ConstraintSchedule
from repro.core.models.power import LinearPowerModel
from repro.core.resilience import ResilienceConfig
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, execute_cell
from repro.errors import SampleDropped
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    MeterFaults,
    SampleFaults,
    TransitionFaults,
)
from repro.platform.machine import Machine, MachineConfig
from repro.telemetry import TelemetryRecorder
from repro.telemetry.metrics import FALLBACK_COUNTER
from repro.workloads.registry import default_registry

CONFIG = ExperimentConfig(scale=0.25, seed=5, keep_trace=True)

#: The three governor archetypes: DBS (utilization, the OS baseline),
#: the paper's PM (model-projected power capping), and the
#: energy-optimal oracle (measured-power feedback -> scalar-only).
GOVERNORS = {
    "dbs": GovernorSpec.dbs(),
    "paper-pm": GovernorSpec.pm(14.5, power_model="paper"),
    "energy-optimal": GovernorSpec.energy_optimal(),
}

PLAN = FaultPlan(
    seed=7,
    sample=SampleFaults(drop_prob=0.05, garble_prob=0.02),
    meter=MeterFaults(spike_prob=0.02, drift_rate_per_s=0.01,
                      drift_start_s=0.1),
)


def _digest(spec, *, fast, monkeypatch, faults=False, adapt=False):
    monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
    result = execute_cell(
        RunCell(workload="gzip", governor=spec),
        CONFIG,
        fault_plan=PLAN if faults else None,
        adaptation=AdaptationManager(AdaptationConfig()) if adapt else None,
    )
    return run_result_digest(result)


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("adapt", [False, True], ids=["frozen", "adapt"])
def test_fast_loop_digest_matches_scalar(name, faults, adapt, monkeypatch):
    spec = GOVERNORS[name]
    scalar = _digest(spec, fast=False, monkeypatch=monkeypatch,
                     faults=faults, adapt=adapt)
    fast = _digest(spec, fast=True, monkeypatch=monkeypatch,
                   faults=faults, adapt=adapt)
    assert fast == scalar


def test_scalar_env_kill_switch(monkeypatch):
    spec = GOVERNORS["paper-pm"]
    scalar = _digest(spec, fast=False, monkeypatch=monkeypatch)
    monkeypatch.setenv("REPRO_SCALAR_LOOP", "1")
    gated = _digest(spec, fast=True, monkeypatch=monkeypatch)
    assert gated == scalar


def test_static_cell_digest_matches_scalar(monkeypatch):
    # Fixed-frequency cells take the dedicated static block path.
    scalar = _digest(GovernorSpec.fixed(1400.0), fast=False,
                     monkeypatch=monkeypatch)
    fast = _digest(GovernorSpec.fixed(1400.0), fast=True,
                   monkeypatch=monkeypatch)
    assert fast == scalar


def _fallbacks(spec, **kwargs):
    recorder = TelemetryRecorder()
    execute_cell(RunCell(workload="gzip", governor=spec), CONFIG,
                 telemetry=recorder, **kwargs)
    return {
        name[len(FALLBACK_COUNTER) + 1:]: value
        for name, value in recorder.metrics.snapshot()["counters"].items()
        if name.startswith(FALLBACK_COUNTER)
    }


def test_fallback_counter_names_the_failed_check(monkeypatch):
    """Telemetry-on runs say which check sent them to the scalar loop."""
    monkeypatch.delenv("REPRO_SCALAR_LOOP", raising=False)
    pm = GOVERNORS["paper-pm"]
    assert _fallbacks(pm) == {}  # telemetry itself no longer falls back
    assert _fallbacks(pm, fault_plan=PLAN) == {}  # nor do faults
    assert _fallbacks(pm, resilience=ResilienceConfig()) == {}
    assert _fallbacks(
        pm, adaptation=AdaptationManager(AdaptationConfig())
    ) == {"adaptation": 1.0}
    assert _fallbacks(GOVERNORS["energy-optimal"]) == {"governor": 1.0}
    assert _fallbacks(GovernorSpec.fixed(1400.0)) == {
        "static_telemetry": 1.0
    }
    # The static arm still leaves faults and resilience to the scalar loop.
    assert _fallbacks(GovernorSpec.fixed(1400.0), fault_plan=PLAN) == {
        "static_faults": 1.0
    }
    assert _fallbacks(
        GovernorSpec.fixed(1400.0), resilience=ResilienceConfig()
    ) == {"static_resilience": 1.0}
    monkeypatch.setenv("REPRO_SCALAR_LOOP", "1")
    assert _fallbacks(pm) == {"forced": 1.0}


# -- kill / resume mid-block ------------------------------------------------

INTERVAL = 10


def _controller(telemetry=None):
    machine = Machine(MachineConfig(seed=11))
    governor = PerformanceMaximizer(
        machine.config.table, LinearPowerModel.paper_model(), 14.5
    )
    return PowerManagementController(
        machine, governor, keep_trace=True, telemetry=telemetry
    )


def _workload():
    return default_registry().get("ammp").scaled(0.4)


def _checkpointed_run(directory, schedule=None, telemetry=None):
    journal = RunJournal.create(directory, kind="run",
                                interval_ticks=INTERVAL)
    try:
        result = _controller(telemetry).run(
            _workload(), schedule=schedule,
            checkpointer=RunCheckpointer(journal),
        )
    finally:
        journal.close()
    return result


def _truncate(directory, offset):
    with open(directory / "run.journal", "r+b") as handle:
        handle.truncate(offset)


def test_mid_block_kill_and_resume_bit_identical(tmp_path, monkeypatch):
    """Journal a fast run, tear it mid-block, resume both ways.

    A torn tail past a durable record boundary is exactly what a
    SIGKILL between checkpoints leaves behind: the resumed run restarts
    from the last durable checkpoint -- in the middle of what the fast
    loop executed as one block -- and must still finish bit-identical,
    whether the resumed leg itself runs fast or scalar.
    """
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    baseline = run_result_digest(_controller().run(_workload()))

    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    source = tmp_path / "j"
    checkpointed = _checkpointed_run(source)
    assert run_result_digest(checkpointed) == baseline

    records = RunJournal.open(source).records()
    assert len(records) > 3
    middle = records[len(records) // 2]
    for mode, fast in (("fast", True), ("scalar", False)):
        copy = tmp_path / f"cut-{mode}"
        shutil.copytree(source, copy)
        _truncate(copy, middle.end_offset + 7)
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        result, state = resume_run(copy)
        assert run_result_digest(result) == baseline, mode
        assert state.tick_index > middle.tick


def test_scalar_journal_resumes_under_fast_loop(tmp_path, monkeypatch):
    """Checkpoints written by the scalar loop restore into the fast one."""
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    baseline = run_result_digest(_controller().run(_workload()))
    source = tmp_path / "j"
    _checkpointed_run(source)

    records = RunJournal.open(source).records()
    copy = tmp_path / "cut"
    shutil.copytree(source, copy)
    _truncate(copy, records[len(records) // 2].end_offset)
    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    result, _state = resume_run(copy)
    assert run_result_digest(result) == baseline


# -- short runs: the final-tick residency entry -------------------------------


def test_final_tick_request_leaves_no_residency_entry(monkeypatch):
    """A p-state requested on the last tick never ran, so it gets no entry.

    Found by a fast/scalar random search: DBS raises the clock on the
    run's final tick, and the fast loop used to flush a ``0.0``
    residency entry for the requested p-state.
    """
    cell = RunCell(workload="ammp", governor=GovernorSpec.dbs(),
                   seed_offset=25, initial_frequency_mhz=600)
    config = ExperimentConfig(scale=0.05, seed=795)
    results = {}
    for fast in (True, False):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        results[fast] = execute_cell(cell, config)
    assert results[True].residency_s == results[False].residency_s
    assert 0.0 not in results[True].residency_s.values()
    assert run_result_digest(results[True]) == run_result_digest(
        results[False]
    )


class _PickleEveryTick:
    """Duck-typed checkpointer: pickles the run state before every tick."""

    interval_ticks = 1

    def __init__(self):
        self.snapshots = []

    def save(self, tick, state, tel=None):
        self.snapshots.append((tick, pickle.dumps(state)))


def test_checkpoint_after_actuation_matches_scalar(monkeypatch):
    """Every checkpoint -- including those right after an actuation --
    pickles to the same bytes on both loops."""
    snapshots = {}
    for fast in (True, False):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        machine = Machine(MachineConfig(seed=795))
        controller = PowerManagementController(
            machine, DemandBasedSwitching(machine.config.table)
        )
        checkpointer = _PickleEveryTick()
        controller.run(
            default_registry().get("ammp").scaled(0.05),
            initial_pstate=machine.config.table.slowest,
            checkpointer=checkpointer,
        )
        snapshots[fast] = checkpointer.snapshots
    assert len(snapshots[True]) > 3
    assert snapshots[True] == snapshots[False]


class _TickLog:
    """Duck-typed checkpointer: records the ticks it is asked to save."""

    interval_ticks = 7

    def __init__(self):
        self.ticks = []

    def save(self, tick, state, tel=None):
        self.ticks.append(tick)


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_checkpoint_cadence_matches_scalar(faults, monkeypatch):
    """Both loops save at tick 0 and then every ``interval_ticks``."""
    saved = {}
    for fast in (True, False):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        controller = (
            _faulted_controller(ResilienceConfig()) if faults
            else _controller()
        )
        checkpointer = _TickLog()
        controller.run(_workload(), checkpointer=checkpointer)
        saved[fast] = checkpointer.ticks
    assert saved[True] == saved[False]
    assert saved[True][:3] == [0, 7, 14]


#: Every sampler, meter and transition fault kind at once.
ALL_FAULTS = FaultPlan(
    seed=3,
    sample=SampleFaults(drop_prob=0.1, duplicate_prob=0.1,
                        garble_prob=0.1, overflow_prob=0.05),
    meter=MeterFaults(dropout_prob=0.05, spike_prob=0.1,
                      drift_rate_per_s=0.5, drift_start_s=0.05),
    transition=TransitionFaults(fail_prob=0.4, stall_prob=0.3),
)


def _faulted_controller(resilience):
    machine = Machine(MachineConfig(seed=21))
    governor = PerformanceMaximizer(
        machine.config.table, LinearPowerModel.paper_model(), 12.0
    )
    return PowerManagementController(
        machine, governor, keep_trace=True, resilience=resilience,
        injector=FaultInjector(ALL_FAULTS),
    )


def test_faulted_checkpoints_match_scalar_every_tick(monkeypatch):
    """A hardened, fault-injected run pickles to the same bytes on both
    loops before every tick: the wrappers' and the resilience runtime's
    state (streaks, last good sample, corrupted-sample count, injector
    RNG streams) is never torn or stale in the fast loop."""
    snapshots = {}
    for fast in (True, False):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        controller = _faulted_controller(
            ResilienceConfig(watchdog_fault_ticks=3)
        )
        checkpointer = _PickleEveryTick()
        result = controller.run(
            default_registry().get("gzip").scaled(0.2),
            initial_pstate=controller.machine.config.table.slowest,
            checkpointer=checkpointer,
        )
        snapshots[fast] = checkpointer.snapshots
        assert result.recoveries and sum(
            controller._injector.injected.values()
        ) > 10
    assert len(snapshots[True]) > 3
    assert snapshots[True] == snapshots[False]


def test_unhardened_injection_matches_scalar(monkeypatch):
    """Faults without a resilience runtime: corrupted samples reach the
    governor directly, and a dropped sample aborts the run with the
    same error on both loops."""
    outcomes = {}
    for drop in (0.0, 0.2):
        plan = FaultPlan(
            seed=8,
            sample=SampleFaults(drop_prob=drop, duplicate_prob=0.2,
                                garble_prob=0.2),
            meter=MeterFaults(spike_prob=0.2),
            transition=TransitionFaults(stall_prob=0.5),
        )
        for fast in (True, False):
            monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
            machine = Machine(MachineConfig(seed=4))
            controller = PowerManagementController(
                machine,
                PerformanceMaximizer(
                    machine.config.table, LinearPowerModel.paper_model(),
                    12.0,
                ),
                keep_trace=True,
                injector=FaultInjector(plan),
            )
            try:
                result = controller.run(
                    default_registry().get("gzip").scaled(0.3)
                )
                outcomes[drop, fast] = run_result_digest(result)
            except SampleDropped as error:
                outcomes[drop, fast] = str(error)
    assert outcomes[0.0, True] == outcomes[0.0, False]
    assert outcomes[0.2, True] == outcomes[0.2, False]
    assert "injected dropped counter sample" in outcomes[0.2, True]


# -- schedules and telemetry across a kill --------------------------------

#: Two limit changes around the middle of the ~0.57 s ``_workload()`` run.
CHANGE_TIMES = (0.15, 0.42)


def _schedule():
    schedule = ConstraintSchedule()
    schedule.add_power_limit(CHANGE_TIMES[0], 12.0)
    schedule.add_power_limit(CHANGE_TIMES[1], 16.0)
    return schedule


def _between_changes(directory):
    """The last durable record whose tick lies between the two changes."""
    records = RunJournal.open(directory).records()
    inside = [r for r in records
              if CHANGE_TIMES[0] < r.tick * 0.01 < CHANGE_TIMES[1] - 0.02]
    assert inside
    return inside[-1]


def _metrics(recorder):
    snap = recorder.metrics.snapshot()
    snap["counters"] = {
        name: value for name, value in snap["counters"].items()
        if not name.startswith(FALLBACK_COUNTER)
    }
    return snap


def test_scheduled_instrumented_kill_between_changes(tmp_path, monkeypatch):
    """A scheduled, instrumented run killed between its two changes.

    The resumed leg delivers only the pending change, once, and ends
    bit-identical -- result and metrics -- to the uninterrupted run,
    whichever loop runs either leg.
    """
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    reference = TelemetryRecorder()
    baseline = run_result_digest(
        _controller(reference).run(_workload(), schedule=_schedule())
    )

    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    source = tmp_path / "j"
    checkpointed = _checkpointed_run(
        source, schedule=_schedule(), telemetry=TelemetryRecorder()
    )
    assert run_result_digest(checkpointed) == baseline

    cut = _between_changes(source)
    for mode, fast in (("fast", True), ("scalar", False)):
        copy = tmp_path / f"cut-{mode}"
        shutil.copytree(source, copy)
        _truncate(copy, cut.end_offset + 7)
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        recorder = TelemetryRecorder()
        events = []
        recorder.bus.subscribe(events.append)
        result, state = resume_run(copy, telemetry=recorder)
        assert run_result_digest(result) == baseline, mode
        assert state.delivered == 2, mode
        delivered = [e for e in events if e.kind == "constraint"]
        assert [e.label for e in delivered] == ["power_limit=16.0W"], mode
        assert _metrics(recorder) == _metrics(reference), mode


def test_scalar_journal_with_pending_change_resumes_fast(
    tmp_path, monkeypatch
):
    """A scalar-loop journal cut before a change resumes on the fast loop."""
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    baseline = run_result_digest(
        _controller().run(_workload(), schedule=_schedule())
    )
    source = tmp_path / "j"
    _checkpointed_run(source, schedule=_schedule())

    copy = tmp_path / "cut"
    shutil.copytree(source, copy)
    _truncate(copy, _between_changes(source).end_offset)
    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    result, state = resume_run(copy)
    assert run_result_digest(result) == baseline
    assert state.delivered == 2
