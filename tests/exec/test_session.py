"""open_session is the one ambient execution state and the engine.

One ``open_session`` call carries telemetry, faults, adaptation and the
checkpoint session: ``execute_cell`` calls below it pick them up, they
carry as data into the plan, and the same handle routes
``execute_cells`` from any layer.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.session import ExperimentCheckpointSession
from repro.errors import CheckpointError
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell
from repro.exec.session import (
    current_session,
    execute_cells,
    open_session,
)
from repro.exec.cache import clear_caches, worst_case_power_table
from repro.exec.core import execute_cell
from repro.faults.plan import FaultPlan, MeterFaults, SampleFaults
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.registry import get_workload

CONFIG = ExperimentConfig(scale=0.05, seed=2)

CELLS = (
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
    RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
)


def _digests(results):
    return [run_result_digest(r) for r in results]


def test_open_session_installs_and_restores_ambient_state():
    faults = FaultPlan(seed=9, sample=SampleFaults(drop_prob=0.01))
    adaptation = AdaptationConfig(cooldown_ticks=123)
    recorder = TelemetryRecorder()
    assert current_session() is None
    with open_session(
        telemetry=recorder, faults=faults, adaptation=adaptation
    ) as session:
        assert current_session() is session
        assert session.telemetry is recorder
        assert session.faults is faults
        assert session.adaptation is adaptation
    assert current_session() is None


def test_session_run_matches_legacy_entry_point():
    workload = get_workload("ammp")
    spec = GovernorSpec.pm(14.5, power_model="paper")
    legacy = execute_cell(
        RunCell(workload=workload, governor=spec), CONFIG
    )
    with open_session() as session:
        new = session.run(workload, spec, CONFIG)
    assert run_result_digest(new) == run_result_digest(legacy)


def test_execute_cells_routes_through_ambient_session():
    serial = _digests(execute_cells(CELLS, CONFIG))  # no session: in-order
    with open_session(workers=2) as session:
        routed = execute_cells(CELLS, CONFIG)
    assert _digests(routed) == serial
    assert session.last_runner is not None  # it really went to the pool


def test_session_faults_change_results():
    with open_session() as session:
        clean = session.run_cells(CELLS, CONFIG)
    faults = FaultPlan(seed=4, sample=SampleFaults(garble_prob=0.2))
    with open_session(faults=faults) as session:
        faulty = session.run_cells(CELLS, CONFIG)
    assert _digests(clean) != _digests(faulty)


@pytest.mark.parametrize("first_workers", [0, 2])
@pytest.mark.parametrize("resume_workers", [0, 2])
def test_checkpointed_session_replays_on_resume(
    tmp_path, first_workers, resume_workers
):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(checkpoint=ckpt, workers=first_workers) as session:
            assert current_session().checkpoint is ckpt
            first = session.run_cells(CELLS, CONFIG)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        with open_session(checkpoint=ckpt, workers=resume_workers) as session:
            second = session.run_cells(CELLS, CONFIG)
        assert ckpt.replayed == len(CELLS)
    assert _digests(second) == _digests(first)


@pytest.mark.parametrize("resume_workers", [0, 2])
def test_resume_rejects_an_archive_with_shifted_slots(
    tmp_path, resume_workers
):
    """Slots match cells by claim order, so an archive whose cells sit
    one slot off (an extra measurement ran ahead of them) must not be
    replayed into the wrong cells."""
    directory = tmp_path / "ckpt"
    extra = RunCell.fixed("FMA-256KB", 2000.0)
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(checkpoint=ckpt) as session:
            session.run_cells((extra,) + CELLS, CONFIG)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        with open_session(checkpoint=ckpt, workers=resume_workers) as session:
            with pytest.raises(CheckpointError, match="older version"):
                session.run_cells(CELLS, CONFIG)


def test_slot_killed_before_its_manifest_runs_fresh(tmp_path):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        # A kill between creating run-0000/ and writing its manifest.
        (directory / "run-0000").mkdir()
        with open_session(checkpoint=ckpt) as session:
            results = session.run_cells(CELLS, CONFIG)
    expected = [execute_cell(cell, CONFIG) for cell in CELLS]
    assert _digests(results) == _digests(expected)


def test_parallel_session_writes_merged_telemetry(tmp_path):
    out = tmp_path / "telemetry"
    with open_session(workers=2, telemetry_dir=out) as session:
        session.run_cells(CELLS, CONFIG)
    assert (out / "metrics.json").exists()
    assert (out / "summary.txt").exists()
    workers = [p for p in out.iterdir()
               if p.is_dir() and p.name.startswith("worker-")]
    assert workers  # per-worker directories kept for debugging
    merged = (out / "summary.txt").read_text()
    assert "merged run summary" in merged


def test_nested_session_inherits_unset_options(tmp_path):
    recorder = TelemetryRecorder()
    faults = FaultPlan(seed=9, sample=SampleFaults(drop_prob=0.01))
    adaptation = AdaptationConfig(cooldown_ticks=123)
    with ExperimentCheckpointSession.create(
        tmp_path / "ckpt", experiment="exec-test"
    ) as ckpt:
        with open_session(
            telemetry=recorder, faults=faults, adaptation=adaptation,
            checkpoint=ckpt,
        ) as outer:
            with open_session() as inner:
                assert current_session() is inner
                assert inner.telemetry is recorder
                assert inner.faults is faults
                assert inner.adaptation is adaptation
                assert inner.checkpoint is ckpt
                inner.run_cells(CELLS[:1], CONFIG)
            assert current_session() is outer
            # The inner cell recorded into the outer recorder and
            # claimed a slot of the outer checkpoint session.
            assert recorder.metrics.counter("controller.ticks").value > 0
            assert ckpt.archived_count == 1
            other = FaultPlan(seed=1)
            with open_session(faults=other) as inner:
                assert inner.faults is other  # a set option wins
                assert inner.checkpoint is ckpt


def test_drift_frozen_leg_ignores_session_adaptation(monkeypatch):
    from repro.experiments import adaptation_drift

    calls = []
    original = adaptation_drift.execute_cell

    def spy(*args, **kwargs):
        calls.append((kwargs, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(adaptation_drift, "execute_cell", spy)
    adaptation_drift.run()
    frozen = run_result_digest(calls[0][1])
    recorder = TelemetryRecorder()
    with open_session(telemetry=recorder, adaptation=AdaptationConfig()):
        adaptation_drift.run()
    kwargs, result = calls[2]
    assert run_result_digest(result) == frozen
    assert kwargs["telemetry"] is recorder  # telemetry still reaches it


def test_worst_case_table_ignores_the_session():
    """Table III is characterised on the clean rig: the session's faults,
    adaptation and telemetry belong to the experiment's cells and never
    reach the measurement, so the cached table is the same wherever it
    was first measured."""
    clear_caches()
    try:
        outside = dict(worst_case_power_table(scale=0.05, seed=3))
        clear_caches()
        recorder = TelemetryRecorder()
        faults = FaultPlan(
            seed=1,
            sample=SampleFaults(drop_prob=0.3),
            meter=MeterFaults(spike_prob=0.3, drift_rate_per_s=1.0),
        )
        with open_session(
            telemetry=recorder, faults=faults, adaptation=AdaptationConfig()
        ):
            inside = dict(worst_case_power_table(scale=0.05, seed=3))
    finally:
        clear_caches()
    assert inside == outside
    assert "controller.ticks" not in recorder.metrics.snapshot()["counters"]
