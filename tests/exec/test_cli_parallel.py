"""CLI surface of the execution engine: ``run --plan`` and ``--workers``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exec.cache import clear_caches
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan


def _plan_file(tmp_path, workers_cells=2):
    cells = (
        RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
        RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
    )[:workers_cells]
    plan = RunPlan(config=ExperimentConfig(scale=0.05, seed=2), cells=cells)
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    return path


def test_run_plan_serial(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ammp" in out and "mcf" in out


def test_run_plan_parallel_matches_serial(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path)]) == 0
    serial = capsys.readouterr().out.splitlines()
    assert main(["run", "--plan", str(path), "--workers", "2"]) == 0
    parallel = capsys.readouterr().out.splitlines()
    # The header names the worker count; every per-cell line must match.
    assert parallel[1:] == serial[1:]


def test_run_plan_rejects_workload_argument(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "ammp", "--plan", str(path)]) == 1
    assert "--plan" in capsys.readouterr().err


def test_run_plan_rejects_checkpoint_options(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path), "--checkpoint",
                 str(tmp_path / "ckpt")]) == 1
    assert "--plan" in capsys.readouterr().err


def test_run_plan_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text("{broken")
    assert main(["run", "--plan", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_experiment_workers_merges_telemetry(tmp_path, capsys):
    out_dir = tmp_path / "telemetry"
    assert main([
        "experiment", "fig1", "--scale", "0.05",
        "--workers", "2", "--telemetry", str(out_dir),
    ]) == 0
    capsys.readouterr()
    assert (out_dir / "metrics.json").exists()
    workers = [p for p in out_dir.iterdir()
               if p.is_dir() and p.name.startswith("worker-")]
    assert workers
    merged = json.loads((out_dir / "metrics.json").read_text())
    assert merged["metrics"]["counters"]


def test_experiment_rejects_negative_workers(capsys):
    assert main(["experiment", "fig1", "--workers", "-1"]) == 1
    assert "--workers" in capsys.readouterr().err


@pytest.fixture
def fresh_caches():
    """Per-process caches as a new process has them, before and after."""
    clear_caches()
    yield clear_caches
    clear_caches()


@pytest.mark.parametrize("workers", ["0", "1"])
@pytest.mark.parametrize("experiment", ["fig5", "fig7"])
def test_experiment_options_reach_every_cell(
    tmp_path, capsys, fresh_caches, experiment, workers
):
    """fig5 calls execute_cell directly; fig7's suite sweeps go through
    execute_cells (and the pool with workers)."""
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "seed": 0,
        "sample": {"drop_prob": 0.08},
        "transition": {"fail_prob": 0.4},
    }))
    telemetry = tmp_path / "telemetry"
    checkpoint = tmp_path / "ckpt"
    assert main([
        "experiment", experiment, "--scale", "0.05",
        "--faults", str(faults), "--adapt",
        "--telemetry", str(telemetry), "--checkpoint", str(checkpoint),
        "--workers", workers,
    ]) == 0
    first = capsys.readouterr().out
    metrics = json.loads((telemetry / "metrics.json").read_text())["metrics"]
    names = [name for kind in metrics.values() for name in kind]
    assert any(name.startswith("faults.injected.") for name in names)
    assert any(name.startswith("adaptation.") for name in names)
    fresh_caches()  # a resume is a new process
    assert main([
        "experiment", "--resume", str(checkpoint), "--workers", workers,
    ]) == 0
    resumed = capsys.readouterr()
    assert "replayed" in resumed.err
    assert resumed.out == first.replace(
        f"telemetry written to {telemetry}\n", ""
    )


def test_in_process_resume_matches_a_fresh_process(
    tmp_path, capsys, fresh_caches
):
    """The Table III characterisation fig7 provisions against claims no
    checkpoint slots, so resuming in the process that wrote the archive
    (table cached) replays the same cells, and prints the same
    speedups, as a fresh process (table measured again)."""
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "seed": 0,
        "meter": {"spike_prob": 0.2},
        "transition": {"fail_prob": 0.4},
    }))
    checkpoint = tmp_path / "ckpt"
    assert main([
        "experiment", "fig7", "--scale", "0.05",
        "--faults", str(faults), "--checkpoint", str(checkpoint),
    ]) == 0
    first = capsys.readouterr().out
    assert main(["experiment", "--resume", str(checkpoint)]) == 0
    warm = capsys.readouterr()
    fresh_caches()  # a fresh process
    assert main(["experiment", "--resume", str(checkpoint)]) == 0
    cold = capsys.readouterr()
    assert warm.out == first
    assert cold.out == first

    def replayed(err):
        return [line for line in err.splitlines() if "replayed" in line]

    assert replayed(warm.err) == replayed(cold.err) != []
