"""Worker-crash handling: lost cells reschedule, budgets bound retries.

The kill hooks must live at module level (and be bound with
``functools.partial``) so they survive pickling into worker processes.
``_kill_once`` uses ``O_CREAT | O_EXCL`` on a marker file as a
cross-process "only one of us dies" latch.
"""

from __future__ import annotations

import functools
import os
import signal

import pytest

from repro.checkpoint.digest import run_result_digest
from repro.errors import ExperimentError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.exec.runner import ParallelRunner

CONFIG = ExperimentConfig(scale=0.05, seed=1)

CELLS = tuple(
    RunCell(workload=name, governor=GovernorSpec.fixed(freq))
    for name, freq in (
        ("ammp", 1600.0), ("mcf", 2000.0), ("ammp", 1000.0),
    )
)


def _kill_once(marker_path: str, index: int) -> None:
    """SIGKILL the calling worker the first time any worker runs this."""
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_always(index: int) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_worker_cells_are_rescheduled(tmp_path):
    serial = [
        run_result_digest(execute_cell(cell, CONFIG)) for cell in CELLS
    ]
    marker = tmp_path / "killed-once"
    runner = ParallelRunner(
        2, cell_hook=functools.partial(_kill_once, os.fspath(marker))
    )
    results = runner.execute(RunPlan(config=CONFIG, cells=CELLS))
    assert [run_result_digest(r) for r in results] == serial
    assert marker.exists()
    assert runner.restarts >= 1
    assert runner.rescheduled >= 1


def test_restart_budget_exhaustion_raises():
    runner = ParallelRunner(1, max_restarts=0, cell_hook=_kill_always)
    with pytest.raises(ExperimentError, match="restart budget"):
        runner.execute(RunPlan(config=CONFIG, cells=CELLS))


def _fail_once(marker_path: str, index: int) -> None:
    """Raise a transient error the first time any worker runs this."""
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    raise RuntimeError("injected transient fault")


def test_transient_worker_error_is_retried(tmp_path):
    serial = [
        run_result_digest(execute_cell(cell, CONFIG)) for cell in CELLS
    ]
    marker = tmp_path / "failed-once"
    runner = ParallelRunner(
        1, cell_hook=functools.partial(_fail_once, os.fspath(marker))
    )
    results = runner.execute(RunPlan(config=CONFIG, cells=CELLS))
    assert [run_result_digest(r) for r in results] == serial
    assert marker.exists()
    assert runner.rescheduled >= 1


def test_worker_exception_propagates():
    cells = (RunCell(workload="no-such-workload",
                     governor=GovernorSpec.dbs()),)
    runner = ParallelRunner(1)
    with pytest.raises(ExperimentError, match="no-such-workload"):
        runner.execute(RunPlan(config=CONFIG, cells=cells))


def test_runner_rejects_zero_workers():
    with pytest.raises(ExperimentError, match="at least one"):
        ParallelRunner(0)
