"""Graceful stop: every worker of a finished dispatch gets its STOP.

Any worker may take any STOP off the shared queue, so a worker that
exits on the first one must not leave another waiting for a STOP that
is never sent (the coordinator would sit out its 10 s join timeout).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.process
import time

from repro.campaign.dispatch import LeaseDispatcher
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan

PLAN = RunPlan(
    config=ExperimentConfig(scale=0.05, seed=1),
    cells=(
        RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
        RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
    ),
)


def _slow_in_first_worker(index: int) -> None:
    # Worker 0 finishes last, so worker 1 is the one waiting on the
    # queue when the first STOP arrives.
    if multiprocessing.current_process().name.endswith("-0"):
        time.sleep(0.3)


def test_each_worker_gets_a_stop_when_another_exits_first(monkeypatch):
    real_is_alive = multiprocessing.process.BaseProcess.is_alive
    results = []

    def slow_is_alive(self):
        if len(results) == len(PLAN.cells):
            time.sleep(0.05)  # lets a worker exit between two checks
        return real_is_alive(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "is_alive", slow_is_alive
    )
    dispatcher = LeaseDispatcher(2, cell_hook=_slow_in_first_worker)
    start = time.monotonic()
    dispatcher.dispatch(
        PLAN, [0, 1], on_result=lambda index, _: results.append(index)
    )
    assert sorted(results) == [0, 1]
    assert time.monotonic() - start < 8.0  # a missed STOP costs 10 s
