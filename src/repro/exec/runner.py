"""Parallel execution of a :class:`RunPlan` with serial semantics.

:class:`ParallelRunner` runs a plan's cells on the one worker pool, the
lease dispatcher (:class:`~repro.campaign.dispatch.LeaseDispatcher`),
and gives the outcome the shape of serial execution: results come back
in cell order, and a cell that fails fails the plan.  Determinism is
free by construction -- each cell derives every RNG stream from its own
data (experiment seed + seed offset), so a cell computes the same
bit-identical :func:`~repro.checkpoint.run_result_digest` no matter
which worker runs it, in which order, alongside what.

Fault model (the dispatcher's): a worker that dies mid-cell is reaped,
its cell re-issued and a replacement worker started, up to
``max_restarts`` times; a cell that raises a transient exception is
retried under the dispatcher's bounded backoff.  A permanent error
(:data:`~repro.supervise.PERMANENT_ERROR_TYPES`), a cell out of
attempts, or a pool that cannot be refilled raises
:class:`~repro.errors.ExperimentError` carrying the worker traceback.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, List

from repro.core.controller import RunResult
from repro.errors import ExperimentError
from repro.exec.plan import RunPlan


class ParallelRunner:
    """Process-pool executor for one :class:`RunPlan`, serial semantics."""

    def __init__(
        self,
        workers: int,
        mp_context: multiprocessing.context.BaseContext | str | None = None,
        max_restarts: int = 4,
        telemetry_root: str | os.PathLike | None = None,
        cell_hook: Callable[[int], None] | None = None,
    ):
        # Imported here: repro.campaign imports this package.
        from repro.campaign.dispatch import LeaseDispatcher

        self.max_restarts = max_restarts
        self.dispatcher = LeaseDispatcher(
            workers,
            max_attempts=max_restarts + 1,
            max_restarts=max_restarts,
            mp_context=mp_context,
            telemetry_root=telemetry_root,
            cell_hook=cell_hook,
        )

    @property
    def restarts(self) -> int:
        """Replacement workers started after crashes."""
        return self.dispatcher.restarts

    @property
    def rescheduled(self) -> int:
        """Cells re-issued after a crash, expiry or transient failure."""
        return self.dispatcher.reissues

    def _failure(self, plan: RunPlan, index: int, detail: str):
        return ExperimentError(
            f"cell {plan.cells[index].label} (index {index}) failed in a "
            f"worker (restart budget {self.max_restarts}):\n{detail}"
        )

    def execute(
        self, plan: RunPlan, checkpoint_session=None
    ) -> List[RunResult]:
        """Run every cell of ``plan``; results are in cell order.

        ``checkpoint_session`` (an
        :class:`~repro.checkpoint.session.ExperimentCheckpointSession`)
        enables campaign-level crash safety: slots are claimed in cell
        order in the parent, already-archived cells replay without
        executing, and every completed cell is durably archived on
        arrival.  Parallel mode checkpoints at cell granularity (no
        mid-run snapshots inside workers).
        """
        results: Dict[int, RunResult] = {}
        slots: Dict[int, int] = {}
        pending: List[int] = []
        for index in range(len(plan.cells)):
            if checkpoint_session is not None:
                slots[index], replayed = checkpoint_session.replay_slot(
                    workload=plan.cells[index].result_workload
                )
                if replayed is not None:
                    results[index] = replayed
                    continue
            pending.append(index)
        if not pending:
            return [results[index] for index in range(len(plan.cells))]

        def on_result(index: int, result: RunResult) -> None:
            results[index] = result
            if checkpoint_session is not None:
                checkpoint_session.finish_slot(slots[index], result)

        def on_quarantine(index: int, record: dict) -> None:
            raise self._failure(
                plan, index, record.get("traceback", record["error"])
            )

        outcome = self.dispatcher.dispatch(
            plan, pending, on_result=on_result, on_quarantine=on_quarantine
        )
        if outcome.interrupted:
            raise KeyboardInterrupt
        if outcome.lost:
            index = min(outcome.lost)
            raise self._failure(
                plan, index,
                f"every worker exited with cells {sorted(outcome.lost)} "
                "outstanding and no restarts left",
            )
        return [results[index] for index in range(len(plan.cells))]
