"""One composable entry point for running experiments.

:func:`open_session` is the one handle on execution state: telemetry,
faults, adaptation, resilience, checkpointing and the worker pool::

    with open_session(telemetry_dir="out", faults=faults,
                      adaptation=adapt, checkpoint=ckpt,
                      workers=4) as session:
        result = session.run("mcf", GovernorSpec.ps(0.8), config)

The open session is also the only ambient execution state: code many
layers below (suite drivers, ``median_run``, experiment modules) reaches
it through :func:`current_session`.  :func:`execute_cells` routes
through it -- so a CLI-level ``--workers 4`` parallelises sweeps built
many layers below without those layers knowing -- and
:func:`~repro.exec.core.execute_cell` fills the options its caller left
unset from it.  ``workers=0`` runs cells serially in-process,
``workers>=1`` fans them out through
:class:`~repro.exec.runner.ParallelRunner` with bit-identical results.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, List, Sequence

from repro.adaptation.manager import AdaptationConfig
from repro.core.controller import RunResult
from repro.core.resilience import ResilienceConfig
from repro.exec.core import execute_cell
from repro.exec.plan import (
    ExperimentConfig,
    GovernorFactory,
    GovernorSpec,
    RunCell,
    RunPlan,
    as_governor_spec,
)
from repro.faults.plan import FaultPlan
from repro.telemetry.recorder import TelemetryRecorder

_current: "ExecSession | None" = None


def current_session() -> "ExecSession | None":
    """The innermost session opened by :func:`open_session` (or None)."""
    return _current


class ExecSession:
    """A live execution scope: options + (optionally) a worker pool.

    :func:`open_session` builds one and installs it; a session built
    directly runs plans the same way but is not visible to
    :func:`execute_cells` or to ``execute_cell`` calls below it.
    """

    def __init__(
        self,
        workers: int = 0,
        telemetry: TelemetryRecorder | None = None,
        telemetry_dir: str | os.PathLike | None = None,
        faults: FaultPlan | None = None,
        adaptation: AdaptationConfig | None = None,
        resilience: ResilienceConfig | None = None,
        checkpoint=None,
        mp_context=None,
        max_restarts: int = 4,
        cell_hook=None,
    ):
        self.workers = workers
        self.telemetry = telemetry
        self.telemetry_dir = (
            os.fspath(telemetry_dir) if telemetry_dir is not None else None
        )
        self.faults = faults
        self.adaptation = adaptation
        self.resilience = resilience
        self.checkpoint = checkpoint
        self.mp_context = mp_context
        self.max_restarts = max_restarts
        self.cell_hook = cell_hook
        #: The most recent ParallelRunner (crash/reschedule stats).
        self.last_runner = None
        #: The worker-telemetry MergeReport, set when a parallel
        #: session with a ``telemetry_dir`` closes.
        self.merged = None

    @property
    def parallel(self) -> bool:
        """Whether this session dispatches to a worker pool."""
        return self.workers >= 1

    # -- running -----------------------------------------------------------

    def run_cells(
        self, cells: Sequence[RunCell], config: ExperimentConfig
    ) -> List[RunResult]:
        """Execute ``cells`` under this session's options, in cell order."""
        plan = RunPlan(
            config=config,
            cells=tuple(cells),
            fault_plan=self.faults,
            adaptation=self.adaptation,
            resilience=self.resilience,
        )
        return self.run_plan(plan)

    def run_plan(self, plan: RunPlan) -> List[RunResult]:
        """Execute a fully-specified plan (serially or on the pool).

        Serially, the session's faults and adaptation apply where the
        plan sets none, as they do for any ``execute_cell`` below it.
        """
        if not self.parallel:
            fault_plan = (
                plan.fault_plan if plan.fault_plan is not None
                else self.faults
            )
            adaptation = (
                plan.adaptation if plan.adaptation is not None
                else self.adaptation
            )
            return [
                execute_cell(
                    cell,
                    plan.config,
                    telemetry=self.telemetry,
                    fault_plan=fault_plan,
                    adaptation=adaptation,
                    resilience=plan.resilience,
                    checkpoint=self.checkpoint,
                    use_ambient=False,
                )
                for cell in plan.cells
            ]
        from repro.exec.runner import ParallelRunner

        runner = ParallelRunner(
            self.workers,
            mp_context=self.mp_context,
            max_restarts=self.max_restarts,
            telemetry_root=self.telemetry_dir,
            cell_hook=self.cell_hook,
        )
        self.last_runner = runner
        return runner.execute(plan, checkpoint_session=self.checkpoint)

    def run(
        self,
        workload,
        governor: GovernorSpec | GovernorFactory,
        config: ExperimentConfig | None = None,
        **cell_kwargs,
    ) -> RunResult:
        """Run a single cell (the ``run_governed`` shape) and return it."""
        cell = RunCell(
            workload=workload,
            governor=as_governor_spec(governor),
            **cell_kwargs,
        )
        return self.run_cells([cell], config or ExperimentConfig())[0]


def execute_cells(
    cells: Sequence[RunCell], config: ExperimentConfig
) -> List[RunResult]:
    """Execute cells through the ambient session (serial when none).

    This is the seam mid-layer code (suite drivers, ``median_run``,
    experiment modules) calls so that a session opened above them --
    e.g. the CLI's ``--workers 4`` -- transparently parallelises their
    sweeps.  Without a session cells run in order, in process, with no
    telemetry, faults, adaptation or checkpointing.
    """
    session = current_session()
    if session is not None:
        return session.run_cells(cells, config)
    return [execute_cell(cell, config) for cell in cells]


@contextlib.contextmanager
def open_session(
    workers: int = 0,
    telemetry: TelemetryRecorder | None = None,
    telemetry_dir: str | os.PathLike | None = None,
    faults: FaultPlan | None = None,
    adaptation: AdaptationConfig | None = None,
    resilience: ResilienceConfig | None = None,
    checkpoint=None,
    mp_context=None,
    max_restarts: int = 4,
) -> Iterator[ExecSession]:
    """Open and install an execution session: options + engine.

    * ``workers=0`` (default): cells run serially in this process.
    * ``workers>=1``: sweeps fan out over a worker pool; per-cell
      results are bit-identical to serial execution.
    * ``telemetry_dir``: create (or reuse ``telemetry``) a recorder and
      write a full telemetry directory there on exit; with workers,
      per-worker subdirectories are merged in automatically (the
      :class:`~repro.telemetry.merge.MergeReport` is left on
      ``session.merged``).
    * ``telemetry`` / ``faults`` / ``adaptation`` / ``resilience`` /
      ``checkpoint``: plan-wide options, seen by every ``execute_cell``
      below the session *and* carried as data into worker processes.
      A nested session inherits each of these it leaves unset from the
      enclosing session (a recorder only when it names no
      ``telemetry_dir`` of its own).
    """
    global _current
    outer = _current
    if outer is not None:
        if telemetry is None and telemetry_dir is None:
            telemetry = outer.telemetry
        if faults is None:
            faults = outer.faults
        if adaptation is None:
            adaptation = outer.adaptation
        if resilience is None:
            resilience = outer.resilience
        if checkpoint is None:
            checkpoint = outer.checkpoint
    recorder = telemetry
    sink = None
    if telemetry_dir is not None:
        if recorder is None:
            recorder = TelemetryRecorder()
        from repro.telemetry.exporters import TelemetryDirectory

        sink = TelemetryDirectory(telemetry_dir)
        sink.attach(recorder)
    session = ExecSession(
        workers=workers,
        telemetry=recorder,
        telemetry_dir=telemetry_dir,
        faults=faults,
        adaptation=adaptation,
        resilience=resilience,
        checkpoint=checkpoint,
        mp_context=mp_context,
        max_restarts=max_restarts,
    )
    _current = session
    try:
        yield session
    finally:
        _current = outer
        if sink is not None:
            sink.finalize(recorder)
        if session.telemetry_dir is not None and session.parallel:
            from repro.telemetry.merge import merge_worker_directories

            session.merged = merge_worker_directories(session.telemetry_dir)
