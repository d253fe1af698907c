"""The cell execution engine: one :class:`RunCell` -> one ``RunResult``.

This is the single code path every entry point funnels through --
the session API, the suite drivers, the CLI's ``run``
subcommand and the parallel workers all call :func:`execute_cell`, so
a cell produces bit-identical results no matter which layer asked for
it or which process it ran in.

Resolution order for the cross-cutting options (telemetry, faults,
adaptation, checkpoint): per-cell data beats explicit arguments beats
the open :class:`~repro.exec.session.ExecSession`.  Workers open no
session; everything they need rides on the cell and the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.core.controller import PowerManagementController, RunResult
from repro.core.resilience import ResilienceConfig
from repro.errors import PlanError
from repro.exec.plan import ExperimentConfig, RunCell
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.multicore.controller import MulticoreController
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.machine import Machine
from repro.telemetry.recorder import TelemetryRecorder


@dataclass
class PreparedCell:
    """A cell resolved into live objects, ready to execute.

    The CLI uses the exposed handles (``governor``, ``injector``,
    ``adaptation``) to print post-run summaries; everything else just
    calls :meth:`execute`.
    """

    cell: RunCell
    config: ExperimentConfig
    machine: Machine | MulticoreMachine
    controller: PowerManagementController | MulticoreController
    governor: object
    injector: FaultInjector | None
    adaptation: AdaptationManager | None
    telemetry: TelemetryRecorder | None

    def execute(self, checkpointer=None) -> RunResult:
        """Run the cell to completion (optionally checkpointed)."""
        cell = self.cell
        config = self.config
        workload = cell.resolve_workload().scaled(config.scale)
        initial = (
            config.table.by_frequency(cell.initial_frequency_mhz)
            if cell.initial_frequency_mhz is not None
            else None
        )
        tel = self.telemetry
        if isinstance(self.controller, MulticoreController):
            if checkpointer is not None:
                raise PlanError(
                    f"cell {cell.label}: multicore cells (threads > 1) do "
                    "not support checkpointing; run them in a session "
                    "without a checkpoint"
                )
            if tel is not None and tel.enabled:
                with tel.span("run"):
                    out = self.controller.run(
                        workload,
                        threads=cell.threads,
                        initial_pstate=initial,
                        max_seconds=config.max_seconds,
                    )
            else:
                out = self.controller.run(
                    workload,
                    threads=cell.threads,
                    initial_pstate=initial,
                    max_seconds=config.max_seconds,
                )
            return out.result
        if tel is not None and tel.enabled:
            with tel.span("run"):
                return self.controller.run(
                    workload,
                    initial_pstate=initial,
                    schedule=cell.schedule,
                    max_seconds=config.max_seconds,
                    checkpointer=checkpointer,
                )
        return self.controller.run(
            workload,
            initial_pstate=initial,
            schedule=cell.schedule,
            max_seconds=config.max_seconds,
            checkpointer=checkpointer,
        )


def prepare_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
    fault_plan: FaultPlan | None = None,
    adaptation: AdaptationConfig | AdaptationManager | None = None,
    resilience: ResilienceConfig | None = None,
) -> PreparedCell:
    """Resolve ``cell`` into live objects without running it.

    ``telemetry``/``fault_plan``/``adaptation``/``resilience`` are the
    plan- or caller-level defaults; per-cell values override them.
    """
    tel = telemetry
    plan = cell.fault_plan if cell.fault_plan is not None else fault_plan
    adapt = cell.adaptation if cell.adaptation is not None else adaptation
    if adapt is not None and not isinstance(adapt, AdaptationManager):
        adapt = AdaptationManager(adapt)
    resil = cell.resilience if cell.resilience is not None else resilience
    injector = (
        FaultInjector(plan, telemetry=tel)
        if plan is not None and plan.active
        else None
    )
    if injector is not None and resil is None:
        # Injecting faults into an unhardened loop would just crash it.
        resil = ResilienceConfig()
    if cell.threads > 1:
        unsupported = [
            name
            for name, value in (
                ("fault injection", injector),
                ("adaptation", adapt),
                ("resilience", resil),
                ("constraint schedules", cell.schedule),
            )
            if value is not None
        ]
        if unsupported:
            raise PlanError(
                f"cell {cell.label}: multicore cells (threads > 1) do not "
                f"support {', '.join(unsupported)}; drop those options or "
                "run the cell single-threaded"
            )
        mc_machine = MulticoreMachine(MulticoreConfig(
            n_cores=cell.threads,
            machine=config.machine_config(cell.seed_offset),
        ))
        mc_governor = cell.governor.build(config.table, seed=config.seed)
        mc_controller = MulticoreController(
            mc_machine,
            mc_governor,
            keep_trace=config.keep_trace,
            telemetry=tel,
        )
        return PreparedCell(
            cell=cell,
            config=config,
            machine=mc_machine,
            controller=mc_controller,
            governor=mc_governor,
            injector=None,
            adaptation=None,
            telemetry=tel,
        )
    machine = Machine(config.machine_config(cell.seed_offset))
    governor = cell.governor.build(machine.config.table, seed=config.seed)
    controller = PowerManagementController(
        machine,
        governor,
        keep_trace=config.keep_trace,
        telemetry=tel,
        resilience=resil,
        injector=injector,
        adaptation=adapt,
    )
    return PreparedCell(
        cell=cell,
        config=config,
        machine=machine,
        controller=controller,
        governor=governor,
        injector=injector,
        adaptation=adapt,
        telemetry=tel,
    )


def execute_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
    fault_plan: FaultPlan | None = None,
    adaptation: AdaptationConfig | AdaptationManager | None = None,
    resilience: ResilienceConfig | None = None,
    use_ambient: bool = True,
    checkpoint=None,
) -> RunResult:
    """Execute one cell, checkpointed when a checkpoint session is given.

    With ``use_ambient`` (the default in-process path), telemetry,
    faults, adaptation and checkpoint left unset come from the open
    :class:`~repro.exec.session.ExecSession`, if any.  With a
    ``checkpoint`` (an
    :class:`~repro.checkpoint.session.ExperimentCheckpointSession`),
    completed slots replay from the archive, an interrupted slot
    resumes from its journal, and fresh slots run with periodic
    checkpointing -- slot indices line up because cells execute in
    deterministic order.
    """
    if use_ambient:
        # Imported here: repro.exec.session imports this module.
        from repro.exec.session import current_session

        session = current_session()
        if session is not None:
            if telemetry is None:
                telemetry = session.telemetry
            if fault_plan is None:
                fault_plan = session.faults
            if adaptation is None:
                adaptation = session.adaptation
            if checkpoint is None:
                checkpoint = session.checkpoint
    slot = None
    if checkpoint is not None:
        slot, replayed = checkpoint.replay_slot(
            telemetry, cell.result_workload
        )
        if replayed is not None:
            return replayed
    prepared = prepare_cell(
        cell,
        config,
        telemetry=telemetry,
        fault_plan=fault_plan,
        adaptation=adaptation,
        resilience=resilience,
    )
    checkpointer = (
        checkpoint.start_slot(
            slot, cell.workload_name, prepared.governor.name
        )
        if checkpoint is not None
        else None
    )
    result = prepared.execute(checkpointer)
    if checkpoint is not None:
        checkpoint.finish_slot(
            slot, result, telemetry=telemetry, checkpointer=checkpointer
        )
    return result
