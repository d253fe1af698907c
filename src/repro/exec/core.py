"""The cell execution engine: one :class:`RunCell` -> one ``RunResult``.

This is the single code path every entry point funnels through --
the session API, the suite drivers, the CLI's ``run``
subcommand and the parallel workers all call :func:`execute_cell`, so
a cell produces bit-identical results no matter which layer asked for
it or which process it ran in.

Resolution order for the cross-cutting options (telemetry, faults,
adaptation, resilience): per-cell data beats explicit arguments beats
the process-local ambient contexts.  Workers never install ambient
state; everything they need rides on the cell and the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptation.context import current_adaptation_config
from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint.context import current_checkpoint_session
from repro.core.controller import PowerManagementController, RunResult
from repro.core.resilience import ResilienceConfig
from repro.errors import PlanError
from repro.exec.plan import ExperimentConfig, RunCell
from repro.faults.context import current_fault_plan
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.multicore.controller import MulticoreController
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.machine import Machine
from repro.telemetry.recorder import TelemetryRecorder, current_recorder


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
                    "not support checkpointing; run them outside a "
                    "checkpointing() session"
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
    use_ambient: bool = True,
) -> PreparedCell:
    """Resolve ``cell`` into live objects without running it.

    ``telemetry``/``fault_plan``/``adaptation``/``resilience`` are the
    plan- or caller-level defaults; per-cell values override them, and
    with ``use_ambient`` (the default in-process path) unset options
    fall back to the process-local contexts exactly as ``run_governed``
    always did.
    """
    tel = telemetry
    if tel is None and use_ambient:
        tel = current_recorder()
    plan = cell.fault_plan if cell.fault_plan is not None else fault_plan
    if plan is None and use_ambient:
        plan = current_fault_plan()
    adapt = cell.adaptation if cell.adaptation is not None else adaptation
    if adapt is None and use_ambient:
        adapt = current_adaptation_config()
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
) -> RunResult:
    """Execute one cell, honouring the ambient checkpoint session.

    This is the historical ``run_governed`` behaviour verbatim: when a
    checkpoint session is installed, completed slots replay from the
    archive, an interrupted slot resumes from its journal, and fresh
    slots run with periodic checkpointing -- slot indices line up
    because cells execute in deterministic order.
    """
    tel = telemetry
    if tel is None and use_ambient:
        tel = current_recorder()
    session = current_checkpoint_session() if use_ambient else None
    slot = None
    if session is not None:
        slot = session.claim()
        cached = session.archived(slot)
        if cached is not None:
            return cached
        resumed = session.resume_slot(slot, tel)
        if resumed is not None:
            session.finish_slot(slot, resumed, telemetry=tel)
            return resumed
    prepared = prepare_cell(
        cell,
        config,
        telemetry=tel,
        fault_plan=fault_plan,
        adaptation=adaptation,
        resilience=resilience,
        # Ambient telemetry is already resolved; pass the rest through.
        use_ambient=use_ambient,
    )
    checkpointer = (
        session.start_slot(
            slot, cell.workload_name, prepared.governor.name
        )
        if session is not None
        else None
    )
    result = prepared.execute(checkpointer)
    if session is not None:
        session.finish_slot(
            slot, result, telemetry=tel, checkpointer=checkpointer
        )
    return result
