"""Execution engine: declarative run plans, serial or parallel.

Public surface:

* :class:`~repro.exec.plan.RunPlan` / :class:`~repro.exec.plan.RunCell`
  / :class:`~repro.exec.plan.GovernorSpec` -- experiments as data;
* :func:`~repro.exec.session.open_session` -- the single composable
  entry point (telemetry, faults, adaptation, checkpointing, workers)
  and the only ambient execution state (:func:`current_session`);
* :class:`~repro.exec.runner.ParallelRunner` -- serial semantics over
  the lease-dispatched worker pool, behind ``workers>=1``;
* :func:`~repro.exec.core.execute_cell` -- the one code path every
  cell runs through, in every process.
"""

from repro.exec.core import PreparedCell, execute_cell, prepare_cell
from repro.exec.cache import (
    clear_caches,
    export_caches,
    install_caches,
    prime_for_plan,
    trained_power_model,
    worst_case_power_table,
)
from repro.exec.plan import (
    GOVERNOR_KINDS,
    PLAN_FORMAT_VERSION,
    VALID_SWEEP_AXES,
    ExperimentConfig,
    GovernorFactory,
    GovernorSpec,
    RunCell,
    RunPlan,
    as_governor_spec,
)
from repro.exec.runner import ParallelRunner
from repro.exec.session import (
    ExecSession,
    current_session,
    execute_cells,
    open_session,
)

__all__ = [
    "GOVERNOR_KINDS",
    "PLAN_FORMAT_VERSION",
    "VALID_SWEEP_AXES",
    "ExecSession",
    "ExperimentConfig",
    "GovernorFactory",
    "GovernorSpec",
    "ParallelRunner",
    "PreparedCell",
    "RunCell",
    "RunPlan",
    "as_governor_spec",
    "clear_caches",
    "current_session",
    "default_mp_context",
    "execute_cell",
    "execute_cells",
    "export_caches",
    "install_caches",
    "open_session",
    "prepare_cell",
    "prime_for_plan",
    "trained_power_model",
    "worst_case_power_table",
]


def __getattr__(name: str):
    # The pool lives in repro.campaign.dispatch, which imports this
    # package; its re-export resolves on first use.
    if name == "default_mp_context":
        from repro.campaign.dispatch import default_mp_context

        return default_mp_context
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
