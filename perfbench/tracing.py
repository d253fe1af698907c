"""Span tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer of ``repro``
from outside -- nothing in ``src/`` changes -- and keeps one span per
call in memory: the layer name, the span that was open when the call
started (its parent), and the start and end host times.  Spans are
written out once, when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover.  The program is single-threaded in the process that
is traced, so children nest strictly inside their parent and that part
is simply the sum of the children's durations.

Work done inside worker processes is not traced: a pool's cost shows
up as the parent's wall and wait time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

#: Entry points traced as spans: (module, attribute path, layer name).
#: Attribute paths with a dot are methods; plain names are module-level
#: functions, patched in every ``repro`` module that imported them.
SPANS = (
    ("repro.core.controller", "PowerManagementController.run",
     "core.controller.run"),
    ("repro.core.blockloop", "run_fast", "core.blockloop.run_fast"),
    ("repro.platform.machine", "Machine.step_block",
     "platform.machine.step_block"),
    ("repro.platform.machine", "Machine.step", "platform.machine.step"),
    ("repro.core.sampling", "CounterSampler.sample", "core.sampling.sample"),
    ("repro.measurement.power_meter", "PowerMeter.accumulate",
     "measurement.meter.accumulate"),
    ("repro.drivers.speedstep", "SpeedStepDriver.set_pstate",
     "drivers.speedstep.set_pstate"),
    ("repro.telemetry.recorder", "TelemetryRecorder.emit", "telemetry.emit"),
    ("repro.telemetry.spans", "_Span.__enter__", "telemetry.span"),
    ("repro.telemetry.spans", "_Span.__exit__", "telemetry.span"),
    ("repro.telemetry.metrics", "Histogram.observe",
     "telemetry.metrics.observe"),
    ("repro.faults.injector", "FaultInjector.record", "faults.injected"),
    ("repro.faults.injector", "FaultySampler.sample", "faults.wrapped"),
    ("repro.faults.injector", "FaultyPowerMeter.accumulate",
     "faults.wrapped"),
    ("repro.faults.injector", "FaultySpeedStep.set_pstate",
     "faults.wrapped"),
    ("repro.adaptation.manager", "AdaptationManager.observe",
     "adaptation.observe"),
    ("repro.adaptation.manager", "AdaptationManager.engage",
     "adaptation.engage"),
    ("repro.multicore.controller", "MulticoreController.run",
     "multicore.controller.run"),
    ("repro.multicore.machine", "MulticoreMachine.step",
     "multicore.machine.step"),
    ("repro.exec.core", "execute_cell", "exec.execute_cell"),
    ("repro.exec.core", "prepare_cell", "exec.prepare_cell"),
    ("repro.exec.cache", "trained_power_model", "exec.cache.lookup"),
    ("repro.exec.cache", "pm_projection_table", "exec.cache.lookup"),
    ("repro.exec.cache", "ps_projection_table", "exec.cache.lookup"),
    ("repro.core.models.training", "fit_power_model", "exec.cache.build"),
    ("repro.core.models.projection", "PowerProjectionTable.__init__",
     "exec.cache.build"),
    ("repro.core.models.projection", "ThroughputProjectionTable.__init__",
     "exec.cache.build"),
    ("repro.exec.runner", "ParallelRunner.execute", "exec.runner.execute"),
    ("repro.campaign.dispatch", "LeaseDispatcher.dispatch",
     "campaign.dispatch"),
    ("repro.campaign.dispatch", "Lease.__init__", "campaign.dispatch.lease"),
    ("multiprocessing.connection", "wait", "pool.wait"),
    ("repro.campaign.store", "ResultStore.put", "campaign.store.put"),
    ("repro.campaign.store", "ResultStore.get", "campaign.store.get"),
    ("repro.campaign.store", "cell_digest", "campaign.cell_digest"),
    ("repro.checkpoint.session", "ExperimentCheckpointSession.archived",
     "checkpoint.session.archived"),
    ("repro.checkpoint.session", "ExperimentCheckpointSession.finish_slot",
     "checkpoint.session.finish_slot"),
    ("repro.fleet.cluster", "HierarchicalFleetController.step",
     "fleet.cluster.step"),
    ("repro.fleet.hierarchy", "BudgetTree.reallocate", "fleet.realloc"),
    ("repro.fleet.controller", "FleetController.run",
     "fleet.controller.run"),
)


def _after_step_block(tracer: "Tracer", result, args) -> None:
    tracer.counts["platform.machine.step_block.ticks"] += len(result)


def _after_runner(tracer: "Tracer", result, args) -> None:
    tracer.counts["exec.runner.restarts"] += args[0].restarts


def _after_dispatch(tracer: "Tracer", result, args) -> None:
    tracer.counts["campaign.dispatch.retries"] += args[0].reissues


def _after_store_get(tracer: "Tracer", result, args) -> None:
    tracer.counts["campaign.store.hits"] += result is not None


def _after_engage(tracer: "Tracer", result, args) -> None:
    tracer.managers.append(args[0])


#: Hooks run after a traced call returns, keyed by layer name.
AFTER: Dict[str, Callable] = {
    "platform.machine.step_block": _after_step_block,
    "exec.runner.execute": _after_runner,
    "campaign.dispatch": _after_dispatch,
    "campaign.store.get": _after_store_get,
    "adaptation.engage": _after_engage,
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        #: Adaptation managers engaged while tracing (for their counters).
        self.managers: list = []
        self._undo: List[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, after=None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        nid = self._id(name)
        name_id, parent, start, end = (
            self.name_id, self.parent, self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def _patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, AFTER.get(name)))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        traced = self.wrap(original, name, AFTER.get(name))
        holders = [module] + [
            mod for key, mod in list(sys.modules.items())
            if key.startswith("repro") and mod is not module
            and getattr(mod, attr, None) is original
        ]
        for holder in holders:
            setattr(holder, attr, traced)
            self._undo.append(
                lambda holder=holder: setattr(holder, attr, original))

    def install(self) -> None:
        """Patch every entry point in :data:`SPANS` (and the governors)."""
        for module_name, path, name in SPANS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, name)
            else:
                self._patch_function(module, path, name)
        from repro.core.governors.base import Governor

        pending = [Governor]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "decide" in cls.__dict__:
                self._patch_method(cls, "decide", "core.governors.decide")

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- reading ------------------------------------------------------------

    def arrays(self) -> dict:
        """The span table as NumPy columns."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=n)
        return {
            "name_id": name_id,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        cols = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=cols["name_id"],
            parent=cols["parent"],
            start=cols["start"],
            end=cols["end"],
        )


#: Layers reported as ``<layer>.calls``, ``.self_s`` and ``.share``.
SPAN_LAYERS = (
    "core.blockloop.run_fast",
    "platform.machine.step_block",
    "core.controller.run",
    "core.sampling.sample",
    "core.governors.decide",
    "platform.machine.step",
    "measurement.meter.accumulate",
    "drivers.speedstep.set_pstate",
    "telemetry.emit",
    "telemetry.span",
    "telemetry.metrics.observe",
    "faults.wrapped",
    "adaptation.observe",
    "multicore.controller.run",
    "multicore.machine.step",
    "exec.prepare_cell",
    "campaign.cell_digest",
    "campaign.store.put",
    "campaign.store.get",
    "checkpoint.session.archived",
    "checkpoint.session.finish_slot",
    "fleet.cluster.step",
    "fleet.realloc",
    "fleet.controller.run",
)


def tail_quantile(n: int) -> float:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5


def _ms_quantiles(durations: np.ndarray) -> tuple[float, float]:
    if durations.size == 0:
        return 0.0, 0.0
    q = tail_quantile(durations.size)
    p50, tail = np.quantile(durations, [0.5, q])
    return 1e3 * float(p50), 1e3 * float(tail)


def layer_metrics(tracer: Tracer, host_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase lasting ``host_s`` seconds.

    Every layer is present; a layer the workload bypasses reads zero.
    """
    cols = tracer.arrays()
    name_id = cols["name_id"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name: str) -> np.ndarray:
        return name_id == ids.get(name, -1)

    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        m = mask(layer)
        self_s = float(cols["self"][m].sum())
        out[f"{layer}.calls"] = int(m.sum())
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / host_s
    counts = tracer.counts
    out["platform.machine.step_block.ticks"] = int(
        counts["platform.machine.step_block.ticks"])
    runs = out["core.controller.run.calls"]
    out["core.blockloop.fast_frac"] = (
        out["core.blockloop.run_fast.calls"] / runs if runs else 0.0)
    out["faults.injected"] = int(mask("faults.injected").sum())
    out["adaptation.recalibrations"] = sum(
        m.recalibrations for m in tracer.managers)
    out["adaptation.rollbacks"] = sum(m.rollbacks for m in tracer.managers)

    cells = mask("exec.execute_cell")
    out["exec.execute_cell.calls"] = int(cells.sum())
    (out["exec.execute_cell.ms.p50"],
     out["exec.execute_cell.ms.tail"]) = _ms_quantiles(
        cols["duration"][cells])
    lookups = np.flatnonzero(mask("exec.cache.lookup"))
    built = set(cols["parent"][mask("exec.cache.build")].tolist())
    out["exec.cache.hit_frac"] = (
        sum(int(i) not in built for i in lookups) / lookups.size
        if lookups.size else 0.0)

    waits = _wait_by_owner(tracer, cols, ids)
    for layer, prefix in (("exec.runner.execute", "exec.runner.execute"),
                          ("campaign.dispatch", "campaign.dispatch")):
        out[f"{prefix}.wall_s"] = float(cols["duration"][mask(layer)].sum())
        out[f"{prefix}.wait_s"] = waits.get(ids.get(layer, -1), 0.0)
    out["exec.runner.restarts"] = int(counts["exec.runner.restarts"])
    out["campaign.dispatch.leases"] = int(
        mask("campaign.dispatch.lease").sum())
    out["campaign.dispatch.retries"] = int(
        counts["campaign.dispatch.retries"])
    gets = out["campaign.store.get.calls"]
    out["campaign.store.hit_frac"] = (
        counts["campaign.store.hits"] / gets if gets else 0.0)
    (out["fleet.realloc_ms.p50"],
     out["fleet.realloc_ms.tail"]) = _ms_quantiles(
        cols["duration"][mask("fleet.realloc")])
    return out


def _wait_by_owner(tracer: Tracer, cols: dict, ids: dict) -> Dict[int, float]:
    """Pool wait time summed per owning layer (runner or dispatcher)."""
    owners = {ids[n] for n in ("exec.runner.execute", "campaign.dispatch")
              if n in ids}
    name_id, parent = cols["name_id"], cols["parent"]
    out: Dict[int, float] = {}
    for index in np.flatnonzero(name_id == ids.get("pool.wait", -1)):
        up = parent[index]
        while up >= 0 and name_id[up] not in owners:
            up = parent[up]
        if up >= 0:
            key = int(name_id[up])
            out[key] = out.get(key, 0.0) + float(cols["duration"][index])
    return out
