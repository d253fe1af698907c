"""The benchmark's metric catalogue: names, units and directions.

``BENCHMARK.json`` at the repository root lists exactly these metrics;
``tests/test_checks.py`` keeps the two in step.
"""

from __future__ import annotations

from tracing import SPAN_LAYERS

#: (name, unit, better, bound).  Every workload reports every one.
#: Times are corrected for the host's speed (``hostspeed.py``); what
#: drift remains is in README.md, "Noise".
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ticks_per_s", "1/s", "higher", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


#: Workload-specific figures, taken from the traced run's untraced half
#: (zero on the workloads that do not run that path).
WORKLOAD_EXTRAS = tuple(
    (f"ticks_per_s.{mode}", "1/s", "higher")
    for mode in ("plain", "telemetry", "faults", "adapt", "schedule",
                 "multicore")
) + (
    ("resume_s", "s", "lower"),
    ("node_ticks_per_s", "1/s", "higher"),
    ("node_ticks_per_s.flat", "1/s", "higher"),
)


def _per_layer() -> tuple:
    rows = [
        ("setup.import_s", "s", "lower"),
        ("setup.train_s", "s", "lower"),
        ("setup.warm_s", "s", "lower"),
    ]
    for layer in SPAN_LAYERS:
        rows += [
            (f"{layer}.calls", "count", "higher"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "frac", "lower"),
        ]
    rows += [
        ("platform.machine.step_block.ticks", "count", "higher"),
        ("core.blockloop.fast_frac", "frac", "higher"),
        ("faults.injected", "count", "lower"),
        ("adaptation.recalibrations", "count", "lower"),
        ("adaptation.rollbacks", "count", "lower"),
        ("exec.execute_cell.calls", "count", "higher"),
        ("exec.execute_cell.ms.p50", "ms", "lower"),
        ("exec.execute_cell.ms.tail", "ms", "lower"),
        ("exec.cache.hit_frac", "frac", "higher"),
        ("exec.runner.execute.wall_s", "s", "lower"),
        ("exec.runner.execute.wait_s", "s", "lower"),
        ("exec.runner.restarts", "count", "lower"),
        ("campaign.dispatch.wall_s", "s", "lower"),
        ("campaign.dispatch.wait_s", "s", "lower"),
        ("campaign.dispatch.leases", "count", "lower"),
        ("campaign.dispatch.retries", "count", "lower"),
        ("campaign.store.put.bytes", "bytes", "lower"),
        ("campaign.store.hit_frac", "frac", "higher"),
        ("checkpoint.session.finish_slot.bytes", "bytes", "lower"),
        ("fleet.cluster.reallocations", "count", "lower"),
        ("fleet.realloc_ms.p50", "ms", "lower"),
        ("fleet.realloc_ms.tail", "ms", "lower"),
    ]
    rows += list(WORKLOAD_EXTRAS)
    rows += [
        ("failed_frac", "frac", "lower"),
        ("trace.throughput_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
