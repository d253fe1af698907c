"""One benchmark process: set up a workload, time it, check it.

Started by ``run.py`` in a fresh interpreter.  It prints
``PERFBENCH-READY`` once set-up is done (``run.py`` times set-up up to
that line), then report lines, then ``PERFBENCH-RESULT <json>``.

With ``--trace 1`` passes alternate between untraced and traced under
:class:`tracing.Tracer`; the per-layer metrics come from the traced
passes, and the tracing overhead compares the two kinds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

#: Pass details summed over the traced passes into per-layer counts.
DETAIL_COUNTS = {
    "store_bytes": "campaign.store.put.bytes",
    "archive_bytes": "checkpoint.session.finish_slot.bytes",
    "reallocations": "fleet.cluster.reallocations",
}
MIN_PASSES = 3


def run_for(workload, seconds: float, min_passes: int) -> list:
    """Closed-loop passes until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < seconds):
        passes.append(workload.run_pass())
    return passes


def run_alternating(workload, seconds: float, tracer) -> tuple:
    """Untraced and traced passes, alternating, for ``seconds``.

    Alternating keeps slow drift of the host out of the traced/untraced
    comparison.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(traced) < MIN_PASSES - 1
           or time.perf_counter() - start < seconds):
        untraced.append(workload.run_pass())
        tracer.install()
        try:
            traced.append(workload.run_pass())
        finally:
            tracer.uninstall()
    return untraced, traced


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest child's (workers)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None,
                        help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is part of set-up

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS, cells_per_s, ticks_per_s

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    setup = workload.setup()
    print("PERFBENCH-READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        from metrics import WORKLOAD_EXTRAS
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        untraced, traced = run_alternating(workload, args.seconds, tracer)
        host_s = sum(p.host_s for p in traced)
        passes = untraced + traced
        metrics = layer_metrics(tracer, host_s)
        metrics.update({
            "setup.import_s": import_s,
            "setup.train_s": setup["train_s"],
            "setup.warm_s": setup["warm_s"],
            "trace.throughput_ratio": (
                workload.throughput(traced) / workload.throughput(untraced)),
            "trace.spans": len(tracer.start),
        })
        for key, name in DETAIL_COUNTS.items():
            metrics[name] = sum(p.detail.get(key, 0) for p in traced)
        metrics.update({row[0]: 0.0 for row in WORKLOAD_EXTRAS})
        metrics.update(workload.extras(untraced))
        if args.spans:
            tracer.save(args.spans)
    else:
        passes = run_for(workload, args.seconds, MIN_PASSES)
        metrics = {
            "ticks_per_s": ticks_per_s(passes),
            "cells_per_s": cells_per_s(passes),
        }
    uncorrected = {
        "ticks_per_s": ticks_per_s(passes, raw=True),
        "cells_per_s": cells_per_s(passes, raw=True),
        "correction": statistics.median(p.correction for p in passes),
    }

    report = workload.final_checks()
    checks = workload.checks
    attempted = checks.attempted + sum(p.cells for p in passes)
    failed_frac = checks.failed / attempted
    if args.trace:
        metrics["failed_frac"] = failed_frac
    else:
        metrics["peak_rss_mb"] = peak_rss_mb()

    print(f"workload {args.workload}: {len(passes)} passes of "
          f"{passes[0].cells} results and {passes[0].ticks} ticks executed, "
          f"seed {args.seed}")
    for line in report + checks.notes:
        print(line)
    print("as measured, before the host-speed correction: "
          f"ticks_per_s = {uncorrected['ticks_per_s']:.6g} 1/s, "
          f"cells_per_s = {uncorrected['cells_per_s']:.6g} 1/s "
          f"(median correction x{uncorrected['correction']:.3f})")
    print(f"failed_frac = {failed_frac:.6g} "
          f"({checks.failed} of {attempted} operations)")
    print("PERFBENCH-RESULT " + json.dumps({
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "uncorrected": uncorrected,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
