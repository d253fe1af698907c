#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 10 --trace 0

Workloads: paper-sweep, scalar-modes, resumable-campaign, fleet-day
(see ``perfbench/README.md``).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Every metric is printed by name with its unit, the
outputs are checked for correctness, and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up time is measured from a fresh interpreter to the first timed
cell, several times per run (``SETUP_RUNS`` fresh interpreters, before
and after the timed phase), and reported as the median.  Every figure
is corrected for the host's speed during the run (``hostspeed.py``);
the figures as measured are printed and kept in the history too.  Each
run keeps its scratch files in its own directory under ``.perfbench/``
and removes them when it ends.  Every run appends a record to
``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HISTORY = os.path.join(HERE, "history.jsonl")
WORKLOADS = ("paper-sweep", "scalar-modes", "resumable-campaign",
             "fleet-day")
#: Fresh interpreters timed through set-up per run (the measured
#: process included): half before the timed phase and half after, so
#: that the median spans more of the host's slow and fast stretches.
SETUP_RUNS = 9
#: Longest a run may take after the build, set-up runs included.
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def child_env(tmp: str) -> dict:
    """Environment of a benchmark process: the source tree on the path,
    and every scratch or cache location inside this run's directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "cache")
    env.pop("REPRO_SCALAR_LOOP", None)
    return env


def harness_cmd(args, tmp: str, *extra: str) -> list:
    return [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", tmp, *extra,
    ]


def run_harness(cmd: list, env: dict, deadline: float):
    """Run one benchmark process; (set-up seconds, output lines).

    The process is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    timeout_s = deadline - time.monotonic()
    if timeout_s <= 0:
        raise RuntimeError("no time left to run " + " ".join(cmd))
    start = time.perf_counter()
    setup_s = None
    lines = []
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "PERFBENCH-READY" and setup_s is None:
                    setup_s = time.perf_counter() - start
                else:
                    lines.append(line.rstrip("\n"))
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError(
            f"benchmark process exited with code {proc.returncode}: "
            + " ".join(cmd))
    return setup_s, lines


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    # Build: byte-compile the source tree once, outside every timing.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC],
        check=True, stdout=subprocess.DEVNULL, timeout=300)
    deadline = time.monotonic() + DEADLINE_S
    tmp = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        env = child_env(tmp)

        def setup_only() -> float:
            return run_harness(harness_cmd(args, tmp, "--setup-only"), env,
                               deadline)[0]

        setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
        spans = os.path.join(ROOT, ".perfbench",
                             f"spans-{args.workload}.npz")
        extra = ("--spans", spans) if args.trace else ()
        setup_s, lines = run_harness(
            harness_cmd(args, tmp, *extra), env, deadline)
        setups.append(setup_s)
        setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))]
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not lines or not lines[-1].startswith("PERFBENCH-RESULT "):
        print("error: the benchmark process printed no result",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1].split(" ", 1)[1])
    metrics = result["metrics"]
    catalogue = PER_LAYER if args.trace else END_TO_END
    uncorrected = result["uncorrected"]
    uncorrected["setup_s"] = statistics.median(setups)
    if not args.trace:
        # Corrected by the run's host-speed factor, taken over the timed
        # passes between the set-ups: kernels timed around each set-up
        # process track its sub-second noise poorly (README.md, "Noise").
        metrics["setup_s"] = (
            uncorrected["setup_s"] * uncorrected["correction"])
    units = {row[0]: row[1] for row in catalogue}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    print("setup_s samples, as measured: "
          + ", ".join(f"{s:.4f}" for s in setups))
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    record = dict(
        environment(), time=time.time(), workload=args.workload,
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        uncorrected=uncorrected, **out)
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
