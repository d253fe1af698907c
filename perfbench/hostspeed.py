"""The host-speed correction applied to the benchmark's times.

The benchmark runs on shared hosts whose speed drifts: other load on
the machine slows the same code by up to 2x for tens of seconds at a
time (README.md, "Noise"), longer than a run. So the benchmark times
:func:`kernel`, a fixed piece of Python and numpy work that does not
use the program, before each timed submission of a pass and after the
last, and scales the pass's host seconds by ``REFERENCE_S`` over the
kernel's mean time: to what they would have been on a host that runs
the kernel in ``REFERENCE_S``. A run's set-up times are scaled by the
median of its passes' factors (``run.py``). A change to the
program moves the submission's time and not the kernel's, so it moves
the corrected figure one for one; a slowdown of the whole host moves
both and largely cancels.
"""

from __future__ import annotations

import gc
import time

import numpy

#: Kernel time of the reference host the corrected seconds refer to; a
#: round figure near the kernel's median on the 2-vCPU Xeon VM at
#: 2.0 GHz (Python 3.11, numpy 2.4) that ``history.jsonl`` comes from.
REFERENCE_S = 0.010


class _State:
    __slots__ = ("value", "weight")


def kernel() -> float:
    """Fixed work in the simulator's mix of attribute, dict, float and
    small-array operations; about ``REFERENCE_S`` on the reference host.

    It allocates no objects the garbage collector tracks, so the
    program's heap does not change how long it takes.
    """
    state = _State()
    table = dict.fromkeys(range(256), 0.0)
    total = 0.0
    for i in range(30000):
        state.value = i * 0.5
        state.weight = i % 7
        total += state.value * 1.0001 + state.weight
        table[i & 255] = total
    values = numpy.arange(64.0)
    for _ in range(1500):
        total += float((values * 1.5).sum())
    return total


def kernel_s() -> float:
    """Host seconds :func:`kernel` takes now (garbage collection off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
