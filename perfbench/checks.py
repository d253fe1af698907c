"""Correctness checks the benchmark applies to the program's outputs."""

from __future__ import annotations

import hashlib
import os
import random
import struct
from typing import Any, List, Mapping, Sequence


def sample_indices(n: int, k: int, seed: int) -> List[int]:
    """A seeded sample of ``min(k, n)`` distinct indices in ``range(n)``."""
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


def digest_mismatches(
    reference: Sequence[Mapping[str, Any]],
    candidate: Sequence[Mapping[str, Any] | None],
) -> List[int]:
    """Indices where ``candidate`` is not bit-identical to ``reference``.

    A missing result (``None``) or a missing tail counts as a mismatch.
    """
    out = [
        i for i, ref in enumerate(reference)
        if i >= len(candidate) or candidate[i] != ref
    ]
    return out + list(range(len(reference), len(candidate)))


def scalar_digest(cell, plan) -> Mapping[str, Any]:
    """Digest of ``cell`` re-run on the scalar reference loop."""
    from repro.checkpoint import run_result_digest
    from repro.exec import execute_cell

    previous = os.environ.get("REPRO_SCALAR_LOOP")
    os.environ["REPRO_SCALAR_LOOP"] = "1"
    try:
        result = execute_cell(
            cell, plan.config,
            fault_plan=plan.fault_plan,
            adaptation=plan.adaptation,
            resilience=plan.resilience,
            use_ambient=False,
        )
    finally:
        if previous is None:
            del os.environ["REPRO_SCALAR_LOOP"]
        else:
            os.environ["REPRO_SCALAR_LOOP"] = previous
    return run_result_digest(result)


def pm_within_limit(result, limit_w: float) -> bool:
    """PM's 100 ms windowed power never exceeds limit + guardband."""
    from repro.core.governors.performance_maximizer import (
        DEFAULT_GUARDBAND_W,
    )

    return all(
        watts <= limit_w + DEFAULT_GUARDBAND_W + 1e-9
        for _, watts in result.moving_average_power(10)
    )


def flat_fleet_digest(result) -> str:
    """Bit-exact hash of a flat fleet run's per-node and fleet series."""
    hasher = hashlib.sha256()
    pack = struct.Struct("<d").pack
    for name, node in sorted(result.nodes.items()):
        hasher.update(name.encode())
        for value in (node.duration_s, node.instructions, node.energy_j,
                      node.final_limit_w):
            hasher.update(pack(value))
    for time_s, watts in result.power_series:
        hasher.update(pack(time_s) + pack(watts))
    return hasher.hexdigest()


def tree_bytes(root: str) -> int:
    """Total size of the files under ``root``."""
    return sum(
        os.path.getsize(os.path.join(path, name))
        for path, _, names in os.walk(root)
        for name in names
    )
