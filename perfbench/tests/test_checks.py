"""The benchmark's correctness checks catch what they claim to.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import os

import checks
import workloads
from metrics import END_TO_END, PER_LAYER
from repro.checkpoint import run_result_digest
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, RunPlan

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def small_plan() -> RunPlan:
    return RunPlan(
        config=ExperimentConfig(scale=0.25, seed=3),
        cells=(
            RunCell(workload="ammp",
                    governor=GovernorSpec.pm(14.5, power_model="paper")),
            RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
        ),
    )


def test_corrupted_digest_is_flagged():
    plan = small_plan()
    results = workloads.run_plan(plan)
    reference = [run_result_digest(r) for r in results]
    corrupted = [dict(d) for d in reference]
    corrupted[1]["samples_sha256"] = "0" * 64
    assert checks.digest_mismatches(reference, reference) == []
    assert checks.digest_mismatches(reference, corrupted) == [1]
    assert checks.digest_mismatches(reference, [reference[0], None]) == [1]
    assert checks.digest_mismatches(reference, reference[:1]) == [1]


def test_scalar_sample_counts_a_corrupted_digest_as_failed(monkeypatch):
    plan = small_plan()
    results = workloads.run_plan(plan)

    chk = workloads.Checks()
    workloads._scalar_sample(chk, plan, results, k=2, seed=0)
    assert (chk.attempted, chk.failed) == (2, 0)

    clean = checks.scalar_digest

    def corrupt(cell, plan):
        digest = dict(clean(cell, plan))
        digest["measured_energy_j"] += 1e-12
        return digest

    monkeypatch.setattr(checks, "scalar_digest", corrupt)
    chk = workloads.Checks()
    workloads._scalar_sample(chk, plan, results, k=2, seed=0)
    assert (chk.attempted, chk.failed) == (2, 2)
    assert all(note.startswith("FAILED") for note in chk.notes)


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in bench["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == list(PER_LAYER)
