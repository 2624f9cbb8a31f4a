"""Self-tests of the benchmark.

Each correctness check is fed a correct output, then the same output
with one corruption, and must pass the first and fail the second.  The
last tests run the benchmark itself (a few minutes): its per-layer
counts must repeat exactly for one seed, and ``BENCHMARK.json`` must
list the metrics the command prints.

Run from the root of a checkout::

    PYTHONPATH=src:. python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers
from perfbench.checks import Truth
from repro.core import distance
from repro.service.store import JournalRecord, RecordKind

ROOT = Path(__file__).resolve().parents[1]
DETECTS = frozenset({"gemm-flops"})
TRUTH = {
    "n0": Truth(sku="A100", injected=True, detectable_by=DETECTS),
    "n1": Truth(sku="A100", injected=False, detectable_by=frozenset()),
    "n2": Truth(sku="H100", injected=False, detectable_by=frozenset()),
    "n3": Truth(sku="H100", injected=True, detectable_by=DETECTS),
}


def record(kind, **payload):
    return JournalRecord(seq=0, kind=kind.value, payload=payload)


def completed(event_id, validated, defective, violations=()):
    return record(RecordKind.EVENT_COMPLETED, event_id=event_id,
                  validated_nodes=list(validated),
                  benchmarks_run=["gemm-flops", "mem-bw"],
                  defective=list(defective), violations=list(violations))


def journals():
    return {
        0: [record(RecordKind.EVENT_ENQUEUED, event_id=1),
            completed(1, ["n0", "n1"], ["n0"],
                      [["n0", "gemm-flops", "flops", "below-threshold",
                        "A100"]]),
            record(RecordKind.EVENT_ENQUEUED, event_id=2),
            completed(2, ["n1"], []),
            record(RecordKind.FABRIC_DRAIN, reason="shutdown")],
        1: [record(RecordKind.EVENT_ENQUEUED, event_id=1),
            completed(1, ["n2", "n3"], ["n3"],
                      [["n3", "gemm-flops", "flops", "below-threshold",
                        "H100"]]),
            record(RecordKind.FABRIC_DRAIN, reason="shutdown")],
    }


ACCEPTED = {(0, 1), (0, 2), (1, 1)}


def windows():
    rng = np.random.default_rng(7)
    criteria = rng.normal(100.0, 1.0, 64)
    rows = []
    for index, shift in enumerate((0.0, -5.0)):
        sample = rng.normal(100.0 + shift, 1.0, 16)
        similarity = distance.one_sided_similarity(sample, criteria,
                                                   higher_is_better=True)
        rows.append({"key": f"n{index}/gemm-flops/flops",
                     "validator": similarity, "scalar": similarity,
                     "flagged": similarity <= 0.95})
    return rows


# -- detection and SKU isolation ------------------------------------------

def test_detection_passes_and_fails_on_a_flipped_verdict():
    assert checks.check_detection(TRUTH, {"n0", "n3"}) == []
    assert checks.check_detection(TRUTH, {"n0"})


def test_detection_bounds_false_positives():
    assert checks.check_detection(TRUTH, {"n0", "n1", "n2", "n3"})


def test_sku_isolation_fails_on_a_violation_under_the_wrong_sku():
    assert checks.check_sku([("n0", "A100"), ("n3", "H100")], TRUTH) == []
    assert checks.check_sku([("n0", "A100"), ("n3", "A100")], TRUTH)


# -- scalar cross-check ---------------------------------------------------

def test_similarity_passes_on_the_reference_itself():
    rows = windows()
    assert [row["flagged"] for row in rows] == [False, True]
    assert checks.check_similarity(rows, 0.95) == []


def test_similarity_fails_on_a_perturbed_similarity():
    rows = windows()
    rows[0]["validator"] += 1e-6
    assert checks.check_similarity(rows, 0.95)


def test_similarity_fails_on_a_flipped_verdict():
    rows = windows()
    rows[1]["flagged"] = False
    assert checks.check_similarity(rows, 0.95)


def test_similarity_ignores_verdicts_at_alpha():
    rows = windows()
    rows[0].update(validator=0.95, scalar=0.95, flagged=False)
    assert checks.check_similarity(rows, 0.95) == []


# -- refresh --------------------------------------------------------------

def test_refresh_requires_the_delta_path_above_exact_below():
    paths = {("A100", "gemm-flops", "flops"): "delta",
             ("H100", "gemm-flops", "flops"): "exact"}
    counts = {"A100": 300, "H100": 100}
    assert checks.check_refresh(paths, counts, 256, TRUTH, ["n0", "n1"],
                                {"n0"}) == []
    paths[("A100", "gemm-flops", "flops")] = "full"
    assert checks.check_refresh(paths, counts, 256, TRUTH, ["n0"], {"n0"})
    paths[("A100", "gemm-flops", "flops")] = "delta"
    assert checks.check_refresh(paths, counts, 256, TRUTH, ["n0"], set())


# -- serve accounting and verdicts ----------------------------------------

def test_accounting_passes_on_a_clean_drain():
    assert checks.check_accounting(ACCEPTED, journals()) == []


def test_accounting_fails_on_a_dropped_completion():
    damaged = journals()
    del damaged[0][3]
    assert checks.check_accounting(ACCEPTED, damaged)


def test_accounting_fails_on_a_duplicated_completion():
    damaged = journals()
    damaged[1].insert(2, damaged[1][1])
    assert checks.check_accounting(ACCEPTED, damaged)


def test_accounting_fails_on_a_dead_letter():
    damaged = journals()
    damaged[0].append(record(RecordKind.EVENT_DEAD_LETTERED, event_id=3))
    assert checks.check_accounting(ACCEPTED, damaged)


def test_verdicts_pass_and_fail_on_a_flipped_verdict():
    assert checks.check_verdicts(journals(), TRUTH) == []
    damaged = journals()
    damaged[1][1].payload["defective"] = []
    assert checks.check_verdicts(damaged, TRUTH)


def test_verdicts_fail_on_a_violation_under_the_wrong_sku():
    damaged = journals()
    damaged[1][1].payload["violations"][0][4] = "A100"
    assert checks.check_verdicts(damaged, TRUTH)


# -- recovery, report, sealing --------------------------------------------

def test_recovery_must_match_and_be_quiescent():
    state = {"completed": 3, "states": {0: {"n0": "healthy"}}}
    assert checks.check_recovery(state, dict(state), True) == []
    assert checks.check_recovery(state, dict(state), False)
    assert checks.check_recovery(state, {**state, "completed": 2}, True)
    assert checks.check_recovery(
        state, {**state, "states": {0: {"n0": "quarantined"}}}, True)


def test_report_counts_must_match_the_ticks():
    report = {"journal": {"by_kind": {"event-completed": 3},
                          "corrupt_lines": 0, "unknown_kinds": {}},
              "service": {"nodes_quarantined": 2}}
    assert checks.check_report(report, 3, 2) == []
    assert checks.check_report(report, 4, 2)
    assert checks.check_report(report, 3, 1)
    report["journal"]["corrupt_lines"] = 1
    assert checks.check_report(report, 3, 2)


def test_every_worker_journal_must_end_sealed():
    assert checks.check_sealed(journals()) == []
    damaged = journals()
    damaged[1].pop()
    assert checks.check_sealed(damaged)


# -- the benchmark itself -------------------------------------------------

def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_benchmark_json_lists_what_the_command_prints():
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == layers.METRICS)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "serve-threads", "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["serve-threads", "serve-processes"])
def test_counters_repeat_exactly_for_one_seed(workload):
    outputs = []
    for _ in range(2):
        done = run("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = (out["metrics"] for out in outputs)
    assert outputs[0]["attempted"] == outputs[1]["attempted"]
    for name in layers.DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
