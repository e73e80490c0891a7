"""Smoke test of the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

(``PYTHONPATH`` only because the repo's pytest configuration names a
``repro`` warning class; the benchmark itself finds ``src`` on its own.)
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def smoke_run(tmp_path, trace: int) -> tuple:
    out = tmp_path / f"result{trace}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
         "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke_run(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke_run(tmp_path_factory.mktemp("traced"), 1)


def test_emits_exactly_the_contract_names(untraced, traced):
    for (last_line, document), section in ((untraced, "end_to_end"),
                                           (traced, "per_layer")):
        names = [m["name"] for m in CONTRACT[section]]
        assert list(document["workloads"]) == WORKLOADS
        for workload in WORKLOADS:
            assert list(document["workloads"][workload]["summary"]) == names
        assert sorted(last_line["metrics"]) == sorted(
            f"{w}/{m}" for w in WORKLOADS for m in names)
        assert set(last_line) == {"correct", "attempted", "failed", "metrics"}


def test_nothing_fails(untraced, traced):
    for last_line, document in (untraced, traced):
        assert last_line["correct"] is True and last_line["failed"] == 0
        for workload in document["workloads"].values():
            assert workload["failed"] == 0 and workload["attempted"] >= 5


def test_only_scan_forest_keeps_its_predict_node(traced):
    for name, workload in traced[1]["workloads"].items():
        predict_ms = workload["summary"]["predict.run_ms"]["median"]
        assert (predict_ms > 0) == (name == "scan_forest"), name


def test_plan_cache_hit_rates(untraced, traced):
    for name, want in (("point_warm", 1.0), ("point_cold", 0.0)):
        assert untraced[1]["workloads"][name]["runs"][0]["plan_cache_hit_rate"] == want
        summary = traced[1]["workloads"][name]["summary"]
        assert summary["serving.plan_cache_hit_rate"]["median"] == want


def test_result_file_pins_provenance_and_inputs(untraced):
    provenance = untraced[1]["provenance"]
    for key in ("commit", "seed", "python", "numpy", "nproc", "affinity",
                "loadavg_1min_start", "loadavg_1min_end", "worker_env",
                "uncommitted_changes"):
        assert key in provenance
    digests = [w["input_digest"] for w in untraced[1]["workloads"].values()]
    assert all(len(d) == 64 for d in digests) and len(set(digests)) == len(digests)


def test_a_corrupted_score_is_counted_as_a_failure():
    workload = workloads.build("point_warm", seed=7, smoke=True)
    row_counts = [workload.session.sql(workload.query(op)).num_rows
                  for op in range(10)]
    assert workloads.verify(workload, row_counts) == 0

    honest_sql = workload.session.sql
    target = workload.queries[0]

    def corrupting_sql(query):
        table = honest_sql(query)
        if query == target:
            scores = np.array(table.array("score"), dtype=float)
            scores[len(scores) // 2] += 1e-3
            table = type(table).from_arrays(
                **{name: scores if name == "score" else table.array(name)
                   for name in table.column_names})
        return table

    workload.session.sql = corrupting_sql
    issued = [workload.order[op % len(workload.order)] for op in range(10)]
    assert workloads.verify(workload, row_counts) == issued.count(0)

    # A wrong row count fails that one operation.
    workload.session.sql = honest_sql
    row_counts[3] += 1
    assert workloads.verify(workload, row_counts) == 1
