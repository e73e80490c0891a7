"""Observatory tests: schema, ledger, regression gates, report, CLI.

The synthetic-ledger suite pins the gate semantics (a true regression
fires, noise within the tolerance band doesn't, missing-commit gaps are
tolerated, direction annotations are respected), the ledger's dedup and
strict loading, and the renderer's determinism (same inputs →
byte-identical REPORT.md). The acceptance tests run the real CLI against
the *committed* artifacts: ``report --check`` must agree with the
committed ``benchmarks/REPORT.md`` and ``check`` must exit non-zero on
an injected >= 20% regression against ledger history.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.obsv import (
    BENCH_SCHEMA,
    DEFAULT_GATES,
    BenchRecord,
    Gate,
    Ledger,
    LedgerError,
    check_gate,
    check_results,
    flatten_metrics,
    render_report,
    validate_bench_json,
)
from repro.obsv.cli import main as obsv_main
from repro.obsv.gates import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    STATUS_FAIL,
    STATUS_MISSING,
    STATUS_NO_HISTORY,
    STATUS_PASS,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def make_provenance(sha="a" * 40, scale="full", **overrides):
    provenance = {
        "sha": sha,
        "timestamp": "2026-08-01T00:00:00Z",
        "python": "3.12.0",
        "numpy": "2.0.0",
        "platform": "Linux-x86_64",
        "cpus": 8,
        "raven_scale": 1.0,
        "scale": scale,
    }
    provenance.update(overrides)
    return provenance


def make_bench_json(bench="adaptive", sha="a" * 40, scale="full", **metrics):
    payload = {"schema": BENCH_SCHEMA, "bench": bench}
    payload.update(metrics or {"speedup": 4.0})
    payload["provenance"] = make_provenance(sha=sha, scale=scale)
    return payload


def make_record(bench="adaptive", sha="a" * 40, scale="full",
                timestamp="2026-08-01T00:00:00Z", **metrics):
    return BenchRecord(bench=bench, sha=sha, timestamp=timestamp,
                       scale=scale, metrics=metrics or {"speedup": 4.0})


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

class TestSchema:
    def test_flatten_metrics_numeric_leaves_only(self):
        payload = {
            "schema": BENCH_SCHEMA, "bench": "x",
            "provenance": {"cpus": 8},
            "rows": 100, "speedup": 2.5, "converged": True,
            "order": [0, 2, 1], "name": "deep",
            "workloads": {"deep": {"speedup": 3.5, "label": "d"}},
        }
        assert flatten_metrics(payload) == {
            "rows": 100.0, "speedup": 2.5, "workloads.deep.speedup": 3.5,
        }

    def test_validate_accepts_stamped_payload(self):
        assert validate_bench_json(make_bench_json()) == []

    def test_validate_rejects_missing_schema_and_bench(self):
        problems = validate_bench_json({"speedup": 2.0}, source="f.json")
        text = "\n".join(problems)
        assert "schema" in text and "bench" in text and "provenance" in text

    @pytest.mark.parametrize("missing", ["sha", "timestamp", "python",
                                         "numpy", "platform", "raven_scale",
                                         "scale"])
    def test_validate_rejects_missing_provenance_field(self, missing):
        payload = make_bench_json()
        del payload["provenance"][missing]
        problems = validate_bench_json(payload, source="f.json")
        assert any(missing in p for p in problems)

    def test_validate_rejects_unknown_scale_class(self):
        payload = make_bench_json()
        payload["provenance"]["scale"] = "medium"
        assert any("scale" in p for p in validate_bench_json(payload))

    def test_validate_rejects_metric_free_payload(self):
        payload = {"schema": BENCH_SCHEMA, "bench": "x",
                   "provenance": make_provenance(), "note": "words only"}
        assert any("no numeric metrics" in p
                   for p in validate_bench_json(payload))

    def test_record_from_bench_json_roundtrip(self):
        payload = make_bench_json(bench="joins", sha="b" * 40, speedup=1.75,
                                  fact_rows=200_000)
        record = BenchRecord.from_bench_json(payload)
        assert record.key == ("joins", "b" * 40, "full")
        assert record.metrics == {"speedup": 1.75, "fact_rows": 200_000.0}
        assert record.env["python"] == "3.12.0"
        again = BenchRecord.from_dict(json.loads(record.to_json_line()))
        assert again == record

    def test_record_from_torn_payload_raises(self):
        with pytest.raises(ValueError, match="provenance"):
            BenchRecord.from_bench_json({"schema": BENCH_SCHEMA,
                                         "bench": "x", "speedup": 1.0})

    def test_record_from_dict_rejects_bad_metrics(self):
        doc = make_record().to_dict()
        doc["metrics"] = {"speedup": "fast"}
        with pytest.raises(ValueError, match="not numeric"):
            BenchRecord.from_dict(doc)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

class TestLedger:
    def test_append_dedups_by_bench_sha_scale(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger()
        record = make_record(sha="a" * 40)
        assert ledger.append_to_file(path, record)
        assert not ledger.append_to_file(path, make_record(sha="a" * 40))
        assert ledger.append_to_file(path, make_record(sha="b" * 40))
        # A smoke record of the same commit is a distinct key.
        assert ledger.append_to_file(
            path, make_record(sha="a" * 40, scale="smoke"))
        reloaded = Ledger.load(path)
        assert len(reloaded) == 3
        assert [r.key for r in reloaded.records] == [r.key for r in
                                                     ledger.records]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert len(Ledger.load(tmp_path / "absent.jsonl")) == 0

    def test_load_rejects_torn_line_with_line_number(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(make_record().to_json_line() + "\n"
                        + '{"schema": "repro-bench-rec')
        with pytest.raises(LedgerError, match="ledger.jsonl:2"):
            Ledger.load(path)

    def test_load_rejects_schema_invalid_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"schema": "other", "bench": "x"}\n')
        with pytest.raises(LedgerError, match="schema"):
            Ledger.load(path)

    def test_load_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        line = make_record().to_json_line()
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(LedgerError, match="duplicate"):
            Ledger.load(path)

    def test_window_is_trailing_scale_filtered_and_excludes_sha(self):
        ledger = Ledger()
        for index in range(8):
            ledger.append(make_record(sha=f"{index:040d}",
                                      speedup=float(index)))
        ledger.append(make_record(sha="f" * 40, scale="smoke", speedup=99.0))
        window = ledger.window("adaptive", limit=3)
        assert [r.metrics["speedup"] for r in window] == [5.0, 6.0, 7.0]
        window = ledger.window("adaptive", limit=3, exclude_sha=f"{7:040d}")
        assert [r.metrics["speedup"] for r in window] == [4.0, 5.0, 6.0]
        assert all(r.scale == "full" for r in window)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

GATE_HIB = Gate("adaptive", "speedup", HIGHER_IS_BETTER, tolerance=0.15)
GATE_LIB = Gate("serving", "p99_ms", LOWER_IS_BETTER, tolerance=0.15)


class TestGates:
    def test_true_regression_fires(self):
        # 20% below a clean history is outside the 15% band.
        outcome = check_gate(GATE_HIB, 8.0, [10.0] * 5)
        assert outcome.status == STATUS_FAIL
        assert not outcome.ok
        assert "median of 5" in outcome.detail

    def test_noise_within_tolerance_does_not_fire(self):
        assert check_gate(GATE_HIB, 9.2, [10.0] * 5).status == STATUS_PASS

    def test_single_noisy_history_run_cannot_flip_the_baseline(self):
        # One absurdly slow (or fast) historical record doesn't move the
        # median, so the comparison stays anchored to the real trend.
        outcome = check_gate(GATE_HIB, 9.2, [10.0, 3.0, 10.0, 10.0, 10.0])
        assert outcome.status == STATUS_PASS
        outcome = check_gate(GATE_HIB, 9.2, [10.0, 99.0, 10.0, 10.0, 10.0])
        assert outcome.status == STATUS_PASS

    def test_lower_is_better_direction_respected(self):
        assert check_gate(GATE_LIB, 125.0, [100.0] * 5).status == STATUS_FAIL
        assert check_gate(GATE_LIB, 108.0, [100.0] * 5).status == STATUS_PASS
        # An *improvement* (lower latency) can never fire.
        assert check_gate(GATE_LIB, 50.0, [100.0] * 5).status == STATUS_PASS

    def test_no_history_passes_as_no_history(self):
        outcome = check_gate(GATE_HIB, 4.0, [])
        assert outcome.status == STATUS_NO_HISTORY
        assert outcome.ok

    def test_missing_metric_fails_loudly(self):
        outcome = check_gate(GATE_HIB, None, [10.0])
        assert outcome.status == STATUS_MISSING
        assert not outcome.ok

    def test_missing_commit_gaps_tolerated(self):
        # History recorded only at commits 0, 3 and 9 — the window is the
        # last N *recorded* entries, not the last N commits.
        ledger = Ledger()
        for index in (0, 3, 9):
            ledger.append(make_record(sha=f"{index:040d}", speedup=10.0))
        results = {"adaptive": make_bench_json(sha="c" * 40, speedup=9.5)}
        outcomes = check_results(results, ledger, [GATE_HIB])
        assert [o.status for o in outcomes] == [STATUS_PASS]
        assert outcomes[0].history == 3

    def test_check_results_excludes_candidates_own_commit(self):
        # The regressed candidate's own recorded run must not soften its
        # baseline: comparison is always against *prior* history.
        ledger = Ledger()
        ledger.append(make_record(sha="a" * 40, speedup=10.0))
        ledger.append(make_record(sha="b" * 40, speedup=7.0))
        results = {"adaptive": make_bench_json(sha="b" * 40, speedup=7.0)}
        outcomes = check_results(results, ledger, [GATE_HIB])
        assert [o.status for o in outcomes] == [STATUS_FAIL]
        assert outcomes[0].baseline == 10.0

    def test_check_results_missing_bench_fails(self):
        outcomes = check_results({}, Ledger(), [GATE_HIB])
        assert [o.status for o in outcomes] == [STATUS_MISSING]

    def test_tolerance_and_window_overrides(self):
        ledger = Ledger()
        for index in range(6):
            speedup = 20.0 if index < 3 else 10.0
            ledger.append(make_record(sha=f"{index:040d}", speedup=speedup))
        results = {"adaptive": make_bench_json(sha="c" * 40, speedup=8.6)}
        # Window of 3 sees only the recent 10.0s → inside 15%.
        assert check_results(results, ledger, [GATE_HIB],
                             window=3)[0].status == STATUS_PASS
        # Window of 6 pulls the old 20.0s into the median → outside.
        assert check_results(results, ledger, [GATE_HIB],
                             window=6)[0].status == STATUS_FAIL
        # A wider tolerance band accepts it again.
        assert check_results(results, ledger, [GATE_HIB], window=6,
                             tolerance=0.6)[0].status == STATUS_PASS

    def test_gate_validates_direction_and_tolerance(self):
        with pytest.raises(ValueError, match="direction"):
            Gate("x", "m", "sideways")
        with pytest.raises(ValueError, match="tolerance"):
            Gate("x", "m", HIGHER_IS_BETTER, tolerance=1.5)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def synthetic_world():
    ledger = Ledger()
    ledger.append(make_record(sha="a" * 40, speedup=3.9,
                              timestamp="2026-08-01T00:00:00Z"))
    ledger.append(make_record(sha="b" * 40, speedup=4.1,
                              timestamp="2026-08-02T00:00:00Z"))
    ledger.append(make_record(sha="b" * 40, scale="smoke", speedup=1.1,
                              timestamp="2026-08-02T00:05:00Z"))
    results = {"adaptive": make_bench_json(sha="b" * 40, speedup=4.1)}
    gates = [GATE_HIB]
    outcomes = check_results(results, ledger, gates)
    tables = {"bench_adaptive": "== table ==\na  b\n"}
    return ledger, outcomes, tables, gates


class TestReport:
    def test_same_inputs_render_byte_identical(self):
        first = render_report(*synthetic_world()[:2],
                              figure_tables=synthetic_world()[2],
                              gates=synthetic_world()[3])
        second = render_report(*synthetic_world()[:2],
                               figure_tables=synthetic_world()[2],
                               gates=synthetic_world()[3])
        assert first == second
        assert first.endswith("\n") and not first.endswith("\n\n")

    def test_report_contains_trajectory_gates_and_tables(self):
        ledger, outcomes, tables, gates = synthetic_world()
        text = render_report(ledger, outcomes,
                             figure_tables=tables, gates=gates)
        assert "## Gate status" in text
        assert "`adaptive:speedup`" in text
        assert "PASS" in text
        # Both full records and the smoke record appear in the trajectory.
        assert text.count("`" + "a" * 12 + "`") >= 1
        assert "smoke" in text
        # Current-vs-best line and the embedded figure table.
        assert "vs best (max)" in text
        assert "== table ==" in text

    def test_failing_gate_renders_fail_with_detail(self):
        ledger, _, tables, gates = synthetic_world()
        regressed = {"adaptive": make_bench_json(sha="c" * 40, speedup=2.0)}
        outcomes = check_results(regressed, ledger, gates)
        text = render_report(ledger, outcomes,
                             figure_tables=tables, gates=gates)
        assert "FAIL" in text and "1 gate(s) failing" in text


# ---------------------------------------------------------------------------
# CLI (tmp worlds)
# ---------------------------------------------------------------------------

def write_world(tmp_path, *, speedup=4.0, sha="b" * 40, with_history=True,
                smoke=None, bench="adaptive"):
    results = tmp_path / "results"
    results.mkdir()
    payload = make_bench_json(bench=bench, sha=sha, speedup=speedup)
    (results / f"bench_{bench}.json").write_text(json.dumps(payload))
    if with_history:
        ledger = Ledger()
        for index, value in enumerate([3.9, 4.0, 4.1]):
            ledger.append_to_file(results / "ledger.jsonl",
                                  make_record(bench=bench,
                                              sha=f"{index:040d}",
                                              speedup=value))
    if smoke is not None:
        smoke_dir = results / "smoke"
        smoke_dir.mkdir()
        (smoke_dir / f"bench_{bench}.json").write_text(json.dumps(
            make_bench_json(bench=bench, sha=sha, scale="smoke",
                            speedup=smoke)))
    return results


class TestCli:
    def run(self, results, *args):
        return obsv_main(["--results", str(results), *args])

    def test_check_ok_on_healthy_world(self, tmp_path, capsys):
        results = write_world(tmp_path, speedup=4.0)
        # Only the adaptive gate has a candidate here; the other default
        # gates report missing results, so restrict via a synthetic check:
        # the CLI exercises all DEFAULT_GATES, so this world must carry
        # every gated bench to exit 0.
        metrics_by_bench = {}
        for gate in DEFAULT_GATES:
            if gate.bench == "adaptive":
                continue
            node = metrics_by_bench.setdefault(gate.bench, {})
            parts = gate.metric.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = 4.0
        for bench, metrics in metrics_by_bench.items():
            (results / f"bench_{bench}.json").write_text(json.dumps(
                make_bench_json(bench=bench, sha="b" * 40, **metrics)))
        assert self.run(results, "check") == 0
        assert "check: OK" in capsys.readouterr().out

    def test_check_fails_on_injected_20_percent_regression(self, tmp_path):
        # History median 4.0; candidate 3.2 is a 20% regression — the
        # persist gate (15% band) must exit non-zero under DEFAULT_GATES.
        results = write_world(tmp_path, speedup=3.2, bench="persist")
        assert self.run(results, "check") == 1

    def test_check_fails_on_torn_results_json(self, tmp_path, capsys):
        results = write_world(tmp_path)
        (results / "bench_adaptive.json").write_text('{"bench": "adapt')
        assert self.run(results, "check") == 1
        assert "torn" in capsys.readouterr().out

    def test_check_fails_on_provenance_less_json(self, tmp_path, capsys):
        results = write_world(tmp_path)
        (results / "bench_adaptive.json").write_text(json.dumps(
            {"schema": BENCH_SCHEMA, "bench": "adaptive", "speedup": 4.0}))
        assert self.run(results, "check") == 1
        assert "provenance" in capsys.readouterr().out

    def test_check_fails_on_misnamed_file(self, tmp_path, capsys):
        results = write_world(tmp_path)
        (results / "bench_renamed.json").write_text(json.dumps(
            make_bench_json(bench="adaptive")))
        assert self.run(results, "check") == 1
        assert "disagrees" in capsys.readouterr().out

    def test_record_appends_full_and_smoke_then_dedups(self, tmp_path,
                                                       capsys):
        results = write_world(tmp_path, with_history=False, smoke=1.2)
        assert self.run(results, "record") == 0
        ledger = Ledger.load(results / "ledger.jsonl")
        assert len(ledger) == 2
        assert {r.scale for r in ledger.records} == {"full", "smoke"}
        # Idempotent: same commit re-records nothing.
        assert self.run(results, "record") == 0
        assert "0 new record(s)" in capsys.readouterr().out
        assert len(Ledger.load(results / "ledger.jsonl")) == 2

    def test_report_writes_then_check_agrees_then_detects_drift(
            self, tmp_path):
        results = write_world(tmp_path, smoke=None)
        output = tmp_path / "REPORT.md"
        assert self.run(results, "report", "--output", str(output)) == 0
        first = output.read_bytes()
        assert self.run(results, "report", "--output", str(output),
                        "--check") == 0
        # Re-render is byte-identical.
        assert self.run(results, "report", "--output", str(output)) == 0
        assert output.read_bytes() == first
        # Any drift in inputs makes --check fail.
        ledger = Ledger.load(results / "ledger.jsonl")
        ledger.append_to_file(results / "ledger.jsonl",
                              make_record(sha="e" * 40, speedup=5.0))
        assert self.run(results, "report", "--output", str(output),
                        "--check") == 1


# ---------------------------------------------------------------------------
# Acceptance against the committed artifacts
# ---------------------------------------------------------------------------

class TestCommittedArtifacts:
    def test_committed_results_pass_check(self):
        assert obsv_main(["--results", str(RESULTS_DIR), "check"]) == 0

    def test_committed_report_regenerates_byte_identical(self, tmp_path):
        output = tmp_path / "REPORT.md"
        assert obsv_main(["--results", str(RESULTS_DIR), "report",
                          "--output", str(output)]) == 0
        committed = (REPO_ROOT / "benchmarks" / "REPORT.md").read_bytes()
        assert output.read_bytes() == committed, (
            "benchmarks/REPORT.md is stale — run `python -m repro.obsv "
            "report` and commit the result"
        )

    def test_injected_regression_on_committed_history_fails_check(
            self, tmp_path):
        results = tmp_path / "results"
        shutil.copytree(RESULTS_DIR, results,
                        ignore=shutil.ignore_patterns("smoke"))
        path = results / "bench_persist.json"
        payload = json.loads(path.read_text())
        payload["speedup"] *= 0.75  # >= 20% down vs its own history
        payload["provenance"]["sha"] = "d" * 40  # a "new" commit
        path.write_text(json.dumps(payload, indent=2) + "\n")
        assert obsv_main(["--results", str(results), "check"]) == 1
        # The untouched copy still passes: the failure is the injection.
        shutil.rmtree(results)
        shutil.copytree(RESULTS_DIR, results,
                        ignore=shutil.ignore_patterns("smoke"))
        assert obsv_main(["--results", str(results), "check"]) == 0
