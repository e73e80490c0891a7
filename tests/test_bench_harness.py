"""Tests for the bench harness (``benchmarks/_util.py``): scale, timing,
report tables and workload construction."""

import pytest

from benchmarks._util import (
    ReportTable,
    build_workload,
    env_scale,
    load_dataset,
    make_model,
    scaled,
    timed,
    timed_session_query,
)
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
)


class TestHarness:
    def test_env_scale_default(self, monkeypatch):
        monkeypatch.delenv("RAVEN_SCALE", raising=False)
        assert env_scale() == 1.0

    def test_env_scale_override(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.25")
        assert env_scale() == 0.25
        assert scaled(100_000) == 25_000

    def test_scaled_minimum(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.000001")
        assert scaled(100_000, minimum=500) == 500

    def test_timed_trims_extremes(self):
        calls = []

        def fn():
            calls.append(1)

        seconds = timed(fn, repeats=5)
        assert len(calls) == 5
        assert seconds >= 0

    def test_report_table_render(self):
        table = ReportTable("demo", ["a", "b"])
        table.add(a="x", b=1.2345)
        table.add(a="yy", b=100.0)
        table.note("a note")
        text = table.render()
        assert "== demo ==" in text
        assert "note: a note" in text
        assert "1.23" in text and "100" in text


class TestWorkloads:
    def test_make_model_paper_defaults(self):
        assert isinstance(make_model("lr"), LogisticRegression)
        dt = make_model("dt")
        assert isinstance(dt, DecisionTreeClassifier) and dt.max_depth == 8
        gb = make_model("gb")
        assert isinstance(gb, GradientBoostingClassifier)
        assert gb.n_estimators == 20 and gb.max_depth == 3
        assert isinstance(make_model("rf"), RandomForestClassifier)
        with pytest.raises(ValueError):
            make_model("svm")

    def test_make_model_overrides(self):
        dt = make_model("dt", max_depth=15)
        assert dt.max_depth == 15

    def test_load_dataset_cached(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.01")
        a = load_dataset("creditcard", rows=2_000)
        b = load_dataset("creditcard", rows=2_000)
        assert a is b

    def test_build_workload_end_to_end(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.01")
        workload = build_workload("hospital", "dt")
        session = workload.make_session(enable_optimizations=False)
        result = session.sql(workload.query)
        assert result.num_rows == workload.dataset.tables[
            workload.dataset.fact_table].num_rows
        assert "score" in result.column_names

    def test_workload_with_predicate(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.01")
        workload = build_workload("hospital", "dt", where="d.num_issues = 1")
        session = workload.make_session()
        result = session.sql(workload.query)
        full = workload.make_session().sql(
            build_workload("hospital", "dt").query)
        assert result.num_rows < full.num_rows

    def test_aggregate_workload(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.01")
        workload = build_workload("creditcard", "lr", aggregate=True)
        result = workload.make_session().sql(workload.query)
        assert result.num_rows == 1
        assert set(result.column_names) == {"avg_score", "n"}

    def test_timed_session_query(self, monkeypatch):
        monkeypatch.setenv("RAVEN_SCALE", "0.01")
        workload = build_workload("creditcard", "dt")
        session = workload.make_session(enable_optimizations=False)
        seconds = timed_session_query(session, workload.query, repeats=2)
        assert seconds > 0
