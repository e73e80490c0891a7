"""Tests for SQL text generation (expressions and plans)."""

import numpy as np
import pytest

from repro.relational import (
    Aggregate,
    AggregateSpec,
    Between,
    CaseWhen,
    Cast,
    Filter,
    FunctionCall,
    InList,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    UnaryOp,
    col,
    expression_to_sql,
    lit,
    plan_to_sql,
)
from repro.storage import Catalog, DataType, Table


@pytest.fixture()
def catalog():
    rng = np.random.default_rng(1)
    n = 2_000
    catalog = Catalog()
    catalog.add_table("fact", Table.from_arrays(
        id=np.arange(n), key=rng.integers(0, 20, n),
        v=rng.normal(size=n)), primary_key=["id"])
    catalog.add_table("dim", Table.from_arrays(
        key=np.arange(20), w=rng.normal(size=20)), primary_key=["key"])
    return catalog


class TestExpressionToSql:
    def test_identifiers_quoted(self):
        assert expression_to_sql(col("t.a")) == "[t].[a]"
        assert expression_to_sql(col("a")) == "[a]"

    def test_literals(self):
        assert expression_to_sql(lit(1)) == "1"
        assert expression_to_sql(lit(1.5)) == "1.5"
        assert expression_to_sql(lit("it's")) == "'it''s'"
        assert expression_to_sql(lit(True)) == "1"

    def test_operators(self):
        sql = expression_to_sql((col("a") + lit(1)).gt(2))
        assert sql == "(([a] + 1) > 2)"

    def test_case_when(self):
        expr = CaseWhen([(col("a").le(1.0), lit(1.0))], lit(0.0))
        assert expression_to_sql(expr) == \
            "CASE WHEN ([a] <= 1.0) THEN 1.0 ELSE 0.0 END"

    def test_sigmoid_expands_to_exp(self):
        sql = expression_to_sql(FunctionCall("sigmoid", [col("m")]))
        assert "EXP" in sql and "1.0 /" in sql

    def test_in_between_cast_not(self):
        assert expression_to_sql(InList(col("s"), ["a", "b"])) == \
            "([s] IN ('a', 'b'))"
        assert expression_to_sql(Between(col("x"), lit(1), lit(2))) == \
            "([x] BETWEEN 1 AND 2)"
        assert expression_to_sql(Cast(col("x"), DataType.INT)) == \
            "CAST([x] AS BIGINT)"
        assert expression_to_sql(UnaryOp("not", col("b"))) == "(NOT [b])"


class TestPlanToSql:
    def test_scan(self):
        assert plan_to_sql(Scan("t")) == "SELECT * FROM [t] AS [t]"

    def test_filter_join_project(self, catalog):
        plan = Project(
            Filter(Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
                   col("fact.v").gt(0.0)),
            [("v", col("fact.v"))])
        sql = plan_to_sql(plan)
        assert "INNER JOIN" in sql
        assert "WHERE" in sql
        assert sql.startswith("SELECT [fact].[v] AS [v]")

    def test_aggregate_group_by(self, catalog):
        plan = Aggregate(Scan("fact"), ["fact.key"],
                         [AggregateSpec("n", "count")])
        sql = plan_to_sql(plan)
        assert "GROUP BY [fact].[key]" in sql
        assert "COUNT(*) AS [n]" in sql

    def test_sort_limit(self, catalog):
        assert "ORDER BY [fact].[v] DESC" in plan_to_sql(
            Sort(Scan("fact"), [("fact.v", False)]))
        assert plan_to_sql(Limit(Scan("fact"), 7)).startswith("SELECT TOP 7")

    def test_predict_renders_tvf(self, catalog, dt_pipeline):
        from repro.onnxlite import convert_pipeline
        from repro.relational.logical import Predict

        graph = convert_pipeline(dt_pipeline)
        plan = Predict(Scan("fact"), "risk", graph, {},
                       [("score", "score", DataType.FLOAT)])
        sql = plan_to_sql(plan)
        assert "PREDICT(MODEL = risk" in sql
        assert "WITH (score FLOAT)" in sql
