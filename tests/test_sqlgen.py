"""Tests for SQL text generation (expressions and plans).

The printed text runs in stdlib ``sqlite3``: every expression class
parses there, and the DT hospital pipeline's translated query scores
every row bit for bit as the engine does.
"""

import sqlite3

import numpy as np
import pytest

from repro import RavenSession
from repro.datasets import DATASET_GENERATORS
from repro.learn import DecisionTreeClassifier

from repro.relational import (
    Aggregate,
    AggregateSpec,
    Between,
    BinaryOp,
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
        # A qualified plan column is one name of the derived table below.
        assert expression_to_sql(col("t.a")) == "[t.a]"
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
        assert expression_to_sql(Cast(col("x"), DataType.STRING)) == \
            "CAST([x] AS VARCHAR(8000))"
        assert expression_to_sql(UnaryOp("not", col("b"))) == "(NOT [b])"


class TestPlanToSql:
    def test_scan(self, catalog):
        assert plan_to_sql(Scan("fact", alias="f", columns=["v"]),
                           catalog) == "SELECT [v] AS [f.v] FROM [fact] AS [f]"

    def test_a_scan_of_every_column_lists_the_catalogs(self, catalog):
        assert plan_to_sql(Scan("dim", alias="d"), catalog) == \
            "SELECT [key] AS [d.key], [w] AS [d.w] FROM [dim] AS [d]"

    def test_filter_join_project(self, catalog):
        plan = Project(
            Filter(Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
                   col("fact.v").gt(0.0)),
            [("v", col("fact.v"))])
        sql = plan_to_sql(plan, catalog)
        assert "INNER JOIN" in sql
        assert "WHERE" in sql
        assert sql.startswith("SELECT [fact.v] AS [v]")

    def test_aggregate_group_by(self, catalog):
        plan = Aggregate(Scan("fact"), ["fact.key"],
                         [AggregateSpec("n", "count")])
        sql = plan_to_sql(plan, catalog)
        assert "GROUP BY [fact.key]" in sql
        assert "COUNT(*) AS [n]" in sql

    def test_sort_limit(self, catalog):
        assert "ORDER BY [fact.v] DESC" in plan_to_sql(
            Sort(Scan("fact"), [("fact.v", False)]), catalog)
        assert plan_to_sql(Limit(Scan("fact"), 7), catalog).endswith(
            " LIMIT 7")

    def test_predict_renders_tvf(self, catalog, dt_pipeline):
        from repro.onnxlite import convert_pipeline
        from repro.relational.logical import Predict

        graph = convert_pipeline(dt_pipeline)
        plan = Predict(Scan("fact"), "risk", graph, {},
                       [("score", "score", DataType.FLOAT)])
        sql = plan_to_sql(plan, catalog)
        assert "PREDICT(MODEL = risk" in sql
        assert "WITH (score FLOAT)" in sql


# ---------------------------------------------------------------------------
# The text runs in sqlite
# ---------------------------------------------------------------------------

def _sqlite(catalog) -> sqlite3.Connection:
    """The catalog's tables in an in-memory sqlite database (NaN is NULL)."""
    connection = sqlite3.connect(":memory:")
    for name in catalog.table_names:
        table = catalog.table(name).data.to_table()
        columns = table.column_names
        connection.execute(f"CREATE TABLE [{name}] ("
                           + ", ".join(f"[{c}]" for c in columns) + ")")
        connection.executemany(
            f"INSERT INTO [{name}] VALUES ({', '.join('?' * len(columns))})",
            zip(*[table.array(c).tolist() for c in columns]))
    return connection


class TestSqlite:
    def test_every_plan_shape_runs(self, catalog):
        connection = _sqlite(catalog)
        join = Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"])
        plans = [
            Scan("fact"),
            Project(Filter(join, col("fact.v").gt(0.0)),
                    [("v", col("fact.v")), ("w", col("dim.w"))]),
            Aggregate(Scan("fact"), ["fact.key"],
                      [AggregateSpec("n", "count")]),
            Limit(Sort(Scan("fact"), [("fact.v", False)]), 7),
        ]
        counts = [len(connection.execute(plan_to_sql(plan, catalog))
                      .fetchall()) for plan in plans]
        assert counts[0] == 2_000 and counts[2] == 20 and counts[3] == 7
        assert counts[1] == int((catalog.table("fact").data.to_table()
                                 .array("v") > 0.0).sum())

    def test_every_expression_class_runs(self, catalog):
        x = col("f.v")
        expressions = [
            (x + lit(1.0)) * lit(2.0) - x / lit(3.0),
            UnaryOp("-", x), UnaryOp("not", x.gt(0.0)),
            FunctionCall("sigmoid", [x]), FunctionCall("isnan", [x]),
            FunctionCall("abs", [x]), FunctionCall("sqrt", [x * x]),
            CaseWhen([(x.le(0.0), lit(1.0))], lit(0.0)),
            InList(col("f.key"), [1, 2]), InList(lit("a"), ["a", "b"]),
            Between(x, lit(-1.0), lit(1.0)),
            Cast(x, DataType.INT), Cast(x, DataType.STRING),
            BinaryOp("and", x.gt(0.0), x.ne(1.0)),
            BinaryOp("or", x.lt(0.0), x.ge(1.0)),
        ]
        plan = Project(Scan("fact", alias="f"),
                       [(f"e{k}", e) for k, e in enumerate(expressions)])
        rows = _sqlite(catalog).execute(plan_to_sql(plan, catalog)).fetchall()
        assert len(rows) == 2_000 and len(rows[0]) == len(expressions)


def test_the_dt_pipelines_text_scores_as_the_engine_does():
    data = DATASET_GENERATORS["hospital"](2_000, seed=0)
    training = DATASET_GENERATORS["hospital"](400, seed=0)
    session = RavenSession(strategy="sql")
    data.register(session)
    session.register_model("m", training.train_pipeline(
        DecisionTreeClassifier(max_depth=8, random_state=0)))
    for where in (None, "d.pulse > 72.5"):
        query = data.prediction_query("m", where=where)
        text = session.to_sql_server(query)
        assert "PREDICT" not in text
        got = np.asarray(_sqlite(session.catalog).execute(text).fetchall())
        got = got[np.argsort(got[:, 0])]
        want = session.sql(query)
        order = np.argsort(want.array("eid"))
        assert len(got) == want.num_rows > 0
        assert np.array_equal(got[:, 0], want.array("eid")[order])
        assert got[:, 1].tobytes() == want.array("score")[order].tobytes()
