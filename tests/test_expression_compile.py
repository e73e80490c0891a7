"""Compiled expression engine: differential equivalence, masked routing,
late materialization, and plan-cache single-flight.

The compiled path (CSE + masked CASE routing + constant folding) must be
bit-for-bit equivalent to the interpreted ``Expression.evaluate`` oracle on
every node type; floats are compared by raw bytes, not tolerance.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.core.rules.ml_to_sql import tree_to_expression
from repro.learn.tree import TreeNode
from repro.relational.compile import compile_outputs, compile_predicate
from repro.relational.executor import Executor
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    FunctionCall,
    InList,
    UnaryOp,
    col,
    lit,
)
from repro.relational.logical import Filter, Project, Scan
from repro.storage.catalog import Catalog
from repro.storage.column import DataType
from repro.storage.table import TableView


# ---------------------------------------------------------------------------
# Fixtures: a random table exercising every logical type
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def expr_table() -> Table:
    rng = np.random.default_rng(42)
    n = 500
    return Table.from_arrays(
        f=rng.normal(0.0, 2.0, n),
        g=np.where(rng.random(n) < 0.2, 0.0, rng.normal(1.0, 1.0, n)),
        i=rng.integers(-5, 6, n),
        j=rng.integers(0, 4, n),
        b=rng.random(n) < 0.5,
        s=rng.choice(["alpha", "beta", "gamma", ""], n),
    )


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray, label=""):
    """Bit-for-bit equality: dtype and raw bytes (NaNs compare equal)."""
    if expected.dtype.kind == "U":
        assert actual.dtype.kind == "U", (label, actual.dtype)
        assert np.array_equal(actual, expected), label
        return
    assert actual.dtype == expected.dtype, (label, actual.dtype, expected.dtype)
    assert actual.tobytes() == expected.tobytes(), label


def _every_node_type_expressions():
    """One named expression per Expression node type / operator variant."""
    f, g, i, j, b, s = (col(c) for c in "fgijbs")
    cases = [
        ("column_ref", f),
        ("literal_float", lit(2.5)),
        ("literal_int", lit(3)),
        ("literal_bool", lit(True)),
        ("literal_string", lit("beta")),
        ("add", f + g),
        ("sub", f - g),
        ("mul", f * i),
        ("div", f / g),                      # includes division by zero rows
        ("int_arith", i + j * i - j),
        ("eq", s.eq(lit("alpha"))),
        ("ne", g.ne(lit(0.0))),
        ("lt", f.lt(g)),
        ("le", i.le(j)),
        ("gt", f.gt(lit(0.0))),
        ("ge", j.ge(lit(2))),
        ("and", BinaryOp("and", f.gt(lit(0.0)), g.gt(lit(0.5)))),
        ("or", BinaryOp("or", f.gt(lit(1.0)), s.eq(lit("beta")))),
        ("not", UnaryOp("not", b)),
        ("negate", UnaryOp("-", f)),
        ("abs", FunctionCall("abs", [f])),
        ("isnan", FunctionCall("isnan", [f / g])),
        ("exp", FunctionCall("exp", [f])),
        ("log", FunctionCall("log", [f])),   # negatives -> nan, same bits
        ("sqrt", FunctionCall("sqrt", [f])),
        ("floor", FunctionCall("floor", [f])),
        ("ceil", FunctionCall("ceil", [f])),
        ("sigmoid", FunctionCall("sigmoid", [f])),
        ("pow", FunctionCall("pow", [f, lit(2.0)])),
        ("least", FunctionCall("least", [f, g])),
        ("greatest", FunctionCall("greatest", [f, g])),
        ("case_numeric", CaseWhen([(f.gt(lit(0.0)), f * lit(2.0)),
                                   (f.lt(lit(-1.0)), g)], f + g)),
        ("case_int", CaseWhen([(j.eq(lit(0)), i), (j.eq(lit(1)), i + lit(1))],
                              lit(0))),
        ("case_bool", CaseWhen([(f.gt(lit(0.0)), b)], UnaryOp("not", b))),
        ("case_string", CaseWhen([(j.gt(lit(2)), lit("high")),
                                  (j.gt(lit(0)), s)], lit("low"))),
        ("case_nested", CaseWhen(
            [(f.gt(lit(0.0)),
              CaseWhen([(g.gt(lit(0.5)), f / g)], lit(-1.0)))],
            CaseWhen([(i.gt(lit(0)), lit(1.0))], lit(0.0)))),
        ("in_numeric", InList(i, (1, 2, 5))),
        ("in_string", InList(s, ("alpha", "gamma"))),
        ("between", Between(f, lit(-1.0), lit(1.0))),
        ("between_exprs", Between(i, UnaryOp("-", j), j)),
        ("cast_float", Cast(i, DataType.FLOAT)),
        ("cast_int", Cast(f, DataType.INT)),
        ("cast_bool", Cast(i, DataType.BOOL)),
        ("cast_string", Cast(j, DataType.STRING)),
        ("folded_const", lit(2.0) * lit(3.0) + lit(1.0)),
        ("folded_into_expr", f * (lit(1.0) - lit(0.25))),
        ("cse_shared", (f - lit(1.0)) * (f - lit(1.0))
         + FunctionCall("sigmoid", [f - lit(1.0)])),
    ]
    return cases


class TestDifferentialEquivalence:
    """Compiled vs interpreted on every Expression node type."""

    @pytest.mark.parametrize("name,expr", _every_node_type_expressions(),
                             ids=[n for n, _ in _every_node_type_expressions()])
    def test_node_type(self, expr_table, name, expr):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = expr.evaluate(expr_table)
            program = compile_outputs([(name, expr)], expr_table.schema)
            actual = program.run(expr_table)[name]
        assert_bitwise_equal(actual, expected, name)

    @pytest.mark.parametrize("name,expr", _every_node_type_expressions(),
                             ids=[n for n, _ in _every_node_type_expressions()])
    def test_node_type_on_empty_table(self, expr_table, name, expr):
        empty = expr_table.slice(0, 0)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = expr.evaluate(empty)
            actual = compile_outputs([(name, expr)], empty.schema).run(empty)[name]
        assert len(actual) == 0
        assert_bitwise_equal(actual, expected, name)

    def test_all_outputs_share_one_program(self, expr_table):
        outputs = _every_node_type_expressions()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = compile_outputs(outputs, expr_table.schema)
            results = program.run(expr_table)
            for name, expr in outputs:
                assert_bitwise_equal(results[name], expr.evaluate(expr_table),
                                     name)

    def test_outputs_are_fresh_and_writable(self, expr_table):
        # Constant outputs must not leak read-only broadcasts, and
        # duplicate-expression outputs must not alias one buffer —
        # matching the interpreted path's fresh-array contract.
        program = compile_outputs(
            [("one", lit(1.0)), ("a", col("f") + lit(1.0)),
             ("b", col("f") + lit(1.0))], expr_table.schema)
        results = program.run(expr_table)
        for name in ("one", "a", "b"):
            assert results[name].flags.writeable, name
        assert not np.shares_memory(results["a"], results["b"])
        results["a"][0] = 123.0
        assert results["b"][0] != 123.0
        np.testing.assert_array_equal(results["one"], np.ones(expr_table.num_rows))

    def test_runs_identically_on_views(self, expr_table):
        selection = np.flatnonzero(expr_table.array("f") > 0.0)
        view = TableView(expr_table, selection)
        gathered = Table({n: expr_table.column(n).take(selection)
                          for n in expr_table.column_names})
        for name, expr in _every_node_type_expressions():
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = expr.evaluate(gathered)
                actual = compile_outputs([(name, expr)],
                                         view.schema).run(view)[name]
            assert_bitwise_equal(actual, expected, name)


# ---------------------------------------------------------------------------
# MLtoSQL-translated decision trees, depths 2-10
# ---------------------------------------------------------------------------

def _make_tree(depth: int, rng: np.random.Generator, n_features: int) -> TreeNode:
    if depth == 0:
        p = float(rng.random())
        return TreeNode(value=np.array([1.0 - p, p]))
    return TreeNode(
        feature=int(rng.integers(0, n_features)),
        threshold=float(rng.normal(0.0, 1.0)),
        left=_make_tree(depth - 1, rng, n_features),
        right=_make_tree(depth - 1, rng, n_features),
    )


class TestTranslatedTrees:
    @pytest.mark.parametrize("depth", range(2, 11))
    def test_tree_depths(self, depth):
        rng = np.random.default_rng(depth)
        n_features = 4
        table = Table.from_arrays(
            **{f"x{k}": rng.normal(0.0, 1.0, 2_000) for k in range(n_features)}
        )
        features = [col(f"x{k}") for k in range(n_features)]
        expr = tree_to_expression(_make_tree(depth, rng, n_features),
                                  features, value_index=1)
        expected = expr.evaluate(table)
        program = compile_outputs([("score", expr)], table.schema)
        actual = program.run(table)["score"]
        assert_bitwise_equal(actual, expected, f"tree depth {depth}")

    def test_shared_feature_pipeline_is_cse_deduplicated(self):
        # The same scaled feature feeds every tree node; compiled form
        # holds exactly one instruction for it.
        scaled = (col("x0") - lit(3.0)) * lit(0.5)
        rng = np.random.default_rng(7)
        expr = tree_to_expression(_make_tree(5, rng, 1), [scaled],
                                  value_index=1)
        table = Table.from_arrays(x0=rng.normal(3.0, 2.0, 100))
        program = compile_outputs([("score", expr)], table.schema)
        column_loads = [ins for ins in program.instructions
                        if ins.kind == "col"]
        assert len(column_loads) == 1
        scaling_ops = [ins for ins in program.instructions
                       if ins.kind == "arith"]
        assert len(scaling_ops) == 2  # one sub, one mul — not per tree node
        assert_bitwise_equal(program.run(table)["score"],
                             expr.evaluate(table), "shared pipeline")


# ---------------------------------------------------------------------------
# Masked routing: the guarded-division hazard (regression)
# ---------------------------------------------------------------------------

GUARDED_DIV = """
    SELECT CASE WHEN t.x <> 0.0 THEN t.y / t.x ELSE 0.0 END AS r
    FROM guarded AS t
"""


def _guarded_session(compile_expressions: bool) -> RavenSession:
    table = Table.from_arrays(
        x=np.array([0.0, 2.0, 0.0, -4.0, 0.0]),
        y=np.array([1.0, 6.0, -3.0, 8.0, 0.0]),
    )
    session = RavenSession(compile_expressions=compile_expressions)
    session.register_table("guarded", table)
    return session


class TestGuardedDivision:
    def test_compiled_emits_no_warnings_and_no_nonfinite(self):
        session = _guarded_session(compile_expressions=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy warning -> failure
            result = session.sql(GUARDED_DIV)
        r = result.array("r")
        assert np.isfinite(r).all()
        np.testing.assert_array_equal(r, [0.0, 3.0, 0.0, -2.0, 0.0])

    def test_interpreted_oracle_is_silent_too(self):
        # The np.select path still evaluates y/x on the x = 0 rows (which
        # is why masked routing matters for cost), but division follows
        # SQL float semantics engine-wide: x/0 is IEEE inf/nan with no
        # RuntimeWarning, so warnings-as-errors suites stay clean on both
        # paths and the values match the compiled engine bit-for-bit.
        session = _guarded_session(compile_expressions=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = session.sql(GUARDED_DIV)
        np.testing.assert_array_equal(result.array("r"),
                                      [0.0, 3.0, 0.0, -2.0, 0.0])

    def test_short_circuit_and_skips_poisoned_rows(self):
        table = Table.from_arrays(x=np.array([0.0, 2.0, 4.0]),
                                  y=np.array([1.0, 1.0, 1.0]))
        pred = BinaryOp("and", col("x").ne(lit(0.0)),
                        (col("y") / col("x")).gt(lit(0.3)))
        program = compile_predicate(pred, table.schema)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = program.run_single(table)
        np.testing.assert_array_equal(keep, [False, True, False])


# ---------------------------------------------------------------------------
# Late materialization: selection vectors + zero-copy views
# ---------------------------------------------------------------------------

def _catalog_with(table: Table, name: str = "t") -> Catalog:
    catalog = Catalog()
    catalog.add_table(name, table)
    return catalog


class TestLateMaterialization:
    def make_table(self):
        rng = np.random.default_rng(11)
        return Table.from_arrays(
            a=rng.normal(0, 1, 1_000),
            b=rng.normal(0, 1, 1_000),
            unused=rng.normal(0, 1, 1_000),
        )

    def test_filter_produces_zero_copy_view(self):
        table = self.make_table()
        executor = Executor(_catalog_with(table))
        plan = Filter(Scan("t"), col("t.a").gt(lit(0.0)))
        view = executor._run(plan)
        assert isinstance(view, TableView)
        assert view.selection is not None
        # No column was copied by the Filter: every column of the view's
        # backing table aliases the registered table's buffers.
        for name in table.column_names:
            assert view.table.column(f"t.{name}").shares_data_with(
                table.column(name))

    def test_stacked_filters_compose_selections(self):
        table = self.make_table()
        executor = Executor(_catalog_with(table))
        plan = Filter(Filter(Scan("t"), col("t.a").gt(lit(0.0))),
                      col("t.b").gt(lit(0.0)))
        view = executor._run(plan)
        keep = (table.array("a") > 0.0) & (table.array("b") > 0.0)
        np.testing.assert_array_equal(view.selection, np.flatnonzero(keep))
        # Still zero-copy after two filters.
        assert view.table.column("t.a").shares_data_with(table.column("a"))

    def test_project_gathers_only_referenced_columns(self, monkeypatch):
        table = self.make_table()
        executor = Executor(_catalog_with(table))
        gathered = []
        original = TableView.column

        def spying_column(self, name):
            if self.selection is not None:
                gathered.append(name)
            return original(self, name)

        monkeypatch.setattr(TableView, "column", spying_column)
        plan = Project(Filter(Scan("t"), col("t.a").gt(lit(0.0))),
                       [("out", col("t.a") + col("t.b"))])
        result = executor.execute(plan)
        assert "t.unused" not in gathered      # never copied nor gathered
        assert set(gathered) == {"t.a", "t.b"}
        keep = table.array("a") > 0.0
        np.testing.assert_array_equal(
            result.array("out"), (table.array("a") + table.array("b"))[keep])

    def test_all_true_and_all_false_filters(self):
        table = self.make_table()
        for compile_expressions in (True, False):
            executor = Executor(_catalog_with(table),
                                compile_expressions=compile_expressions)
            everything = executor.execute(
                Filter(Scan("t"), col("t.a").ge(lit(-1e9))))
            nothing = executor.execute(
                Filter(Scan("t"), col("t.a").gt(lit(1e9))))
            assert everything.num_rows == table.num_rows
            assert nothing.num_rows == 0
            assert nothing.column_names == everything.column_names

    def test_program_cache_recompiles_on_schema_change(self):
        # The same plan object run against a catalog whose column changed
        # type must not reuse a program lowered for the old schema.
        plan = Project(Scan("t"), [
            ("out", CaseWhen([(col("t.a").gt(lit(0)), col("t.a"))], lit(0)))])
        as_int = Table.from_arrays(a=np.array([-1, 2, 3], dtype=np.int64))
        as_float = Table.from_arrays(a=np.array([-1.5, 2.5, 3.5]))
        first = Executor(_catalog_with(as_int)).execute(plan)
        assert first.column("out").dtype is DataType.INT
        second = Executor(_catalog_with(as_float)).execute(plan)
        assert second.column("out").dtype is DataType.FLOAT
        np.testing.assert_array_equal(second.array("out"), [0.0, 2.5, 3.5])

    def test_limit_on_view_is_zero_copy(self):
        table = self.make_table()
        executor = Executor(_catalog_with(table))
        from repro.relational.logical import Limit
        view = executor._run(Limit(Filter(Scan("t"),
                                          col("t.a").gt(lit(0.0))), 5))
        assert view.num_rows == 5
        assert view.table.column("t.a").shares_data_with(table.column("a"))

    def test_table_view_refine_and_materialize(self):
        table = self.make_table()
        view = TableView(table)
        refined = view.refine(table.array("a") > 0.0)
        assert refined.num_rows == int((table.array("a") > 0.0).sum())
        materialized = refined.materialize(["a"])
        assert materialized.column_names == ["a"]
        np.testing.assert_array_equal(
            materialized.array("a"),
            table.array("a")[table.array("a") > 0.0])
        # Full-table views materialize to the table itself (no copies).
        assert view.materialize() is table


# ---------------------------------------------------------------------------
# Session-level: differential + per-plan program caching
# ---------------------------------------------------------------------------

class TestSessionIntegration:
    def _sessions(self, patients_table, pulmonary_table, dt_pipeline):
        out = []
        for flag in (True, False):
            sess = RavenSession(compile_expressions=flag)
            sess.register_table("patient_info", patients_table,
                                primary_key=["id"])
            sess.register_table("pulmonary_test", pulmonary_table,
                                primary_key=["id"])
            sess.register_model("covid_risk", dt_pipeline)
            out.append(sess)
        return out

    def test_predict_query_matches_interpreted(self, patients_table,
                                               pulmonary_table, dt_pipeline,
                                               covid_query):
        compiled, interpreted = self._sessions(patients_table,
                                               pulmonary_table, dt_pipeline)
        expected = interpreted.sql(covid_query)
        actual = compiled.sql(covid_query)
        assert actual.column_names == expected.column_names
        for name in expected.column_names:
            assert_bitwise_equal(actual.array(name), expected.array(name),
                                 name)

    def test_warm_queries_reuse_compiled_programs(self, session, covid_query):
        _, cold = session.sql_with_stats(covid_query)
        assert cold.programs_compiled > 0
        _, warm = session.sql_with_stats(covid_query)
        assert warm.cache_hit
        assert warm.programs_compiled == 0
        assert warm.programs_reused >= cold.programs_compiled

    def test_dop_chunks_share_programs(self, patients_table, pulmonary_table,
                                       dt_pipeline, covid_query):
        serial = RavenSession(compile_expressions=True)
        chunked = RavenSession(compile_expressions=True, dop=4)
        for sess in (serial, chunked):
            sess.register_table("patient_info", patients_table,
                                primary_key=["id"])
            sess.register_table("pulmonary_test", pulmonary_table,
                                primary_key=["id"])
            sess.register_model("covid_risk", dt_pipeline)
        expected = serial.sql(covid_query)
        actual = chunked.sql(covid_query)
        for name in expected.column_names:
            assert_bitwise_equal(actual.array(name), expected.array(name),
                                 name)


# ---------------------------------------------------------------------------
# Plan-cache single-flight on concurrent misses
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_concurrent_misses_optimize_once(self, patients_table,
                                             pulmonary_table, dt_pipeline,
                                             covid_query):
        session = RavenSession()
        session.register_table("patient_info", patients_table,
                               primary_key=["id"])
        session.register_table("pulmonary_test", pulmonary_table,
                               primary_key=["id"])
        session.register_model("covid_risk", dt_pipeline)

        optimize_calls = []
        barrier = threading.Barrier(4)
        original = RavenSession._optimize_stmt

        def slow_optimize(self, stmt):
            optimize_calls.append(1)
            time.sleep(0.25)  # hold the flight open so the others coalesce
            return original(self, stmt)

        session._optimize_stmt = slow_optimize.__get__(session)

        results = [None] * 4

        def worker(index):
            barrier.wait()
            results[index] = session.sql(covid_query)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(optimize_calls) == 1, "misses were not single-flighted"
        stats = session.plan_cache.stats
        assert stats.misses == 1
        assert stats.coalesced == 3
        for other in results[1:]:
            assert results[0] == other

    def test_owner_failure_unblocks_waiters(self, session, covid_query):
        # A failing owner must complete its flight so waiters fall back to
        # optimizing independently instead of hanging.
        cache = session.plan_cache
        from repro.serving.normalize import normalize_query
        key = normalize_query(covid_query).key
        entry, flight, owner = cache.begin(key, session.catalog)
        assert entry is None and owner

        got = []

        def waiter():
            got.append(session.sql(covid_query))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.complete(flight, None)  # owner "failed"
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert got and got[0].num_rows >= 0
        # The fallback re-optimization is an ordinary miss, not coalesced.
        assert cache.stats.coalesced == 0
        assert cache.stats.misses == 2

    def test_sequential_lookups_do_not_coalesce(self, session, covid_query):
        session.sql(covid_query)
        session.sql(covid_query)
        stats = session.plan_cache.stats
        assert stats.misses == 1 and stats.hits == 1
        assert stats.coalesced == 0
