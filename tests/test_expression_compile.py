"""Compiled expression engine: differential equivalence, masked routing,
late materialization, and plan-cache single-flight.

The compiled path (CSE + masked CASE routing + constant folding) must be
bit-for-bit equivalent to the interpreted ``Expression.evaluate`` oracle on
every node type; floats are compared by raw bytes, not tolerance.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings

import numpy as np
import pytest

import tree_reference as ref
from repro import RavenSession, Table
from repro.core.rules.ml_to_sql import tree_to_expression
from repro.errors import CompileError
from repro.relational import compile as compile_module
from repro.relational.compile import compile_outputs, compile_predicate
from repro.relational.executor import Executor, session_programs
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    Expression,
    FunctionCall,
    InList,
    UnaryOp,
    col,
    lit,
    substitute_columns,
)
from repro.relational.logical import Filter, Project, Scan
from repro.resilience import FaultInjector
from repro.storage.catalog import Catalog
from repro.storage.column import Column, DataType
from repro.storage.mmap_column import MmapColumn
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

def _make_tree(depth: int, rng: np.random.Generator, n_features: int):
    def build(depth):
        if depth == 0:
            p = float(rng.random())
            return (1.0 - p, p), 0
        return (int(rng.integers(0, n_features)),
                float(rng.normal(0.0, 1.0)),
                build(depth - 1), build(depth - 1), 0)
    return ref.to_tree(build(depth))


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
# Expression identity: slots, cached structural hashes, equality
# ---------------------------------------------------------------------------

def _expression_classes():
    found, pending = set(), [Expression]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                pending.append(sub)
    return found


class TestExpressionIdentity:
    def test_no_node_carries_a_dict(self):
        samples = [expr for _, expr in _every_node_type_expressions()]
        covered = {type(expr) for expr in samples}
        assert covered == _expression_classes()
        for expr in samples:
            assert not hasattr(expr, "__dict__"), type(expr).__name__

    @pytest.mark.parametrize("name,expr", _every_node_type_expressions(),
                             ids=[n for n, _ in _every_node_type_expressions()])
    def test_cached_hash_is_the_structural_hash(self, name, expr):
        first = hash(expr)
        assert hash(expr) == first
        assert first == hash((type(expr).__name__, expr._key()))

    def test_separately_built_trees_are_equal(self):
        built = [dict(_every_node_type_expressions()) for _ in range(2)]
        for name, expr in built[0].items():
            twin = built[1][name]
            assert expr is not twin
            assert expr == twin and hash(expr) == hash(twin), name

    def test_a_deep_literal_breaks_equality(self):
        def tree(leaf):
            return CaseWhen(
                [(col("f").gt(lit(0.0)),
                  CaseWhen([(col("g").gt(lit(0.5)), col("f") / col("g"))],
                           lit(leaf)))],
                lit(0.0))

        assert tree(-1.0) == tree(-1.0)
        assert tree(-1.0) != tree(-2.0)
        assert tree(1) != tree(1.0)  # INT vs FLOAT literal
        assert tree(0.0) != tree(-0.0)  # different constants
        assert lit(0.0) != lit(-0.0) and lit(-0.0) == lit(-0.0)

    def test_nan_literal_keeps_identity_semantics(self):
        # A NaN literal equals itself and a literal holding the same NaN
        # object (tuple comparison tries identity first), and never a
        # literal holding another NaN object.
        nan = float("nan")
        a, b, c = lit(nan), lit(nan), lit(float("nan"))
        assert a == a and a == b and hash(a) == hash(b)
        assert a != c
        assert col("f").gt(a) == col("f").gt(b)
        assert col("f").gt(a) != col("f").gt(c)

    def test_rewrites_leave_the_source_hash_intact(self):
        source = (col("f") + lit(1.0)) * col("g")
        before = hash(source)
        rewritten = substitute_columns(source, {"g": lit(2.0)})
        assert hash(source) == before
        assert rewritten != source
        assert rewritten == (col("f") + lit(1.0)) * lit(2.0)


# ---------------------------------------------------------------------------
# Session-level: differential + per-plan program caching
# ---------------------------------------------------------------------------

LITERAL_QUERY = """
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, p.score
FROM PREDICT(MODEL = covid_risk, DATA = data AS d) WITH (score FLOAT) AS p
WHERE d.id > {}
"""


class TestSessionIntegration:
    def _session(self, patients, pulmonary, dt_pipeline, **options):
        sess = RavenSession(**options)
        sess.register_table("patient_info", patients, primary_key=["id"])
        sess.register_table("pulmonary_test", pulmonary, primary_key=["id"])
        sess.register_model("covid_risk", dt_pipeline)
        return sess

    def _sessions(self, patients_table, pulmonary_table, dt_pipeline):
        """A compiled session and its interpreted oracle."""
        return [self._session(patients_table, pulmonary_table, dt_pipeline,
                              compile_expressions=flag)
                for flag in (True, False)]

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

    # -- the session's structural program table ---------------------------
    @staticmethod
    def _assert_same(actual, expected):
        assert actual.column_names == expected.column_names
        for name in expected.column_names:
            assert_bitwise_equal(actual.array(name), expected.array(name),
                                 name)

    def test_new_literal_compiles_only_the_filter(
            self, patients_table, pulmonary_table, dt_pipeline):
        sess, oracle = self._sessions(patients_table, pulmonary_table,
                                      dt_pipeline)
        first, cold = sess.sql_with_stats(LITERAL_QUERY.format(100))
        assert cold.programs_compiled > 1
        second, stats = sess.sql_with_stats(LITERAL_QUERY.format(2500))
        assert not stats.cache_hit
        assert stats.programs_compiled == 1  # the Filter; the CASE is shared
        assert stats.programs_reused >= 1
        self._assert_same(first, oracle.sql(LITERAL_QUERY.format(100)))
        self._assert_same(second, oracle.sql(LITERAL_QUERY.format(2500)))

    def test_sessions_do_not_share_programs(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        first = self._session(patients_table, pulmonary_table, dt_pipeline)
        _, cold = first.sql_with_stats(covid_query)
        second = self._session(patients_table, pulmonary_table, dt_pipeline)
        _, other = second.sql_with_stats(covid_query)
        assert other.programs_compiled == cold.programs_compiled > 0
        assert other.programs_reused == 0

    def test_changed_column_dtype_compiles_afresh(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        sess, oracle = self._sessions(patients_table, pulmonary_table,
                                      dt_pipeline)
        _, cold = sess.sql_with_stats(covid_query)
        # Same schema re-registered: a fresh plan, every program shared.
        sess.register_table("patient_info", patients_table,
                            primary_key=["id"], replace=True)
        _, same = sess.sql_with_stats(covid_query)
        assert not same.cache_hit
        assert same.programs_compiled == 0
        # age as INT: the structural key changes with the schema.
        columns = dict(patients_table.columns)
        columns["age"] = Column(patients_table.array("age").astype(np.int64))
        retyped = Table(columns)
        for session in (sess, oracle):
            session.register_table("patient_info", retyped,
                                   primary_key=["id"], replace=True)
        actual, fresh = sess.sql_with_stats(covid_query)
        # Programs over pulmonary_test alone keep their key.
        assert fresh.programs_compiled > 0
        assert (fresh.programs_compiled + fresh.programs_reused
                == cold.programs_compiled)
        self._assert_same(actual, oracle.sql(covid_query))

    def test_shared_program_runs_over_a_spilled_table(
            self, tmp_path, patients_table, pulmonary_table, dt_pipeline):
        sess, oracle = self._sessions(patients_table, pulmonary_table,
                                      dt_pipeline)
        in_memory = sess.sql(LITERAL_QUERY.format(100))
        sess.spill_table("patient_info", tmp_path / "spill")
        assert isinstance(
            sess.catalog.table("patient_info").data.partitions[0]
            .table.column("smoker"), MmapColumn)
        spilled, stats = sess.sql_with_stats(LITERAL_QUERY.format(2500))
        assert stats.programs_compiled == 1 and stats.programs_reused >= 1
        self._assert_same(in_memory, oracle.sql(LITERAL_QUERY.format(100)))
        self._assert_same(spilled, oracle.sql(LITERAL_QUERY.format(2500)))

    def test_compile_fault_falls_back_on_a_structural_hit(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=7)
        sess = self._session(patients_table, pulmonary_table, dt_pipeline,
                             faults=faults)
        oracle = self._session(patients_table, pulmonary_table, dt_pipeline,
                               compile_expressions=False)
        sess.sql(LITERAL_QUERY.format(100))
        faults.inject("executor.compile", error=CompileError)
        table, stats = sess.sql_with_stats(LITERAL_QUERY.format(2500))
        assert stats.expression_fallbacks > 0
        assert stats.programs_compiled == stats.programs_reused == 0
        self._assert_same(table, oracle.sql(LITERAL_QUERY.format(2500)))

    def test_concurrent_distinct_literals_match_serial(
            self, patients_table, pulmonary_table, dt_pipeline):
        queries = [LITERAL_QUERY.format(literal)
                   for literal in range(100, 3300, 400)]
        served = self._session(patients_table, pulmonary_table, dt_pipeline)
        serial = self._session(patients_table, pulmonary_table, dt_pipeline)
        for table, query in zip(served.serve(queries, workers=4), queries):
            self._assert_same(table, serial.sql(query))

    def test_program_table_is_lru_bounded(
            self, monkeypatch, patients_table, pulmonary_table, dt_pipeline,
            covid_query):
        monkeypatch.setattr(compile_module, "MAX_SESSION_PROGRAMS", 2)
        sess = self._session(patients_table, pulmonary_table, dt_pipeline)
        table = session_programs(sess.catalog)
        _, cold = sess.sql_with_stats(covid_query)
        assert cold.programs_compiled > 2
        assert len(table) == 2
        # Evicted programs compile again for a freshly optimized plan.
        sess.register_table("patient_info", patients_table,
                            primary_key=["id"], replace=True)
        _, again = sess.sql_with_stats(covid_query)
        assert not again.cache_hit
        assert again.programs_compiled > 0
        assert len(table) == 2

    def test_program_table_keeps_one_copy_under_contention(
            self, monkeypatch, expr_table):
        # More threads than cores racing on a few keys with a tiny switch
        # interval and a slow build, so first lookups miss together: every
        # caller of a key must get the one stored program (a lost insert
        # would hand out a second copy), and the table never outgrows its
        # bound.
        monkeypatch.setattr(compile_module, "MAX_SESSION_PROGRAMS", 4)
        table = compile_module.ProgramTable()
        keys = [("filter", col("f").gt(lit(float(k))),
                 tuple(expr_table.schema)) for k in range(4)]

        def build(predicate):
            time.sleep(0.001)
            return compile_predicate(predicate, expr_table.schema)

        seen = {index: set() for index in range(len(keys))}
        sizes, errors = [], []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait(timeout=10)
                rng = np.random.default_rng(seed)
                for _ in range(300):
                    index = int(rng.integers(len(keys)))
                    key = keys[index]
                    program, _ = table.lookup(key, lambda: build(key[1]))
                    seen[index].add(id(program))
                    sizes.append(len(table))
            except BaseException as error:  # surfaced by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(len(ids) == 1 for ids in seen.values())
        assert max(sizes) <= 4

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
