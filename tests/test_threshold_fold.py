"""A tree split on a scaled column reads the raw column.

MLtoSQL folds a split ``f(x) <= t``, ``f`` a monotone affine chain of one
column (the scaler's ``(x - m) * s``, ``± c``, ``* c``, ``/ c``), into
``x <= x*`` or ``x >= x*``; the engine runs ``column <cmp> constant`` as
one ``colcmp`` instruction. Held here, bit for bit, to the unfolded form:

* on Hypothesis-generated chains and thresholds, probed at the boundary,
  one ulp either side of it, signed zeros, infinities, NaN, subnormals
  and INT values beyond 2^53, through ``Expression.evaluate`` and through
  compiled programs;
* over whole DT, RF and GBT pipelines on hospital and flights, against the
  CASE built from the tree arrays with no fold (``tree_reference``), and a
  one-tree DT, which is not divided by 1, against the ML runtime;

and a ``strcmp`` binds its literal once per dictionary, rebinding only
when a different dictionary arrives.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from repro import RavenSession
from repro.core.rules import ml_to_sql
from repro.core.rules.ml_to_sql import _split_condition, graph_to_expressions
from repro.datasets import DATASET_GENERATORS
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from repro.onnxlite import convert_pipeline
from repro.relational import compile as compile_module
from repro.relational.compile import compile_outputs, compile_predicate
from repro.relational.expressions import BinaryOp, ColumnRef, Literal, col, lit
from repro.relational.logical import Project, find_predict_nodes, walk
from repro.storage import Table

X = col("x")
TINY = 5e-324                      # the smallest subnormal
MAX = np.finfo(np.float64).max
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -TINY,
                  2.2250738585072014e-308, -2.2250738585072014e-308,
                  1e-310, -1e-310, MAX, -MAX, 1.0, -1.0, 0.5]
INT_LIMIT = 2 ** 63 - 1
SPECIAL_INTS = [0, 1, -1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 - 1, -2 ** 53,
                -2 ** 53 - 1, 2 ** 62 + 1, -2 ** 62 - 1, 2 ** 60 + 3,
                INT_LIMIT, -INT_LIMIT - 1]


def _chain(ops):
    """``X`` with the ``(op, literal on the left, constant)`` ops applied,
    innermost first."""
    expr = X
    for op, on_left, constant in ops:
        operands = (lit(constant), expr) if on_left else (expr, lit(constant))
        expr = BinaryOp(op, *operands)
    return expr


def _boundary(condition):
    """``x*`` of a folded condition; None when the split stayed unfolded."""
    if isinstance(condition, BinaryOp) and condition.left == X \
            and isinstance(condition.right, Literal):
        assert condition.op in ("<=", ">=")
        return condition.right.value
    return None


def _float_probes(boundary, extra):
    values = list(SPECIAL_FLOATS) + [v for v in extra if math.isfinite(v)]
    if boundary is not None:
        below = above = boundary
        for _ in range(2):
            below = float(np.nextafter(below, -math.inf))
            above = float(np.nextafter(above, math.inf))
            values += [below, above]
        values.append(boundary)
    return np.array(values, dtype=np.float64)


def _int_probes(boundary):
    values = list(SPECIAL_INTS)
    if boundary is not None and math.isfinite(boundary) \
            and abs(boundary) < 2.0 ** 62:
        base = int(boundary)
        # Beyond 2^53 a float stands for `spacing` ints: probe where their
        # rounding to x* or to its neighbours flips.
        half = int(np.spacing(abs(boundary))) // 2
        values += [base + offset for offset in (-half - 1, -half, -half + 1,
                                                -1, 0, 1,
                                                half - 1, half, half + 1)]
    return np.array(values, dtype=np.int64)


def _assert_folded_equals_unfolded(feature, threshold, extra=()):
    condition = _split_condition(feature, threshold)
    unfolded = feature.le(lit(threshold))
    boundary = _boundary(condition)
    with np.errstate(all="ignore"):   # x* ± 1 ulp, (x - m) * s overflow
        probes = (_float_probes(boundary, extra), _int_probes(boundary))
    for values in probes:
        table = Table.from_arrays(x=values)
        with np.errstate(all="ignore"):
            want = unfolded.evaluate(table)
            got = [condition.evaluate(table),
                   compile_outputs([("c", condition)], table.schema).run(table)["c"],
                   compile_predicate(condition, table.schema).run_single(table),
                   compile_outputs([("c", unfolded)], table.schema).run(table)["c"]]
        for result in got:
            assert result.dtype == np.bool_
            assert np.array_equal(result, want), (feature, threshold, values,
                                                  condition)
    return condition


finite = st.floats(allow_nan=False, allow_infinity=False)
scales = st.one_of(
    finite.filter(lambda v: v != 0.0),
    st.sampled_from([TINY, -TINY, 1e-310, -1e-310, 1e-300, -1e300, MAX, -MAX,
                     3.0, -0.1]))
offsets = st.one_of(finite, st.sampled_from([0.0, -0.0, TINY, 1e308, -1e308,
                                             73.0, 2.0 ** 53]))
thresholds = st.one_of(finite, st.sampled_from([0.0, -0.0, TINY, -TINY, 0.5,
                                                -1.25, 1e300]))
CHAIN_OPS = [("+", False), ("+", True), ("-", False), ("-", True),
             ("*", False), ("*", True), ("/", False)]


class TestFoldIsExact:
    @settings(max_examples=300, deadline=None)
    @given(offsets, scales, thresholds)
    def test_scaler_split(self, offset, scale, threshold):
        feature = (X - lit(offset)) * lit(scale)
        with np.errstate(all="ignore"):
            guess = threshold / scale + offset
        _assert_folded_equals_unfolded(feature, threshold, [offset, guess])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CHAIN_OPS), scales), min_size=1,
                    max_size=3),
           thresholds)
    def test_affine_chain_split(self, ops, threshold):
        feature = _chain([(op, on_left, c) for (op, on_left), c in ops])
        _assert_folded_equals_unfolded(feature, threshold)

    @pytest.mark.parametrize("offset, scale, threshold", [
        (73.0, 1 / 12.0, 0.25), (73.0, -1 / 12.0, 0.25), (0.0, 1.0, -0.0),
        (-5.5, 3.0, 1e-3), (2.0 ** 53, 1.0, 0.5), (1e9, 1e-9, -2.0),
    ])
    def test_typical_scalers_fold(self, offset, scale, threshold):
        feature = (X - lit(offset)) * lit(scale)
        condition = _assert_folded_equals_unfolded(feature, threshold)
        assert _boundary(condition) is not None
        assert condition.op == ("<=" if scale > 0 else ">=")

    def test_decreasing_chain_folds_to_ge(self):
        condition = _assert_folded_equals_unfolded(lit(1.0) - X, 0.1)
        assert condition.op == ">=" and condition.right.value == 0.9

    @pytest.mark.parametrize("feature, threshold", [
        ((X - lit(1.0)) * lit(0.0), 0.0),           # scale 0
        ((X - lit(1.0)) * lit(-0.0), 0.0),
        ((X - lit(math.inf)) * lit(2.0), 0.0),      # non-finite constants
        ((X - lit(math.nan)) * lit(2.0), 0.0),
        ((X - lit(1.0)) * lit(math.inf), 0.0),
        ((X - lit(1.0)) * lit(2.0), math.inf),      # non-finite threshold
        ((X - lit(1.0)) * lit(2.0), -math.inf),
        ((X - lit(1.0)) * lit(2.0), math.nan),
        ((X - lit(0.0)) * lit(1e-300), 1e300),      # non-finite start
        ((X - lit(0.0)) * lit(TINY), 0.0),          # boundary 2^61 ulps away
        (X / lit(0.0), 1.0),
        (lit(2.0) / X, 1.0),                        # not monotone
        (X * lit(2), 1.0),                          # INT constant: int math
        (X, 1.0),                                   # nothing to fold
    ])
    def test_stays_unfolded(self, feature, threshold):
        condition = _assert_folded_equals_unfolded(feature, threshold)
        assert repr(condition) == repr(feature.le(lit(threshold)))  # NaN != NaN

    def test_two_columns_stay_unfolded(self):
        feature = X * col("y")
        assert _split_condition(feature, 1.0) == feature.le(lit(1.0))

    def test_one_pass_matches_each_split_alone(self):
        # tree_to_expression folds a whole tree at once; each split alone
        # (what tree_reference.translate calls) gives the same condition.
        rng = np.random.default_rng(5)
        features = [(col(f"x{k}") - lit(float(rng.normal(50, 20))))
                    * lit(float(rng.normal(0, 1))) for k in range(4)]
        features.append((col("x4") - lit(0.0)) * lit(TINY))   # unfoldable
        nested = ref.from_tree(_random_tree(rng, 6, len(features)))
        got = ml_to_sql.tree_to_expression(ref.to_tree(nested), features, 1)
        assert ref.nest(got) == ref.translate(nested, features, 1)


def _random_tree(rng, depth, n_features):
    def build(depth):
        if depth == 0:
            return (0.0, float(rng.random())), 0
        return (int(rng.integers(0, n_features)), float(rng.normal(0, 1.5)),
                build(depth - 1), build(depth - 1), 0)
    return ref.to_tree(build(depth))


# ---------------------------------------------------------------------------
# Whole pipelines: folded MLtoSQL scores bit for bit like the unfolded CASE
# ---------------------------------------------------------------------------

MODELS = {
    "dt": lambda: DecisionTreeClassifier(max_depth=6, random_state=0),
    "rf": lambda: RandomForestClassifier(n_estimators=3, max_depth=5,
                                         random_state=0),
    "gbt": lambda: GradientBoostingClassifier(n_estimators=4, max_depth=3,
                                              random_state=0),
}


@pytest.fixture(scope="module")
def datasets():
    # 400 training rows: flights' CART search takes 2-3x longer at 600.
    return {name: (DATASET_GENERATORS[name](1_500, seed=0),
                   DATASET_GENERATORS[name](400, seed=0))
            for name in ("hospital", "flights")}


def _condition_kinds(program):
    """The kinds of every instruction a route condition reads, transitively."""
    kinds, pending = [], [slot for instr in program.instructions
                          if instr.kind == "route"
                          for slot in instr.payload.conditions]
    while pending:
        instr = program.instructions[pending.pop()]
        kinds.append(instr.kind)
        pending.extend(instr.args)
    return kinds


class TestPipelinesMatchUnfolded:
    @pytest.mark.parametrize("dataset_name", ["hospital", "flights"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_scores_bit_for_bit(self, datasets, monkeypatch, dataset_name,
                                model):
        data, training = datasets[dataset_name]
        pipeline = training.train_pipeline(MODELS[model]())
        query = data.prediction_query("m")

        def run(compile_expressions):
            session = RavenSession(strategy="sql",
                                   compile_expressions=compile_expressions)
            data.register(session)
            session.register_model("m", pipeline)
            plan, _ = session.optimize(query)
            assert not find_predict_nodes(plan)
            return session.sql(query), plan, session

        folded = [run(flag) for flag in (True, False)]
        monkeypatch.setattr(ml_to_sql, "tree_to_expression", ref.unfolded)
        unfolded = [run(flag) for flag in (True, False)]

        want = unfolded[1][0]
        for got, _, _ in folded + unfolded[:1]:
            assert got.column_names == want.column_names
            for name in want.column_names:
                assert np.array_equal(got.array(name), want.array(name)), name

        # The folded plan scales nothing on the way to a split.
        _, plan, session = folded[0]
        kinds = [kind for node in walk(plan) if isinstance(node, Project)
                 for kind in _condition_kinds(compile_outputs(
                     node.outputs, node.child.output_schema(session.catalog)))]
        assert "colcmp" in kinds
        assert "arith" not in kinds

    @pytest.mark.parametrize("dataset_name", ["hospital", "flights"])
    def test_one_tree_is_not_divided(self, datasets, dataset_name):
        # A one-tree average is the tree itself: no '/' in the program,
        # and the score is the ML runtime's bit for bit.
        data, training = datasets[dataset_name]
        pipeline = training.train_pipeline(MODELS["dt"]())
        query = data.prediction_query("m")
        sessions = [RavenSession(strategy="sql"),
                    RavenSession(enable_optimizations=False)]
        for session in sessions:
            data.register(session)
            session.register_model("m", pipeline)
        plan, _ = sessions[0].optimize(query)
        assert not find_predict_nodes(plan)
        kinds = [(instr.kind, instr.payload)
                 for node in walk(plan) if isinstance(node, Project)
                 for instr in compile_outputs(
                     node.outputs,
                     node.child.output_schema(sessions[0].catalog)).instructions]
        assert ("arith", "/") not in kinds
        got, want = (session.sql(query).array("score") for session in sessions)
        assert np.array_equal(got, want)


class TestScalerPins:
    def test_translated_scaled_tree_has_no_arith_condition(self):
        features = [(col(f"x{k}") - lit(3.0 * k)) * lit(0.5 + k)
                    for k in range(3)]
        rng = np.random.default_rng(11)
        tree = _random_tree(rng, 7, len(features))
        expr = ml_to_sql.tree_to_expression(tree, features, 1)
        table = Table.from_arrays(
            **{f"x{k}": rng.normal(3.0 * k, 2.0, 500) for k in range(3)})
        program = compile_outputs([("score", expr)], table.schema)
        kinds = _condition_kinds(program)
        assert set(kinds) == {"colcmp"}
        assert "arith" not in [instr.kind for instr in program.instructions]
        want = ref.unfolded(tree, features, 1).evaluate(table)
        assert np.array_equal(program.run(table)["score"], want)

    def test_scaler_into_linear_model_is_unchanged(self, datasets):
        # Only tree splits fold: a linear margin still scales each column
        # with the scaler's own offset and scale.
        _, training = datasets["hospital"]
        graph = convert_pipeline(
            training.train_pipeline(LogisticRegression(penalty="l2")))
        (scaler,) = [node for node in graph.nodes if node.op_type == "Scaler"]
        score = graph_to_expressions(
            graph, {info.name: info.name for info in graph.inputs})["score"]
        scaled = set()
        pending = [score]
        while pending:
            node = pending.pop()
            if isinstance(node, BinaryOp) and node.op == "*" \
                    and isinstance(node.left, BinaryOp) and node.left.op == "-" \
                    and isinstance(node.left.left, ColumnRef):
                scaled.add((node.left.right.value, node.right.value))
            assert not (isinstance(node, BinaryOp) and node.op in ("<=", ">=")
                        and isinstance(node.left, ColumnRef))
            pending.extend(node.children())
        offsets = np.asarray(scaler.attrs["offset"], dtype=np.float64)
        scales = np.asarray(scaler.attrs["scale"], dtype=np.float64)
        assert scaled and scaled <= set(zip(offsets.tolist(), scales.tolist()))


# ---------------------------------------------------------------------------
# A strcmp binds its literal once per dictionary
# ---------------------------------------------------------------------------

def _coded(values, n=400, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_arrays(s=rng.choice(values, n),
                             v=rng.normal(size=n)).encoded()


@pytest.fixture()
def bind_calls(monkeypatch):
    calls = []
    original = compile_module._bind_codes

    def counting(dictionary, op, literal):
        calls.append(dictionary)
        return original(dictionary, op, literal)

    monkeypatch.setattr(compile_module, "_bind_codes", counting)
    return calls


#: Two strcmps: `=` on one code, `>` on a code range.
PREDICATE = BinaryOp("or", col("s").eq(lit("beta")), col("s").gt(lit("b")))


class TestBindOncePerDictionary:
    def test_repeated_runs_bind_once(self, bind_calls):
        table = _coded(["alpha", "beta", "gamma"])
        program = compile_predicate(PREDICATE, table.schema)
        want = PREDICATE.evaluate(table)
        for _ in range(5):
            assert np.array_equal(program.run_single(table), want)
        assert len(bind_calls) == 2       # one per strcmp, not per run

    def test_new_dictionary_rebinds(self, bind_calls):
        first = _coded(["alpha", "beta", "gamma"])
        # Another dictionary: "beta" gets another code.
        second = _coded(["aa", "alpha", "beta", "zeta"], seed=1)
        program = compile_predicate(PREDICATE, first.schema)
        for table, binds in ((first, 2), (second, 4), (second, 4), (first, 6)):
            assert np.array_equal(program.run_single(table),
                                  PREDICATE.evaluate(table))
            assert len(bind_calls) == binds
        assert bind_calls[2] is second.column("s").dictionary

    def test_reregistered_table_rebinds(self, bind_calls, tmp_path):
        session = RavenSession()
        query = "SELECT t.v FROM t AS t WHERE t.s = 'beta'"
        for values, seed in ((["alpha", "beta"], 0), (["beta", "omega", "a"], 1)):
            rng = np.random.default_rng(seed)
            s, v = rng.choice(values, 300), rng.normal(size=300)
            session.register_table("t", Table.from_arrays(s=s, v=v), replace=True)
            for _ in range(3):
                assert np.array_equal(session.sql(query).array("v"),
                                      v[s == "beta"])
        assert len(bind_calls) == 2       # once per registered dictionary
        # A spilled column has no codes: compared as strings, nothing bound.
        session.spill_table("t", tmp_path / "t")
        assert np.array_equal(session.sql(query).array("v"), v[s == "beta"])
        assert len(bind_calls) == 2

    def test_eight_threads_share_one_program(self, bind_calls):
        # Two dictionaries alternate under 8 threads: every run must use
        # a binding made for its own dictionary.
        tables = [_coded(["alpha", "beta", "gamma"], seed=2),
                  _coded(["b", "beta", "c", "delta"], seed=3)]
        program = compile_predicate(PREDICATE, tables[0].schema)
        wants = [PREDICATE.evaluate(table) for table in tables]
        start = threading.Barrier(8, timeout=30)

        def worker(index):
            start.wait()
            return [np.array_equal(program.run_single(tables[k % 2]),
                                   wants[k % 2])
                    for k in range(index, index + 200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(worker, i) for i in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(all(runs) and len(runs) == 200 for runs in results)
        assert len(bind_calls) >= 4       # the dictionaries took turns
