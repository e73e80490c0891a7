"""Statistics pruning runs first, once per catalog entry.

The optimizer prunes a model by data statistics before it prunes by the
query's predicates, and caches the statistics result on the model's
catalog entry. Held here:

* the order oracle: on Hypothesis-generated trees and boxes that meet,
  pruning by predicates then statistics and by statistics then
  predicates give the same ``feature``/``threshold``/``left``/``right``/
  ``value`` arrays; on generated tables, trees and WHERE boxes, a session
  in the new order returns what the paper's order returns, bit for bit;
* the graph families whose orders can differ keep the paper's order;
* re-registering the table or the model, and ``augment_stats``,
  invalidate the cached result; a cold literal reuses it;
* the report carries every optimizer step's seconds.
"""

from __future__ import annotations

import dataclasses
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tree_reference as ref
from repro import RavenSession, Table
from repro.core.binder import Binder
from repro.core.optimizer import RavenOptimizer
from repro.core.parser import parse
from repro.core.rules.data_induced import DataInducedOptimization
from repro.core.rules.intervals import (
    Interval,
    collapse_uniform_subtrees,
    prune_tree,
)
from repro.onnxlite import Graph, Node, TensorInfo
from repro.storage.column import Column
from repro.storage.statistics import TableStats

N_FEATURES = 3
THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
ENDPOINTS = (-math.inf, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, math.inf)
VALUES = (0.0, 0.25, 1.0)


def trees():
    leaves = st.tuples(st.tuples(*[st.sampled_from(VALUES)] * 2),
                       st.integers(0, 9))
    return st.recursive(leaves, lambda children: st.tuples(
        st.integers(0, N_FEATURES - 1), st.sampled_from(THRESHOLDS),
        children, children, st.integers(10, 99)), max_leaves=24)


endpoints = st.sampled_from(ENDPOINTS)
intervals = st.one_of(
    st.just(Interval.UNKNOWN),
    endpoints.map(Interval.point),
    st.builds(Interval.at_most, endpoints, st.booleans()),
    st.builds(Interval.at_least, endpoints, st.booleans()),
    st.builds(Interval, endpoints, endpoints, st.booleans(), st.booleans()),
)
boxes = st.lists(intervals, min_size=N_FEATURES, max_size=N_FEATURES)
#: Statistics boxes: a column with nulls may be NaN.
stats_boxes = st.lists(st.builds(
    lambda interval, nulls: dataclasses.replace(interval, may_be_nan=nulls),
    intervals, st.booleans()), min_size=N_FEATURES, max_size=N_FEATURES)


def _prune(tree, box):
    """What prune_graph_with_constraints does to one tree."""
    return collapse_uniform_subtrees(prune_tree(tree, box))


class TestOrderOracle:
    @settings(max_examples=100, deadline=None)
    @given(trees(), boxes, stats_boxes)
    def test_prunings_commute_where_the_boxes_meet(self, nested, predicate,
                                                   stats):
        # What _boxes_meet asks: a common value, and no statistics NaN
        # where a predicate compares (an unflagged predicate interval).
        assume(all(not a.is_empty and not b.is_empty
                   and not a.intersect(b).is_empty
                   and (a.may_be_nan or not b.may_be_nan)
                   for a, b in zip(predicate, stats)))
        tree = ref.to_tree(nested)
        today = _prune(_prune(tree, predicate), stats)
        first = _prune(_prune(tree, stats), predicate)
        # n_samples may differ: a merged leaf keeps its parent's count, a
        # decided split its child's. Nothing reads it after pruning.
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(today, name),
                                  getattr(first, name)), name

    def test_boxes_that_miss_can_differ(self):
        # x <= 0 by the predicate, x >= 1 by statistics: each order takes
        # its own first box's side of the split.
        tree = ref.to_tree((0, 0.5, ((0.0, 0.1), 1), ((0.0, 0.9), 1), 2))
        predicate = [Interval.at_most(0.0)] + [Interval.UNKNOWN] * 2
        stats = [Interval.at_least(1.0)] + [Interval.UNKNOWN] * 2
        assert _prune(_prune(tree, predicate), stats).value[0, 1] == 0.1
        assert _prune(_prune(tree, stats), predicate).value[0, 1] == 0.9


# ---------------------------------------------------------------------------
# Whole sessions
# ---------------------------------------------------------------------------

def _graph(tree, offsets=(0.0, 0.5, -1.0), scales=(1.0, 2.0, 0.5)) -> Graph:
    """x0..x2 -> Concat -> Scaler -> one-tree classifier -> score."""
    inputs = [f"x{k}" for k in range(N_FEATURES)]
    graph = Graph("g", [TensorInfo(name) for name in inputs],
                  ["label", "score"])
    graph.add_node(Node("Concat", inputs, ["features"]))
    graph.add_node(Node("Scaler", ["features"], ["scaled"], {
        "offset": np.asarray(offsets), "scale": np.asarray(scales)}))
    graph.add_node(Node("TreeEnsembleClassifier", ["scaled"],
                        ["label", "probabilities"], {
                            "trees": [tree], "classes": np.asarray([0, 1]),
                            "aggregate": "AVERAGE",
                            "post_transform": "NONE"}))
    graph.add_node(Node("FeatureExtractor", ["probabilities"], ["score"],
                        {"indices": [1]}))
    return graph


def _session(table: Table, graph: Graph, **kwargs) -> RavenSession:
    session = RavenSession(**kwargs)
    session.register_table("t", table, primary_key=["id"])
    session.register_model("m", graph)
    return session


def _optimizer(session: RavenSession) -> RavenOptimizer:
    """The optimizer ``session.optimize`` runs, built from its settings."""
    return RavenOptimizer(session.catalog, enable_cross=session.enable_cross,
                          enable_data_induced=session.enable_data_induced,
                          strategy=session.strategy,
                          gpu_available=session.gpu_available,
                          feedback=session.feedback)


def _query(where: str = "") -> str:
    return ("SELECT d.id, p.score FROM PREDICT(MODEL = m, DATA = t AS d) "
            "WITH (score FLOAT) AS p" + (f" WHERE {where}" if where else ""))


CELLS = (-1.5, -0.75, -0.25, 0.0, 0.25, 0.75, 1.0, 1.25, 2.0, math.nan)
COMPARISONS = ("<", "<=", ">", ">=", "=")


@st.composite
def tables(draw):
    n = draw(st.integers(1, 24))
    columns = {"id": np.arange(n)}
    for k in range(N_FEATURES):
        columns[f"x{k}"] = np.asarray(draw(st.lists(
            st.sampled_from(CELLS), min_size=n, max_size=n)), dtype=float)
    assume(all(not np.isnan(columns[f"x{k}"]).all()
               for k in range(N_FEATURES)))
    return Table.from_arrays(**columns)


wheres = st.lists(st.tuples(st.integers(0, N_FEATURES - 1),
                            st.sampled_from(COMPARISONS),
                            st.sampled_from(CELLS[:-1])), max_size=3)


class TestSessionsAgree:
    @settings(max_examples=60, deadline=None)
    @given(trees(), tables(), wheres, st.sampled_from(["none", "sql"]))
    def test_new_order_returns_what_the_old_order_returns(
            self, nested, table, where, strategy):
        text = " AND ".join(f"d.x{k} {op} {value!r}"
                            for k, op, value in where)
        query = _query(text)
        graph = _graph(ref.to_tree(nested))
        got = _outcome(_session(table, graph, strategy=strategy), query)
        with mock.patch.object(RavenOptimizer, "_statistics_first",
                               return_value=False):
            want = _outcome(_session(table, graph, strategy=strategy), query)
        assert got == want


def _outcome(session, query):
    """The result's columns as bytes, or the error the query raised."""
    try:
        result = session.sql(query)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return type(error), str(error)
    return [(name, result.array(name).tobytes())
            for name in result.column_names]


CONFIGURATIONS = [dict(enable_optimizations=False), dict(strategy="none"),
                  dict(strategy="sql"), dict(strategy="dnn"),
                  dict(strategy="dnn", gpu_available=True)]


class TestNaNAndEmptyInputs:
    """The paper's §7.4 invariant where statistics miss NaN rows and where
    a predicate leaves a model no input column."""

    @pytest.mark.parametrize("config", CONFIGURATIONS)
    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_a_nan_row_takes_the_unpruned_trees_branch(self, config, scale):
        # Statistics bound x0 to [0.1, 0.2] but a row is NaN: the split
        # x0 * scale <= 0.5 sends it right, to 0.9, in the unpruned tree
        # (and MLtoSQL's folded x0 <= 0.5 or x0 >= -0.5 too).
        table = Table.from_arrays(id=np.arange(3),
                                  x0=np.asarray([0.1, 0.2, np.nan]),
                                  x1=np.zeros(3), x2=np.zeros(3))
        graph = _graph(ref.to_tree((0, 0.5, ((0.0, 0.1), 1),
                                    ((0.0, 0.9), 1), 2)),
                       offsets=(0.0,) * 3, scales=(scale,) * 3)
        result = _session(table, graph, **config).sql(_query())
        assert result.array("score").tolist() == [0.1, 0.1, 0.9]

    @pytest.mark.parametrize("config", CONFIGURATIONS)
    def test_a_model_with_no_live_input_scores_every_row(self, config):
        # x0 = -1.5 makes x0 a Constant; the one-leaf tree reads nothing.
        table = Table.from_arrays(id=np.arange(3),
                                  x0=np.asarray([-1.5, 0.2, -1.5]),
                                  x1=np.zeros(3), x2=np.zeros(3))
        graph = _graph(ref.to_tree(((0.0, 0.7), 3)))
        result = _session(table, graph, **config).sql(_query("d.x0 = -1.5"))
        assert result.array("id").tolist() == [0, 2]
        assert result.array("score").tolist() == [0.7, 0.7]


# ---------------------------------------------------------------------------
# Which plans run statistics first, and the cache
# ---------------------------------------------------------------------------

TREE = (0, 0.5, (1, 0.0, ((0.0, 0.1), 5), ((0.0, 0.3), 5), 10),
        (2, 1.0, ((0.0, 0.6), 5), ((0.0, 0.9), 5), 10), 20)


@pytest.fixture()
def table() -> Table:
    rng = np.random.default_rng(3)
    return Table.from_arrays(id=np.arange(200),
                             x0=rng.uniform(-1.0, 2.0, 200),
                             x1=rng.uniform(-1.0, 2.0, 200),
                             x2=rng.uniform(-1.0, 0.5, 200))


def _statistics_first(session, query) -> bool:
    """The optimizer's choice for the query's plan, as optimize sees it."""
    optimizer = _optimizer(session)
    bound = Binder(session.catalog).bind(parse(query))
    return optimizer._statistics_first(optimizer._relational.optimize(bound),
                                       DataInducedOptimization())


class TestRuleOrder:
    def test_statistics_run_first(self, table):
        # x2 stays below 0.5: statistics decide the x2 split.
        session = _session(table, _graph(ref.to_tree(TREE)))
        _, report = session.optimize(_query("d.x0 < 1.1"))
        assert list(report.step_seconds)[1:4] == [
            "data_induced_optimization", "predicate_based_model_pruning",
            "model_projection_pushdown"]
        assert report.rules_applied[0] == "data_induced_optimization"

    @pytest.mark.parametrize("where", [
        "p.score > 0.5",               # a predicate on the model's output
        "d.x0 > 5.0",                  # outside every row's x0
    ])
    def test_orders_that_can_differ_keep_the_papers(self, table, where):
        session = _session(table, _graph(ref.to_tree(TREE)))
        assert _statistics_first(session, _query("d.x0 < 1.1"))
        assert not _statistics_first(session, _query(where))

    def test_statistics_with_nulls_under_a_predicate_keep_the_papers_order(
            self, table):
        x0 = table.array("x0").copy()
        x0[5] = np.nan
        session = _session(table.with_column("x0", Column(x0)),
                           _graph(ref.to_tree(TREE)))
        assert _statistics_first(session, _query("d.x1 < 1.1"))
        assert not _statistics_first(session, _query("d.x0 < 1.1"))

    def test_a_negative_zero_leaf_keeps_the_papers_order(self, table):
        nested = (0, 0.5, ((0.0, -0.0), 5), ((0.0, 0.9), 5), 10)
        session = _session(table, _graph(ref.to_tree(nested)))
        assert not _statistics_first(session, _query("d.x0 < 1.1"))

    def test_a_linear_model_keeps_the_papers_order(self, table):
        graph = Graph("g", [TensorInfo(f"x{k}") for k in range(3)],
                      ["score"])
        graph.add_node(Node("Concat", ["x0", "x1", "x2"], ["features"]))
        graph.add_node(Node("LinearRegressor", ["features"], ["score"], {
            "coefficients": np.asarray([1.0, 2.0, 3.0]), "intercept": 0.5}))
        session = _session(table, graph)
        assert not _statistics_first(session, _query("d.x0 = 0.5"))

    def test_partitioned_statistics_keep_the_papers_order(self, table):
        session = RavenSession()
        session.register_table("t", table.with_column(
            "bucket", Column(np.arange(200) % 4)), partition_column="bucket")
        session.register_model("m", _graph(ref.to_tree(TREE)))
        assert not _statistics_first(session, _query("d.x0 < 1.1"))


def _induced(session):
    """The statistics-pruning entries of the model's rewrite memo."""
    memo = session.catalog.model("m").rewrites
    return {key: memo.get(key) for key in memo.keys()
            if key[0] == "data_induced_optimization"}


def _induced_graph(session, query):
    plan, _ = session.optimize(query)
    return next(iter(_induced(session).values()))[1][0]


class TestStatisticsCache:
    def test_a_cold_literal_reuses_the_pruned_graph(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)))
        first = _induced_graph(session, _query("d.x0 < 1.1"))
        assert first is not None
        assert _induced_graph(session, _query("d.x0 < 1.2")) is first
        assert len(_induced(session)) == 1

    def test_reregistering_the_table_invalidates(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)))
        first = _induced_graph(session, _query("d.x0 < 1.1"))
        session.register_table("t", table, primary_key=["id"], replace=True)
        assert _induced_graph(session, _query("d.x0 < 1.1")) is not first

    def test_reregistering_the_model_invalidates(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)))
        _induced_graph(session, _query("d.x0 < 1.1"))
        session.register_model("m", _graph(ref.to_tree(TREE)), replace=True)
        assert not _induced(session)
        _induced_graph(session, _query("d.x0 < 1.1"))
        assert len(_induced(session)) == 1

    def test_augmented_statistics_invalidate(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)))
        first = _induced_graph(session, _query("d.x0 < 1.1"))
        session.catalog.augment_stats("t", TableStats.collect(table))
        assert _induced_graph(session, _query("d.x0 < 1.1")) is not first

    def test_a_narrower_table_prunes_more(self, table):
        # What the cache returns follows the table as now registered: x2
        # below 0.5 decides the x2 split, and x0 above 0.5 the root too.
        session = _session(table, _graph(ref.to_tree(TREE)))
        query = _query("d.x1 < 1.9")
        wide = _induced_graph(session, query)
        narrow = table.with_column("x0", Column(np.linspace(0.6, 2.0, 200)))
        session.register_table("t", narrow, primary_key=["id"], replace=True)
        pruned = _induced_graph(session, query)
        size = [len(g.nodes[2].attrs["trees"][0]) for g in (wide, pruned)]
        assert size == [5, 1]


class TestStepSeconds:
    STEPS = ["relational", "data_induced_optimization",
             "predicate_based_model_pruning", "model_projection_pushdown",
             "strategy", "relational_post", "lower_joins",
             "adaptive_feedback"]

    def test_every_step_is_timed_within_the_wall_time(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)), strategy="sql")
        optimizer = _optimizer(session)
        plan = Binder(session.catalog).bind(parse(_query("d.x0 < 1.1")))
        started = time.perf_counter()
        _, report = optimizer.optimize(plan)
        wall = time.perf_counter() - started
        assert list(report.step_seconds) == self.STEPS
        assert all(seconds >= 0.0 for seconds in report.step_seconds.values())
        assert sum(report.step_seconds.values()) <= wall
        assert "optimizer ms: relational=" in report.summary()

    def test_explain_shows_them(self, table):
        session = _session(table, _graph(ref.to_tree(TREE)))
        assert "optimizer ms:" in session.explain(_query("d.x0 < 1.1"))
        assert "optimizer ms:" in session.explain(_query("d.x0 < 1.1"),
                                                  analyze=True)

