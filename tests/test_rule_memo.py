"""The model rewrite memo: one rewrite per (graph, snapped box).

Predicate pruning, projection pushdown, the strategy's feature vector
and MLtoSQL are memoized on the model's catalog entry
(``ModelEntry.rewrites``); predicate pruning keys on
:func:`~repro.core.rules.predicate_pruning.box_key`, which snaps each
tree input's bounds to their threshold cell. Held here:

* the key is exact: on Hypothesis-generated trees, linear models and
  boxes — bounds on a threshold, open and closed ends, points, NaN
  bounds, may-be-NaN intervals, string sets, output predicates — two
  boxes with equal keys prune the graph to equal graphs, node for node,
  with equal input mappings and rule info; and it snaps: a bound moved
  within its cell keeps the key;
* a session whose memo holds another literal's rewrites plans what a
  fresh session plans, bit for bit (plan codec, TreeCase arrays
  included), and returns the same rows;
* a cold literal in a seen cell gets the same objects back and runs no
  tree walk, no pushdown and no translation;
* re-registering the model or the table, and ``augment_stats``, miss;
  the memo stays bounded.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import tree_reference as ref
from repro import RavenSession, Table
from repro.core.rules import intervals as interval_rules
from repro.core.rules import ml_to_sql, projection_pushdown
from repro.core.rules.intervals import (
    InputConstraints,
    Interval,
    StringConstraint,
    collapse_uniform_subtrees,
    propagate,
    prune_tree,
)
from repro.core.rules.predicate_pruning import _prune, _split_decisions, box_key
from repro.learn.tree import Tree
from repro.onnxlite import Graph, Node, TensorInfo
from repro.persist.plan_codec import plan_to_dict
from repro.relational.expressions import ColumnRef, Literal, TreeCase
from repro.relational.logical import Predict, Project, Scan
from repro.storage import catalog as catalog_module
from repro.storage.catalog import RewriteMemo
from repro.storage.column import Column, DataType
from repro.storage.statistics import TableStats

CATEGORIES = ("a", "b", "c")
N_FEATURES = 2 + len(CATEGORIES)     # x0, x1 scaled, then c one-hot
THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0)
#: Scaled-space values by cell: each threshold alone, two values in every
#: open cell between (or beyond) them, and the infinities and NaN alone
#: (a Scaler maps an infinite bound to the outer infinity).
CELLS = ((-math.inf,), (-3.0, -2.0), (-1.0,), (-0.75, -0.6), (-0.5,),
         (-0.25, -0.1), (0.0,), (0.25, 0.3), (0.5,), (0.75, 0.9), (1.0,),
         (1.2, 2.0), (math.inf,), (math.nan,))
#: (offset, scale) of the Scaler; each maps the thresholds exactly.
SCALERS = ((0.0, 1.0), (0.5, 2.0), (0.5, -2.0))
OUTPUT_PREDICATES = ("p.score > 0.5", "p.label = '1'", "p.score <= 0.25")


def trees():
    leaves = st.tuples(st.tuples(*[st.sampled_from((0.0, 0.25, 1.0))] * 2),
                       st.integers(0, 9))
    return st.recursive(leaves, lambda children: st.tuples(
        st.integers(0, N_FEATURES - 1), st.sampled_from(THRESHOLDS),
        children, children, st.integers(10, 99)), max_leaves=20)


def _graph(model, scaler) -> Graph:
    """x0, x1 -> Scaler, c -> one-hot, Concat -> a tree or a linear model."""
    offset, scale = scaler
    graph = Graph("g", [TensorInfo("x0"), TensorInfo("x1"),
                        TensorInfo("c", "string")], ["label", "score"])
    graph.add_node(Node("Concat", ["x0", "x1"], ["numeric"]))
    graph.add_node(Node("Scaler", ["numeric"], ["scaled"], {
        "offset": np.asarray([offset] * 2), "scale": np.asarray([scale] * 2)}))
    graph.add_node(Node("OneHotEncoder", ["c"], ["indicators"],
                        {"categories": np.asarray(CATEGORIES)}))
    graph.add_node(Node("Concat", ["scaled", "indicators"], ["features"]))
    if isinstance(model, Tree):
        graph.add_node(Node("TreeEnsembleClassifier", ["features"],
                            ["label", "probabilities"], {
                                "trees": [model],
                                "classes": np.asarray([0, 1]),
                                "aggregate": "AVERAGE",
                                "post_transform": "NONE"}))
        graph.add_node(Node("FeatureExtractor", ["probabilities"], ["score"],
                            {"indices": [1]}))
    else:
        graph.add_node(Node("LinearClassifier", ["features"],
                            ["label", "probabilities"], {
                                "coefficients": np.asarray([model]),
                                "intercepts": np.asarray([0.25]),
                                "classes": np.asarray([0, 1])}))
        graph.add_node(Node("FeatureExtractor", ["probabilities"], ["score"],
                            {"indices": [1]}))
    return graph


models = st.one_of(
    trees().map(ref.to_tree),
    st.lists(st.sampled_from((0.0, -1.0, 0.5, 2.0)), min_size=N_FEATURES,
             max_size=N_FEATURES))


def _raw(value: float, scaler) -> float:
    """The raw column value the Scaler maps to ``value``."""
    offset, scale = scaler
    return value / scale + offset


@st.composite
def box_pairs(draw, scaler, fresh=None):
    """Two boxes over x0, x1 and c. Unless ``fresh``, the second moves
    each bound of the first to another value in the same cell; if
    ``fresh``, it also redraws one cell or one open-end or NaN flag."""
    if fresh is None:
        fresh = draw(st.booleans())
    specs = {}
    for name in ("x0", "x1"):
        shape = draw(st.sampled_from(("none", "point", "range")))
        if shape != "none":
            specs[name] = [shape] + [draw(st.integers(0, len(CELLS) - 1))
                                     for _ in range(2)] + [
                draw(st.booleans()) for _ in range(3)]
    tweaked = {name: list(spec) for name, spec in specs.items()}
    if fresh and specs:
        name = draw(st.sampled_from(sorted(specs)))
        slot = draw(st.integers(1, 5))
        tweaked[name][slot] = draw(st.integers(0, len(CELLS) - 1)) \
            if slot <= 2 else not tweaked[name][slot]

    def box(specs):
        numeric = {}
        for name, (shape, *cells, low_open, high_open, nan) in specs.items():
            ends = [_raw(draw(st.sampled_from(CELLS[cell])), scaler)
                    for cell in cells]
            if shape == "point":
                numeric[name] = Interval.point(ends[0])
                continue
            if not any(map(math.isnan, ends)):
                ends.sort()
            numeric[name] = Interval(*ends, low_open, high_open, nan)
        return numeric

    strings = {}
    values = draw(st.lists(st.sampled_from(CATEGORIES + ("z",)), unique=True,
                           max_size=3))
    if values:
        strings["c"] = StringConstraint(tuple(values))
    numeric_a = box(specs)
    numeric_b = box(tweaked)
    for name, spec in specs.items():
        if spec[0] == "point" and tweaked[name] == spec:
            numeric_b[name] = numeric_a[name]   # a point keys exactly
    return (InputConstraints(numeric_a, dict(strings)),
            InputConstraints(numeric_b, dict(strings)))


def _predict(graph: Graph) -> Predict:
    return Predict(Scan("t", alias="d"), "m", graph,
                   {"x0": "d.x0", "x1": "d.x1", "c": "d.c"},
                   [("p.score", "score", DataType.FLOAT),
                    ("p.label", "label", DataType.INT)])


def _outputs(texts):
    """Output-predicate conjuncts, as the rule extracts them."""
    from repro.core.parser import parse
    return tuple(parse(f"SELECT p.score FROM t WHERE {text}").where
                 for text in texts)


def _rewrite(predict, box, output_predicates):
    intervals = propagate(predict.graph, box)
    return (box_key(predict.graph, box, intervals),
            _prune(predict, box, intervals, output_predicates))


def assert_same_graph(got: Graph, want: Graph) -> None:
    """Inputs, outputs and every node equal: six arrays of every tree,
    bytes of every array attribute (``-0.0`` is not ``0.0``)."""
    assert [(i.name, i.dtype, i.width) for i in got.inputs] == \
        [(i.name, i.dtype, i.width) for i in want.inputs]
    assert got.outputs == want.outputs
    assert len(got.nodes) == len(want.nodes)
    for a, b in zip(got.nodes, want.nodes):
        assert (a.op_type, a.inputs, a.outputs) == \
            (b.op_type, b.inputs, b.outputs)
        assert sorted(a.attrs) == sorted(b.attrs)
        for name, value in a.attrs.items():
            other = b.attrs[name]
            if name == "trees":
                assert len(value) == len(other)
                for x, y in zip(value, other):
                    ref.assert_same_tree(x, y)
            elif isinstance(value, np.ndarray):
                assert value.dtype == other.dtype and \
                    value.tobytes() == other.tobytes(), name
            else:
                assert type(value) is type(other) and \
                    np.asarray(value).tobytes() == \
                    np.asarray(other).tobytes(), name


def assert_same_rewrite(got, want) -> None:
    (graph_a, constantized_a, info_a), (graph_b, constantized_b, info_b) = \
        got, want
    assert (graph_a is None) == (graph_b is None)
    assert constantized_a == constantized_b and info_a == info_b
    if graph_a is not None:
        assert_same_graph(graph_a, graph_b)


class TestBoxKey:
    @settings(max_examples=500, deadline=None)
    @given(st.data(), models, st.sampled_from(SCALERS),
           st.lists(st.sampled_from(OUTPUT_PREDICATES), unique=True,
                    max_size=2))
    def test_equal_keys_prune_equally(self, data, model, scaler, outputs):
        predict = _predict(_graph(model, scaler))
        box_a, box_b = data.draw(box_pairs(scaler))
        predicates = _outputs(outputs)
        key_a, rewrite_a = _rewrite(predict, box_a, predicates)
        key_b, rewrite_b = _rewrite(predict, box_b, predicates)
        event("equal keys" if key_a == key_b else "keys differ")
        if key_a == key_b:
            assert_same_rewrite(rewrite_a, rewrite_b)

    @settings(max_examples=150, deadline=None)
    @given(trees(), st.sampled_from(SCALERS), st.data())
    def test_a_bound_moved_within_its_cell_keeps_the_key(self, nested,
                                                         scaler, data):
        predict = _predict(_graph(ref.to_tree(nested), scaler))
        box_a, box_b = data.draw(box_pairs(scaler, fresh=False))
        # Two ends drawn in one cell can meet: a point keys exactly.
        assume(not any(interval.is_point for box in (box_a, box_b)
                       for interval in box.numeric.values()))
        assert _rewrite(predict, box_a, ())[0] == \
            _rewrite(predict, box_b, ())[0]

    @settings(max_examples=300, deadline=None)
    @given(trees(), st.data())
    def test_equal_split_decisions_prune_a_tree_equally(self, nested, data):
        # The tree-level claim, on boxes no featurizer reshaped: NaN
        # bounds reach the tree as they are.
        tree = ref.to_tree(nested)
        box_a, box_b = data.draw(box_pairs((0.0, 1.0)))
        vectors = [[box.numeric.get(name, Interval.UNKNOWN)
                    for name in ("x0", "x1")] for box in (box_a, box_b)]
        if _split_decisions([tree], vectors[0]) == \
                _split_decisions([tree], vectors[1]):
            got, want = (collapse_uniform_subtrees(prune_tree(tree, vector))
                         for vector in vectors)
            ref.assert_same_tree(got, want)

    def test_keys_snap_and_stay_exact(self):
        tree = ref.to_tree((0, 0.5, ((0.0, 0.1), 1), ((0.0, 0.9), 1), 2))
        predict = _predict(_graph(tree, SCALERS[0]))

        def key(**numeric):
            box = InputConstraints(numeric, {})
            return box_key(predict.graph, box, propagate(predict.graph, box))

        # The split x0 <= 0.5 decides the key: x0 > 0.5 and x0 > 0.6
        # decide it right, x0 > 0.4 and x0 >= 0.5 leave it open, and a
        # NaN-able x0 > 0.6 decides it right too, its NaN flag kept.
        right = key(x0=Interval.at_least(0.5, strict=True))
        assert key(x0=Interval.at_least(0.6, strict=True)) == right
        assert key(x0=Interval.at_least(0.4, strict=True)) == \
            key(x0=Interval.at_least(0.5)) != right
        assert key(x0=Interval(0.6, math.inf, True, False, True)) != right
        # A NaN low bound never moves: below x0 > 0.5 the (redundant)
        # x0 <= 0.0 stays open where -inf's is decided right.
        nested = ref.to_tree((0, 0.5, ((0.0, 0.1), 1),
                              (0, 0.0, ((0.0, 0.5), 1), ((0.0, 0.9), 1), 2),
                              3))
        vectors = [[Interval(low, 1.0)] for low in (math.nan, -math.inf)]
        assert _split_decisions([nested], vectors[0]) != \
            _split_decisions([nested], vectors[1])
        assert [len(prune_tree(nested, vector)) for vector in vectors] == [5, 3]
        # A point enters the graph as a Constant: exact, sign included.
        assert key(x0=Interval.point(0.6)) != key(x0=Interval.point(0.9))
        assert key(x0=Interval.point(0.0)) != key(x0=Interval.point(-0.0))


# ---------------------------------------------------------------------------
# Sessions: memoized against fresh
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-1.5, 1.5, 120)
    x1[::17] = np.nan
    return Table.from_arrays(id=np.arange(120),
                             x0=rng.uniform(-1.5, 1.5, 120), x1=x1,
                             c=rng.choice(np.asarray(CATEGORIES), 120))


def _session(table, graph, **kwargs) -> RavenSession:
    session = RavenSession(**kwargs)
    session.register_table("t", table, primary_key=["id"])
    session.register_model("m", graph)
    return session


def _query(conjuncts) -> str:
    where = " AND ".join(conjuncts)
    return ("SELECT d.id, p.score FROM PREDICT(MODEL = m, DATA = t AS d) "
            "WITH (score FLOAT, label INT) AS p"
            + (f" WHERE {where}" if where else ""))


FINITE = [value for cell in CELLS for value in cell if math.isfinite(value)]
COMPARISONS = ("<", "<=", ">", ">=", "=")


@st.composite
def wheres(draw):
    conjuncts = []
    for name in draw(st.lists(st.sampled_from(("x0", "x1")), max_size=3)):
        op = draw(st.sampled_from(COMPARISONS + ("between",)))
        low, high = sorted(draw(st.sampled_from(FINITE)) for _ in range(2))
        conjuncts.append(f"d.{name} BETWEEN {low!r} AND {high!r}"
                         if op == "between" else f"d.{name} {op} {low!r}")
    values = draw(st.lists(st.sampled_from(CATEGORIES), unique=True,
                           max_size=2))
    if len(values) == 1:
        conjuncts.append(f"d.c = '{values[0]}'")
    elif values:
        conjuncts.append("d.c IN (" + ", ".join(f"'{v}'" for v in values) + ")")
    if draw(st.booleans()):
        conjuncts.append(draw(st.sampled_from(("p.score > 0.5",
                                               "p.score <= 0.25"))))
    return conjuncts


def _planned(session, query):
    """The plan in the plan codec, without graph node names (a global
    counter numbers every node built), and the report's rules."""
    def unnamed(value):
        if isinstance(value, dict):
            return {key: unnamed(item) for key, item in value.items()
                    if not (key == "name" and "op_type" in value)}
        if isinstance(value, list):
            return [unnamed(item) for item in value]
        return value

    plan, report = session.optimize(query)
    return (json.dumps(unnamed(plan_to_dict(plan)), sort_keys=True),
            report.rules_applied, report.rule_info, report.strategy_choices)


class TestSessionsAgree:
    @settings(max_examples=60, deadline=None)
    @given(models, st.sampled_from(SCALERS), st.lists(wheres(), min_size=1,
                                                      max_size=3),
           wheres(), st.sampled_from(["none", "sql"]))
    def test_a_primed_memo_plans_what_a_fresh_one_plans(
            self, table, model, scaler, primers, where, strategy):
        graph = _graph(model, scaler)
        primed = _session(table, graph, strategy=strategy)
        for conjuncts in primers:
            primed.optimize(_query(conjuncts))
        query = _query(where)
        fresh = _session(table, graph, strategy=strategy)
        assert _planned(primed, query) == _planned(fresh, query)
        got, want = primed.sql(query), fresh.sql(query)
        assert [got.array(n).tobytes() for n in got.column_names] == \
            [want.array(n).tobytes() for n in want.column_names]


# ---------------------------------------------------------------------------
# Hits, invalidation, bound
# ---------------------------------------------------------------------------

TREE = (0, 0.5, (1, 0.0, ((0.0, 0.1), 5), ((0.0, 0.3), 5), 10),
        (0, 1.0, ((0.0, 0.6), 5), (3, 0.5, ((0.0, 0.9), 5),
                                   ((0.0, 0.7), 5), 5), 10), 20)


def _tree_case(session, literal: float) -> TreeCase:
    plan, _ = session.optimize(_query([f"d.x0 > {literal!r}"]))
    project = plan
    while not (isinstance(project, Project) and any(
            isinstance(expr, TreeCase) for _, expr in project.outputs)):
        project = project.children()[0]
    return next(expr for _, expr in project.outputs
                if isinstance(expr, TreeCase))


@pytest.fixture()
def session(table) -> RavenSession:
    return _session(table, _graph(ref.to_tree(TREE), SCALERS[0]),
                    strategy="sql")


class TestHits:
    def test_a_cold_literal_in_a_seen_cell_gets_the_same_objects(self,
                                                                 session):
        first = _tree_case(session, 0.55)
        entries = len(session.catalog.model("m").rewrites)
        assert _tree_case(session, 0.6) is first
        assert len(session.catalog.model("m").rewrites) == entries
        # Across the x0 threshold 1.0: another cell, another rewrite.
        assert _tree_case(session, 1.05) is not first

    def test_a_hit_walks_no_tree_and_translates_nothing(self, session):
        _tree_case(session, 0.55)
        spies = [mock.patch.object(module, name, side_effect=AssertionError(
            name)) for module, name in (
                (interval_rules, "prune_tree"),
                (projection_pushdown, "pushdown_graph"),
                (ml_to_sql, "graph_to_expressions"))]
        for spy in spies:
            spy.start()
        try:
            _tree_case(session, 0.7)
        finally:
            for spy in spies:
                spy.stop()

    def test_the_hit_runs_the_rows_of_its_literal(self, session, table):
        _tree_case(session, 0.55)
        result = session.sql(_query(["d.x0 > 0.6"]))
        assert result.num_rows == int((table.array("x0") > 0.6).sum())


class TestInvalidation:
    """Statistics pruning starts the chain: its graph is the next rule's
    key, so new statistics prune to a new graph and every rewrite after
    it misses. (Where statistics prune nothing, the rewrites read nothing
    of the table, and the registered graph's stay valid.)"""

    @pytest.fixture()
    def narrow(self, table) -> Table:
        # x1 stays below 0.0 with no NaN: statistics decide x1 <= 0.0.
        return table.with_column("x1", Column(np.linspace(-1.4, -0.1, 120)))

    @pytest.fixture()
    def session(self, narrow) -> RavenSession:
        return _session(narrow, _graph(ref.to_tree(TREE), SCALERS[0]),
                        strategy="sql")

    def test_reregistering_the_model_misses(self, session):
        first = _tree_case(session, 0.55)
        session.register_model("m", _graph(ref.to_tree(TREE), SCALERS[0]),
                               replace=True)
        assert len(session.catalog.model("m").rewrites) == 0
        assert _tree_case(session, 0.55) is not first

    def test_reregistering_the_table_misses(self, session, narrow):
        first = _tree_case(session, 0.55)
        assert _tree_case(session, 0.6) is first
        session.register_table("t", narrow, primary_key=["id"], replace=True)
        assert _tree_case(session, 0.55) is not first

    def test_augmented_statistics_miss(self, session, narrow):
        first = _tree_case(session, 0.55)
        session.catalog.augment_stats("t", TableStats.collect(narrow))
        assert _tree_case(session, 0.55) is not first

    def test_statistics_with_nulls_prune_less(self, session, table):
        # The same x1 range with a NaN row: x1 <= 0.0 is no longer decided.
        narrow = _tree_case(session, -0.5)
        x1 = np.linspace(-1.4, -0.1, 120)
        x1[7] = np.nan
        session.register_table("t", table.with_column("x1", Column(x1)),
                               primary_key=["id"], replace=True)
        assert len(_tree_case(session, -0.5).values) == \
            len(narrow.values) + 1


class TestBound:
    def test_the_memo_drops_its_least_recently_used_entry(self, monkeypatch):
        monkeypatch.setattr(catalog_module, "REWRITE_MEMO_ENTRIES", 2)
        memo = RewriteMemo()
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1      # "b" is now the oldest
        memo.put("c", 3)
        assert memo.keys() == ["a", "c"] and memo.get("b") is None

    def test_a_session_memo_stays_bounded(self, session, table, monkeypatch):
        monkeypatch.setattr(catalog_module, "REWRITE_MEMO_ENTRIES", 6)
        entry = session.catalog.model("m")
        for literal in (-0.8, 0.2, 0.7, 1.3, -0.8, 0.7):
            _tree_case(session, literal)
            assert len(entry.rewrites) <= 6
        result = session.sql(_query(["d.x0 > 1.3"]))
        assert result.num_rows == int((table.array("x0") > 1.3).sum())


def test_the_translation_is_its_graphs():
    # MLtoSQL's memoized expressions name the Predict's own columns.
    graph = _graph(ref.to_tree(TREE), SCALERS[0])
    expressions = ml_to_sql._translate(graph, {"x0": "d.x0", "x1": "d.x1",
                                               "c": "d.c"}, ("score",))
    (score,) = expressions
    assert isinstance(score, TreeCase)
    assert {operand.name for operand in score.operands
            if isinstance(operand, ColumnRef)} <= {"d.x0", "d.x1"}
    assert Literal(0.9).value in score.values
