"""The one tree kernel (``repro.learn.tree.FlatForest``), differentially.

Every tree ensemble the engine scores — the onnxlite TreeEnsemble kernels,
the tensor runtime's ``TreeTraversal``, ``TreeNode.predict_value`` /
``apply`` — runs on one level-synchronous walk over flat node arrays. The
reference here is a per-row walk of the ``TreeNode`` structure written in
this file (``predict_value`` is a wrapper over the kernel under test, so
it cannot be the oracle).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RavenSession, Table
from repro.core.binder import Binder
from repro.core.parser import parse
from repro.core.rules import (
    InputConstraints,
    Interval,
    PredicateBasedModelPruning,
    prune_graph_with_constraints,
    pushdown_graph,
)
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    make_standard_pipeline,
)
from repro.learn.base import sigmoid, softmax
from repro.learn.tree import FlatForest, TreeNode
from repro.onnxlite import convert_pipeline
from repro.onnxlite.graph import Graph, Node, TensorInfo
from repro.onnxlite.runtime import InferenceSession
from repro.relational import find_predict_nodes
from repro.relational.optimizer import RelationalOptimizer
from repro.tensor.compile import compile_graph
from repro.tensor.device import CpuDevice

N_FEATURES = 4
BATCH_ROWS = (0, 1, 10_001)
VALUE_DIMS = (1, 2, 5)


# ---------------------------------------------------------------------------
# The reference: one row at a time down the TreeNode structure
# ---------------------------------------------------------------------------

def walk_row(tree: TreeNode, row) -> TreeNode:
    """BRANCH_LEQ by hand: ``x <= threshold`` goes left, NaN goes right."""
    node = tree
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def reference_sum(trees, X: np.ndarray) -> np.ndarray:
    """Leaf values summed over the trees in tree order. Rows repeat a lot in
    the big batches, so each distinct row is walked once."""
    as_bytes = np.ascontiguousarray(X).view(
        np.dtype((np.void, X.itemsize * X.shape[1])))
    distinct, inverse = np.unique(as_bytes, return_inverse=True)
    rows = distinct.view(X.dtype).reshape(-1, X.shape[1])
    total = None
    for tree in trees:
        width = len(next(tree.iter_leaves()).value)
        per_row = np.asarray([walk_row(tree, row).value for row in rows])
        values = per_row.reshape(-1, width)[inverse.ravel()]
        total = values if total is None else total + values
    return total


def reference_scores(attrs, X: np.ndarray) -> np.ndarray:
    """What a TreeEnsembleClassifier with ``attrs`` must output."""
    total = reference_sum(attrs["trees"], X)
    if attrs.get("aggregate", "AVERAGE") == "AVERAGE":
        total = total / len(attrs["trees"])
    total = total + np.asarray(attrs.get("base_values", [0.0]),
                               dtype=np.float64)
    post = attrs.get("post_transform", "NONE")
    if post == "LOGISTIC":
        positive = sigmoid(total[:, 0])
        return np.column_stack([1.0 - positive, positive])
    if post == "SOFTMAX":
        return softmax(total)
    return total


def reference_leaf_ids(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    rank = {id(leaf): i for i, leaf in enumerate(tree.iter_leaves())}
    return np.asarray([rank[id(walk_row(tree, row))] for row in X],
                      dtype=np.int64)


# ---------------------------------------------------------------------------
# Generated trees and batches
# ---------------------------------------------------------------------------

def random_tree(rng, depth: int, value_dim: int, thresholds) -> TreeNode:
    """An unbalanced tree of exactly ``depth`` (0 = a single leaf): one
    spine reaches it, side branches stop early at random. Thresholds come
    from a tiny pool, so they repeat across nodes."""

    def build(level: int, spine: bool) -> TreeNode:
        if level == depth or (not spine and rng.random() < 0.6):
            return TreeNode(value=rng.normal(size=value_dim))
        spine_left = bool(rng.random() < 0.5)
        return TreeNode(feature=int(rng.integers(N_FEATURES)),
                        threshold=float(rng.choice(thresholds)),
                        left=build(level + 1, spine and spine_left),
                        right=build(level + 1, spine and not spine_left))

    return build(0, True)


def random_batch(rng, rows: int, thresholds) -> np.ndarray:
    """Cells drawn from the thresholds themselves (equal goes left), NaN,
    ±inf and ordinary values — a small pool of rows, tiled to ``rows``."""
    specials = np.concatenate([thresholds, [np.nan, np.inf, -np.inf]])
    pool = rng.normal(size=(12, N_FEATURES))
    mask = rng.random(pool.shape) < 0.6
    pool[mask] = rng.choice(specials, size=int(mask.sum()))
    return pool[rng.integers(0, len(pool), rows)]


case = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 31),
    "depths": st.lists(st.integers(0, 14), min_size=1, max_size=3),
    "value_dim": st.sampled_from(VALUE_DIMS),
    "rows": st.sampled_from(BATCH_ROWS),
})


def make_case(params):
    rng = np.random.default_rng(params["seed"])
    thresholds = rng.normal(size=3).round(1)
    trees = [random_tree(rng, depth, params["value_dim"], thresholds)
             for depth in params["depths"]]
    return rng, trees, random_batch(rng, params["rows"], thresholds)


def ensemble_graph(op_type: str, attrs) -> Graph:
    outputs = (["label", "probabilities"] if op_type == "TreeEnsembleClassifier"
               else ["score"])
    return Graph("kernel", [TensorInfo("features", width=N_FEATURES)], outputs,
                 [Node(op_type, ["features"], outputs, attrs)])


def classifier_configs(rng, trees, value_dim):
    """AVERAGE, SUM with base values, and the LOGISTIC/SOFTMAX transforms."""
    yield {"aggregate": "AVERAGE", "post_transform": "NONE",
           "base_values": np.zeros(1)}
    yield {"aggregate": "SUM", "post_transform": "NONE",
           "base_values": rng.normal(size=value_dim)}
    yield {"aggregate": "SUM", "post_transform": "LOGISTIC",
           "base_values": rng.normal(size=1)}
    yield {"aggregate": "AVERAGE", "post_transform": "SOFTMAX",
           "base_values": rng.normal(size=value_dim)}


def _classifier_attrs(config, trees, value_dim):
    width = 2 if config["post_transform"] == "LOGISTIC" else value_dim
    return dict(config, trees=trees, classes=np.arange(width))


# ---------------------------------------------------------------------------
# Differential: every entry point equals the per-row walk
# ---------------------------------------------------------------------------

class TestKernelDifferential:
    @settings(max_examples=30, deadline=None)
    @given(case)
    def test_onnxlite_classifier_bit_identical(self, params):
        rng, trees, X = make_case(params)
        for config in classifier_configs(rng, trees, params["value_dim"]):
            attrs = _classifier_attrs(config, trees, params["value_dim"])
            out = InferenceSession(ensemble_graph(
                "TreeEnsembleClassifier", attrs)).run({"features": X})
            want = reference_scores(attrs, X)
            assert np.array_equal(out["probabilities"], want)
            assert np.array_equal(out["label"],
                                  attrs["classes"][np.argmax(want, axis=1)])

    @settings(max_examples=30, deadline=None)
    @given(case, st.sampled_from(["AVERAGE", "SUM"]))
    def test_onnxlite_regressor_bit_identical(self, params, aggregate):
        rng, trees, X = make_case(params)
        base = float(rng.normal())
        attrs = {"trees": trees, "aggregate": aggregate,
                 "base_values": np.asarray([base])}
        out = InferenceSession(ensemble_graph(
            "TreeEnsembleRegressor", attrs)).run({"features": X})
        want = reference_sum(trees, X)[:, :1]
        if aggregate == "AVERAGE":
            want = want / len(trees)
        assert np.array_equal(out["score"], want + base)

    @settings(max_examples=20, deadline=None)
    @given(case)
    def test_tensor_strategies_match(self, params):
        rng, trees, X = make_case(params)
        for config in classifier_configs(rng, trees, params["value_dim"]):
            attrs = _classifier_attrs(config, trees, params["value_dim"])
            graph = ensemble_graph("TreeEnsembleClassifier", attrs)
            want = reference_scores(attrs, X)
            for strategy in ("gemm", "traversal"):
                got = CpuDevice().run(compile_graph(graph, strategy),
                                      {"features": X}).outputs
                assert np.allclose(got["probabilities"], want,
                                   rtol=0.0, atol=1e-12), strategy

    @settings(max_examples=30, deadline=None)
    @given(case)
    def test_tree_node_wrappers(self, params):
        _, trees, X = make_case(params)
        for tree in trees:
            assert np.array_equal(tree.predict_value(X),
                                  reference_sum([tree], X))
            assert np.array_equal(tree.apply(X), reference_leaf_ids(tree, X))

    @settings(max_examples=30, deadline=None)
    @given(case)
    def test_every_memory_layout(self, params):
        _, trees, X = make_case(params)
        flat = FlatForest(trees)
        want = reference_sum(trees, X)
        for layout, matrix in _layouts(X):
            assert np.array_equal(flat.sum_values(matrix), want), layout
        reversed_rows = X[::-1]
        assert np.array_equal(flat.sum_values(reversed_rows),
                              reference_sum(trees, reversed_rows))

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_every_memory_layout_tiny_batches(self, rows):
        for seed in range(5):
            _, trees, X = make_case({"seed": seed, "depths": [0, 3, 9],
                                     "value_dim": 2, "rows": rows})
            flat = FlatForest(trees)
            want = reference_sum(trees, X)
            for layout, matrix in _layouts(X):
                assert np.array_equal(flat.sum_values(matrix), want), layout
                assert flat.sum_values(matrix).shape == (rows, 2)

    def test_concat_feeding_trees_is_feature_major(self):
        rng, trees, X = make_case({"seed": 3, "depths": [6, 4],
                                   "value_dim": 2, "rows": 500})
        attrs = _classifier_attrs(next(classifier_configs(rng, trees, 2)),
                                  trees, 2)
        graph = _split_graph(("TreeEnsembleClassifier", attrs,
                              ["label", "probabilities"]))
        out = InferenceSession(graph).run(
            {"a": X[:, :1], "b": X[:, 1:]}, ["features", "probabilities"])
        assert out["features"].flags.f_contiguous
        assert not out["features"].flags.c_contiguous
        assert np.array_equal(out["probabilities"],
                              reference_scores(attrs, X))


def _layouts(X: np.ndarray):
    """X as C-contiguous, F-contiguous and a strided (non-contiguous) view."""
    wide = np.zeros((X.shape[0], 2 * X.shape[1]))
    wide[:, ::2] = X
    yield "C", np.ascontiguousarray(X)
    yield "F", np.asfortranarray(X)
    yield "strided", wide[:, ::2]


def _split_graph(*readers) -> Graph:
    """Inputs ``a`` (1 wide) and ``b`` (the rest) concatenated into
    ``features``, which every ``(op_type, attrs, outputs)`` reader reads."""
    nodes = [Node("Concat", ["a", "b"], ["features"])]
    outputs = []
    for op_type, attrs, reader_outputs in readers:
        nodes.append(Node(op_type, ["features"], reader_outputs, attrs))
        outputs += reader_outputs
    return Graph("split", [TensorInfo("a", width=1),
                           TensorInfo("b", width=N_FEATURES - 1)],
                 outputs, nodes)


class TestLinearLayoutPin:
    """A Concat any non-tree kernel reads stays C-ordered, so linear
    scores are the C-ordered matrix product, bit for bit (an F-ordered
    ``X @ w`` can differ in the last bit)."""

    def _data(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2_000, N_FEATURES)) * 1e3
        return rng, X, {"a": X[:, :1], "b": X[:, 1:]}

    def test_linear_classifier(self):
        rng, X, inputs = self._data()
        coefficients = rng.normal(size=(1, N_FEATURES))
        intercepts = rng.normal(size=1)
        attrs = {"coefficients": coefficients, "intercepts": intercepts,
                 "classes": np.arange(2), "post_transform": "LOGISTIC"}
        graph = _split_graph(("LinearClassifier", attrs,
                              ["label", "probabilities"]))
        out = InferenceSession(graph).run(inputs,
                                          ["features", "probabilities"])
        assert out["features"].flags.c_contiguous
        positive = sigmoid((np.ascontiguousarray(X) @ coefficients.T
                            + intercepts)[:, 0])
        assert np.array_equal(out["probabilities"],
                              np.column_stack([1.0 - positive, positive]))

    def test_matmul_next_to_a_tree(self):
        # One tree reader is not enough: the MatMul reads the same edge.
        rng, X, inputs = self._data()
        weight = rng.normal(size=(N_FEATURES, 3))
        _, trees, _ = make_case({"seed": 4, "depths": [5], "value_dim": 2,
                                 "rows": 0})
        attrs = {"trees": trees, "aggregate": "AVERAGE",
                 "base_values": np.zeros(1)}
        graph = _split_graph(("MatMul", {"weight": weight}, ["product"]),
                             ("TreeEnsembleRegressor", attrs, ["score"]))
        out = InferenceSession(graph).run(inputs,
                                          ["features", "product", "score"])
        assert out["features"].flags.c_contiguous
        assert np.array_equal(out["product"],
                              np.ascontiguousarray(X) @ weight)
        assert np.array_equal(out["score"], reference_sum(trees, X)[:, :1])


def _binary_data(seed: int, n: int = 300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    X[:, 3] = X[:, 3].round()  # duplicate values -> duplicate thresholds
    y = ((X[:, 0] + X[:, 1] * X[:, 2] > 0) ^ (X[:, 3] > 0)).astype(int)
    return X, y


def _per_row_predict_value(self, X):
    return reference_sum([self], X)


def _per_row_apply(self, X):
    return reference_leaf_ids(self, X)


class TestLearnUnchanged:
    """The learn estimators give the per-row walk's answers bit for bit —
    including gradient boosting, whose fit reads ``apply`` (Newton leaf
    updates) and ``predict_value`` (margins) every round."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_predict_proba_and_apply(self, seed):
        X, y = _binary_data(seed)
        probe = random_batch(np.random.default_rng(seed), 500,
                             np.unique(X[:, 3]))
        tree = DecisionTreeClassifier(max_depth=9, random_state=seed).fit(X, y)
        assert np.array_equal(tree.predict_proba(probe),
                              reference_sum([tree.tree_], probe))
        assert np.array_equal(tree.apply(probe),
                              reference_leaf_ids(tree.tree_, probe))
        forest = RandomForestClassifier(n_estimators=5, max_depth=6,
                                        random_state=seed).fit(X, y)
        expected = np.zeros((len(probe), 2))
        for estimator in forest.estimators_:
            expected += reference_sum([estimator.tree_], probe)
        assert np.array_equal(forest.predict_proba(probe),
                              expected / len(forest.estimators_))

    def test_gradient_boosting_fit(self, monkeypatch):
        X, y = _binary_data(2)
        kernel = GradientBoostingClassifier(n_estimators=8, max_depth=4,
                                            random_state=0).fit(X, y)
        monkeypatch.setattr(TreeNode, "predict_value", _per_row_predict_value)
        monkeypatch.setattr(TreeNode, "apply", _per_row_apply)
        walked = GradientBoostingClassifier(n_estimators=8, max_depth=4,
                                            random_state=0).fit(X, y)
        for a, b in zip(kernel.trees(), walked.trees()):
            assert [leaf.value.tolist() for leaf in a.iter_leaves()] == \
                [leaf.value.tolist() for leaf in b.iter_leaves()]
        assert np.array_equal(kernel.predict_proba(X),
                              walked.predict_proba(X))


# ---------------------------------------------------------------------------
# Lifetime: the flat form belongs to the session that built it
# ---------------------------------------------------------------------------

EVENTS_ROWS = 2_000
QUERY = ("SELECT d.id, p.score FROM PREDICT(MODEL = m, DATA = events AS d) "
         "WITH (score FLOAT) AS p WHERE d.y < 60.0 AND d.x > -0.5")


def _events() -> Table:
    rng = np.random.default_rng(5)
    return Table.from_arrays(
        id=np.arange(EVENTS_ROWS),
        bucket=np.repeat(np.arange(4), EVENTS_ROWS // 4).astype(np.int64),
        x=rng.normal(size=EVENTS_ROWS),
        y=rng.uniform(0, 100, size=EVENTS_ROWS),
    )


def _forest_pipeline(events: Table):
    # A different x cut per bucket: every partition prunes to other trees.
    cut = 0.6 * (events.array("bucket") - 1.5)
    labels = ((events.array("x") > cut)
              | (events.array("y") < 20)).astype(int)
    pipeline = make_standard_pipeline(
        RandomForestClassifier(n_estimators=4, max_depth=7, random_state=0),
        ["x", "y", "bucket"], [])
    return pipeline.fit(events, labels)


def _ensemble(graph: Graph) -> Node:
    return next(node for node in graph.nodes
                if node.op_type == "TreeEnsembleClassifier")


def _graph_scores(score, graph: Graph, rows: Table):
    """``(scored, reference)`` probabilities of ``graph`` over ``rows``:
    ``score(graph, inputs, edge, n)`` runs the engine, the reference walks
    the graph's own trees over its own feature edge."""
    inputs = {info.name: rows.array(info.name) for info in graph.inputs}
    node = _ensemble(graph)
    features = InferenceSession(graph).run(inputs, [node.inputs[0]])
    want = reference_scores(node.attrs, features[node.inputs[0]])
    return score(graph, inputs, node.outputs[1], rows.num_rows), want


def _matching_rows(events: Table, bucket=None, filtered=True) -> Table:
    keep = np.ones(events.num_rows, dtype=bool)
    if filtered:
        keep &= (events.array("y") < 60.0) & (events.array("x") > -0.5)
    if bucket is not None:
        keep &= events.array("bucket") == bucket
    return events.take(np.flatnonzero(keep))


def _fresh_session_score(graph, inputs, edge, n):
    return InferenceSession(graph).run(inputs, [edge])[edge]


class TestFlatFormLifetime:
    def test_freed_and_rebuilt_partition_graphs(self):
        # A flat cache keyed by id() of a tree list once made per-partition
        # graphs score with a freed graph's layout: a new pruned tree list
        # reused the old one's id. Here one partition graph lives at a time
        # and is freed before the next (different) one is built, so ids do
        # get reused; every graph must still score its own trees.
        events = _events()
        pipeline = _forest_pipeline(events)
        base = convert_pipeline(pipeline)
        for _ in range(10):
            for bucket in range(4):
                graph = base.copy()
                prune_graph_with_constraints(graph, InputConstraints(
                    {"bucket": Interval.point(float(bucket))}, {}))
                pushdown_graph(graph)
                got, want = _graph_scores(
                    _fresh_session_score, graph,
                    _matching_rows(events, bucket, filtered=False))
                assert np.array_equal(got, want)
                del graph
                gc.collect()
        # The engine's own per-partition graphs, freed and rebuilt with the
        # session (and its predict runtime) that holds them.
        oracle = RavenSession(enable_optimizations=False)
        oracle.register_table("events", events)
        oracle.register_model("m", pipeline)
        expected = oracle.sql(QUERY)
        for _ in range(3):
            session = RavenSession(strategy="none", dop=2, batch_size=128)
            session.register_table("events", events, primary_key=["id"],
                                   partition_column="bucket")
            session.register_model("m", pipeline)
            plan, _ = session.optimize(QUERY)
            (predict,) = find_predict_nodes(plan)
            assert len(predict.per_partition_graphs) == 4

            def score(graph, inputs, edge, n):
                return session.runtime.run_graph_batched(
                    graph, inputs, [edge], n)[edge]

            for bucket, graph in enumerate(predict.per_partition_graphs):
                got, want = _graph_scores(score, graph,
                                          _matching_rows(events, bucket))
                assert np.array_equal(got, want)
            got = session.sql(QUERY)
            order = np.argsort(got.array("id"))
            assert np.array_equal(got.array("id")[order],
                                  expected.array("id"))
            assert np.allclose(got.array("score")[order],
                               expected.array("score"), rtol=0.0, atol=1e-12)
            del session, plan, predict, score, graph
            gc.collect()

    def test_pruned_graph_next_to_its_original(self):
        events = _events()
        session = RavenSession(strategy="none")
        session.register_table("events", events)
        session.register_model("m", _forest_pipeline(events))
        plan = RelationalOptimizer(session.catalog).optimize(
            Binder(session.catalog).bind(parse(QUERY)))
        original = find_predict_nodes(plan)[0].graph
        result = PredicateBasedModelPruning().apply(plan, session.catalog)
        assert result.applied
        pruned = find_predict_nodes(result.plan)[0].graph
        assert _tree_nodes(pruned) < _tree_nodes(original)
        rows = _matching_rows(events)
        scored = {}
        for name, graph in (("original", original), ("pruned", pruned)):
            scored[name], want = _graph_scores(_fresh_session_score, graph,
                                               rows)
            assert np.array_equal(scored[name], want), name
        assert np.allclose(scored["pruned"], scored["original"],
                           rtol=0.0, atol=1e-12)


def _tree_nodes(graph: Graph) -> int:
    return sum(tree.node_count() for tree in _ensemble(graph).attrs["trees"])


# ---------------------------------------------------------------------------
# The predict path reads its inputs and never aliases them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["dt_pipeline", "rf_pipeline",
                                     "gb_pipeline", "lr_pipeline"])
def test_pipeline_run_leaves_inputs_untouched(request, fixture,
                                              joined_frame):
    graph = convert_pipeline(request.getfixturevalue(fixture))
    inputs = {info.name: joined_frame.array(info.name).copy()
              for info in graph.inputs}
    before = {name: array.copy() for name, array in inputs.items()}
    outputs = InferenceSession(graph).run(inputs)
    for name, array in inputs.items():
        assert array.dtype == before[name].dtype
        assert array.tobytes() == before[name].tobytes(), name
    for out_name, out in outputs.items():
        for name, array in inputs.items():
            assert not np.shares_memory(out, array), (out_name, name)
