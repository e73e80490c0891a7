"""Tests for the onnxlite graph format, ops, runtime, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError, UnsupportedOperatorError
from repro.onnxlite import (
    FLOAT,
    Graph,
    InferenceSession,
    Node,
    STRING,
    TensorInfo,
    convert_model,
    convert_pipeline,
    graph_from_dict,
    graph_to_dict,
    infer_edge_info,
    run_graph,
    supported_operators,
)
import tree_reference as ref
from repro.onnxlite.serialize import _decode_attr, _encode_attr
from repro.learn import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    Lasso,
    LinearRegression,
    LogisticRegression,
    RandomForestClassifier,
    make_standard_pipeline,
)
from repro.storage import Table


class TestGraphStructure:
    def _simple(self) -> Graph:
        graph = Graph("g", [TensorInfo("x"), TensorInfo("y")], ["out"])
        graph.add_node(Node("Concat", ["x", "y"], ["xy"]))
        graph.add_node(Node("Scaler", ["xy"], ["out"],
                            {"offset": np.zeros(2), "scale": np.ones(2)}))
        return graph

    def test_topological_order(self):
        graph = self._simple()
        # Insert nodes out of order; topo sort must fix it.
        graph.nodes.reverse()
        order = [n.op_type for n in graph.topological_nodes()]
        assert order == ["Concat", "Scaler"]

    def test_cycle_detected(self):
        graph = Graph("g", [TensorInfo("x")], ["a"])
        graph.add_node(Node("Identity", ["b"], ["a"]))
        graph.add_node(Node("Identity", ["a"], ["b"]))
        with pytest.raises(GraphError):
            graph.topological_nodes()

    def test_validate_missing_output(self):
        graph = Graph("g", [TensorInfo("x")], ["nothing"])
        with pytest.raises(GraphError):
            graph.validate()

    def test_producers_consumers(self):
        graph = self._simple()
        assert graph.producers()["xy"].op_type == "Concat"
        assert [n.op_type for n in graph.consumers()["xy"]] == ["Scaler"]
        assert graph.node_by_output("out").op_type == "Scaler"

    def test_double_producer_rejected(self):
        graph = Graph("g", [TensorInfo("x")], ["a"])
        graph.add_node(Node("Identity", ["x"], ["a"]))
        graph.add_node(Node("Identity", ["x"], ["a"]))
        with pytest.raises(GraphError):
            graph.producers()

    def test_prune_dead_nodes(self):
        graph = self._simple()
        graph.add_node(Node("Identity", ["xy"], ["unused"]))
        removed = graph.prune_dead_nodes()
        assert removed == 1
        assert all(n.outputs != ["unused"] for n in graph.nodes)

    def test_prune_dead_inputs(self):
        graph = Graph("g", [TensorInfo("x"), TensorInfo("dead")], ["out"])
        graph.add_node(Node("Identity", ["x"], ["out"]))
        assert graph.prune_dead_inputs() == ["dead"]
        assert graph.input_names == ["x"]

    def test_fresh_edge_avoids_collisions(self):
        graph = self._simple()
        assert graph.fresh_edge("xy") == "xy_1"
        assert graph.fresh_edge("new") == "new"

    def test_rename_edge(self):
        graph = self._simple()
        graph.rename_edge("xy", "features")
        assert graph.producers()["features"].op_type == "Concat"

    def test_copy_is_deep(self):
        graph = self._simple()
        clone = graph.copy()
        clone.nodes[1].attrs["scale"][0] = 99.0
        assert graph.nodes[1].attrs["scale"][0] == 1.0

    def test_operator_counts(self):
        counts = self._simple().operator_counts()
        assert counts == {"Concat": 1, "Scaler": 1}

    def test_pretty_renders(self):
        text = self._simple().pretty()
        assert "Concat" in text and "inputs" in text


class TestKernels:
    def test_run_graph_simple(self):
        graph = Graph("g", [TensorInfo("x")], ["out"])
        graph.add_node(Node("Scaler", ["x"], ["out"],
                            {"offset": np.asarray([1.0]),
                             "scale": np.asarray([2.0])}))
        out = run_graph(graph, {"x": np.asarray([3.0, 5.0])})
        assert out["out"][:, 0].tolist() == [4.0, 8.0]

    def test_missing_input_raises(self):
        graph = Graph("g", [TensorInfo("x")], ["x"])
        with pytest.raises(GraphError):
            run_graph(graph, {})

    def test_batch_length_mismatch(self):
        graph = Graph("g", [TensorInfo("x"), TensorInfo("y")], ["x"])
        with pytest.raises(GraphError):
            run_graph(graph, {"x": np.zeros(2), "y": np.zeros(3)})

    def test_one_hot_unknown_is_zero(self):
        graph = Graph("g", [TensorInfo("s", STRING)], ["out"])
        graph.add_node(Node("OneHotEncoder", ["s"], ["out"],
                            {"categories": np.asarray(["a", "b"])}))
        out = run_graph(graph, {"s": np.asarray(["a", "z"])})
        assert out["out"].tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_label_encoder_with_default(self):
        graph = Graph("g", [TensorInfo("s", STRING)], ["out"])
        graph.add_node(Node("LabelEncoder", ["s"], ["out"], {
            "keys": np.asarray(["a", "b"]),
            "values": np.asarray([10.0, 20.0]), "default": -5.0}))
        out = run_graph(graph, {"s": np.asarray(["b", "zzz", "a"])})
        assert out["out"][:, 0].tolist() == [20.0, -5.0, 10.0]

    def test_constant_tiles_to_batch(self):
        graph = Graph("g", [TensorInfo("x")], ["c"])
        graph.add_node(Node("Constant", [], ["c"], {"value": np.asarray([7.0])}))
        out = run_graph(graph, {"x": np.zeros(3)})
        assert out["c"].shape == (3, 1)
        assert np.all(out["c"] == 7.0)

    def test_feature_extractor(self):
        graph = Graph("g", [TensorInfo("x", FLOAT, 3)], ["out"])
        graph.add_node(Node("FeatureExtractor", ["x"], ["out"],
                            {"indices": [2, 0]}))
        out = run_graph(graph, {"x": np.asarray([[1.0, 2.0, 3.0]])})
        assert out["out"].tolist() == [[3.0, 1.0]]

    def test_unsupported_operator(self):
        graph = Graph("g", [TensorInfo("x")], ["out"])
        graph.add_node(Node("Conv2D", ["x"], ["out"]))
        with pytest.raises(UnsupportedOperatorError):
            InferenceSession(graph)

    def test_supported_operators_list(self):
        ops = supported_operators()
        assert "TreeEnsembleClassifier" in ops
        assert "Scaler" in ops

    def test_edge_info_widths(self, dt_pipeline):
        graph = convert_pipeline(dt_pipeline)
        info = infer_edge_info(graph)
        model_node = next(n for n in graph.nodes
                          if n.op_type == "TreeEnsembleClassifier")
        # 5 scaled numeric + smoker(2) + hypertension(3) = 10 features
        assert info[model_node.inputs[0]].width == 10
        assert info["label"].width == 0
        assert info["score"].width == 1


class TestConversionFidelity:
    """The converter must be bit-exact with the learn estimators."""

    @pytest.fixture(scope="class")
    def frame(self):
        rng = np.random.default_rng(9)
        n = 1_500
        return Table.from_arrays(
            a=rng.normal(size=n), b=rng.normal(size=n),
            c=rng.choice(["u", "v", "w"], n)), rng

    @pytest.mark.parametrize("model_factory", [
        lambda: LogisticRegression(penalty="l2"),
        lambda: LogisticRegression(penalty="l1", C=0.1, max_iter=500),
        lambda: DecisionTreeClassifier(max_depth=6, random_state=0),
        lambda: RandomForestClassifier(n_estimators=7, max_depth=4,
                                       random_state=0),
        lambda: GradientBoostingClassifier(n_estimators=9, max_depth=3,
                                           random_state=0),
    ])
    def test_classifier_equivalence(self, frame, model_factory):
        table, rng = frame
        y = ((table.array("a") > 0) | (table.array("c") == "u")).astype(int)
        pipeline = make_standard_pipeline(model_factory(), ["a", "b"], ["c"])
        pipeline.fit(table, y)
        graph = convert_pipeline(pipeline)
        out = run_graph(graph, {k: table.array(k) for k in ("a", "b", "c")})
        assert np.allclose(out["score"][:, 0],
                           pipeline.predict_proba(table)[:, 1], atol=1e-12)
        assert np.array_equal(out["label"], pipeline.predict(table))

    @pytest.mark.parametrize("model_factory", [
        lambda: LinearRegression(),
        lambda: Lasso(alpha=0.1),
        lambda: DecisionTreeRegressor(max_depth=5, random_state=0),
        lambda: GradientBoostingRegressor(n_estimators=10, max_depth=3,
                                          random_state=0),
    ])
    def test_regressor_equivalence(self, frame, model_factory):
        table, rng = frame
        y = table.array("a") * 2.0 + table.array("b")
        pipeline = make_standard_pipeline(model_factory(), ["a", "b"], ["c"])
        pipeline.fit(table, y)
        graph = convert_pipeline(pipeline)
        out = run_graph(graph, {k: table.array(k) for k in ("a", "b", "c")})
        assert np.allclose(out["score"][:, 0], pipeline.predict(table),
                           atol=1e-9)

    def test_convert_model_bare(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        graph = convert_model(model, 4)
        out = run_graph(graph, {"features": X})
        assert np.array_equal(out["label"], model.predict(X))

    def test_convert_model_with_input_names(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        model = LogisticRegression().fit(X, y)
        graph = convert_model(model, 2, input_names=["f0", "f1"])
        out = run_graph(graph, {"f0": X[:, 0], "f1": X[:, 1]})
        assert np.array_equal(out["label"], model.predict(X))

    def test_unsupported_pipeline_shape(self):
        with pytest.raises(UnsupportedOperatorError):
            from repro.learn import Pipeline, StandardScaler
            convert_pipeline(Pipeline([("only", StandardScaler())]))


class TestSerialization:
    def test_tree_arrays_roundtrip(self):
        tree = ref.to_tree((1, 0.5, ((0.2, 0.8), 3), ((0.9, 0.1), 4), 7))
        encoded = _encode_attr(tree)
        assert encoded["data"]["nodes_modes"] == ["BRANCH_LEQ", "LEAF", "LEAF"]
        restored = _decode_attr(json.loads(json.dumps(encoded)))
        ref.assert_same_tree(restored, tree)
        X = np.asarray([[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(restored.predict_value(X), tree.predict_value(X))

    def test_graph_roundtrip_all_model_types(self, dt_pipeline, lr_pipeline,
                                             gb_pipeline, rf_pipeline,
                                             joined_frame):
        inputs = {c: joined_frame.array(c) for c in
                  ("age", "bmi", "bpm", "fev", "asthma", "smoker",
                   "hypertension")}
        for pipeline in (dt_pipeline, lr_pipeline, gb_pipeline, rf_pipeline):
            graph = convert_pipeline(pipeline)
            restored = graph_from_dict(graph_to_dict(graph))
            a = run_graph(graph, inputs)
            b = run_graph(restored, inputs)
            assert np.allclose(a["score"], b["score"])
            assert np.array_equal(a["label"], b["label"])

    def test_save_load_file(self, tmp_path, dt_pipeline):
        from repro.onnxlite import load_graph, save_graph
        graph = convert_pipeline(dt_pipeline)
        path = tmp_path / "model.ronnx"
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.input_names == graph.input_names

    def test_bad_payload_rejected(self):
        with pytest.raises(GraphError):
            graph_from_dict({"format": "something-else"})


@given(st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_random_tree_serialize_roundtrip(seed):
    """Property: serialization preserves every node array exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = DecisionTreeClassifier(
        max_depth=int(rng.integers(1, 7)), random_state=seed).fit(X, y)
    restored = _decode_attr(json.loads(json.dumps(_encode_attr(model.tree_))))
    ref.assert_same_tree(restored, model.tree_)
    assert np.array_equal(restored.predict_value(X), model.tree_.predict_value(X))


# ---------------------------------------------------------------------------
# The file format, pinned: these strings were written for the same trees by
# the writer of the object trees the parallel arrays replaced, so the array
# writer is held to byte-identical files (and so to unchanged model digests).
# ---------------------------------------------------------------------------

PINNED_GRAPH = (
    '{"format": "repro-onnxlite-v1", "name": "pinned", "inputs": [{"name": '
    '"features", "dtype": "float", "width": 2}], "outputs": ["score"], "nod'
    'es": [{"op_type": "TreeEnsembleRegressor", "name": "tree_0", "inputs":'
    ' ["features"], "outputs": ["score"], "attrs": {"trees": {"kind": "tree'
    's", "data": [{"nodes_featureids": [1, 0, -1, -1, -1], "nodes_values": '
    '[0.1, -2.5, 0.0, 0.0, 0.0], "nodes_modes": ["BRANCH_LEQ", "BRANCH_LEQ"'
    ', "LEAF", "LEAF", "LEAF"], "nodes_truenodeids": [1, 2, -1, -1, -1], "n'
    'odes_falsenodeids": [4, 3, -1, -1, -1], "leaf_values": [[], [], [0.333'
    '3333333333333], [2.5e-08], [7.0]], "nodes_samples": [9, 5, 2, 3, 4]}]}'
    ', "aggregate": {"kind": "scalar", "data": "SUM"}, "base_values": {"kin'
    'd": "array", "data": [0.5], "dtype": "float"}}}]}')
PINNED_TREE = (
    '{"kind": "tree", "data": {"nodes_featureids": [1, 0, -1, -1, -1], "nod'
    'es_values": [0.1, -2.5, 0.0, 0.0, 0.0], "nodes_modes": ["BRANCH_LEQ", '
    '"BRANCH_LEQ", "LEAF", "LEAF", "LEAF"], "nodes_truenodeids": [1, 2, -1,'
    ' -1, -1], "nodes_falsenodeids": [4, 3, -1, -1, -1], "leaf_values": [[]'
    ', [], [0.3333333333333333], [2.5e-08], [7.0]], "nodes_samples": [9, 5,'
    ' 2, 3, 4]}}')
PINNED_BOOSTED_TREES = (
    '{"kind": "trees", "data": [{"nodes_featureids": [1, 0, -1, -1, -1], "n'
    'odes_values": [0.645, 0.885, 0.0, 0.0, 0.0], "nodes_modes": ["BRANCH_L'
    'EQ", "BRANCH_LEQ", "LEAF", "LEAF", "LEAF"], "nodes_truenodeids": [1, 2'
    ', -1, -1, -1], "nodes_falsenodeids": [4, 3, -1, -1, -1], "leaf_values"'
    ': [[], [], [-0.7142857142857143], [1.0], [1.0]], "nodes_samples": [60,'
    ' 39, 35, 4, 21]}, {"nodes_featureids": [0, 1, -1, -1, 1, -1, -1], "nod'
    'es_values": [-0.33499999999999996, 0.7849999999999999, 0.0, 0.0, -0.28'
    '500000000000003, 0.0, 0.0], "nodes_modes": ["BRANCH_LEQ", "BRANCH_LEQ"'
    ', "LEAF", "LEAF", "BRANCH_LEQ", "LEAF", "LEAF"], "nodes_truenodeids": '
    '[1, 2, -1, -1, 5, -1, -1], "nodes_falsenodeids": [4, 3, -1, -1, 6, -1,'
    ' -1], "leaf_values": [[], [], [-0.744770829778477], [0.683939720585721'
    '2], [], [-0.38692781358230977], [0.8042321132179168]], "nodes_samples"'
    ': [60, 24, 21, 3, 36, 11, 25]}, {"nodes_featureids": [0, 1, -1, -1, 1,'
    ' -1, -1], "nodes_values": [-0.33499999999999996, 0.7849999999999999, 0'
    '.0, 0.0, -0.020000000000000004, 0.0, 0.0], "nodes_modes": ["BRANCH_LEQ'
    '", "BRANCH_LEQ", "LEAF", "LEAF", "BRANCH_LEQ", "LEAF", "LEAF"], "nodes'
    '_truenodeids": [1, 2, -1, -1, 5, -1, -1], "nodes_falsenodeids": [4, 3,'
    ' -1, -1, 6, -1, -1], "leaf_values": [[], [], [-0.6162277414059928], [0'
    '.5928205795720652], [], [-0.18408380409189593], [0.6954819667875124]],'
    ' "nodes_samples": [60, 24, 21, 3, 36, 13, 23]}]}')


def _pinned_tree():
    return ref.to_tree((1, 0.1, (0, -2.5, ((1 / 3,), 2), ((2.5e-08,), 3), 5),
                        ((7.0,), 4), 9))


def _boosted_trees():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2)).round(2)
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = GradientBoostingClassifier(n_estimators=3, max_depth=2,
                                       learning_rate=0.5,
                                       random_state=0).fit(X, y)
    graph = convert_model(model, 2)
    return next(node for node in graph.nodes
                if node.op_type == "TreeEnsembleClassifier").attrs["trees"]


class TestFileFormatPin:
    def _graph(self):
        return Graph("pinned", [TensorInfo("features", width=2)], ["score"],
                     [Node("TreeEnsembleRegressor", ["features"], ["score"],
                           {"trees": [_pinned_tree()], "aggregate": "SUM",
                            "base_values": np.asarray([0.5])}, "tree_0")])

    def test_single_tree_graph(self):
        graph = self._graph()
        assert json.dumps(graph_to_dict(graph)) == PINNED_GRAPH
        restored = graph_from_dict(json.loads(PINNED_GRAPH))
        assert json.dumps(graph_to_dict(restored)) == PINNED_GRAPH
        (tree,) = restored.nodes[0].attrs["trees"]
        ref.assert_same_tree(tree, _pinned_tree())

    def test_single_tree_attribute(self):
        assert json.dumps(_encode_attr(_pinned_tree())) == PINNED_TREE
        ref.assert_same_tree(_decode_attr(json.loads(PINNED_TREE)),
                           _pinned_tree())

    def test_leaf_scaled_boosted_trees(self):
        trees = _boosted_trees()
        assert json.dumps(_encode_attr(trees)) == PINNED_BOOSTED_TREES
        restored = _decode_attr(json.loads(PINNED_BOOSTED_TREES))
        assert len(restored) == 3
        for got, want in zip(restored, trees):
            ref.assert_same_tree(got, want)
