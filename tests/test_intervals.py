"""Tests for interval propagation and tree pruning (rule machinery)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import tree_reference as ref

from repro.core.rules.intervals import (
    InputConstraints,
    Interval,
    StringConstraint,
    collapse_uniform_subtrees,
    propagate,
    prune_tree,
)
from repro.learn import DecisionTreeClassifier
from repro.onnxlite import Graph, Node, TensorInfo


class TestInterval:
    def test_point(self):
        interval = Interval.point(3.0)
        assert interval.is_point
        assert interval.always_leq(3.0)
        assert interval.never_leq(2.9)

    def test_always_leq_open_upper(self):
        interval = Interval(0.0, 5.0, high_open=True)
        assert interval.always_leq(5.0)  # values < 5 satisfy x <= 5
        assert not interval.never_leq(5.0)

    def test_never_leq_open_lower(self):
        interval = Interval(5.0, 10.0, low_open=True)
        assert interval.never_leq(5.0)  # all values > 5
        assert not Interval(5.0, 10.0).never_leq(5.0)  # closed includes 5

    def test_intersect_picks_tighter_bounds(self):
        a = Interval(0.0, 10.0)
        b = Interval(5.0, 20.0, low_open=True)
        merged = a.intersect(b)
        assert merged.low == 5.0 and merged.low_open
        assert merged.high == 10.0

    def test_empty_detection(self):
        assert Interval(5.0, 3.0).is_empty
        assert Interval(5.0, 5.0, low_open=True).is_empty
        assert not Interval(5.0, 5.0).is_empty

    def test_shift_scale_positive(self):
        interval = Interval(2.0, 4.0).shift_scale(1.0, 10.0)
        assert (interval.low, interval.high) == (10.0, 30.0)

    def test_shift_scale_negative_flips(self):
        interval = Interval(2.0, 4.0).shift_scale(0.0, -1.0)
        assert (interval.low, interval.high) == (-4.0, -2.0)

    def test_shift_scale_infinite_bounds(self):
        interval = Interval.at_most(5.0).shift_scale(0.0, 2.0)
        assert interval.low == -math.inf and interval.high == 10.0

    def test_refinements(self):
        base = Interval(0.0, 10.0)
        assert base.refined_leq(4.0).high == 4.0
        refined = base.refined_gt(4.0)
        assert refined.low == 4.0 and refined.low_open


class TestPropagation:
    def _featurizer_graph(self):
        graph = Graph("g", [TensorInfo("age"), TensorInfo("flag", "string")],
                      ["features"])
        graph.add_node(Node("Scaler", ["age"], ["age_s"],
                            {"offset": np.asarray([50.0]),
                             "scale": np.asarray([0.1])}))
        graph.add_node(Node("OneHotEncoder", ["flag"], ["flag_oh"],
                            {"categories": np.asarray(["no", "yes"])}))
        graph.add_node(Node("Concat", ["age_s", "flag_oh"], ["features"]))
        return graph

    def test_scaler_maps_interval(self):
        graph = self._featurizer_graph()
        constraints = InputConstraints({"age": Interval(40.0, 60.0)}, {})
        vectors = propagate(graph, constraints)
        age_interval = vectors["features"][0]
        assert np.isclose(age_interval.low, -1.0)
        assert np.isclose(age_interval.high, 1.0)

    def test_equality_through_one_hot(self):
        graph = self._featurizer_graph()
        constraints = InputConstraints({}, {"flag": StringConstraint.equal("yes")})
        vectors = propagate(graph, constraints)
        no_dim, yes_dim = vectors["features"][1], vectors["features"][2]
        assert no_dim.is_point and no_dim.low == 0.0
        assert yes_dim.is_point and yes_dim.low == 1.0

    def test_in_set_through_one_hot(self):
        graph = self._featurizer_graph()
        constraints = InputConstraints(
            {}, {"flag": StringConstraint(("yes", "maybe"))})
        vectors = propagate(graph, constraints)
        # 'no' is excluded -> exactly 0; 'yes' possible -> [0, 1].
        assert vectors["features"][1].is_point
        assert not vectors["features"][2].is_point

    def test_one_hot_outputs_bounded_without_constraints(self):
        graph = self._featurizer_graph()
        vectors = propagate(graph, InputConstraints.empty())
        assert vectors["features"][1].low == 0.0
        assert vectors["features"][1].high == 1.0

    def test_constant_node_propagates_point(self):
        graph = Graph("g", [TensorInfo("x")], ["features"])
        graph.add_node(Node("Constant", [], ["c"], {"value": np.asarray([3.0])}))
        graph.add_node(Node("Concat", ["x", "c"], ["features"]))
        vectors = propagate(graph, InputConstraints.empty())
        assert vectors["features"][1].is_point

    def test_binarizer_decided_by_interval(self):
        graph = Graph("g", [TensorInfo("x")], ["out"])
        graph.add_node(Node("Binarizer", ["x"], ["out"], {"threshold": 5.0}))
        high = propagate(graph, InputConstraints(
            {"x": Interval.at_least(6.0)}, {}))["out"][0]
        assert high.is_point and high.low == 1.0
        low = propagate(graph, InputConstraints(
            {"x": Interval(0.0, 4.0)}, {}))["out"][0]
        assert low.is_point and low.low == 0.0

    def test_label_encoder_point(self):
        graph = Graph("g", [TensorInfo("s", "string")], ["out"])
        graph.add_node(Node("LabelEncoder", ["s"], ["out"], {
            "keys": np.asarray(["a", "b"]), "values": np.asarray([1.0, 2.0])}))
        vectors = propagate(graph, InputConstraints(
            {}, {"s": StringConstraint.equal("b")}))
        assert vectors["out"][0].is_point and vectors["out"][0].low == 2.0


def _example_tree():
    """The paper's Fig. 3 tree shape: root on F3, then F0/F1, F2/F3."""
    def leaf(p):
        return (1 - p, p), 1
    return ref.to_tree(
        (3, 0.5,
         (0, 60.0,
          (4, 0.5, leaf(0.9), leaf(0.1), 2),
          (5, 0.5, leaf(0.2), leaf(0.8), 2), 4),
         (1, 1.0,
          (2, 0.5, leaf(0.3), leaf(0.7), 2),
          leaf(0.95), 3), 7))


class TestTreePruning:
    def test_prunes_decided_branches(self):
        tree = _example_tree()
        intervals = [Interval.UNKNOWN] * 6
        intervals[3] = Interval.point(1.0)  # F3 = 1 -> right branch only
        pruned = prune_tree(tree, intervals)
        assert 3 not in pruned.features_used()
        assert len(pruned) < len(tree)

    def test_no_constraints_no_pruning(self):
        tree = _example_tree()
        pruned = prune_tree(tree, [Interval.UNKNOWN] * 6)
        assert len(pruned) == len(tree)

    def test_range_prunes_partially(self):
        tree = _example_tree()
        intervals = [Interval.UNKNOWN] * 6
        intervals[0] = Interval.at_most(30.0)  # age <= 30: F0 <= 60 decided
        pruned = prune_tree(tree, intervals)
        assert 0 not in pruned.features_used()

    def test_descent_refines_same_feature(self):
        # Nested splits on one feature: outer x<=10, inner x<=20 always true.
        inner = (0, 20.0, ((1.0,), 1), ((2.0,), 1), 2)
        tree = ref.to_tree((0, 10.0, inner, ((3.0,), 1), 3))
        pruned = prune_tree(tree, [Interval.UNKNOWN])
        # Left child collapses: within x<=10, x<=20 is always true.
        left = pruned.left[0]
        assert pruned.left[left] < 0 and pruned.value[left, 0] == 1.0
        assert ref.from_tree(pruned) == (0, 10.0, ((1.0,), 1), ((3.0,), 1), 3)

    def test_input_not_mutated(self):
        tree = _example_tree()
        before = ref.from_tree(tree)
        intervals = [Interval.point(1.0)] * 6
        prune_tree(tree, intervals)
        assert ref.from_tree(tree) == before

    def test_collapse_uniform_subtrees(self):
        tree = ref.to_tree((0, 1.0, ((0.5, 0.5), 1), ((0.5, 0.5), 1), 2))
        collapsed = collapse_uniform_subtrees(tree)
        assert len(collapsed) == 1 and collapsed.left[0] < 0
        assert ref.from_tree(collapsed) == ((0.5, 0.5), 2)


@given(st.integers(0, 5000),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_pruning_preserves_predictions_on_constrained_rows(seed, bound):
    """Soundness property: for any rows satisfying the interval constraint,
    the pruned tree predicts exactly what the original tree predicts."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(400, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    model = DecisionTreeClassifier(max_depth=6, random_state=seed).fit(X, y)
    intervals = [Interval.UNKNOWN] * 4
    intervals[0] = Interval.at_most(bound)
    pruned = prune_tree(model.tree_, intervals)
    X_eval = rng.normal(size=(300, 4))
    mask = X_eval[:, 0] <= bound
    if mask.any():
        original = model.tree_.predict_value(X_eval[mask])
        new = pruned.predict_value(X_eval[mask])
        assert np.allclose(original, new)
