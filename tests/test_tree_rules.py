"""The array tree rewrites equal their recursive references.

``prune_tree``, ``collapse_uniform_subtrees`` and the output-predicate
leaf merge decide per node over a :class:`Tree`'s arrays and share one
pre-order compaction; ``tree_to_expression`` walks the arrays by index.
Each is held, on Hypothesis-generated trees and interval boxes, to the
recursive nested-tuple version in ``tree_reference`` — all six output
arrays, ``n_samples`` included, and the CASE expression by ``==``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from repro.core.rules.intervals import (
    Interval,
    collapse_uniform_subtrees,
    prune_tree,
)
from repro.core.rules.ml_to_sql import tree_to_expression
from repro.core.rules.predicate_pruning import _merge_failing_leaves
from repro.relational.expressions import CaseWhen, col, lit

FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples")
N_FEATURES = 5
THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
ENDPOINTS = (-math.inf, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, math.inf, math.nan)


def trees(width: int = 2):
    """Nested trees: values from a small pool (so siblings often match),
    thresholds from a small pool (so boxes often decide splits)."""
    leaves = st.tuples(
        st.tuples(*[st.sampled_from((0.0, 0.25, 1.0))] * width),
        st.integers(0, 9))
    return st.recursive(leaves, lambda children: st.tuples(
        st.integers(0, N_FEATURES - 1), st.sampled_from(THRESHOLDS),
        children, children, st.integers(10, 99)), max_leaves=24)


endpoints = st.sampled_from(ENDPOINTS)
intervals = st.one_of(
    st.just(Interval.UNKNOWN),
    endpoints.map(Interval.point),                         # points
    st.builds(Interval.at_most, endpoints, st.booleans()),  # half-open
    st.builds(Interval.at_least, endpoints, st.booleans()),
    # Any pair: closed, open, NaN-bounded and empty (low > high).
    st.builds(Interval, endpoints, endpoints, st.booleans(), st.booleans()),
)
boxes = st.lists(intervals, max_size=N_FEATURES)  # short: the rest unknown

FAILS = [
    lambda value: value[1] > 0.5,                  # score output predicate
    lambda value: int(np.argmax(value)) != 0,      # label output predicate
    lambda value: True,
]


class TestRewritesMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(trees(), boxes)
    def test_prune(self, nested, box):
        ref.assert_same_tree(prune_tree(ref.to_tree(nested), box),
                         ref.to_tree(ref.prune(nested, box)))

    @settings(max_examples=150, deadline=None)
    @given(trees())
    def test_collapse(self, nested):
        ref.assert_same_tree(collapse_uniform_subtrees(ref.to_tree(nested)),
                         ref.to_tree(ref.collapse(nested)))

    @settings(max_examples=150, deadline=None)
    @given(trees(), boxes)
    def test_prune_then_collapse(self, nested, box):
        # What prune_graph_with_constraints runs on every tree.
        got = collapse_uniform_subtrees(prune_tree(ref.to_tree(nested), box))
        ref.assert_same_tree(got, ref.to_tree(ref.collapse(ref.prune(nested, box))))

    @settings(max_examples=150, deadline=None)
    @given(trees(), st.sampled_from(range(len(FAILS))))
    def test_merge_failing_leaves(self, nested, which):
        fails = FAILS[which]
        ref.assert_same_tree(_merge_failing_leaves(ref.to_tree(nested), fails),
                         ref.to_tree(ref.merge_failing_leaves(nested, fails)))

    @settings(max_examples=100, deadline=None)
    @given(trees(), st.lists(st.one_of(st.none(), st.sampled_from(THRESHOLDS)),
                             min_size=N_FEATURES, max_size=N_FEATURES),
           st.integers(0, 2 ** 31))
    def test_pruned_tree_scores_like_the_walk(self, nested, points, seed):
        # Rows that satisfy a box of points (None: unconstrained) reach
        # the value the reference walk finds in the unpruned tree.
        box = [Interval.UNKNOWN if p is None else Interval.point(p)
               for p in points]
        rows = np.random.default_rng(seed).choice(THRESHOLDS, (16, N_FEATURES))
        for feature, point in enumerate(points):
            if point is not None:
                rows[:, feature] = point
        want = [ref.walk(nested, row)[0] for row in rows]
        got = prune_tree(ref.to_tree(nested), box).predict_value(rows)
        assert got.tolist() == [list(value) for value in want]

    @settings(max_examples=100, deadline=None)
    @given(trees(width=1))
    def test_one_wide_values(self, nested):
        tree = ref.to_tree(nested)
        ref.assert_same_tree(collapse_uniform_subtrees(tree),
                         ref.to_tree(ref.collapse(nested)))
        ref.assert_same_tree(prune_tree(tree, [Interval.at_most(0.0)]),
                         ref.to_tree(ref.prune(nested, [Interval.at_most(0.0)])))


def indicator_features():
    """One-hot and binarizer indicators next to plain columns."""
    return [
        CaseWhen([(col("c").eq(lit("u")), lit(1.0))], lit(0.0)),   # one-hot
        CaseWhen([(col("x").gt(lit(0.25)), lit(1.0))], lit(0.0)),  # binarizer
        CaseWhen([(col("x").eq(lit(0.5)), lit(0.0))], lit(2.0)),
        col("x"),
        col("y") * lit(2.0),
    ]


class TestTranslationMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(trees(), st.sampled_from([0, 1]))
    def test_tree_to_expression(self, nested, value_index):
        features = indicator_features()
        got = tree_to_expression(ref.to_tree(nested), features, value_index)
        assert got == ref.translate(nested, features, value_index)

    @settings(max_examples=50, deadline=None)
    @given(trees())
    def test_leaf_literals_are_python_floats(self, nested):
        expr = tree_to_expression(ref.to_tree(nested), [col(f"x{k}") for k in
                                                        range(N_FEATURES)], 1)
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, CaseWhen):
                pending += [value for _, value in node.branches] + [node.default]
            else:
                assert type(node.value) is float


class TestCompaction:
    def test_unchanged_tree_is_returned_as_is(self):
        tree = ref.to_tree((0, 0.5, ((1.0, 0.0), 3), ((0.0, 1.0), 4), 7))
        assert prune_tree(tree, [Interval.UNKNOWN]) is tree
        assert collapse_uniform_subtrees(tree) is tree

    def test_root_decided_away(self):
        nested = (0, 0.5, ((1.0,), 3),
                  (1, 0.0, ((2.0,), 1), ((3.0,), 2), 4), 7)
        pruned = prune_tree(ref.to_tree(nested), [Interval.point(1.0)])
        assert pruned.feature.tolist() == [1, -1, -1]
        assert pruned.left.tolist() == [1, -1, -1]
        assert pruned.right.tolist() == [2, -1, -1]
        assert pruned.value[:, 0].tolist() == [0.0, 2.0, 3.0]
        assert pruned.n_samples.tolist() == [4, 1, 2]

    def test_arrays_are_read_only(self):
        tree = ref.to_tree((0, 0.5, ((1.0,), 3), ((1.0,), 4), 7))
        collapsed = collapse_uniform_subtrees(tree)
        assert len(collapsed) == 1 and collapsed.n_samples.tolist() == [7]
        for candidate in (tree, collapsed):
            for name in FIELDS:
                with pytest.raises(ValueError):
                    getattr(candidate, name)[0] = 0
