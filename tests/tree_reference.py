"""An independent tree oracle on nested tuples.

A leaf is ``(value, n_samples)`` with ``value`` a tuple of floats; a split
is ``(feature, threshold, left, right, n_samples)`` and sends
``x[feature] <= threshold`` to ``left`` (NaN goes right). The rewrites
below are the recursive forms the engine's array rules
(``repro.core.rules.intervals``, ``tree_to_expression``) must equal: each
node is rebuilt on the way back up, with no node ids and no compaction.
They share only :class:`Interval` (the box semantics under test are the
same on both sides) and ``_split_condition`` (the indicator and threshold
folds, pinned by their own tests) with the engine. :func:`unfolded` is
the CASE form with neither fold, the oracle for both.
"""

from __future__ import annotations

import numpy as np

from repro.core.rules.intervals import Interval
from repro.core.rules.ml_to_sql import _split_condition
from repro.learn.tree import Tree
from repro.relational.expressions import CaseWhen, Literal, lit


def is_leaf(node) -> bool:
    return len(node) == 2


def to_tree(node) -> Tree:
    """The :class:`Tree` of a nested tree: its nodes in pre-order."""
    feature, threshold, left, right, value, n_samples = ([] for _ in range(6))

    def visit(node) -> int:
        index = len(feature)
        feature.append(-1 if is_leaf(node) else node[0])
        threshold.append(0.0 if is_leaf(node) else node[1])
        left.append(-1)
        right.append(-1)
        value.append(node[0] if is_leaf(node) else None)
        n_samples.append(node[-1])
        if not is_leaf(node):
            left[index] = visit(node[2])
            right[index] = visit(node[3])
        return index

    visit(node)
    width = len(next(row for row in value if row is not None))
    rows = [row if row is not None else (0.0,) * width for row in value]
    return Tree(np.asarray(feature), np.asarray(threshold, dtype=float),
                np.asarray(left), np.asarray(right),
                np.asarray(rows, dtype=float), np.asarray(n_samples))


def assert_same_tree(got: Tree, want: Tree) -> None:
    """All six node arrays equal, dtypes and shapes included."""
    for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def from_tree(tree: Tree, node: int = 0):
    """The nested form of ``tree`` (of its subtree at ``node``)."""
    if tree.left[node] < 0:
        return tuple(tree.value[node].tolist()), int(tree.n_samples[node])
    return (int(tree.feature[node]), float(tree.threshold[node]),
            from_tree(tree, int(tree.left[node])),
            from_tree(tree, int(tree.right[node])),
            int(tree.n_samples[node]))


def walk(node, row):
    """The leaf one row reaches."""
    while not is_leaf(node):
        feature, threshold, left, right, _ = node
        node = left if row[feature] <= threshold else right
    return node


def prune(node, intervals, bounds=None):
    """Remove the branches the per-feature intervals decide, refining the
    interval of a split's feature on the way down each kept branch."""
    bounds = {} if bounds is None else bounds
    if is_leaf(node):
        return node
    feature, threshold, left, right, n_samples = node
    interval = bounds.get(feature, intervals[feature]
                          if feature < len(intervals) else Interval.UNKNOWN)
    if interval.always_leq(threshold):
        return prune(left, intervals, bounds)
    if interval.never_leq(threshold):
        return prune(right, intervals, bounds)
    return (feature, threshold,
            prune(left, intervals,
                  {**bounds, feature: interval.refined_leq(threshold)}),
            prune(right, intervals,
                  {**bounds, feature: interval.refined_gt(threshold)}),
            n_samples)


def _merge(node, mergeable):
    if is_leaf(node):
        return node
    feature, threshold, left, right, n_samples = node
    left, right = _merge(left, mergeable), _merge(right, mergeable)
    if is_leaf(left) and is_leaf(right) and mergeable(left[0], right[0]):
        return left[0], n_samples
    return feature, threshold, left, right, n_samples


def collapse(node):
    """Merge sibling leaves with identical values, bottom up."""
    return _merge(node, lambda a, b: np.array_equal(a, b))


def merge_failing_leaves(node, fails):
    """Merge sibling leaves whose values both fail, bottom up."""
    return _merge(node, lambda a, b: fails(np.asarray(a))
                  and fails(np.asarray(b)))


def translate(node, features, value_index: int):
    """MLtoSQL's depth-first nested CASE WHEN, folded splits skipped."""
    if is_leaf(node):
        return Literal(float(node[0][value_index]))
    feature, threshold, left, right, _ = node
    condition = _split_condition(features[feature], float(threshold))
    if isinstance(condition, Literal):
        return translate(left if condition.value else right, features,
                         value_index)
    return CaseWhen([(condition, translate(left, features, value_index))],
                    translate(right, features, value_index))


def unfolded(tree: Tree, features, value_index: int, node: int = 0):
    """Every split of ``tree``'s arrays as ``feature <= t``: the plain CASE
    form, with neither the indicator nor the threshold fold."""
    if tree.left[node] < 0:
        return lit(float(tree.value[node, value_index]))
    return CaseWhen(
        [(features[tree.feature[node]].le(lit(float(tree.threshold[node]))),
          unfolded(tree, features, value_index, tree.left[node]))],
        unfolded(tree, features, value_index, tree.right[node]))
