"""Constraint propagation through trained-pipeline featurizers.

The heart of predicate-based model pruning and data-induced optimization
(paper §4): constraints on model *inputs* (from WHERE-clause predicates or
from min/max column statistics) are pushed through Scaler/OneHotEncoder/
Concat/... operators to become per-feature :class:`Interval` constraints at
the model, where they prune tree branches and fold linear terms.

Numeric constraints are intervals with open/closed endpoints; string
constraints are equality or membership sets (which one-hot encoders turn
into exact {0,1} output intervals — the paper's Fig. 3 step ➌).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.learn.tree import Tree
from repro.onnxlite.graph import Graph, Node
from repro.onnxlite.ops import infer_edge_info


@dataclass(frozen=True)
class Interval:
    """A numeric interval with optionally-open endpoints.

    ``may_be_nan`` adds NaN to the set: a column with nulls (statistics
    with a non-zero or unknown ``null_count``), or no knowledge at all
    (:attr:`UNKNOWN`). A tree sends NaN right (``NaN <= t`` is false), so
    such an interval never decides a split left; a comparison in a WHERE
    clause fails on NaN, so its interval has no NaN.
    """

    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False
    may_be_nan: bool = False

    UNKNOWN: ClassVar["Interval"]  # assigned below

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def at_most(cls, value: float, strict: bool = False) -> "Interval":
        return cls(-math.inf, value, high_open=strict)

    @classmethod
    def at_least(cls, value: float, strict: bool = False) -> "Interval":
        return cls(value, math.inf, low_open=strict)

    @property
    def is_point(self) -> bool:
        return (self.low == self.high and not self.low_open
                and not self.high_open and not self.may_be_nan)

    @property
    def is_unbounded(self) -> bool:
        return self.low == -math.inf and self.high == math.inf

    @property
    def is_empty(self) -> bool:
        if self.may_be_nan:
            return False
        if self.low > self.high:
            return True
        if self.low == self.high and (self.low_open or self.high_open):
            return True
        return False

    # -- decidability of a split ``x <= threshold`` -------------------------
    def always_leq(self, threshold: float) -> bool:
        """True when every value in the interval satisfies ``x <= t``.

        Holds when ``high <= t`` regardless of openness (an open upper
        bound at ``t`` means values are strictly below ``t``, which still
        satisfy the split) and NaN is not in the interval.
        """
        return self.high <= threshold and not self.may_be_nan

    def never_leq(self, threshold: float) -> bool:
        """True when no value in the interval satisfies ``x <= t`` (NaN
        does not)."""
        return self.low > threshold or (self.low == threshold and self.low_open)

    # -- refinement and arithmetic ------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        low, low_open = max((self.low, self.low_open), (other.low, other.low_open))
        high, high_open = min((self.high, self.high_open),
                              (other.high, other.high_open),
                              key=lambda pair: (pair[0], not pair[1]))
        return Interval(low, high, low_open, high_open,
                        self.may_be_nan and other.may_be_nan)

    def shift_scale(self, offset: float, scale: float) -> "Interval":
        """Image under ``(x - offset) * scale`` (a Scaler feature)."""
        low = (self.low - offset) * scale if math.isfinite(self.low) else \
            (-math.inf if scale >= 0 else math.inf)
        high = (self.high - offset) * scale if math.isfinite(self.high) else \
            (math.inf if scale >= 0 else -math.inf)
        if scale >= 0:
            return Interval(low, high, self.low_open, self.high_open,
                            self.may_be_nan)
        return Interval(high, low, self.high_open, self.low_open,
                        self.may_be_nan)

    def refined_leq(self, threshold: float) -> "Interval":
        """Intersection with ``(-inf, threshold]`` (descending a left branch)."""
        return self.intersect(Interval.at_most(threshold))

    def refined_gt(self, threshold: float) -> "Interval":
        """Intersection with ``(threshold, inf)`` or NaN (descending a right
        branch)."""
        return self.intersect(Interval(threshold, math.inf, low_open=True,
                                       may_be_nan=True))

    def __repr__(self):
        left = "(" if self.low_open else "["
        right = ")" if self.high_open else "]"
        nan = " or NaN" if self.may_be_nan else ""
        return f"{left}{self.low}, {self.high}{right}{nan}"


Interval.UNKNOWN = Interval(may_be_nan=True)

UNIT = Interval(0.0, 1.0)  # one-hot/binarizer outputs always land here


@dataclass(frozen=True)
class StringConstraint:
    """Constraint on a string-valued edge: membership in a value set."""

    values: Tuple[str, ...]

    @classmethod
    def equal(cls, value: str) -> "StringConstraint":
        return cls((value,))

    @property
    def is_point(self) -> bool:
        return len(self.values) == 1


# One constraint per edge: numeric edges carry one Interval per feature
# position; string edges carry an optional StringConstraint.
EdgeConstraint = Union[List[Interval], Optional[StringConstraint]]


@dataclass
class InputConstraints:
    """Constraints on graph inputs, keyed by input name."""

    numeric: Dict[str, Interval]
    strings: Dict[str, StringConstraint]

    @classmethod
    def empty(cls) -> "InputConstraints":
        return cls({}, {})

    def is_empty(self) -> bool:
        return not self.numeric and not self.strings


def propagate(graph: Graph, constraints: InputConstraints) -> Dict[str, List[Interval]]:
    """Per-edge feature-interval vectors for every *numeric* edge.

    String edges are tracked internally (for OneHotEncoder/LabelEncoder) but
    only numeric interval vectors are returned.
    """
    edge_info = infer_edge_info(graph)
    numeric: Dict[str, List[Interval]] = {}
    strings: Dict[str, Optional[StringConstraint]] = {}

    for tensor in graph.inputs:
        if tensor.dtype == "string":
            strings[tensor.name] = constraints.strings.get(tensor.name)
        else:
            interval = constraints.numeric.get(tensor.name, Interval.UNKNOWN)
            numeric[tensor.name] = [interval] * max(tensor.width, 1)

    for node in graph.topological_nodes():
        _propagate_node(node, numeric, strings, edge_info)
    return numeric


def _propagate_node(node: Node, numeric, strings, edge_info) -> None:
    op = node.op_type
    if op == "Scaler":
        source = numeric.get(node.inputs[0])
        width = edge_info[node.outputs[0]].width
        offsets = np.broadcast_to(np.asarray(node.attrs["offset"], dtype=np.float64),
                                  (width,))
        scales = np.broadcast_to(np.asarray(node.attrs["scale"], dtype=np.float64),
                                 (width,))
        if source is None:
            numeric[node.outputs[0]] = [Interval.UNKNOWN] * width
            return
        numeric[node.outputs[0]] = [
            source[i].shift_scale(float(offsets[i]), float(scales[i]))
            for i in range(width)
        ]
        return

    if op == "OneHotEncoder":
        categories = [str(c) for c in np.asarray(node.attrs["categories"])]
        constraint = strings.get(node.inputs[0])
        if constraint is None and node.inputs[0] in numeric:
            # Numeric categorical input with a point interval.
            vector = numeric[node.inputs[0]]
            if vector and vector[0].is_point:
                constraint = StringConstraint.equal(_format_number(vector[0].low))
        if constraint is None:
            numeric[node.outputs[0]] = [UNIT] * len(categories)
            return
        allowed = set(constraint.values)
        out: List[Interval] = []
        for category in categories:
            if category not in allowed:
                out.append(Interval.point(0.0))
            elif constraint.is_point:
                out.append(Interval.point(1.0))
            else:
                out.append(UNIT)
        numeric[node.outputs[0]] = out
        return

    if op == "LabelEncoder":
        constraint = strings.get(node.inputs[0])
        if constraint is not None and constraint.is_point:
            keys = [str(k) for k in np.asarray(node.attrs["keys"])]
            values = np.asarray(node.attrs["values"], dtype=np.float64)
            default = float(node.attrs.get("default", -1.0))
            value = constraint.values[0]
            mapped = values[keys.index(value)] if value in keys else default
            numeric[node.outputs[0]] = [Interval.point(float(mapped))]
        else:
            numeric[node.outputs[0]] = [Interval.UNKNOWN]
        return

    if op == "Concat":
        out: List[Interval] = []
        for name in node.inputs:
            vector = numeric.get(name)
            if vector is None:
                width = max(edge_info[name].width, 1)
                vector = [Interval.UNKNOWN] * width
            out.extend(vector)
        numeric[node.outputs[0]] = out
        return

    if op == "FeatureExtractor":
        source = numeric.get(node.inputs[0], [])
        indices = list(node.attrs["indices"])
        numeric[node.outputs[0]] = [
            source[i] if i < len(source) else Interval.UNKNOWN for i in indices
        ]
        return

    if op == "Constant":
        value = np.atleast_1d(np.asarray(node.attrs["value"]))
        if value.dtype.kind == "U":
            strings[node.outputs[0]] = StringConstraint.equal(str(value[0]))
            return
        numeric[node.outputs[0]] = [Interval.point(float(v)) for v in value]
        return

    if op == "Imputer":
        source = numeric.get(node.inputs[0])
        width = edge_info[node.outputs[0]].width
        values = np.broadcast_to(
            np.asarray(node.attrs["imputed_values"], dtype=np.float64),
            (width,))
        out = []
        for i in range(width):
            interval = source[i] if source and i < len(source) else Interval.UNKNOWN
            fill = float(values[i])
            # Output is either the (non-NaN) input or the fill value: hull.
            out.append(Interval(min(interval.low, fill),
                                max(interval.high, fill)))
        numeric[node.outputs[0]] = out
        return

    if op == "Binarizer":
        source = numeric.get(node.inputs[0])
        width = edge_info[node.outputs[0]].width
        threshold = float(node.attrs.get("threshold", 0.0))
        out = []
        for i in range(width):
            interval = source[i] if source and i < len(source) else Interval.UNKNOWN
            # NaN > threshold is false: NaN binarizes to 0.
            if interval.never_leq(threshold) and not interval.may_be_nan:
                out.append(Interval.point(1.0))
            elif interval.high <= threshold and not interval.is_unbounded:
                out.append(Interval.point(0.0))
            else:
                out.append(UNIT)
        numeric[node.outputs[0]] = out
        return

    if op in ("Identity", "Cast"):
        if node.inputs[0] in numeric:
            numeric[node.outputs[0]] = list(numeric[node.inputs[0]])
        if node.inputs[0] in strings:
            strings[node.outputs[0]] = strings[node.inputs[0]]
        return

    # Models and anything else: outputs unconstrained.
    for output in node.outputs:
        width = max(edge_info[output].width, 1)
        numeric[output] = [Interval.UNKNOWN] * width


def _format_number(value: float) -> str:
    """Render a numeric category value as its string form (int-like first)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Tree rewrites: per-node decisions, then one compaction
# ---------------------------------------------------------------------------

def prune_tree(tree: Tree, intervals: Sequence[Interval]) -> Tree:
    """Remove branches unreachable under the per-feature intervals.

    The constraint vector is *refined* while descending (taking the left
    branch implies ``x <= t``), so nested splits on the same feature prune
    transitively. A split the intervals decide is replaced by the child it
    always takes. Semantics-preserving for every input row satisfying the
    constraints.
    """
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    stand_in = list(range(len(tree)))  # the node whose subtree replaces each
    pending = [(0, {})]
    while pending:
        node, bounds = pending.pop()
        if left[node] < 0:
            continue
        f, t = feature[node], threshold[node]
        interval = bounds.get(f, intervals[f] if f < len(intervals)
                              else Interval.UNKNOWN)
        if interval.always_leq(t):
            stand_in[node] = left[node]
            pending.append((left[node], bounds))
        elif interval.never_leq(t):
            stand_in[node] = right[node]
            pending.append((right[node], bounds))
        else:
            pending.append((left[node], {**bounds, f: interval.refined_leq(t)}))
            pending.append((right[node], {**bounds, f: interval.refined_gt(t)}))
    for node in reversed(range(len(tree))):  # a child's id exceeds its parent's
        stand_in[node] = stand_in[stand_in[node]]
    return compact_tree(tree, stand_in[0],
                        [stand_in[child] if child >= 0 else -1 for child in left],
                        [stand_in[child] if child >= 0 else -1 for child in right],
                        range(len(tree)))


def collapse_uniform_subtrees(tree: Tree) -> Tree:
    """Merge sibling leaves with identical values into one leaf."""
    return merge_sibling_leaves(tree, np.array_equal)


def merge_sibling_leaves(tree: Tree, mergeable) -> Tree:
    """Bottom up, an internal node whose two children are leaves (or have
    become leaves) with value rows that ``mergeable(left, right)`` accepts
    becomes one leaf: the left child's value, the node's ``n_samples``."""
    left, right = tree.left.tolist(), tree.right.tolist()
    value_row = list(range(len(tree)))
    for node in reversed(range(len(tree))):  # children before their parent
        a, b = left[node], right[node]
        if a >= 0 and left[a] < 0 and left[b] < 0 and mergeable(
                tree.value[value_row[a]], tree.value[value_row[b]]):
            left[node] = right[node] = -1
            value_row[node] = value_row[a]
    return compact_tree(tree, 0, left, right, value_row)


def compact_tree(tree: Tree, root: int, left: Sequence[int],
                 right: Sequence[int], value_row: Sequence[int]) -> Tree:
    """The tree reached from ``root`` through ``left``/``right`` (children
    per node id of ``tree``, -1 for a leaf), renumbered in pre-order.

    Every node keeps its ``n_samples`` and, while it has children, its
    split; a leaf takes the value row ``value_row[node]``. Returns
    ``tree`` itself when every node is kept as it was.
    """
    order = []
    pending = [root]
    while pending:
        node = pending.pop()
        order.append(node)
        if left[node] >= 0:
            pending += (right[node], left[node])
    if len(order) == len(tree):
        return tree
    order = np.asarray(order)
    new_id = np.empty(len(tree), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    left, right = np.asarray(left)[order], np.asarray(right)[order]
    leaf = left < 0
    return Tree(np.where(leaf, -1, tree.feature[order]),
                np.where(leaf, 0.0, tree.threshold[order]),
                np.where(leaf, -1, new_id[left]),
                np.where(leaf, -1, new_id[right]),
                np.where(leaf[:, None],
                         tree.value[np.asarray(value_row)[order]], 0.0),
                tree.n_samples[order])
