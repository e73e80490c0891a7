"""Predicate-based model pruning (paper §4.1, data-to-model).

Reads WHERE-clause predicates that constrain model inputs and uses them to
simplify the trained pipeline:

1. equality predicates replace graph inputs with ``Constant`` nodes (the
   input no longer needs to reach the model — Fig. 3 step ➋);
2. equality/range information is propagated through featurizers
   (Scaler/OneHotEncoder/Concat, Fig. 3 step ➌) via
   :mod:`repro.core.rules.intervals`;
3. tree-based models are pruned branch-by-branch; linear models fold
   constant features into the intercept;
4. predicates on the *outputs* of the pipeline (e.g.
   ``p.risk_of_covid = 'high'``) collapse single-tree leaves that can never
   satisfy the predicate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.rules.base import (
    Rule,
    RuleResult,
    memoized,
    predict_nodes,
    replace_predict,
)
from repro.core.rules.intervals import (
    InputConstraints,
    Interval,
    StringConstraint,
    collapse_uniform_subtrees,
    merge_sibling_leaves,
    propagate,
    prune_tree,
)
from repro.learn.tree import Tree
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    conjuncts,
)
from repro.relational.logical import Filter, PlanNode, Predict, walk
from repro.storage.catalog import Catalog
from repro.onnxlite.graph import Graph, Node


class PredicateBasedModelPruning(Rule):
    """The data-to-model cross-optimization."""

    name = "predicate_based_model_pruning"

    def apply(self, plan: PlanNode, catalog: Catalog) -> RuleResult:
        result = RuleResult(plan=plan)
        for predict in predict_nodes(result.plan):
            new_predict, info = _prune_one_predict(result.plan, predict, catalog)
            if new_predict is not None:
                result.plan = replace_predict(result.plan, predict, new_predict)
                result.applied = True
                result.merge_info(info)
        return result


def _prune_one_predict(plan: PlanNode, predict: Predict,
                       catalog: Catalog) -> Tuple[Optional[Predict], Dict]:
    input_constraints = extract_input_constraints(predict, catalog)
    output_predicates = tuple(extract_output_predicates(plan, predict))
    if input_constraints.is_empty() and not output_predicates:
        return None, {}
    intervals = propagate(predict.graph, input_constraints)
    key = (PredicateBasedModelPruning.name, predict.graph,
           box_key(predict.graph, input_constraints, intervals),
           output_predicates, tuple(predict.output_columns))
    graph, constantized, info = memoized(catalog, predict, key, lambda: _prune(
        predict, input_constraints, intervals, output_predicates))
    if graph is None:
        return None, {}
    new_mapping = {k: v for k, v in predict.input_mapping.items()
                   if k not in constantized}
    return predict.replace(graph=graph, input_mapping=new_mapping), info


def _prune(predict: Predict, input_constraints: InputConstraints,
           intervals: Dict[str, List[Interval]],
           output_predicates: Tuple[Expression, ...]):
    """``(graph, constantized inputs, info)``; graph is None when nothing
    changed. ``intervals`` is ``propagate(predict.graph, ...)``."""
    graph = predict.graph.copy()
    info: Dict[str, object] = {}
    before_nodes = _tree_node_total(graph)

    # Step 1: equality predicates -> Constant nodes, inputs removed. A
    # Constant propagates the point its predicate did, so ``intervals``
    # still holds for the constantized graph.
    constantized = _constantize_equal_inputs(graph, input_constraints)
    if constantized:
        info["inputs_constantized"] = list(constantized)

    # Step 2+3: prune models by the propagated constraints.
    _prune_models(graph, intervals)

    # Step 4: output-predicate pruning (single decision trees only).
    for predicate in output_predicates:
        _prune_by_output_predicate(graph, predict, predicate)

    after_nodes = _tree_node_total(graph)
    info["tree_nodes_before"] = before_nodes
    info["tree_nodes_after"] = after_nodes
    if not constantized and after_nodes >= before_nodes:
        return None, (), {}
    graph.validate()
    return graph, tuple(constantized), info


# ---------------------------------------------------------------------------
# The memo key: what of the box the pruned graph depends on
# ---------------------------------------------------------------------------

def box_key(graph: Graph, constraints: InputConstraints,
            intervals: Dict[str, List[Interval]]) -> tuple:
    """A key of ``constraints`` on which the pruned ``graph`` depends
    alone: two boxes with equal keys prune it to equal graphs.

    Exact for what enters the graph as a value: each constantized
    input's point (a ``Constant``), each string set, and every interval
    that reaches a linear model (intercept folding). Snapped for trees:
    :func:`prune_tree` reads a feature's interval only through the
    decisions of :func:`_split_decisions`, so a bound that moves within
    one threshold cell keeps the key.
    """
    key: List[object] = []
    for info in graph.inputs:
        if info.dtype == "string":
            constraint = constraints.strings.get(info.name)
            key.append(None if constraint is None else constraint.values)
        else:
            interval = constraints.numeric.get(info.name)
            key.append(interval is not None and interval.is_point
                       and float(interval.low).hex())
    for node in graph.nodes:
        vector = intervals.get(node.inputs[0]) if node.inputs else None
        if vector is None:
            continue
        if node.op_type in _TREE_MODELS:
            key.append(_split_decisions(node.attrs["trees"], vector))
        elif node.op_type in _LINEAR_MODELS:
            key.append(tuple(map(_exact, vector)))
    return tuple(key)


def _split_decisions(trees: List[Tree], vector: List[Interval]) -> object:
    """Per split ``x[f] <= t`` of every tree: whether the feature's
    interval lies at or below ``t``, lies above it, may be NaN, and has a
    NaN bound — packed into bytes.

    These bits decide :func:`prune_tree`. Descending a branch intersects
    the interval with ``x <= t'`` or ``x > t'`` (or NaN) for the tree's
    own thresholds ``t'``, so below it the interval lies at or below ``t``
    exactly when the box's does or a left ancestor's ``t' <= t``, and
    above ``t`` when the box's does or a right ancestor's ``t' >= t``; a
    left ancestor clears may-be-NaN. A NaN bound never moves (it compares
    false). A tree with a NaN threshold keys on the exact intervals.
    """
    feature = np.concatenate([tree.feature[tree.left >= 0] for tree in trees])
    threshold = np.concatenate([tree.threshold[tree.left >= 0]
                                for tree in trees])
    if np.isnan(threshold).any():
        return tuple(map(_exact, vector))
    width = max(len(vector), int(feature.max(initial=-1)) + 1)
    padded = list(vector) + [Interval.UNKNOWN] * (width - len(vector))
    low = np.array([interval.low for interval in padded])[feature]
    high = np.array([interval.high for interval in padded])[feature]
    low_open = np.array([interval.low_open for interval in padded])[feature]
    may_be_nan = np.array([interval.may_be_nan for interval in padded])[feature]
    return np.packbits(np.concatenate([
        high <= threshold,
        (low > threshold) | ((low == threshold) & low_open),
        may_be_nan, np.isnan(low), np.isnan(high)])).tobytes()


def _exact(interval: Interval) -> tuple:
    """An interval as a key that tells ``-0.0`` from ``0.0``."""
    return (float(interval.low).hex(), float(interval.high).hex(),
            interval.low_open, interval.high_open, interval.may_be_nan)


_TREE_MODELS = ("TreeEnsembleClassifier", "TreeEnsembleRegressor")
_LINEAR_MODELS = ("LinearClassifier", "LinearRegressor")


# ---------------------------------------------------------------------------
# Graph-level machinery (shared with the data-induced rule)
# ---------------------------------------------------------------------------

def prune_graph_with_constraints(graph: Graph,
                                 constraints: InputConstraints) -> Dict[str, object]:
    """Propagate input constraints and prune/fold every model in place."""
    return _prune_models(graph, propagate(graph, constraints))


def _prune_models(graph: Graph,
                  intervals: Dict[str, List[Interval]]) -> Dict[str, object]:
    """Prune every tree and fold every linear model by the per-edge
    ``intervals``, in place."""
    info: Dict[str, object] = {"trees_pruned": 0}
    for node in graph.nodes:
        if node.op_type in _TREE_MODELS:
            vector = intervals.get(node.inputs[0])
            if vector is None:
                continue
            pruned_trees = []
            for tree in node.attrs["trees"]:
                pruned = prune_tree(tree, vector)
                pruned = collapse_uniform_subtrees(pruned)
                if len(pruned) < len(tree):
                    info["trees_pruned"] += 1  # type: ignore[operator]
                pruned_trees.append(pruned)
            node.attrs["trees"] = pruned_trees
        elif node.op_type in _LINEAR_MODELS:
            vector = intervals.get(node.inputs[0])
            if vector is not None:
                _fold_linear_constants(node, vector)
    return info


def _fold_linear_constants(node: Node, vector) -> None:
    """Fold point-interval features into the intercept and zero them out.

    This is the paper's "statically pre-computing ... multiplications in
    linear models": a feature known to be constant contributes
    ``coef * value`` to the intercept at compile time.
    """
    if node.op_type == "LinearClassifier":
        coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64).copy()
        intercepts = np.asarray(node.attrs["intercepts"], dtype=np.float64).copy()
        for j, interval in enumerate(vector[: coefficients.shape[1]]):
            if interval.is_point and np.any(coefficients[:, j] != 0.0):
                intercepts += coefficients[:, j] * interval.low
                coefficients[:, j] = 0.0
        node.attrs["coefficients"] = coefficients
        node.attrs["intercepts"] = intercepts
    else:
        coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64).ravel().copy()
        intercept = float(node.attrs.get("intercept", 0.0))
        for j, interval in enumerate(vector[: len(coefficients)]):
            if interval.is_point and coefficients[j] != 0.0:
                intercept += coefficients[j] * interval.low
                coefficients[j] = 0.0
        node.attrs["coefficients"] = coefficients
        node.attrs["intercept"] = intercept


def _constantize_equal_inputs(graph: Graph,
                              constraints: InputConstraints) -> List[str]:
    """Replace equality-constrained inputs with Constant nodes."""
    replaced: List[str] = []
    for info in list(graph.inputs):
        name = info.name
        if info.dtype == "string":
            constraint = constraints.strings.get(name)
            if constraint is not None and constraint.is_point:
                graph.remove_input(name)
                graph.add_node(Node("Constant", [], [name], {
                    "value": np.asarray([constraint.values[0]], dtype=np.str_),
                }))
                replaced.append(name)
        else:
            interval = constraints.numeric.get(name)
            if interval is not None and interval.is_point:
                graph.remove_input(name)
                graph.add_node(Node("Constant", [], [name], {
                    "value": np.asarray([interval.low]),
                }))
                replaced.append(name)
    return replaced


def _tree_node_total(graph: Graph) -> int:
    total = 0
    for node in graph.nodes:
        if node.op_type.startswith("TreeEnsemble"):
            total += sum(len(tree) for tree in node.attrs["trees"])
    return total


# ---------------------------------------------------------------------------
# Predicate extraction from the plan
# ---------------------------------------------------------------------------

def extract_input_constraints(predict: Predict, catalog: Catalog) -> InputConstraints:
    """Constraints on model inputs implied by filters below the Predict.

    Every Filter in the Predict subtree restricts all surviving rows; a
    conjunct of the form ``column <op> literal`` on a column that flows
    (possibly through pass-through/renaming Projects) into the Predict
    constrains the matching model input. The walk maintains the rename map
    from subtree-level column names to Predict-level names so predicates
    pushed below a re-aliasing Project (e.g. ``pi.asthma`` under the CTE
    exposed as ``d.asthma``) are still found.
    """
    column_to_input = {column: model_input
                       for model_input, column in predict.input_mapping.items()}
    constraints = InputConstraints.empty()
    identity = {name: name for name in column_to_input}

    def visit(node, rename: Dict[str, str]) -> None:
        if isinstance(node, Filter):
            for conjunct in conjuncts(node.predicate):
                parsed = parse_constraint(conjunct)
                if parsed is None:
                    continue
                column, constraint = parsed
                exposed = rename.get(column)
                model_input = column_to_input.get(exposed) if exposed else None
                if model_input is not None:
                    _merge_constraint(constraints, model_input, constraint)
            visit(node.child, rename)
            return
        from repro.relational.logical import Project
        if isinstance(node, Project):
            # Compose renames through pass-through outputs (name = col(x)).
            inner: Dict[str, str] = {}
            for name, expr in node.outputs:
                if isinstance(expr, ColumnRef) and name in rename:
                    inner[expr.name] = rename[name]
            visit(node.child, inner)
            return
        for child in node.children():
            visit(child, rename)

    visit(predict.child, identity)
    return constraints


def _merge_constraint(constraints: InputConstraints, name: str, value) -> None:
    if isinstance(value, Interval):
        existing = constraints.numeric.get(name, Interval.UNKNOWN)
        constraints.numeric[name] = existing.intersect(value)
    else:
        existing = constraints.strings.get(name)
        if existing is None:
            constraints.strings[name] = value
        else:
            merged = tuple(v for v in existing.values if v in set(value.values))
            if merged:
                constraints.strings[name] = StringConstraint(merged)


def parse_constraint(expr: Expression):
    """Parse ``col <op> literal`` shapes into (column, Interval|StringConstraint).

    Returns None for unsupported shapes (they simply don't help pruning).
    """
    if isinstance(expr, BinaryOp) and expr.op in ("=", "<", "<=", ">", ">="):
        column, literal, op = _normalize_comparison(expr)
        if column is None:
            return None
        if isinstance(literal.value, str):
            if op == "=":
                return column, StringConstraint.equal(literal.value)
            return None
        value = float(literal.value)
        if op == "=":
            return column, Interval.point(value)
        if op == "<":
            return column, Interval.at_most(value, strict=True)
        if op == "<=":
            return column, Interval.at_most(value)
        if op == ">":
            return column, Interval.at_least(value, strict=True)
        return column, Interval.at_least(value)
    if isinstance(expr, Between) and isinstance(expr.operand, ColumnRef):
        if isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
            if isinstance(expr.low.value, str):
                return None
            return expr.operand.name, Interval(float(expr.low.value),
                                               float(expr.high.value))
    if isinstance(expr, InList) and isinstance(expr.operand, ColumnRef):
        if all(isinstance(v, str) for v in expr.values):
            return expr.operand.name, StringConstraint(tuple(expr.values))
        values = [float(v) for v in expr.values]
        return expr.operand.name, Interval(min(values), max(values))
    return None


def _normalize_comparison(expr: BinaryOp):
    """Orient ``col <op> lit`` (flipping ``lit <op> col``)."""
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.right, expr.op
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, expr.left, flip[expr.op]
    return None, None, None


# ---------------------------------------------------------------------------
# Output-predicate pruning
# ---------------------------------------------------------------------------

def extract_output_predicates(plan: PlanNode, predict: Predict) -> List[Expression]:
    """Filter conjuncts over this Predict's output columns, anywhere above."""
    output_names = {name for name, _, _ in predict.output_columns}
    found: List[Expression] = []
    for node in walk(plan):
        if isinstance(node, Filter):
            for conjunct in conjuncts(node.predicate):
                refs = conjunct.referenced_columns()
                if refs and refs <= output_names:
                    found.append(conjunct)
    return found


def _prune_by_output_predicate(graph: Graph, predict: Predict,
                               predicate: Expression) -> None:
    """Collapse single-decision-tree leaves that all fail the predicate.

    Sound only for a classifier of exactly one tree (DT): rows reaching a
    failing leaf are filtered out downstream, so two failing sibling leaves
    can merge — the surviving rows' results are unchanged (paper §4.1,
    "traverse the model bottom up ... pruning all other nodes"). Ensemble
    members cannot be pruned this way because per-tree scores combine.
    """
    parsed = parse_constraint(predicate)
    if parsed is None:
        return
    column, constraint = parsed
    graph_output = _graph_output_for(predict, column)
    if graph_output is None:
        return
    for node in graph.nodes:
        if node.op_type != "TreeEnsembleClassifier":
            continue
        trees = node.attrs["trees"]
        if len(trees) != 1 or node.attrs.get("post_transform", "NONE") != "NONE":
            continue
        classes = np.asarray(node.attrs["classes"])
        if graph_output == "label":
            if not isinstance(constraint, StringConstraint):
                continue
            allowed = set(constraint.values)

            def fails(value: np.ndarray) -> bool:
                return str(classes[int(np.argmax(value))]) not in allowed
        elif graph_output == "score" and isinstance(constraint, Interval) \
                and len(classes) == 2:
            def fails(value: np.ndarray, _c=constraint) -> bool:
                score = float(value[1])
                return Interval.point(score).intersect(_c).is_empty
        else:
            continue
        node.attrs["trees"] = [_merge_failing_leaves(trees[0], fails)]


def _graph_output_for(predict: Predict, exposed_column: str) -> Optional[str]:
    for name, graph_output, _ in predict.output_columns:
        if name == exposed_column:
            return graph_output
    return None


def _merge_failing_leaves(tree: Tree, fails) -> Tree:
    """Bottom-up merge of sibling leaves that both fail the predicate."""
    return merge_sibling_leaves(tree, lambda a, b: fails(a) and fails(b))
