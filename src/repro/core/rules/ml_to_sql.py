"""MLtoSQL: compile a trained pipeline into SQL expressions (paper §5.1).

Replaces a whole Predict operator by a Project whose output expressions
reimplement the pipeline: scalers become arithmetic, one-hot indicators
become CASE expressions, decision trees become nested CASE WHEN chains
(depth-first, exactly the shape shown in §5.1), and logistic links expand
to ``1/(1+EXP(-margin))``. Each tree is one
:class:`~repro.relational.expressions.TreeCase` node: the pruned tree's
node arrays and one condition per split, never a node object per split
or leaf. Its ``expand()`` is the nested CASE WHEN; the SQL text, EXPLAIN
and the interpreted evaluator read that, and the compiler lowers the
arrays to the same route instruction.

A tree split never evaluates a scaler: a split on ``f(col) <= t``, where
``f`` is a monotone affine chain of one column (a scaler's ``(col - m) *
s``, ``± c``, ``* c``, ``/ c``), becomes ``col <= x*`` (``col >= x*`` when
``f`` decreases), with ``x*`` the IEEE boundary of ``f`` as evaluated —
so the split reads the raw column and decides every row, NaN and
infinities included, exactly as the unfolded one (see
:func:`_fold_thresholds`).

The transformation is all-or-nothing: if any operator cannot be expressed,
the rule raises :class:`UnsupportedOperatorError` and the optimizer keeps
the ML-runtime plan (matching the paper: "MLtoSQL currently transforms the
whole model pipeline to SQL or it fails").

Deep trees produce O(2^depth) CASE nodes whose branches the engine must all
evaluate — the very effect behind the paper's observation that MLtoSQL is a
21.7x win at depth 3 but a 2.3x *slowdown* at depth 20 (Fig. 10).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rules.base import (
    Rule,
    RuleResult,
    memoized,
    predict_nodes,
    replace_predict,
)
from repro.core.rules.intervals import compact_tree
from repro.errors import UnsupportedOperatorError
from repro.learn.tree import Tree
from repro.onnxlite.graph import Graph, Node
from repro.relational.expressions import (
    SPLIT_GE,
    SPLIT_IS,
    SPLIT_LE,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    TreeCase,
    UnaryOp,
    fold_constants,
    split_condition,
)
from repro.relational.logical import PlanNode, Predict, Project
from repro.storage.catalog import Catalog
from repro.storage.column import DataType

# An edge is either a vector of numeric expressions (one per feature) or a
# single string-valued expression (raw categorical column / label output).
EdgeExprs = Union[List[Expression], Expression]


class MLtoSQL(Rule):
    """The logical-to-physical transformation targeting the data engine.

    ``target`` (optional) restricts the rewrite to one Predict node, for
    queries invoking several models with different strategy choices.
    """

    name = "ml_to_sql"

    def __init__(self, target: Optional[Predict] = None):
        self.target = target

    def apply(self, plan: PlanNode, catalog: Catalog) -> RuleResult:
        result = RuleResult(plan=plan)
        for predict in predict_nodes(result.plan):
            if self.target is not None and predict is not self.target:
                continue
            wanted = tuple(graph_output
                           for _, graph_output, _ in predict.output_columns)
            key = (self.name, predict.graph,
                   tuple(predict.input_mapping.items()), wanted)
            expressions = memoized(catalog, predict, key, lambda: _translate(
                predict.graph, predict.input_mapping, wanted))
            kept = (predict.keep_columns if predict.keep_columns is not None
                    else predict.child.output_schema(catalog).names)
            outputs = [(name, ColumnRef(name)) for name in kept]
            outputs += [(exposed, expression) for (exposed, _, _), expression
                        in zip(predict.output_columns, expressions)]
            project = Project(predict.child, outputs)
            result.plan = replace_predict(result.plan, predict, project)
            result.applied = True
            result.info["predicts_converted"] = \
                result.info.get("predicts_converted", 0) + 1
        return result


def _translate(graph: Graph, input_mapping: Dict[str, str],
               wanted: Tuple[str, ...]) -> Tuple[Expression, ...]:
    """The folded expression of each ``wanted`` graph output."""
    expressions = graph_to_expressions(graph, input_mapping)
    missing = [name for name in wanted if name not in expressions]
    if missing:
        raise UnsupportedOperatorError(
            f"graph output {missing[0]!r} not produced by MLtoSQL")
    return tuple(fold_constants(expressions[name]) for name in wanted)


# ---------------------------------------------------------------------------
# Graph -> expression compilation
# ---------------------------------------------------------------------------

def graph_to_expressions(graph: Graph,
                         input_mapping: Dict[str, str]) -> Dict[str, Expression]:
    """Compile every graph output to a scalar Expression over plan columns.

    ``input_mapping``: graph input name -> plan column name.
    """
    edges: Dict[str, EdgeExprs] = {}
    for info in graph.inputs:
        column = input_mapping.get(info.name)
        if column is None:
            raise UnsupportedOperatorError(
                f"graph input {info.name!r} has no bound column"
            )
        if info.dtype == "string":
            edges[info.name] = ColumnRef(column)
        else:
            if info.width > 1:
                raise UnsupportedOperatorError(
                    "MLtoSQL requires per-column graph inputs"
                )
            edges[info.name] = [ColumnRef(column)]

    for node in graph.topological_nodes():
        handler = _HANDLERS.get(node.op_type)
        if handler is None:
            raise UnsupportedOperatorError(
                f"MLtoSQL cannot compile operator {node.op_type!r}"
            )
        handler(node, edges)

    outputs: Dict[str, Expression] = {}
    for name in graph.outputs:
        value = edges[name]
        if isinstance(value, Expression):
            outputs[name] = value
        elif len(value) == 1:
            outputs[name] = value[0]
        else:
            raise UnsupportedOperatorError(
                f"graph output {name!r} is a {len(value)}-wide vector; "
                "only scalar outputs convert to SQL"
            )
    return outputs


def _vector(edges: Dict[str, EdgeExprs], name: str) -> List[Expression]:
    value = edges[name]
    if isinstance(value, Expression):
        raise UnsupportedOperatorError(
            f"edge {name!r} is string-valued where a feature vector is needed"
        )
    return value


def _compile_scaler(node: Node, edges) -> None:
    source = _vector(edges, node.inputs[0])
    offsets = np.broadcast_to(np.asarray(node.attrs["offset"], dtype=np.float64),
                              (len(source),))
    scales = np.broadcast_to(np.asarray(node.attrs["scale"], dtype=np.float64),
                             (len(source),))
    edges[node.outputs[0]] = [
        (expr - Literal(float(offsets[i]))) * Literal(float(scales[i]))
        for i, expr in enumerate(source)
    ]


def _compile_one_hot(node: Node, edges) -> None:
    source = edges[node.inputs[0]]
    if not isinstance(source, Expression):
        source = source[0]
    out: List[Expression] = []
    for category in np.asarray(node.attrs["categories"]):
        value = str(category) if np.asarray(category).dtype.kind == "U" \
            else float(category)
        out.append(CaseWhen([(source.eq(Literal(value)), Literal(1.0))],
                            Literal(0.0)))
    edges[node.outputs[0]] = out


def _compile_label_encoder(node: Node, edges) -> None:
    source = edges[node.inputs[0]]
    if not isinstance(source, Expression):
        source = source[0]
    keys = np.asarray(node.attrs["keys"])
    values = np.asarray(node.attrs["values"], dtype=np.float64)
    default = float(node.attrs.get("default", -1.0))
    branches = [(source.eq(Literal(str(key) if keys.dtype.kind == "U"
                                   else float(key))),
                 Literal(float(value)))
                for key, value in zip(keys, values)]
    edges[node.outputs[0]] = [CaseWhen(branches, Literal(default))]


def _compile_concat(node: Node, edges) -> None:
    out: List[Expression] = []
    for name in node.inputs:
        value = edges[name]
        if isinstance(value, Expression):
            raise UnsupportedOperatorError("cannot concat a raw string edge")
        out.extend(value)
    edges[node.outputs[0]] = out


def _compile_feature_extractor(node: Node, edges) -> None:
    source = _vector(edges, node.inputs[0])
    edges[node.outputs[0]] = [source[i] for i in node.attrs["indices"]]


def _compile_constant(node: Node, edges) -> None:
    value = np.atleast_1d(np.asarray(node.attrs["value"]))
    if value.dtype.kind == "U":
        edges[node.outputs[0]] = Literal(str(value[0]))
    else:
        edges[node.outputs[0]] = [Literal(float(v)) for v in value]


def _compile_imputer(node: Node, edges) -> None:
    source = _vector(edges, node.inputs[0])
    values = np.broadcast_to(
        np.asarray(node.attrs["imputed_values"], dtype=np.float64),
        (len(source),))
    edges[node.outputs[0]] = [
        CaseWhen([(FunctionCall("isnan", [expr]), Literal(float(values[i])))],
                 expr)
        for i, expr in enumerate(source)
    ]


def _compile_binarizer(node: Node, edges) -> None:
    source = _vector(edges, node.inputs[0])
    threshold = float(node.attrs.get("threshold", 0.0))
    edges[node.outputs[0]] = [
        CaseWhen([(expr.gt(Literal(threshold)), Literal(1.0))], Literal(0.0))
        for expr in source
    ]


def _compile_normalizer(node: Node, edges) -> None:
    source = _vector(edges, node.inputs[0])
    norm = node.attrs.get("norm", "l2")
    if norm == "l2":
        total: Expression = source[0] * source[0]
        for expr in source[1:]:
            total = total + expr * expr
        denominator: Expression = FunctionCall("sqrt", [total])
    elif norm == "l1":
        total = FunctionCall("abs", [source[0]])
        for expr in source[1:]:
            total = total + FunctionCall("abs", [expr])
        denominator = total
    else:
        raise UnsupportedOperatorError("max-norm Normalizer has no SQL form here")
    edges[node.outputs[0]] = [expr / denominator for expr in source]


def _compile_identity(node: Node, edges) -> None:
    edges[node.outputs[0]] = edges[node.inputs[0]]


def _linear_margin(features: List[Expression], coefficients: np.ndarray,
                   intercept: float) -> Expression:
    """``sum coef_j * f_j + b``, skipping exact-zero coefficients.

    Zero-weight skipping is what makes MLtoSQL "automatically prune" unused
    features — the relational optimizer then drops their columns.
    """
    margin: Optional[Expression] = None
    for coefficient, feature in zip(coefficients, features):
        if coefficient == 0.0:
            continue
        term = Literal(float(coefficient)) * feature
        margin = term if margin is None else margin + term
    if margin is None:
        return Literal(float(intercept))
    if intercept != 0.0:
        margin = margin + Literal(float(intercept))
    return margin


def _class_literal(classes: np.ndarray, index: int) -> Literal:
    value = classes[index]
    if np.asarray(value).dtype.kind == "U":
        return Literal(str(value))
    return Literal(float(value))


def _compile_linear_classifier(node: Node, edges) -> None:
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64)
    intercepts = np.asarray(node.attrs["intercepts"], dtype=np.float64)
    classes = np.asarray(node.attrs["classes"])
    if len(classes) != 2 or coefficients.shape[0] != 1:
        raise UnsupportedOperatorError(
            "multi-class LinearClassifier is not supported by MLtoSQL"
        )
    features = _vector(edges, node.inputs[0])
    margin = _linear_margin(features, coefficients[0], float(intercepts[0]))
    positive = FunctionCall("sigmoid", [margin])
    label = CaseWhen([(margin.gt(Literal(0.0)), _class_literal(classes, 1))],
                     _class_literal(classes, 0))
    edges[node.outputs[0]] = label
    edges[node.outputs[1]] = [Literal(1.0) - positive, positive]


def _compile_linear_regressor(node: Node, edges) -> None:
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64).ravel()
    intercept = float(node.attrs.get("intercept", 0.0))
    features = _vector(edges, node.inputs[0])
    edges[node.outputs[0]] = [_linear_margin(features, coefficients, intercept)]


def tree_to_expression(tree: Tree, features: List[Expression],
                       value_index: int) -> Expression:
    """One tree as one :class:`TreeCase` (paper §5.1's nested CASE WHEN).

    Every split's condition comes from :func:`_split_conditions`, all of
    a tree's at once, and the node arrays are the tree's own, renumbered
    into internal nodes and leaves. A split whose condition folds to a
    constant keeps only the subtree it always takes; a tree left with no
    split is its leaf's :class:`Literal`.
    """
    internal = tree.left >= 0
    operands, split_operand, split_op, split_constant = _split_conditions(
        features, tree.feature[internal], tree.threshold[internal])
    constant = split_op > SPLIT_IS
    if constant.any():
        # Stand each constant split in by the child it always takes, the
        # way intervals.prune_tree does (a child's id exceeds its parent's).
        stand_in = np.arange(len(tree))
        taken = np.where(split_op[constant] == _ALWAYS, tree.left[internal][
            constant], tree.right[internal][constant])
        stand_in[np.flatnonzero(internal)[constant]] = taken
        for node in reversed(range(len(tree))):
            stand_in[node] = stand_in[stand_in[node]]
        left = np.where(internal, stand_in[tree.left], -1)
        right = np.where(internal, stand_in[tree.right], -1)
        return tree_to_expression(
            compact_tree(tree, int(stand_in[0]), left, right, range(len(tree))),
            features, value_index)
    if not internal[0]:
        return Literal(float(tree.value[0, value_index]))
    rank = np.cumsum(internal) - 1            # internal nodes, pre-order
    leaf_rank = np.cumsum(~internal) - 1      # leaves, pre-order
    child_code = np.where(internal, rank, ~leaf_rank)
    return TreeCase(operands, split_operand, split_op, split_constant,
                    child_code[tree.left[internal]],
                    child_code[tree.right[internal]],
                    tree.value[~internal, value_index])


#: The split codes :func:`_split_conditions` adds to TreeCase's: the
#: condition is constant true (the split always takes its left child) or
#: constant false.
_ALWAYS, _NEVER = SPLIT_IS + 1, SPLIT_IS + 2


def _split_condition(feature: Expression, threshold: float) -> Expression:
    """One split's ``feature <= threshold``, folded (see
    :func:`_split_conditions`), as an expression."""
    operands, _, (op,), (constant,) = _split_conditions(
        [feature], np.zeros(1, dtype=np.int64),
        np.array([threshold], dtype=np.float64))
    if op > SPLIT_IS:
        return Literal(bool(op == _ALWAYS))
    return split_condition(operands[0], int(op), float(constant))


def _split_conditions(features: List[Expression], feature_index: np.ndarray,
                      thresholds: np.ndarray
                      ) -> Tuple[List[Expression], np.ndarray, np.ndarray,
                                 np.ndarray]:
    """``features[feature_index[k]] <= thresholds[k]`` for every split k,
    as ``(operands, operand, op, constant)``: split k is
    ``operands[operand[k]] <op[k]> constant[k]`` in :class:`TreeCase`'s
    codes, or the constant :data:`_ALWAYS` / :data:`_NEVER`.

    A feature that is an affine chain of a column (see
    :func:`_affine_chain`) compares the raw column with the split's
    boundary; the boundaries of all splits whose chains have one shape
    come from one vectorized :func:`_fold_thresholds`. A split whose
    boundary does not fold, and every other feature, keeps
    :func:`_unfolded_split`. ``operands`` holds each distinct operand
    once.
    """
    indices = feature_index.tolist()
    chains = {index: _affine_chain(features[index]) for index in set(indices)}
    by_ops: Dict[tuple, List[int]] = {}  # chain ops -> its features
    for index, chain in chains.items():
        if chain is not None:
            by_ops.setdefault(chain[1], []).append(index)
    boundary = np.zeros(len(indices))
    increasing = np.zeros(len(indices), dtype=bool)
    folded = np.zeros(len(indices), dtype=bool)
    for ops, group in by_ops.items():
        row = np.full(max(chains) + 1, -1)
        row[group] = np.arange(len(group))
        splits = np.flatnonzero(row[feature_index] >= 0)
        constants = np.array([chains[index][2] for index in group])
        boundary[splits], increasing[splits], folded[splits] = _fold_thresholds(
            ops, constants[row[feature_index[splits]]], thresholds[splits])
    ops = np.where(increasing, SPLIT_LE, SPLIT_GE).astype(np.int8)
    slots: Dict[Expression, int] = {}
    operands: List[Expression] = []

    def slot(operand: Expression) -> int:
        found = slots.get(operand)
        if found is None:
            found = slots[operand] = len(operands)
            operands.append(operand)
        return found

    operand = np.zeros(len(indices), dtype=np.int64)
    for k in np.flatnonzero(folded).tolist():
        operand[k] = slot(chains[indices[k]][0])
    for k in np.flatnonzero(~folded).tolist():
        expr, ops[k], boundary[k] = _unfolded_split(features[indices[k]],
                                                    float(thresholds[k]))
        if expr is not None:
            operand[k] = slot(expr)
    return operands, operand, ops, boundary


#: An affine op: ``(op, literal on the left)``.
_AffineOp = Tuple[str, bool]

#: One-ulp steps the boundary search takes before a split stays unfolded.
_MAX_FOLD_STEPS = 64


def _affine_chain(feature: Expression
                  ) -> Optional[Tuple[ColumnRef, Tuple[_AffineOp, ...],
                                      Tuple[float, ...]]]:
    """``(column, ops, constants)``, innermost op first, when ``feature``
    applies ``x + c``, ``x - c``, ``x * c``, ``x / c`` (or ``c + x``,
    ``c - x``, ``c * x``) to one column, every ``c`` a finite FLOAT
    literal, non-zero for ``*`` and ``/``.

    Each such op is monotone over float64 (IEEE rounding is), sends no
    non-NaN value to NaN, and sends ``-0.0`` and ``0.0`` to values that
    compare equal. A FLOAT constant makes the first op promote an INT
    column to float64, the same promotion a comparison of the column
    with a float makes.
    """
    ops: List[_AffineOp] = []
    constants: List[float] = []
    while isinstance(feature, BinaryOp) and feature.op in ("+", "-", "*", "/"):
        if isinstance(feature.right, Literal):
            inner, literal, on_left = feature.left, feature.right, False
        elif isinstance(feature.left, Literal) and feature.op != "/":
            inner, literal, on_left = feature.right, feature.left, True
        else:
            return None
        if literal.dtype is not DataType.FLOAT \
                or not math.isfinite(literal.value) \
                or (feature.op in ("*", "/") and literal.value == 0.0):
            return None
        ops.append((feature.op, on_left))
        constants.append(literal.value)
        feature = inner
    if not ops or not isinstance(feature, ColumnRef):
        return None
    return feature, tuple(reversed(ops)), tuple(reversed(constants))


def _apply_chain(ops: Tuple[_AffineOp, ...], constants: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The chain evaluated with the engine's float64 ops, split k's
    constants (row k of ``constants``) on element k."""
    for (op, on_left), c in zip(ops, constants.T):
        if op == "+":
            x = c + x if on_left else x + c
        elif op == "-":
            x = c - x if on_left else x - c
        elif op == "*":
            x = c * x if on_left else x * c
        else:
            x = x / c
    return x


def _fold_thresholds(ops: Tuple[_AffineOp, ...], constants: np.ndarray,
                     thresholds: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundaries ``x*`` of the splits ``f_k(x) <= t_k``, one numpy
    pass for all of them: ``(boundary, increasing, folded)``.

    ``f_k`` is monotone, so the ``x`` with ``f_k(x) <= t_k`` are all
    float64 values up to ``x*`` when ``f_k`` increases (``x <= x*``) and
    from ``x*`` on when it decreases (``x >= x*``); NaN fails both
    forms. The search starts at the chain inverted in real arithmetic
    (``t / s + m`` for a scaler) and steps one ulp at a time until
    ``f_k(x*) <= t_k`` holds and fails one ulp further out. ``folded``
    is False where a threshold or the start is not finite, or the search
    has not converged after :data:`_MAX_FOLD_STEPS` steps (a subnormal
    scale can put the boundary ~2^60 ulps away).
    """
    increasing = np.ones(len(thresholds), dtype=bool)
    for (op, on_left), c in zip(ops, constants.T):
        if op in ("*", "/"):
            increasing ^= c < 0
        elif op == "-" and on_left:
            increasing = ~increasing
    with np.errstate(all="ignore"):
        x = thresholds
        for (op, on_left), c in zip(reversed(ops), constants.T[::-1]):
            if op == "+":
                x = x - c
            elif op == "-":
                x = c - x if on_left else x + c
            elif op == "*":
                x = x / c
            else:
                x = x * c
        startable = np.isfinite(x) & np.isfinite(thresholds)
        x = np.where(startable, x, 0.0)
        outward = np.where(increasing, np.inf, -np.inf)
        for _ in range(_MAX_FOLD_STEPS):
            holds = _apply_chain(ops, constants, x) <= thresholds
            beyond = np.nextafter(x, outward)
            done = holds & ~(_apply_chain(ops, constants, beyond) <= thresholds)
            if (done | ~startable).all():
                break
            x = np.where(done, x, np.where(holds, beyond,
                                           np.nextafter(x, -outward)))
    return x, increasing, done & startable


def _unfolded_split(feature: Expression, threshold: float
                    ) -> Tuple[Optional[Expression], int, float]:
    """``feature <= threshold`` as ``(operand, op, constant)`` (see
    :func:`_split_conditions`), folded when the feature is an indicator.

    An indicator ``CASE WHEN p THEN a ELSE b END`` with numeric literals
    ``a``/``b`` (a one-hot category, a binarized column) is ``<= t``
    exactly where ``p``'s truth table says: a constant when ``a`` and
    ``b`` fall on the same side of ``t``, ``p`` when only ``a`` does, and
    ``NOT p`` when only ``b`` does — written ``col <> v`` for
    ``p = (col = v)``, which agrees with ``NOT p`` even on NaN. Any other
    ``NOT p`` stays as it is: ``NOT (x > t)`` is not ``x <= t`` on NaN.
    """
    if isinstance(feature, CaseWhen) and len(feature.branches) == 1:
        (predicate, when_true), when_false = (feature.branches[0],
                                              feature.default)
        if all(isinstance(value, Literal) and value.dtype.is_numeric
               for value in (when_true, when_false)):
            true_side = when_true.value <= threshold
            if true_side == (when_false.value <= threshold):
                return None, _ALWAYS if true_side else _NEVER, 0.0
            if true_side:
                return predicate, SPLIT_IS, 0.0
            if isinstance(predicate, BinaryOp) and predicate.op == "=":
                return predicate.left.ne(predicate.right), SPLIT_IS, 0.0
            return UnaryOp("not", predicate), SPLIT_IS, 0.0
    return feature, SPLIT_LE, threshold


def _sum_expressions(parts: List[Expression]) -> Expression:
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _average(total: Expression, aggregate: str, n_trees: int) -> Expression:
    """``total / n_trees`` under AVERAGE; one tree's ``x / 1.0`` is ``x``
    bit for bit (NaN and -0.0 included), so it is left out."""
    if aggregate == "AVERAGE" and n_trees > 1:
        return total / Literal(float(n_trees))
    return total


def _compile_tree_classifier(node: Node, edges) -> None:
    classes = np.asarray(node.attrs["classes"])
    if len(classes) != 2:
        raise UnsupportedOperatorError(
            "multi-class TreeEnsembleClassifier is not supported by MLtoSQL"
        )
    features = _vector(edges, node.inputs[0])
    trees = node.attrs["trees"]
    aggregate = node.attrs.get("aggregate", "AVERAGE")
    post = node.attrs.get("post_transform", "NONE")

    if post == "NONE":
        # Probability trees (DT/RF): leaf value index 1 = P(class 1).
        parts = [tree_to_expression(tree, features, value_index=1)
                 for tree in trees]
        score = _average(_sum_expressions(parts), aggregate, len(trees))
        label = CaseWhen([(score.gt(Literal(0.5)), _class_literal(classes, 1))],
                         _class_literal(classes, 0))
    elif post == "LOGISTIC":
        # Margin trees (GB): sum margins + base, then the logistic link.
        base = float(np.asarray(node.attrs.get("base_values", [0.0])).ravel()[0])
        parts = [tree_to_expression(tree, features, value_index=0)
                 for tree in trees]
        margin = _average(_sum_expressions(parts), aggregate, len(trees))
        if base != 0.0:
            margin = margin + Literal(base)
        score = FunctionCall("sigmoid", [margin])
        label = CaseWhen([(margin.gt(Literal(0.0)), _class_literal(classes, 1))],
                         _class_literal(classes, 0))
    else:
        raise UnsupportedOperatorError(f"post_transform {post!r} has no SQL form")
    edges[node.outputs[0]] = label
    edges[node.outputs[1]] = [Literal(1.0) - score, score]


def _compile_tree_regressor(node: Node, edges) -> None:
    features = _vector(edges, node.inputs[0])
    trees = node.attrs["trees"]
    base = float(np.asarray(node.attrs.get("base_values", [0.0])).ravel()[0])
    parts = [tree_to_expression(tree, features, value_index=0) for tree in trees]
    total = _average(_sum_expressions(parts), node.attrs.get("aggregate", "SUM"),
                     len(trees))
    if base != 0.0:
        total = total + Literal(base)
    edges[node.outputs[0]] = [total]


_HANDLERS = {
    "Scaler": _compile_scaler,
    "OneHotEncoder": _compile_one_hot,
    "LabelEncoder": _compile_label_encoder,
    "Concat": _compile_concat,
    "FeatureExtractor": _compile_feature_extractor,
    "Constant": _compile_constant,
    "Binarizer": _compile_binarizer,
    "Imputer": _compile_imputer,
    "Normalizer": _compile_normalizer,
    "Identity": _compile_identity,
    "Cast": _compile_identity,
    "LinearClassifier": _compile_linear_classifier,
    "LinearRegressor": _compile_linear_regressor,
    "TreeEnsembleClassifier": _compile_tree_classifier,
    "TreeEnsembleRegressor": _compile_tree_regressor,
}


def sql_compilable_operators() -> List[str]:
    """Operators MLtoSQL can express."""
    return sorted(_HANDLERS)
