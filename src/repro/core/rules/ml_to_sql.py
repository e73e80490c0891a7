"""MLtoSQL: compile a trained pipeline into SQL expressions (paper §5.1).

Replaces a whole Predict operator by a Project whose output expressions
reimplement the pipeline: scalers become arithmetic, one-hot indicators
become CASE expressions, decision trees become nested CASE WHEN chains
(depth-first, exactly the shape shown in §5.1), and logistic links expand
to ``1/(1+EXP(-margin))``.

The transformation is all-or-nothing: if any operator cannot be expressed,
the rule raises :class:`UnsupportedOperatorError` and the optimizer keeps
the ML-runtime plan (matching the paper: "MLtoSQL currently transforms the
whole model pipeline to SQL or it fails").

Deep trees produce O(2^depth) CASE nodes whose branches the engine must all
evaluate — the very effect behind the paper's observation that MLtoSQL is a
21.7x win at depth 3 but a 2.3x *slowdown* at depth 20 (Fig. 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.rules.base import Rule, RuleResult, predict_nodes, replace_predict
from repro.errors import UnsupportedOperatorError
from repro.learn.tree import TreeNode
from repro.onnxlite.graph import Graph, Node
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
    fold_constants,
)
from repro.relational.logical import PlanNode, Predict, Project
from repro.storage.catalog import Catalog

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
            expressions = graph_to_expressions(predict.graph, predict.input_mapping)
            child_schema = predict.child.output_schema(catalog)
            kept = (predict.keep_columns if predict.keep_columns is not None
                    else child_schema.names)
            outputs = [(name, ColumnRef(name)) for name in kept]
            for exposed, graph_output, _dtype in predict.output_columns:
                if graph_output not in expressions:
                    raise UnsupportedOperatorError(
                        f"graph output {graph_output!r} not produced by MLtoSQL"
                    )
                outputs.append((exposed, fold_constants(expressions[graph_output])))
            project = Project(predict.child, outputs)
            result.plan = replace_predict(result.plan, predict, project)
            result.applied = True
            result.info["predicts_converted"] = \
                result.info.get("predicts_converted", 0) + 1
        return result


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


def tree_to_expression(tree: TreeNode, features: List[Expression],
                       value_index: int) -> Expression:
    """Depth-first nested CASE WHEN for one tree (paper §5.1's example).

    A split whose condition folds to a constant (see
    :func:`_split_condition`) emits only the subtree it always takes.
    """
    if tree.is_leaf:
        return Literal(float(tree.value[value_index]))
    condition = _split_condition(features[tree.feature],
                                 float(tree.threshold))
    if isinstance(condition, Literal):
        taken = tree.left if condition.value else tree.right
        return tree_to_expression(taken, features, value_index)
    return CaseWhen(
        [(condition, tree_to_expression(tree.left, features, value_index))],
        tree_to_expression(tree.right, features, value_index),
    )


def _split_condition(feature: Expression, threshold: float) -> Expression:
    """``feature <= threshold``, folded when the feature is an indicator.

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
                return Literal(true_side)
            if true_side:
                return predicate
            if isinstance(predicate, BinaryOp) and predicate.op == "=":
                return predicate.left.ne(predicate.right)
            return UnaryOp("not", predicate)
    return feature.le(Literal(threshold))


def _sum_expressions(parts: List[Expression]) -> Expression:
    total = parts[0]
    for part in parts[1:]:
        total = total + part
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
        score = _sum_expressions(parts)
        if aggregate == "AVERAGE":
            score = score / Literal(float(len(trees)))
        label = CaseWhen([(score.gt(Literal(0.5)), _class_literal(classes, 1))],
                         _class_literal(classes, 0))
    elif post == "LOGISTIC":
        # Margin trees (GB): sum margins + base, then the logistic link.
        base = float(np.asarray(node.attrs.get("base_values", [0.0])).ravel()[0])
        parts = [tree_to_expression(tree, features, value_index=0)
                 for tree in trees]
        margin = _sum_expressions(parts)
        if aggregate == "AVERAGE":
            margin = margin / Literal(float(len(trees)))
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
    total = _sum_expressions(parts)
    if node.attrs.get("aggregate", "SUM") == "AVERAGE":
        total = total / Literal(float(len(trees)))
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
