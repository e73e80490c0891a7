"""MLtoDNN compiler: onnxlite graphs -> tensor programs.

Implements the paper's MLtoDNN transformation (§5.1) via the Hummingbird
approach: featurizers become elementwise tensor ops, linear models become
GEMMs, and tree ensembles become either the GEMM or the tree-traversal
formulation (chosen by ensemble size, as Hummingbird's heuristic does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import CompileError, UnsupportedOperatorError
from repro.onnxlite.graph import Graph
from repro.onnxlite.ops import infer_edge_info
from repro.tensor.program import (
    Affine,
    NanToValue,
    ArgmaxLabel,
    ConcatColumns,
    ConstTile,
    GatherColumns,
    Gemm,
    OneHotFromCode,
    RowNormalize,
    Sigmoid,
    Softmax,
    StackBinaryProbs,
    StringToCode,
    TensorProgram,
    Threshold,
)
from repro.tensor.trees import TreeGemm, TreeTraversal

# Hummingbird-style strategy cutover: small ensembles use GEMM, large ones
# use traversal. Product of (#internal nodes x #leaves) summed over trees;
# the limit was calibrated on this substrate (GEMM loses past a few
# thousand node-leaf products because the leaf-indicator matmuls dominate).
GEMM_WORK_LIMIT = 4_000


def choose_tree_strategy(trees) -> str:
    """'gemm' for small ensembles, 'traversal' for large ones."""
    work = 0
    for tree in trees:
        leaves = tree.leaf_count()
        internal = len(tree) - leaves
        work += max(internal, 1) * leaves
    return "gemm" if work <= GEMM_WORK_LIMIT else "traversal"


def compile_graph(graph: Graph, tree_strategy: Optional[str] = None) -> TensorProgram:
    """Compile an onnxlite graph into a :class:`TensorProgram`.

    ``tree_strategy`` forces ``'gemm'`` or ``'traversal'``; the default picks
    per-ensemble using :func:`choose_tree_strategy`.
    """
    edge_info = infer_edge_info(graph)
    program = TensorProgram(name=f"{graph.name}_dnn",
                            input_names=list(graph.input_names))
    buffer_of: Dict[str, str] = {name: name for name in graph.input_names}

    for node in graph.topological_nodes():
        handler = _HANDLERS.get(node.op_type)
        if handler is None:
            raise UnsupportedOperatorError(
                f"MLtoDNN cannot compile operator {node.op_type!r}"
            )
        handler(node, graph, program, buffer_of, edge_info, tree_strategy)

    for output in graph.outputs:
        if output not in buffer_of:
            raise CompileError(f"graph output {output!r} was not compiled")
        program.outputs[output] = buffer_of[output]
    program.validate()
    return program


# ---------------------------------------------------------------------------
# Per-operator lowering
# ---------------------------------------------------------------------------

def _lower_scaler(node, graph, program, buffer_of, edge_info, strategy):
    out = program.add(Affine([buffer_of[node.inputs[0]]], f"{node.name}_out",
                             offset=np.asarray(node.attrs["offset"]),
                             scale=np.asarray(node.attrs["scale"])))
    buffer_of[node.outputs[0]] = out


def _lower_normalizer(node, graph, program, buffer_of, edge_info, strategy):
    width = edge_info[node.inputs[0]].width
    out = program.add(RowNormalize([buffer_of[node.inputs[0]]],
                                   f"{node.name}_out",
                                   norm=node.attrs.get("norm", "l2"),
                                   width=width))
    buffer_of[node.outputs[0]] = out


def _lower_imputer(node, graph, program, buffer_of, edge_info, strategy):
    width = edge_info[node.inputs[0]].width
    out = program.add(NanToValue([buffer_of[node.inputs[0]]],
                                 f"{node.name}_out",
                                 values=np.asarray(node.attrs["imputed_values"]),
                                 width=width))
    buffer_of[node.outputs[0]] = out


def _lower_binarizer(node, graph, program, buffer_of, edge_info, strategy):
    width = edge_info[node.inputs[0]].width
    out = program.add(Threshold([buffer_of[node.inputs[0]]],
                                f"{node.name}_out",
                                threshold=float(node.attrs.get("threshold", 0.0)),
                                width=width))
    buffer_of[node.outputs[0]] = out


def _lower_one_hot(node, graph, program, buffer_of, edge_info, strategy):
    categories = np.asarray(node.attrs["categories"])
    source = buffer_of[node.inputs[0]]
    if categories.dtype.kind == "U":
        # Dictionary-encode on the host, then one-hot on the device.
        order = np.argsort(categories, kind="stable")
        codes = program.add(StringToCode([source], f"{node.name}_codes",
                                         vocabulary=categories[order]))
        onehot_sorted = program.add(OneHotFromCode([codes], f"{node.name}_oh",
                                                   size=len(categories)))
        # Restore the original category order.
        inverse = np.empty(len(categories), dtype=np.int64)
        inverse[np.arange(len(categories))] = np.argsort(order)
        out = program.add(GatherColumns([onehot_sorted], f"{node.name}_out",
                                        indices=np.argsort(order)))
    else:
        codes = program.add(StringToCode([source], f"{node.name}_codes",
                                         vocabulary=categories.astype(np.str_)))
        out = program.add(OneHotFromCode([codes], f"{node.name}_out",
                                         size=len(categories)))
    buffer_of[node.outputs[0]] = out


def _lower_concat(node, graph, program, buffer_of, edge_info, strategy):
    widths = [max(edge_info[name].width, 1) for name in node.inputs]
    out = program.add(ConcatColumns([buffer_of[name] for name in node.inputs],
                                    f"{node.name}_out", widths=widths))
    buffer_of[node.outputs[0]] = out


def _lower_feature_extractor(node, graph, program, buffer_of, edge_info, strategy):
    out = program.add(GatherColumns([buffer_of[node.inputs[0]]],
                                    f"{node.name}_out",
                                    indices=np.asarray(node.attrs["indices"])))
    buffer_of[node.outputs[0]] = out


def _lower_constant(node, graph, program, buffer_of, edge_info, strategy):
    out = program.add(ConstTile(f"{node.name}_out",
                                value=np.asarray(node.attrs["value"])))
    buffer_of[node.outputs[0]] = out


def _lower_identity(node, graph, program, buffer_of, edge_info, strategy):
    buffer_of[node.outputs[0]] = buffer_of[node.inputs[0]]


def _lower_linear_classifier(node, graph, program, buffer_of, edge_info, strategy):
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64)
    intercepts = np.asarray(node.attrs["intercepts"], dtype=np.float64)
    classes = np.asarray(node.attrs["classes"])
    source = buffer_of[node.inputs[0]]
    scores = program.add(Gemm([source], f"{node.name}_scores",
                              weight=coefficients.T, bias=intercepts))
    if len(classes) == 2 and coefficients.shape[0] == 1:
        positive = program.add(Sigmoid([scores], f"{node.name}_pos", width=1))
        probabilities = program.add(
            StackBinaryProbs([positive], f"{node.name}_probs"))
    else:
        probabilities = program.add(
            Softmax([scores], f"{node.name}_probs", width=len(classes)))
    labels = program.add(ArgmaxLabel([probabilities], f"{node.name}_label",
                                     classes=classes))
    buffer_of[node.outputs[0]] = labels
    buffer_of[node.outputs[1]] = probabilities


def _lower_linear_regressor(node, graph, program, buffer_of, edge_info, strategy):
    coefficients = np.asarray(node.attrs["coefficients"], dtype=np.float64).reshape(-1, 1)
    intercept = np.asarray([float(node.attrs.get("intercept", 0.0))])
    out = program.add(Gemm([buffer_of[node.inputs[0]]], f"{node.name}_out",
                           weight=coefficients, bias=intercept))
    buffer_of[node.outputs[0]] = out


def _lower_tree_classifier(node, graph, program, buffer_of, edge_info, strategy):
    trees = node.attrs["trees"]
    classes = np.asarray(node.attrs["classes"])
    post = node.attrs.get("post_transform", "NONE")
    value_dim = trees[0].value.shape[1]
    chosen = strategy or choose_tree_strategy(trees)
    op_class = TreeGemm if chosen == "gemm" else TreeTraversal
    probabilities = program.add(op_class(
        [buffer_of[node.inputs[0]]], f"{node.name}_probs",
        trees=trees,
        aggregate=node.attrs.get("aggregate", "AVERAGE"),
        post_transform=post,
        base_values=np.asarray(node.attrs.get("base_values", [0.0])),
        value_dim=value_dim,
    ))
    labels = program.add(ArgmaxLabel([probabilities], f"{node.name}_label",
                                     classes=classes))
    buffer_of[node.outputs[0]] = labels
    buffer_of[node.outputs[1]] = probabilities


def _lower_tree_regressor(node, graph, program, buffer_of, edge_info, strategy):
    trees = node.attrs["trees"]
    chosen = strategy or choose_tree_strategy(trees)
    op_class = TreeGemm if chosen == "gemm" else TreeTraversal
    out = program.add(op_class(
        [buffer_of[node.inputs[0]]], f"{node.name}_out",
        trees=trees,
        aggregate=node.attrs.get("aggregate", "SUM"),
        post_transform="NONE",
        base_values=np.asarray(node.attrs.get("base_values", [0.0])),
        value_dim=1,
    ))
    buffer_of[node.outputs[0]] = out


_HANDLERS = {
    "Scaler": _lower_scaler,
    "Normalizer": _lower_normalizer,
    "Binarizer": _lower_binarizer,
    "Imputer": _lower_imputer,
    "OneHotEncoder": _lower_one_hot,
    "Concat": _lower_concat,
    "FeatureExtractor": _lower_feature_extractor,
    "Constant": _lower_constant,
    "Identity": _lower_identity,
    "Cast": _lower_identity,
    "LinearClassifier": _lower_linear_classifier,
    "LinearRegressor": _lower_linear_regressor,
    "TreeEnsembleClassifier": _lower_tree_classifier,
    "TreeEnsembleRegressor": _lower_tree_regressor,
}


def compilable_operators() -> List[str]:
    """Operators MLtoDNN supports (the paper reports 88% pipeline coverage)."""
    return sorted(_HANDLERS)
