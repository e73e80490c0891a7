"""Convert ``repro.learn`` pipelines into onnxlite graphs.

This is the skl2onnx/onnxmltools stand-in: every trained pipeline used in
the paper (scaler + one-hot encoders + concat + model, Fig. 2) maps 1-1
onto graph operators. Classifier graphs expose two outputs:

* ``label`` — predicted class (1-D, dtype of the training labels);
* ``score`` — probability of the positive class (binary) as ``[N, 1]``.

Gradient-boosting trees are converted to *margin* trees: leaf values are
pre-multiplied by the learning rate (new trees sharing the structure
arrays), and ``base_values``/``LOGISTIC`` reconstruct the ensemble
exactly (bit-for-bit with the learn estimator).
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import UnsupportedOperatorError
from repro.learn.ensemble import (
    AdaBoostRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.learn.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.learn.pipeline import ColumnTransformer, Pipeline
from repro.learn.pipeline import Pipeline as LearnPipeline
from repro.learn.preprocessing import (
    Binarizer,
    MinMaxScaler,
    Normalizer,
    OneHotEncoder,
    SimpleImputer,
    StandardScaler,
)
from repro.learn.tree import DecisionTreeClassifier, DecisionTreeRegressor, Tree
from repro.onnxlite.graph import FLOAT, STRING, Graph, Node, TensorInfo


def convert_pipeline(pipeline: Pipeline, name: str = "pipeline") -> Graph:
    """Convert a two-step ``(ColumnTransformer, model)`` pipeline."""
    steps = pipeline.steps
    if len(steps) != 2 or not isinstance(steps[0][1], ColumnTransformer):
        raise UnsupportedOperatorError(
            "convert_pipeline expects (ColumnTransformer, model) steps; "
            "use convert_model for bare models"
        )
    transformer: ColumnTransformer = steps[0][1]
    model = steps[1][1]

    graph = Graph(name, inputs=[], outputs=[])
    block_edges: List[str] = []
    for group_name, group_transformer, columns in transformer.transformers:
        block_edges.extend(
            _convert_feature_group(graph, group_name, group_transformer, columns)
        )

    if len(block_edges) == 1:
        features_edge = block_edges[0]
    else:
        features_edge = graph.fresh_edge("features")
        graph.add_node(Node("Concat", block_edges, [features_edge]))

    _convert_model(graph, model, features_edge)
    _canonicalize_node_names(graph)
    graph.validate()
    return graph


def convert_model(model, n_features: int, name: str = "model",
                  input_names: Optional[Sequence[str]] = None) -> Graph:
    """Convert a bare estimator over an already-featurized matrix.

    ``input_names`` (one per feature) creates per-column inputs + Concat;
    otherwise a single ``features`` input of the full width is used.
    """
    graph = Graph(name, inputs=[], outputs=[])
    if input_names:
        if len(input_names) != n_features:
            raise ValueError("input_names must have one entry per feature")
        for column in input_names:
            graph.inputs.append(TensorInfo(column, FLOAT, 1))
        features_edge = graph.fresh_edge("features")
        graph.add_node(Node("Concat", list(input_names), [features_edge]))
    else:
        graph.inputs.append(TensorInfo("features", FLOAT, n_features))
        features_edge = "features"
    _convert_model(graph, model, features_edge)
    _canonicalize_node_names(graph)
    graph.validate()
    return graph


def _canonicalize_node_names(graph: Graph) -> None:
    """Deterministic node names (position-based, not the global counter).

    Converted graphs serialize bit-identically across runs — the model-file
    analogue of reproducible builds.
    """
    for index, node in enumerate(graph.nodes):
        node.name = f"{node.op_type.lower()}_{index}"


# ---------------------------------------------------------------------------
# Feature groups
# ---------------------------------------------------------------------------

def _convert_feature_group(graph: Graph, group_name: str, transformer,
                           columns: Sequence[str]) -> List[str]:
    """Add input tensors + featurizer nodes for one transformer group.

    Returns the ordered edge names of the group's output blocks.
    """
    if isinstance(transformer, OneHotEncoder):
        edges = []
        for j, column in enumerate(columns):
            graph.inputs.append(TensorInfo(column, STRING, 1))
            categories = transformer.categories_[j]
            out = graph.fresh_edge(f"{column}_onehot")
            graph.add_node(Node("OneHotEncoder", [column], [out],
                                {"categories": np.asarray(categories)}))
            edges.append(out)
        return edges

    # Numeric transformers: per-column inputs, one Concat, then the
    # transformer chain (a bare transformer, or a learn Pipeline of them —
    # e.g. SimpleImputer followed by StandardScaler).
    for column in columns:
        graph.inputs.append(TensorInfo(column, FLOAT, 1))
    if len(columns) == 1:
        current = columns[0]
    else:
        current = graph.fresh_edge(f"{group_name}_concat")
        graph.add_node(Node("Concat", list(columns), [current]))

    steps = ([step for _name, step in transformer.steps]
             if isinstance(transformer, LearnPipeline) else [transformer])
    for index, step in enumerate(steps):
        out = graph.fresh_edge(f"{group_name}_out{index}")
        _add_numeric_transformer_node(graph, step, current, out)
        current = out
    return [current]


def _add_numeric_transformer_node(graph: Graph, transformer, source: str,
                                  out: str) -> None:
    if isinstance(transformer, StandardScaler):
        graph.add_node(Node("Scaler", [source], [out], {
            "offset": transformer.mean_.copy(),
            "scale": (1.0 / transformer.scale_).copy(),
        }))
    elif isinstance(transformer, MinMaxScaler):
        graph.add_node(Node("Scaler", [source], [out], {
            "offset": transformer.data_min_.copy(),
            "scale": (1.0 / transformer.data_range_).copy(),
        }))
    elif isinstance(transformer, Normalizer):
        graph.add_node(Node("Normalizer", [source], [out],
                            {"norm": transformer.norm}))
    elif isinstance(transformer, Binarizer):
        graph.add_node(Node("Binarizer", [source], [out],
                            {"threshold": transformer.threshold}))
    elif isinstance(transformer, SimpleImputer):
        graph.add_node(Node("Imputer", [source], [out], {
            "imputed_values": transformer.statistics_.copy(),
        }))
    else:
        raise UnsupportedOperatorError(
            f"no converter for transformer {type(transformer).__name__}"
        )


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _convert_model(graph: Graph, model, features_edge: str) -> None:
    if isinstance(model, LogisticRegression):
        _add_classifier_outputs(graph, Node(
            "LinearClassifier", [features_edge], ["label", "probabilities"], {
                "coefficients": model.coef_.copy(),
                "intercepts": model.intercept_.copy(),
                "classes": np.asarray(model.classes_),
                "post_transform": "LOGISTIC",
            }))
        return
    if isinstance(model, (LinearRegression, Ridge, Lasso)):
        graph.add_node(Node("LinearRegressor", [features_edge], ["score"], {
            "coefficients": model.coef_.copy(),
            "intercept": float(model.intercept_),
        }))
        graph.outputs = ["score"]
        return
    if isinstance(model, DecisionTreeClassifier):
        _add_classifier_outputs(graph, Node(
            "TreeEnsembleClassifier", [features_edge], ["label", "probabilities"], {
                "trees": _copied([model.tree_]),
                "classes": np.asarray(model.classes_),
                "aggregate": "AVERAGE",
                "post_transform": "NONE",
            }))
        return
    if isinstance(model, RandomForestClassifier):
        _add_classifier_outputs(graph, Node(
            "TreeEnsembleClassifier", [features_edge], ["label", "probabilities"], {
                "trees": _copied(model.trees()),
                "classes": np.asarray(model.classes_),
                "aggregate": "AVERAGE",
                "post_transform": "NONE",
            }))
        return
    if isinstance(model, GradientBoostingClassifier):
        margin_trees = [replace(tree, value=tree.value * model.learning_rate)
                        for tree in model.trees()]
        _add_classifier_outputs(graph, Node(
            "TreeEnsembleClassifier", [features_edge], ["label", "probabilities"], {
                "trees": margin_trees,
                "classes": np.asarray(model.classes_),
                "aggregate": "SUM",
                "post_transform": "LOGISTIC",
                "base_values": np.asarray([model.init_score_]),
            }))
        return
    if isinstance(model, RandomForestRegressor):
        graph.add_node(Node("TreeEnsembleRegressor", [features_edge], ["score"], {
            "trees": _copied(model.trees()),
            "aggregate": "AVERAGE",
            "base_values": np.asarray([0.0]),
        }))
        graph.outputs = ["score"]
        return
    if isinstance(model, AdaBoostRegressor):
        # Weighted mean == SUM of leaf values pre-scaled by weight/sum(w).
        normalizer = float(model.estimator_weights_.sum())
        scaled_trees = [
            replace(tree, value=tree.value * (float(weight) / max(normalizer, 1e-12)))
            for weight, tree in zip(model.estimator_weights_, model.trees())]
        graph.add_node(Node("TreeEnsembleRegressor", [features_edge], ["score"], {
            "trees": scaled_trees,
            "aggregate": "SUM",
            "base_values": np.asarray([0.0]),
        }))
        graph.outputs = ["score"]
        return
    if isinstance(model, DecisionTreeRegressor):
        graph.add_node(Node("TreeEnsembleRegressor", [features_edge], ["score"], {
            "trees": _copied([model.tree_]),
            "aggregate": "AVERAGE",
            "base_values": np.asarray([0.0]),
        }))
        graph.outputs = ["score"]
        return
    if isinstance(model, GradientBoostingRegressor):
        scaled_trees = [replace(tree, value=tree.value * model.learning_rate)
                        for tree in model.trees()]
        graph.add_node(Node("TreeEnsembleRegressor", [features_edge], ["score"], {
            "trees": scaled_trees,
            "aggregate": "SUM",
            "base_values": np.asarray([model.init_score_]),
        }))
        graph.outputs = ["score"]
        return
    raise UnsupportedOperatorError(
        f"no converter for model {type(model).__name__}"
    )


def _copied(trees: List[Tree]) -> List[Tree]:
    """The trees with copies of their node arrays, as the graph's own.

    Sharing the estimator's read-only arrays would be just as correct. The
    copies are kept for the heap they leave: measured on a 2-core host in
    the ``scan_tree`` benchmark process (a 400k-row table registered, then
    a depth-8 tree), these few KB stay allocated above the ~14 MB that
    table registration frees. Without them that region joins the heap
    top, each scan's temporaries push the top past glibc's trim
    threshold, and every query faults ~30 MB back in (7.8k minor faults,
    +35% per query).
    """
    return [replace(tree, **{field.name: getattr(tree, field.name).copy()
                             for field in fields(tree)})
            for tree in trees]


def _add_classifier_outputs(graph: Graph, classifier_node: Node) -> None:
    """Attach the classifier and a positive-class ``score`` extraction."""
    graph.add_node(classifier_node)
    classes = np.asarray(classifier_node.attrs["classes"])
    if len(classes) == 2:
        graph.add_node(Node("FeatureExtractor", ["probabilities"], ["score"],
                            {"indices": [1]}))
        graph.outputs = ["label", "score"]
    else:
        graph.outputs = ["label", "probabilities"]
