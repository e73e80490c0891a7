"""Pipeline statistics used by the optimization strategies (paper §5.2).

The paper gathers 22 statistics per trained pipeline (inputs, featurizer
shapes, tree counts/depths, ...) and feeds them to the rule-based and
ML-based strategies. :func:`pipeline_statistics` computes the same family
of statistics from an onnxlite graph; :data:`FEATURE_NAMES` fixes their
order for model training.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.rules.projection_pushdown import used_feature_indices
from repro.onnxlite.graph import Graph
from repro.onnxlite.ops import infer_edge_info

FEATURE_NAMES: List[str] = [
    "n_inputs",
    "n_numeric_inputs",
    "n_categorical_inputs",
    "n_features",
    "n_operators",
    "n_featurizers",
    "n_one_hot_encoders",
    "mean_ohe_outputs",
    "max_ohe_outputs",
    "n_scalers",
    "is_linear_model",
    "is_tree_model",
    "n_trees",
    "mean_tree_depth",
    "max_tree_depth",
    "std_tree_depth",
    "total_tree_nodes",
    "total_tree_leaves",
    "mean_leaves_per_tree",
    "n_model_parameters",
    "frac_unused_features",
    "tree_gemm_work",
]

_MODEL_OPS = ("TreeEnsembleClassifier", "TreeEnsembleRegressor",
              "LinearClassifier", "LinearRegressor")


def pipeline_statistics(graph: Graph) -> Dict[str, float]:
    """The 22 per-pipeline statistics, keyed by :data:`FEATURE_NAMES`."""
    stats = {name: 0.0 for name in FEATURE_NAMES}
    stats["n_inputs"] = float(len(graph.inputs))
    stats["n_numeric_inputs"] = float(
        sum(1 for i in graph.inputs if i.dtype != "string"))
    stats["n_categorical_inputs"] = float(
        sum(1 for i in graph.inputs if i.dtype == "string"))
    stats["n_operators"] = float(len(graph.nodes))

    edge_info = infer_edge_info(graph)
    ohe_sizes: List[int] = []
    depths: List[int] = []
    node_counts: List[int] = []
    leaf_counts: List[int] = []
    gemm_work = 0.0

    for node in graph.nodes:
        if node.op_type == "OneHotEncoder":
            stats["n_one_hot_encoders"] += 1
            ohe_sizes.append(len(node.attrs["categories"]))
        elif node.op_type == "Scaler":
            stats["n_scalers"] += 1
        if node.op_type not in _MODEL_OPS:
            stats["n_featurizers"] += 1
            continue

        # Model node.
        width = edge_info[node.inputs[0]].width
        stats["n_features"] = float(width)
        used = used_feature_indices(node)
        if used is not None and width:
            stats["frac_unused_features"] = 1.0 - len(used) / width
        if node.op_type.startswith("Linear"):
            stats["is_linear_model"] = 1.0
            coefficients = np.asarray(node.attrs["coefficients"])
            stats["n_model_parameters"] = float(coefficients.size)
            # Paper footnote 6: tree depth for linear models is 0.
        else:
            stats["is_tree_model"] = 1.0
            for tree in node.attrs["trees"]:
                depth = tree.depth()
                leaves = tree.leaf_count()
                nodes = len(tree)
                depths.append(depth)
                node_counts.append(nodes)
                leaf_counts.append(leaves)
                gemm_work += max(nodes - leaves, 1) * leaves
            stats["n_trees"] = float(len(node.attrs["trees"]))
            stats["n_model_parameters"] = float(sum(node_counts))

    if ohe_sizes:
        stats["mean_ohe_outputs"] = float(np.mean(ohe_sizes))
        stats["max_ohe_outputs"] = float(np.max(ohe_sizes))
    if depths:
        stats["mean_tree_depth"] = float(np.mean(depths))
        stats["max_tree_depth"] = float(np.max(depths))
        stats["std_tree_depth"] = float(np.std(depths))
        stats["total_tree_nodes"] = float(np.sum(node_counts))
        stats["total_tree_leaves"] = float(np.sum(leaf_counts))
        stats["mean_leaves_per_tree"] = float(np.mean(leaf_counts))
        stats["tree_gemm_work"] = gemm_work
    return stats


def feature_vector(graph: Graph) -> np.ndarray:
    """Statistics as a fixed-order float vector (strategy model input)."""
    stats = pipeline_statistics(graph)
    return np.asarray([stats[name] for name in FEATURE_NAMES], dtype=np.float64)


def feature_matrix(graphs) -> np.ndarray:
    """Stack :func:`feature_vector` rows for a pipeline collection."""
    return np.vstack([feature_vector(graph) for graph in graphs])
