"""Model-projection pushdown (paper §4.1, model-to-data).

Detects features the model never uses (zero-weight linear coefficients,
tree features referenced by no split — on average 46% of features in the
paper's OpenML study), densifies the model, inserts a ``FeatureExtractor``
over its input, and pushes the extractor down through Concat / Scaler /
OneHotEncoder until unused *pipeline inputs* disappear (Fig. 3 steps ➍-➏).
Removed inputs shrink the Predict's input mapping; the relational optimizer
then prunes the columns below joins and out of scans.
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
from repro.onnxlite.graph import Graph, Node
from repro.onnxlite.ops import infer_edge_info
from repro.relational.logical import PlanNode
from repro.storage.catalog import Catalog


class ModelProjectionPushdown(Rule):
    """The model-to-data cross-optimization."""

    name = "model_projection_pushdown"

    def apply(self, plan: PlanNode, catalog: Catalog) -> RuleResult:
        result = RuleResult(plan=plan)
        for predict in predict_nodes(result.plan):
            graph, removed, info = memoized(
                catalog, predict, (self.name, predict.graph),
                lambda: _pushdown(predict.graph))
            if not info.get("applied"):
                continue
            new_mapping = {name: column
                           for name, column in predict.input_mapping.items()
                           if name not in removed}
            new_predict = predict.replace(graph=graph, input_mapping=new_mapping)
            result.plan = replace_predict(result.plan, predict, new_predict)
            result.applied = True
            result.merge_info(info)
        return result


def _pushdown(graph: Graph) -> Tuple[Graph, List[str], Dict[str, object]]:
    """:func:`pushdown_graph` on a copy: ``(copy, removed, info)``."""
    graph = graph.copy()
    removed, info = pushdown_graph(graph)
    return graph, removed, info


# ---------------------------------------------------------------------------
# Graph-level transformation (shared with the data-induced rule)
# ---------------------------------------------------------------------------

def pushdown_graph(graph: Graph) -> Tuple[List[str], Dict[str, object]]:
    """Densify models, insert FeatureExtractors, push to fixpoint.

    Mutates ``graph``; returns (removed input names, report info).
    """
    info: Dict[str, object] = {"applied": False}
    inserted = _densify_models(graph)
    if inserted:
        info["applied"] = True
        info["models_densified"] = inserted

    changed = True
    while changed:
        changed = _push_extractors_once(graph)
        if changed:
            info["applied"] = True

    graph.prune_dead_nodes()
    removed = graph.prune_dead_inputs()
    if removed:
        info["applied"] = True
        info["inputs_removed"] = list(removed)
    graph.validate()
    return removed, info


def used_feature_indices(node: Node) -> Optional[List[int]]:
    """Sorted feature indices a model node actually reads, or None."""
    if node.op_type in ("TreeEnsembleClassifier", "TreeEnsembleRegressor"):
        used = set()
        for tree in node.attrs["trees"]:
            used |= tree.features_used()
        return sorted(used)
    if node.op_type == "LinearClassifier":
        coefficients = np.asarray(node.attrs["coefficients"])
        return sorted(np.nonzero(np.any(coefficients != 0.0, axis=0))[0].tolist())
    if node.op_type == "LinearRegressor":
        coefficients = np.asarray(node.attrs["coefficients"]).ravel()
        return sorted(np.nonzero(coefficients != 0.0)[0].tolist())
    return None


def _densify_models(graph: Graph) -> int:
    """Pass 1: replace each model with a dense version + FeatureExtractor."""
    edge_info = infer_edge_info(graph)
    inserted = 0
    for node in list(graph.nodes):
        used = used_feature_indices(node)
        if used is None:
            continue
        width = edge_info[node.inputs[0]].width
        if len(used) == width:
            continue
        if not used:
            used = [0]  # degenerate (constant) model: keep one feature alive
        mapping = {original: dense for dense, original in enumerate(used)}
        _remap_model_features(node, used, mapping)
        extractor_out = graph.fresh_edge(f"{node.name}_dense_in")
        graph.add_node(Node("FeatureExtractor", [node.inputs[0]], [extractor_out],
                            {"indices": list(used)}))
        node.inputs[0] = extractor_out
        inserted += 1
    return inserted


def _remap_model_features(node: Node, used: List[int],
                          mapping: Dict[int, int]) -> None:
    if node.op_type.startswith("TreeEnsemble"):
        node.attrs["trees"] = [tree.remap_features(mapping)
                               for tree in node.attrs["trees"]]
    elif node.op_type == "LinearClassifier":
        coefficients = np.asarray(node.attrs["coefficients"])
        node.attrs["coefficients"] = coefficients[:, used].copy()
    elif node.op_type == "LinearRegressor":
        coefficients = np.asarray(node.attrs["coefficients"]).ravel()
        node.attrs["coefficients"] = coefficients[used].copy()


def _push_extractors_once(graph: Graph) -> bool:
    """Pass 2, one step: push one FeatureExtractor below its producer."""
    producers = graph.producers()
    consumers = graph.consumers()
    edge_info = infer_edge_info(graph)

    for extractor in list(graph.nodes):
        if extractor.op_type != "FeatureExtractor":
            continue
        source = extractor.inputs[0]
        producer = producers.get(source)
        if producer is None:
            continue  # reached a graph input
        # Only rewrite when the extractor is the producer's sole consumer —
        # otherwise the producer's full output is still needed elsewhere.
        if len(consumers.get(source, [])) != 1:
            continue
        handler = _PUSH_HANDLERS.get(producer.op_type)
        if handler is None:
            continue
        if handler(graph, extractor, producer, edge_info):
            graph.prune_dead_nodes()
            return True
    return False


def _push_through_concat(graph: Graph, extractor: Node, concat: Node,
                         edge_info) -> bool:
    indices = list(extractor.attrs["indices"])
    if indices != sorted(indices):
        # The densified model expects features in extractor order; splitting
        # across blocks only preserves that order for ascending indices.
        return False
    widths = [max(edge_info[name].width, 1) for name in concat.inputs]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    surviving_inputs: List[str] = []
    for block, source in enumerate(concat.inputs):
        start, stop = offsets[block], offsets[block + 1]
        local = [i - start for i in indices if start <= i < stop]
        if not local:
            continue  # whole block unused -> drop it (and its producers)
        if local == list(range(widths[block])):
            surviving_inputs.append(source)  # full block passes through
        else:
            out = graph.fresh_edge(f"{source}_fe")
            graph.add_node(Node("FeatureExtractor", [source], [out],
                                {"indices": local}))
            surviving_inputs.append(out)

    target = extractor.outputs[0]
    graph.remove_node(extractor)
    graph.remove_node(concat)
    if len(surviving_inputs) == 1:
        graph.add_node(Node("Identity", surviving_inputs, [target]))
    else:
        graph.add_node(Node("Concat", surviving_inputs, [target]))
    return True


def _push_through_scaler(graph: Graph, extractor: Node, scaler: Node,
                         edge_info) -> bool:
    indices = np.asarray(extractor.attrs["indices"], dtype=np.int64)
    width = edge_info[scaler.inputs[0]].width
    offset = np.broadcast_to(np.asarray(scaler.attrs["offset"], dtype=np.float64),
                             (width,))
    scale = np.broadcast_to(np.asarray(scaler.attrs["scale"], dtype=np.float64),
                            (width,))
    source = scaler.inputs[0]
    target = extractor.outputs[0]
    narrowed = graph.fresh_edge(f"{source}_fe")
    graph.remove_node(extractor)
    graph.remove_node(scaler)
    graph.add_node(Node("FeatureExtractor", [source], [narrowed],
                        {"indices": indices.tolist()}))
    graph.add_node(Node("Scaler", [narrowed], [target], {
        "offset": offset[indices].copy(),
        "scale": scale[indices].copy(),
    }))
    return True


def _push_through_one_hot(graph: Graph, extractor: Node, encoder: Node,
                          edge_info) -> bool:
    # Selecting a subset of one-hot outputs == encoding against the subset
    # of categories (each output dimension is an independent indicator).
    indices = list(extractor.attrs["indices"])
    categories = np.asarray(encoder.attrs["categories"])
    target = extractor.outputs[0]
    source = encoder.inputs[0]
    graph.remove_node(extractor)
    graph.remove_node(encoder)
    graph.add_node(Node("OneHotEncoder", [source], [target],
                        {"categories": categories[indices].copy()}))
    return True


def _push_through_imputer(graph: Graph, extractor: Node, imputer: Node,
                          edge_info) -> bool:
    indices = np.asarray(extractor.attrs["indices"], dtype=np.int64)
    width = edge_info[imputer.inputs[0]].width
    values = np.broadcast_to(
        np.asarray(imputer.attrs["imputed_values"], dtype=np.float64),
        (width,))
    source = imputer.inputs[0]
    target = extractor.outputs[0]
    narrowed = graph.fresh_edge(f"{source}_fe")
    graph.remove_node(extractor)
    graph.remove_node(imputer)
    graph.add_node(Node("FeatureExtractor", [source], [narrowed],
                        {"indices": indices.tolist()}))
    graph.add_node(Node("Imputer", [narrowed], [target],
                        {"imputed_values": values[indices].copy()}))
    return True


def _push_through_binarizer(graph: Graph, extractor: Node, binarizer: Node,
                            edge_info) -> bool:
    source = binarizer.inputs[0]
    target = extractor.outputs[0]
    narrowed = graph.fresh_edge(f"{source}_fe")
    threshold = binarizer.attrs.get("threshold", 0.0)
    graph.remove_node(extractor)
    graph.remove_node(binarizer)
    graph.add_node(Node("FeatureExtractor", [source], [narrowed],
                        {"indices": list(extractor.attrs["indices"])}))
    graph.add_node(Node("Binarizer", [narrowed], [target],
                        {"threshold": threshold}))
    return True


def _push_through_constant(graph: Graph, extractor: Node, constant: Node,
                           edge_info) -> bool:
    indices = list(extractor.attrs["indices"])
    value = np.atleast_1d(np.asarray(constant.attrs["value"]))
    target = extractor.outputs[0]
    graph.remove_node(extractor)
    graph.remove_node(constant)
    graph.add_node(Node("Constant", [], [target], {"value": value[indices].copy()}))
    return True


def _push_through_extractor(graph: Graph, extractor: Node, inner: Node,
                            edge_info) -> bool:
    outer_indices = list(extractor.attrs["indices"])
    inner_indices = list(inner.attrs["indices"])
    composed = [inner_indices[i] for i in outer_indices]
    target = extractor.outputs[0]
    source = inner.inputs[0]
    graph.remove_node(extractor)
    graph.remove_node(inner)
    graph.add_node(Node("FeatureExtractor", [source], [target],
                        {"indices": composed}))
    return True


def _push_through_identity(graph: Graph, extractor: Node, identity: Node,
                           edge_info) -> bool:
    extractor.inputs[0] = identity.inputs[0]
    graph.remove_node(identity)
    return True


_PUSH_HANDLERS = {
    "Concat": _push_through_concat,
    "Scaler": _push_through_scaler,
    "OneHotEncoder": _push_through_one_hot,
    "Binarizer": _push_through_binarizer,
    "Imputer": _push_through_imputer,
    "Constant": _push_through_constant,
    "FeatureExtractor": _push_through_extractor,
    "Identity": _push_through_identity,
    # Normalizer intentionally absent: row norms depend on every feature,
    # so a projection cannot move below it.
}
