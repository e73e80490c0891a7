"""Model-projection pushdown (paper §4.1, model-to-data).

Detects features the model never uses (zero-weight linear coefficients,
tree features referenced by no split — on average 46% of features in the
paper's OpenML study) and removes them from the pipeline below it (Fig. 3
steps ➍-➏). Which features each edge must carry is a dataflow question,
answered by one backward liveness pass; one forward pass then narrows the
featurizers (Scaler, Imputer, OneHotEncoder, Concat, ...) to what their
outputs carry, densifies the model, and inserts a ``FeatureExtractor`` only
where an edge carries more than its consumer reads. Unused *pipeline
inputs* disappear and shrink the Predict's input mapping; the relational
optimizer then prunes the columns below joins and out of scans.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

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

#: Operators whose output can be narrowed to any subset of its features.
#: Every other operator (Normalizer, Cast, a model, ...) reads all of its
#: inputs — a model only its used features — and keeps all of its outputs.
_NARROWS = frozenset({"Scaler", "Imputer", "Binarizer", "Identity",
                      "OneHotEncoder", "Concat", "FeatureExtractor",
                      "Constant"})
#: The per-feature attributes a narrowed operator keeps a subset of.
_PER_FEATURE = {"Scaler": ("offset", "scale"), "Imputer": ("imputed_values",),
                "OneHotEncoder": ("categories",), "Constant": ("value",)}


def pushdown_graph(graph: Graph) -> Tuple[List[str], Dict[str, object]]:
    """Narrow every edge to the features the models read.

    Two passes over one topological order and one edge-info map:

    * liveness, in reverse order: an edge carries the sorted union of the
      feature indices its live consumers read. A graph input, a graph
      output and the output of an operator outside :data:`_NARROWS`
      carry all of their features. A node no live edge reads is dead;
    * rewrite, in order: each live node is narrowed in place to what its
      outputs carry (per-feature attributes, Concat blocks, extractor
      indices, a densified model), and a ``FeatureExtractor`` is inserted
      where an edge carries more than its consumer reads.

    Dead nodes and the graph inputs nobody reads are dropped. Mutates
    ``graph``; returns (removed input names, report info).
    """
    order = graph.topological_nodes()
    width = {name: max(edge.width, 1)
             for name, edge in infer_edge_info(graph).items()}

    need: Dict[str, Set[int]] = {name: set(range(width[name]))
                                 for name in graph.outputs}
    carried = {info.name: list(range(width[info.name]))
               for info in graph.inputs}
    live: List[Tuple[Node, List[Optional[List[int]]]]] = []
    for node in reversed(order):
        if not any(name in need for name in node.outputs):
            continue
        for name in node.outputs:
            carried[name] = (sorted(need.get(name, ()))
                             if node.op_type in _NARROWS
                             else list(range(width[name])))
        reads = _reads(node, carried[node.outputs[0]], width)
        for name, read in zip(node.inputs, reads):
            if read is not None:
                need.setdefault(name, set()).update(read)
        live.append((node, reads))

    changed = len(live) < len(order)
    densified = 0
    nodes: List[Node] = []
    for node, reads in reversed(live):
        kept = carried[node.outputs[0]]
        if node.op_type == "FeatureExtractor":
            # An extractor selects straight from what its input carries.
            indices = _positions(carried[node.inputs[0]],
                                 [node.attrs["indices"][j] for j in kept])
            if indices != list(node.attrs["indices"]):
                node.attrs["indices"] = indices
                changed = True
        else:
            if node.op_type in _NARROWS:
                if len(kept) < width[node.outputs[0]]:
                    _narrow(node, kept, width[node.outputs[0]])
                    changed = True
            elif reads and len(reads[0]) < width[node.inputs[0]]:
                # Outside _NARROWS only a model reads part of an input.
                _remap_model_features(node, reads[0])
                densified += 1
            inputs = [name if read == carried[name] else
                      _extract(graph, nodes, name,
                               _positions(carried[name], read))
                      for name, read in zip(node.inputs, reads)
                      if read is not None]
            changed |= inputs != node.inputs
            node.inputs = inputs
        nodes.append(node)
    graph.nodes = nodes

    removed = [info.name for info in graph.inputs if info.name not in need]
    graph.inputs = [info for info in graph.inputs if info.name in need]
    info: Dict[str, object] = {"applied": bool(changed or densified or removed)}
    if densified:
        info["models_densified"] = densified
    if removed:
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


def _reads(node: Node, kept: List[int],
           width: Dict[str, int]) -> List[Optional[List[int]]]:
    """The sorted features ``node`` reads from each input (None: nothing)
    when its first output carries ``kept``."""
    used = used_feature_indices(node)
    if used is not None:
        return [used or [0]]  # a model with no split keeps one feature
    if node.op_type in ("Scaler", "Imputer", "Binarizer", "Identity"):
        return [kept]
    if node.op_type == "OneHotEncoder":
        return [[0]]
    if node.op_type == "FeatureExtractor":
        return [sorted({int(node.attrs["indices"][j]) for j in kept})]
    if node.op_type == "Concat":
        reads: List[Optional[List[int]]] = []
        start = 0
        for name in node.inputs:
            stop = start + width[name]
            block = kept[bisect_left(kept, start):bisect_left(kept, stop)]
            reads.append([k - start for k in block] or None)
            start = stop
        return reads
    return [list(range(width[name])) for name in node.inputs]


def _positions(carried: List[int], features: List[int]) -> List[int]:
    """Where each of ``features`` sits on an edge that carries ``carried``."""
    at = {feature: position for position, feature in enumerate(carried)}
    return [at[int(feature)] for feature in features]


def _extract(graph: Graph, nodes: List[Node], source: str,
             indices: List[int]) -> str:
    """Append a FeatureExtractor over ``source`` to ``nodes``; its output."""
    out = graph.fresh_edge(f"{source}_fe")
    extractor = Node("FeatureExtractor", [source], [out], {"indices": indices})
    graph.nodes.append(extractor)  # claims the edge name
    nodes.append(extractor)
    return out


def _narrow(node: Node, kept: List[int], width: int) -> None:
    """Keep the ``kept`` features of a per-feature operator's attributes."""
    for key in _PER_FEATURE.get(node.op_type, ()):
        value = np.atleast_1d(np.asarray(node.attrs[key]))
        node.attrs[key] = np.broadcast_to(value, (width,))[kept]


def _remap_model_features(node: Node, used: List[int]) -> None:
    """Densify a model to read only its ``used`` features, in order."""
    if node.op_type.startswith("TreeEnsemble"):
        mapping = {original: dense for dense, original in enumerate(used)}
        node.attrs["trees"] = [tree.remap_features(mapping)
                               for tree in node.attrs["trees"]]
    elif node.op_type == "LinearClassifier":
        coefficients = np.asarray(node.attrs["coefficients"])
        node.attrs["coefficients"] = coefficients[:, used].copy()
    elif node.op_type == "LinearRegressor":
        coefficients = np.asarray(node.attrs["coefficients"]).ravel()
        node.attrs["coefficients"] = coefficients[used].copy()
