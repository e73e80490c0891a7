"""JSON (de)serialization of onnxlite graphs — the ``.onnx`` file stand-in.

A tree is written as its own parallel node arrays in pre-order, under the
ONNX-ML ``TreeEnsemble*`` attribute names (``nodes_featureids``,
``nodes_values``, ``nodes_truenodeids``, ...), so the on-disk format is
structurally faithful to TreeEnsembleClassifier protos. A leaf's
``leaf_values`` entry is its value row; an internal node's is empty.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphError
from repro.learn.tree import Tree
from repro.onnxlite.graph import Graph, Node, TensorInfo


# ---------------------------------------------------------------------------
# Tree <-> parallel arrays
# ---------------------------------------------------------------------------

def _tree_to_dict(tree: Tree) -> dict:
    leaf = (tree.left < 0).tolist()
    return {
        "nodes_featureids": tree.feature.tolist(),
        "nodes_values": tree.threshold.tolist(),
        "nodes_modes": ["LEAF" if is_leaf else "BRANCH_LEQ" for is_leaf in leaf],
        "nodes_truenodeids": tree.left.tolist(),
        "nodes_falsenodeids": tree.right.tolist(),
        "leaf_values": [row if is_leaf else []
                        for row, is_leaf in zip(tree.value.tolist(), leaf)],
        "nodes_samples": tree.n_samples.tolist(),
    }


def _tree_from_dict(data: dict) -> Tree:
    rows = data["leaf_values"]
    internal = [0.0] * max(len(row) for row in rows)
    return Tree(data["nodes_featureids"], data["nodes_values"],
                data["nodes_truenodeids"], data["nodes_falsenodeids"],
                [row or internal for row in rows],
                data.get("nodes_samples", [0] * len(rows)))


# ---------------------------------------------------------------------------
# Attribute encoding
# ---------------------------------------------------------------------------

def _encode_attr(value) -> dict:
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "U":
            return {"kind": "string_array", "data": value.tolist()}
        return {"kind": "array", "data": value.tolist(),
                "dtype": "int" if value.dtype.kind in "iu" else "float"}
    if isinstance(value, Tree):
        return {"kind": "tree", "data": _tree_to_dict(value)}
    if isinstance(value, list) and value and isinstance(value[0], Tree):
        return {"kind": "trees", "data": [_tree_to_dict(t) for t in value]}
    if isinstance(value, (bool, int, float, str)):
        return {"kind": "scalar", "data": value}
    if isinstance(value, list):
        return {"kind": "list", "data": value}
    raise GraphError(f"cannot serialize attribute of type {type(value).__name__}")


def _decode_attr(payload: dict):
    kind = payload["kind"]
    data = payload["data"]
    if kind == "string_array":
        return np.asarray(data, dtype=np.str_)
    if kind == "array":
        dtype = np.int64 if payload.get("dtype") == "int" else np.float64
        return np.asarray(data, dtype=dtype)
    if kind == "tree":
        return _tree_from_dict(data)
    if kind == "trees":
        return [_tree_from_dict(t) for t in data]
    if kind in ("scalar", "list"):
        return data
    raise GraphError(f"unknown attribute kind: {kind!r}")


# ---------------------------------------------------------------------------
# Graph <-> dict / file
# ---------------------------------------------------------------------------

def graph_to_dict(graph: Graph) -> dict:
    """Serialize a graph to a JSON-compatible dict."""
    return {
        "format": "repro-onnxlite-v1",
        "name": graph.name,
        "inputs": [{"name": i.name, "dtype": i.dtype, "width": i.width}
                   for i in graph.inputs],
        "outputs": list(graph.outputs),
        "nodes": [{
            "op_type": node.op_type,
            "name": node.name,
            "inputs": node.inputs,
            "outputs": node.outputs,
            "attrs": {key: _encode_attr(value)
                      for key, value in node.attrs.items()},
        } for node in graph.nodes],
    }


def graph_from_dict(payload: dict) -> Graph:
    """Rebuild (and validate) a graph from :func:`graph_to_dict` output."""
    if payload.get("format") != "repro-onnxlite-v1":
        raise GraphError("not an onnxlite graph payload")
    graph = Graph(
        payload["name"],
        [TensorInfo(i["name"], i["dtype"], i["width"]) for i in payload["inputs"]],
        list(payload["outputs"]),
    )
    for spec in payload["nodes"]:
        attrs = {key: _decode_attr(value) for key, value in spec["attrs"].items()}
        graph.add_node(Node(spec["op_type"], spec["inputs"], spec["outputs"],
                            attrs, spec["name"]))
    graph.validate()
    return graph


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write a graph to disk as JSON (the '.onnx file' stand-in)."""
    Path(path).write_text(json.dumps(graph_to_dict(graph)))


def load_graph(path: Union[str, Path]) -> Graph:
    """Read a graph written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))
