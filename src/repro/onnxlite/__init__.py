"""Mini-ONNX: operator graphs, converter, runtime and serialization.

Stand-in for ONNX(-ML) + ONNX Runtime in the paper's architecture (the
substitutions are listed in benchmarks/SCORECARD.md). Graphs produced by :func:`convert_pipeline` are the "trained
pipelines" that Raven queries invoke and its rules rewrite.
"""

from repro.onnxlite.convert import convert_model, convert_pipeline
from repro.onnxlite.graph import FLOAT, INT, STRING, Graph, Node, TensorInfo
from repro.onnxlite.ops import (
    EdgeInfo,
    EvalContext,
    evaluate_tree_ensemble_scores,
    infer_edge_info,
    kernel_for,
    supported_operators,
)
from repro.onnxlite.runtime import InferenceSession, run_graph
from repro.onnxlite.serialize import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)

__all__ = [
    "FLOAT", "INT", "STRING", "EdgeInfo", "EvalContext", "Graph",
    "InferenceSession", "Node", "TensorInfo", "convert_model",
    "convert_pipeline", "evaluate_tree_ensemble_scores",
    "graph_from_dict", "graph_to_dict", "infer_edge_info", "kernel_for",
    "load_graph", "run_graph", "save_graph", "supported_operators",
]
