"""The onnxlite inference runtime (stand-in for ONNX Runtime).

An :class:`InferenceSession` validates and topologically orders the graph
and flattens its tree ensembles once (the "session initialization" cost
the paper's MLtoSQL avoids), then evaluates batches with the registered
vectorized kernels.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import GraphError
from repro.onnxlite.graph import Graph, Node
from repro.onnxlite.ops import EvalContext, kernel_for, prepare_node


class InferenceSession:
    """Compiled, reusable evaluator for one graph."""

    def __init__(self, graph: Graph):
        graph.validate()
        self.graph = graph
        self._ordered: List[Node] = graph.topological_nodes()
        self._kernels = [kernel_for(node.op_type) for node in self._ordered]
        # Per-node state (the flat tree form) lives exactly as long as this
        # session and the graph it holds: nothing is cached by object id.
        self._prepared = [prepare_node(node) for node in self._ordered]

    def run(self, inputs: Mapping[str, np.ndarray],
            outputs: Optional[List[str]] = None) -> Dict[str, np.ndarray]:
        """Evaluate the graph over a batch of named input columns.

        Input arrays may be 1-D columns (reshaped to ``[N, 1]``) or already
        2-D feature blocks. Returns the requested (default: all) graph
        outputs keyed by edge name.
        """
        wanted = outputs if outputs is not None else self.graph.outputs
        values: Dict[str, np.ndarray] = {}
        batch_size = None
        for info in self.graph.inputs:
            if info.name not in inputs:
                raise GraphError(f"missing graph input: {info.name!r}")
            array = np.asarray(inputs[info.name])
            if array.ndim == 1:
                array = array.reshape(-1, 1)
            if batch_size is None:
                batch_size = len(array)
            elif len(array) != batch_size:
                raise GraphError(
                    f"input {info.name!r} has {len(array)} rows, expected {batch_size}"
                )
            values[info.name] = array
        if batch_size is None:
            batch_size = 0
        for node, kernel, prepared in zip(self._ordered, self._kernels,
                                          self._prepared):
            node_inputs = [values[name] for name in node.inputs]
            results = kernel(node, node_inputs,
                             EvalContext(batch_size, prepared))
            if len(results) != len(node.outputs):
                raise GraphError(
                    f"{node.op_type} produced {len(results)} outputs, "
                    f"declared {len(node.outputs)}"
                )
            for name, value in zip(node.outputs, results):
                values[name] = value
        missing = [name for name in wanted if name not in values]
        if missing:
            raise GraphError(f"outputs never produced: {missing}")
        return {name: values[name] for name in wanted}


def run_graph(graph: Graph, inputs: Mapping[str, np.ndarray],
              outputs: Optional[List[str]] = None) -> Dict[str, np.ndarray]:
    """One-shot evaluation (builds a fresh session)."""
    return InferenceSession(graph).run(inputs, outputs)
