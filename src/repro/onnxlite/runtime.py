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
from repro.onnxlite.ops import (
    READS_ANY_ORDER,
    READS_CODES,
    Coded,
    EvalContext,
    kernel_for,
    prepare_node,
)


class InferenceSession:
    """Compiled, reusable evaluator for one graph."""

    def __init__(self, graph: Graph):
        graph.validate()
        self.graph = graph
        self._ordered: List[Node] = graph.topological_nodes()
        self._kernels = [kernel_for(node.op_type) for node in self._ordered]
        # Per-node state (the flat tree form, featurizer lookups) lives
        # exactly as long as this session and the graph it holds: nothing
        # is cached by object id.
        self._prepared = [prepare_node(node) for node in self._ordered]
        readers = graph.consumers()

        def read_only_by(edge: str, op_types) -> bool:
            return (edge not in graph.outputs and bool(readers.get(edge))
                    and all(node.op_type in op_types for node in readers[edge]))

        # Coded inputs that only code-reading kernels see stay codes.
        self._keeps_codes = {info.name for info in graph.inputs
                             if read_only_by(info.name, READS_CODES)}
        # A Concat only tree kernels read is built feature-major.
        self._feature_major = [
            node.op_type == "Concat"
            and read_only_by(node.outputs[0], READS_ANY_ORDER)
            for node in self._ordered]

    def run(self, inputs: Mapping[str, np.ndarray],
            outputs: Optional[List[str]] = None,
            dictionaries: Optional[Mapping[str, np.ndarray]] = None,
            rows: int = 0) -> Dict[str, np.ndarray]:
        """Evaluate the graph over a batch of named input columns.

        Input arrays may be 1-D columns (reshaped to ``[N, 1]``) or already
        2-D feature blocks. ``dictionaries`` maps a string input to its
        sorted dictionary; that input's array then holds 1-D integer codes.
        An input read only by code-reading kernels reaches them as a
        :class:`~repro.onnxlite.ops.Coded`; for any other reader — a graph
        output passing the input through included — it is decoded to
        ``dictionary[codes]`` once per batch. Returns the requested
        (default: all) graph outputs keyed by edge name. ``rows`` is the
        batch's row count when the graph reads no input (a model whose
        every input a predicate made constant), else its inputs' length.
        """
        wanted = outputs if outputs is not None else self.graph.outputs
        dictionaries = dictionaries or {}
        values: Dict[str, np.ndarray] = {}
        batch_size = None
        for info in self.graph.inputs:
            if info.name not in inputs:
                raise GraphError(f"missing graph input: {info.name!r}")
            array = np.asarray(inputs[info.name])
            dictionary = dictionaries.get(info.name)
            if dictionary is not None and info.name in self._keeps_codes:
                value = Coded(array, dictionary)
            else:
                if dictionary is not None:
                    array = dictionary[array]
                value = array.reshape(-1, 1) if array.ndim == 1 else array
            if batch_size is None:
                batch_size = len(array)
            elif len(array) != batch_size:
                raise GraphError(
                    f"input {info.name!r} has {len(array)} rows, expected {batch_size}"
                )
            values[info.name] = value
        if batch_size is None:
            batch_size = rows
        for node, kernel, prepared, feature_major in zip(
                self._ordered, self._kernels, self._prepared,
                self._feature_major):
            node_inputs = [values[name] for name in node.inputs]
            results = kernel(node, node_inputs,
                             EvalContext(batch_size, prepared, feature_major))
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
