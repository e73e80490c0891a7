"""Tensor runtime: execute compiled programs on a device.

The thin façade the Raven executor calls for Predict nodes annotated
``DNN_CPU`` / ``DNN_GPU``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.onnxlite.graph import Graph
from repro.tensor.compile import compile_graph
from repro.tensor.device import (
    CpuDevice,
    K80,
    RunResult,
    SimulatedGpuDevice,
)
from repro.tensor.program import TensorProgram


class TensorRuntime:
    """Compiles-and-caches programs, executes them on a chosen device."""

    # Bound on cached compiled programs; eviction just recompiles later.
    MAX_CACHED_PROGRAMS = 64

    def __init__(self, device=None):
        self.device = device or CpuDevice()
        # id(graph) -> (graph, program). The graph is kept referenced so
        # its id cannot be recycled by a later allocation — otherwise a
        # freed graph's address could alias a new graph and serve it the
        # wrong compiled program. LRU-bounded so a long-lived serving
        # process with model churn does not pin graphs forever.
        self._cache: "OrderedDict[int, Tuple[Graph, TensorProgram]]" = OrderedDict()
        self._lock = threading.Lock()

    def compile(self, graph: Graph, tree_strategy: Optional[str] = None) -> TensorProgram:
        key = id(graph)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached[1]
        program = compile_graph(graph, tree_strategy)
        with self._lock:
            existing = self._cache.get(key)
            if existing is not None:
                return existing[1]
            self._cache[key] = (graph, program)
            while len(self._cache) > self.MAX_CACHED_PROGRAMS:
                self._cache.popitem(last=False)
        return program

    def run(self, graph: Graph, inputs: Dict[str, np.ndarray],
            tree_strategy: Optional[str] = None, rows: int = 0) -> RunResult:
        """Run ``graph`` on the device; ``rows`` is the batch's row count
        when the graph reads no input, else its inputs' length."""
        program = self.compile(graph, tree_strategy)
        return self.device.run(program, inputs, rows)


def cpu_runtime() -> TensorRuntime:
    return TensorRuntime(CpuDevice())


def gpu_runtime(spec=K80) -> TensorRuntime:
    return TensorRuntime(SimulatedGpuDevice(spec))
