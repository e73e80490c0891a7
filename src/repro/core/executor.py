"""Physical execution of Predict operators.

:class:`PredictRuntime` is the callback the relational executor invokes for
Predict nodes. It mirrors the paper's Spark integration (§6): inputs arrive
as columnar batches (10k rows by default, like Spark's vectorized Python
UDF), the inference session is cached per model to amortize initialization,
and the chosen physical mode routes to the onnxlite runtime or the tensor
runtime (CPU / simulated GPU). The onnxlite runtime reads string columns
as dictionary codes; the tensor runtime reads decoded strings.

Because the GPU is simulated, runs through the GPU device *measure* numpy
time but *report* modeled time; the runtime accumulates the difference so
callers can adjust end-to-end wall-clock numbers (``gpu_time_adjustment``).
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.onnxlite.graph import Graph
from repro.onnxlite.runtime import InferenceSession
from repro.relational.logical import Predict, PredictMode
from repro.relational.morsel import MorselExecutor, chunk_ranges
from repro.storage.catalog import Catalog
from repro.storage.column import Column, DataType
from repro.storage.table import Table
from repro.tensor.device import CpuDevice, K80, SimulatedGpuDevice
from repro.tensor.runtime import TensorRuntime

DEFAULT_BATCH_SIZE = 10_000
# Bound on cached per-model inference sessions: long-lived serving
# sessions that churn models (replace=True) must not pin every graph
# they ever executed. Eviction only costs a re-initialization later.
MAX_CACHED_SESSIONS = 64


class PredictRuntime:
    """Executes Predict nodes; reusable across queries within a session."""

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE, gpu_spec=K80):
        self.batch_size = batch_size
        self._sessions: "OrderedDict[int, InferenceSession]" = OrderedDict()
        # Guards the session cache and gpu_time_adjustment: one runtime
        # serves every morsel worker of a query.
        self._lock = threading.Lock()
        self._tensor_cpu = TensorRuntime(CpuDevice())
        self._tensor_gpu = TensorRuntime(SimulatedGpuDevice(gpu_spec))
        # Accumulated (modeled - measured) seconds for simulated devices.
        self.gpu_time_adjustment = 0.0
        # Optional repro.resilience.FaultInjector (shared by clones) and
        # per-call repro.resilience.Deadline: checked before every predict
        # batch so a long chunked inference can't sail past its deadline.
        self.faults = None
        self.deadline = None
        # Optional per-call telemetry Span: when set, every inference
        # batch is recorded as a ``predict.batch`` child span.
        self.span = None

    def for_call(self) -> "PredictRuntime":
        """A per-call view of this runtime for concurrent execution.

        The clone *shares* the expensive caches — per-model inference
        sessions and the tensor runtimes' compiled programs — but gets its
        own per-call state (deadline, span, accumulated GPU time
        adjustment), so concurrent ``RavenSession.sql()`` calls never
        observe each other's budget or timing.
        """
        clone = copy.copy(self)
        clone.gpu_time_adjustment = 0.0
        clone.deadline = None
        clone.span = None
        return clone

    def add_gpu_adjustment(self, seconds: float) -> None:
        """Add to ``gpu_time_adjustment`` under the lock every clone of
        this runtime shares."""
        with self._lock:
            self.gpu_time_adjustment += seconds

    def _pre_batch(self, detail: str = "") -> None:
        """Deadline check + fault hook before one inference batch."""
        if self.deadline is not None:
            self.deadline.check("predict batch")
        if self.faults is not None:
            self.faults.fire("predict.run", detail=detail)

    # ------------------------------------------------------------------
    def __call__(self, node: Predict, table: Table,
                 partition: Optional[int] = None) -> Table:
        """Score ``table``; ``partition`` selects the partition-specialized
        graph (data-induced optimization) when the node carries them.

        The ML runtime is handed a coded STRING column as its codes plus
        its dictionary (see :meth:`InferenceSession.run`), so its
        featurizers gather by code and nothing here decodes strings; the
        tensor (DNN) modes get decoded arrays.
        """
        graph = (node.per_partition_graphs[partition]
                 if node.per_partition_graphs and partition is not None
                 else node.graph)
        wanted = [graph_output for _, graph_output, _ in node.output_columns]

        inputs, dictionaries = _model_inputs(
            node, table, coded=node.mode is PredictMode.ML_RUNTIME)
        if node.mode is PredictMode.ML_RUNTIME:
            outputs = self.run_graph_batched(graph, inputs, wanted,
                                             table.num_rows, dictionaries)
        elif node.mode is PredictMode.DNN_CPU:
            outputs = self._run_tensor(self._tensor_cpu, graph, inputs, wanted,
                                       table.num_rows)
        elif node.mode is PredictMode.DNN_GPU:
            outputs = self._run_tensor(self._tensor_gpu, graph, inputs, wanted,
                                       table.num_rows)
        else:  # pragma: no cover - exhaustive over PredictMode
            raise ExecutionError(f"unknown predict mode: {node.mode}")

        columns = []
        for exposed, graph_output, dtype in node.output_columns:
            columns.append((exposed, _to_column(outputs[graph_output], dtype)))
        return Table(columns)

    # ------------------------------------------------------------------
    def session_for(self, graph: Graph) -> InferenceSession:
        """The cached inference session for a graph (shared across threads).

        LRU-bounded by :data:`MAX_CACHED_SESSIONS`. Keyed by ``id(graph)``,
        which is safe because the cached :class:`InferenceSession` holds a
        reference to its graph — an id can only be recycled after its entry
        is gone. Initialization happens outside the lock; a concurrent
        first call for the same graph keeps the winner's session.
        """
        key = id(graph)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
        session = InferenceSession(graph)
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            self._sessions[key] = session
            while len(self._sessions) > MAX_CACHED_SESSIONS:
                self._sessions.popitem(last=False)
        return session

    def run_graph_batched(self, graph: Graph, inputs: Dict[str, np.ndarray],
                          wanted: List[str], num_rows: int,
                          dictionaries: Optional[Dict[str, np.ndarray]] = None
                          ) -> Dict[str, np.ndarray]:
        """Batched evaluation, like Spark's vectorized UDF (10k-row batches).

        Every call runs in :attr:`batch_size` batches — nothing overrides
        it per plan: the tree kernel's cost per row does not depend on the
        batch size, so a bigger batch would only hold more memory. Chunk
        boundaries never change results: every graph operator is
        row-independent.
        ``dictionaries`` marks coded inputs, as in
        :meth:`InferenceSession.run`; their codes are what gets chunked.
        """
        session = self.session_for(graph)
        if num_rows <= self.batch_size:
            return self._run_batch(session, inputs, wanted, num_rows,
                                   dictionaries)
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}
        n_chunks = -(-num_rows // self.batch_size)
        for start, stop in chunk_ranges(num_rows, n_chunks):
            batch = {name: array[start:stop] for name, array in inputs.items()}
            result = self._run_batch(session, batch, wanted, stop - start,
                                     dictionaries)
            for name in wanted:
                pieces[name].append(result[name])
        return {name: np.concatenate(chunks) for name, chunks in pieces.items()}

    def _run_batch(self, session: InferenceSession,
                   batch: Dict[str, np.ndarray], wanted: List[str],
                   rows: int, dictionaries) -> Dict[str, np.ndarray]:
        """One inference batch, under a ``predict.batch`` span if traced."""
        self._pre_batch(detail=f"rows={rows}")
        if self.span is None:
            return session.run(batch, wanted, dictionaries, rows)
        with self.span.child("predict.batch", category="predict", rows=rows):
            return session.run(batch, wanted, dictionaries, rows)

    def _run_tensor(self, runtime: TensorRuntime, graph: Graph,
                    inputs: Dict[str, np.ndarray], wanted: List[str],
                    rows: int) -> Dict[str, np.ndarray]:
        self._pre_batch(detail=f"device={runtime.device.name}")
        span = (self.span.child("predict.batch", category="predict",
                                device=runtime.device.name)
                if self.span is not None else None)
        started = time.perf_counter()
        result = runtime.run(graph, inputs, rows=rows)
        measured = time.perf_counter() - started
        if span is not None:
            span.finish()
        if runtime.device.simulated:
            self.add_gpu_adjustment(result.seconds - measured)
        missing = [name for name in wanted if name not in result.outputs]
        if missing:
            raise ExecutionError(f"tensor program lacks outputs: {missing}")
        return result.outputs


def _model_inputs(node: Predict, table: Table, coded: bool):
    """``(inputs, dictionaries)`` for the graph: with ``coded``, a coded
    STRING column goes in as its codes, its dictionary in the second map;
    otherwise every column goes in as its (decoded) data."""
    inputs, dictionaries = {}, {}
    for name, column_name in node.input_mapping.items():
        column = table.column(column_name)
        if coded and column.codes is not None:
            inputs[name], dictionaries[name] = column.codes, column.dictionary
        else:
            inputs[name] = column.data
    return inputs, dictionaries


def _to_column(array: np.ndarray, dtype: DataType) -> Column:
    if array.ndim == 2:
        if array.shape[1] != 1:
            raise ExecutionError(
                f"prediction output has width {array.shape[1]}, expected 1"
            )
        array = array[:, 0]
    return Column(array, dtype)


# ---------------------------------------------------------------------------
# Plan-level execution
# ---------------------------------------------------------------------------

class QueryExecutor(MorselExecutor):
    """Executes optimized plans: the morsel driver bound to a PredictRuntime.

    Scan fan-out — degree of parallelism, partition-specialized models
    (one task per partition with a partition-local model, like Spark,
    paper §6) and zone-map skipping — is all
    :class:`~repro.relational.morsel.MorselExecutor`; this class only
    mirrors the per-query deadline, fault injector and the record's span
    onto the predict runtime so predict batches are bounded and traced
    like the relational operators around them.
    """

    def __init__(self, catalog: Catalog, runtime: Optional[PredictRuntime] = None,
                 dop: int = 1, compile_expressions: bool = True,
                 record=None, deadline=None, faults=None,
                 feedback=None, metrics=None):
        self.runtime = runtime or PredictRuntime()
        super().__init__(catalog, dop, self.runtime,
                         compile_expressions=compile_expressions,
                         record=record, deadline=deadline, faults=faults,
                         feedback=feedback, metrics=metrics)
        if deadline is not None:
            self.runtime.deadline = deadline
        if faults is not None:
            self.runtime.faults = faults
        if self.record.span is not None:
            self.runtime.span = self.record.span
