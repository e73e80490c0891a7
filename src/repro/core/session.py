"""RavenSession: the user-facing entry point (paper §6's Raven Session).

.. code-block:: python

    session = RavenSession()
    session.register_table("patients", table, primary_key=["id"])
    session.register_model("risk", pipeline)           # learn Pipeline,
                                                       # onnxlite Graph, or path
    result = session.sql(\"\"\"
        SELECT d.id, p.score
        FROM PREDICT(MODEL = risk, DATA = patients AS d)
             WITH (score FLOAT) AS p
        WHERE d.asthma = 1
    \"\"\")

The session registers tables and models and hands the rest to three
modules, each owning one decision:

* :class:`~repro.core.engine.Engine` (``session.engine``) — the query
  lifecycle: normalize → admit (circuit breaker) → resolve the plan →
  execute → fold the run's one :class:`RunStats` record. Every run
  (``sql``, ``sql_with_stats``, ``explain(analyze=True)``, a prepared
  plan, a ``serve`` attempt) goes through ``Engine.run``, and every
  optimization through ``Engine.optimize``. The engine's collaborators
  and settings (``catalog``, ``plan_cache``, ``feedback``,
  ``serving_stats``, ``last_run``, ``adaptive``, …) read and assign
  through the session attributes of the same name.
* :class:`~repro.persist.warm.WarmState` (``session.warm``) — warm start
  (``warm_start=``, ``load_snapshot``), export (``snapshot``,
  ``save_snapshot``) and checkpoints into a
  :class:`~repro.persist.SnapshotStore` (``store.attach(session)``).
* :mod:`repro.serving` — the plan cache, the serving counters and the
  batch loop behind :meth:`RavenSession.serve`.

Sessions are safe for concurrent ``sql()`` calls; ``adaptive=False``
turns profiling and the feedback loop off and must give bit-for-bit
identical results (an adaptive session profiles every run).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.adaptive.feedback import FeedbackStore
from repro.core.binder import Binder
from repro.core.engine import Engine
from repro.core.executor import DEFAULT_BATCH_SIZE, PredictRuntime
from repro.core.optimizer import OptimizationReport
from repro.core.parser import parse
from repro.core.record import ROUTE_EXPLAIN, RunStats
from repro.core.strategies import OptimizationStrategy
from repro.errors import CatalogError
from repro.learn.pipeline import Pipeline
from repro.onnxlite.convert import convert_pipeline
from repro.onnxlite.graph import Graph
from repro.onnxlite.serialize import load_graph
from repro.persist.snapshot import Snapshot
from repro.persist.warm import WarmState
from repro.relational.logical import PlanNode
from repro.relational.sqlgen import plan_to_sql
from repro.resilience.breaker import CircuitBreakerBoard
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import QueryOutcome, RetryPolicy
from repro.serving.plan_cache import PlanCache
from repro.serving.serve import serve
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.telemetry import Telemetry
from repro.telemetry.explain import render_analyze


def _engine_attribute(name: str) -> property:
    """``session.<name>`` reads and assigns the engine's ``<name>``."""
    return property(lambda self: getattr(self.engine, name),
                    lambda self, value: setattr(self.engine, name, value))


class RavenSession:
    """A connection-like object owning a catalog and an optimizer setup."""

    telemetry = _engine_attribute("telemetry")
    plan_cache = _engine_attribute("plan_cache")
    breakers = _engine_attribute("breakers")
    feedback = _engine_attribute("feedback")
    runtime = _engine_attribute("runtime")
    faults = _engine_attribute("faults")
    serving_stats = _engine_attribute("serving_stats")
    last_run = _engine_attribute("last_run")
    enable_optimizations = _engine_attribute("enable_optimizations")
    enable_cross = _engine_attribute("enable_cross")
    enable_data_induced = _engine_attribute("enable_data_induced")
    strategy = _engine_attribute("strategy")
    gpu_available = _engine_attribute("gpu_available")
    adaptive = _engine_attribute("adaptive")
    dop = _engine_attribute("dop")
    compile_expressions = _engine_attribute("compile_expressions")

    def __init__(self,
                 enable_optimizations: bool = True,
                 enable_cross: Optional[bool] = None,
                 enable_data_induced: Optional[bool] = None,
                 strategy: Optional[Union[OptimizationStrategy, str]] = None,
                 gpu_available: bool = False,
                 dop: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache: Union[PlanCache, bool] = True,
                 compile_expressions: bool = True,
                 adaptive: bool = True,
                 warm_start: Union[str, Path, Snapshot, None] = None,
                 breakers: Union[CircuitBreakerBoard, bool] = True,
                 faults: Optional[FaultInjector] = None,
                 telemetry: Union[Telemetry, bool, None] = None):
        catalog = Catalog()
        # Runtime telemetry (repro.telemetry): the default keeps the
        # unified metrics registry on and per-query tracing off;
        # telemetry=True also captures span trees; pass a configured
        # Telemetry to share a registry or tune thresholds.
        telemetry = Telemetry.coerce(telemetry)
        # Adaptive execution: profile every run, learn selectivities and
        # costs in the FeedbackStore, re-optimize drifted cached plans.
        # False disables the whole loop (the differential oracle for the
        # adaptive path); results must be bit-for-bit identical.
        feedback = FeedbackStore() if adaptive else None
        # Per-fingerprint circuit breakers: repeated failures of a cached
        # adaptive plan trip to a safe static re-optimization (no learned
        # annotations), half-opening after a recovery interval. Pass a
        # configured CircuitBreakerBoard, or False to disable.
        if not isinstance(breakers, CircuitBreakerBoard):
            breakers = CircuitBreakerBoard() if breakers else None
        # Normalized plan cache (on by default): repeated queries skip
        # parse/bind/optimize. Pass a PlanCache to control capacity, or
        # False to disable. Invalidation is wired to catalog mutations.
        if not isinstance(plan_cache, PlanCache):
            plan_cache = PlanCache() if plan_cache else None
        if plan_cache is not None:
            plan_cache.attach(catalog)
            # Re-home the cache's counters onto the session registry so
            # one snapshot sees cache + serving + latency together.
            plan_cache.stats.bind(telemetry.metrics)
        # Warm start (repro.persist): plans/statistics from a snapshot
        # install lazily as their dependencies get registered.
        self.warm = WarmState(catalog, plan_cache, feedback)
        # compile_expressions=False selects the interpreted expression
        # path (the differential oracle); faults, when set, is consulted
        # at every registered fault site (repro.resilience).
        self.engine = Engine(
            catalog, plan_cache, breakers, feedback, telemetry,
            PredictRuntime(batch_size=batch_size), self.warm,
            enable_optimizations=enable_optimizations,
            enable_cross=enable_cross,
            enable_data_induced=enable_data_induced, strategy=strategy,
            gpu_available=gpu_available, adaptive=adaptive, dop=dop,
            compile_expressions=compile_expressions, faults=faults)
        if warm_start is not None:
            self.load_snapshot(warm_start)

    @property
    def catalog(self) -> Catalog:
        """The engine's catalog; sessions may share one
        (``other.catalog = session.catalog``)."""
        return self.engine.catalog

    @catalog.setter
    def catalog(self, catalog: Catalog) -> None:
        self.engine.catalog = self.warm.catalog = catalog

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Union[Table, PartitionedTable],
                       primary_key: Optional[Sequence[str]] = None,
                       partition_column: Optional[str] = None,
                       replace: bool = False) -> None:
        """Register a table (optionally partitioned by a column)."""
        self.catalog.add_table(name, table, primary_key=primary_key,
                               partition_column=partition_column,
                               replace=replace)

    def spill_table(self, name: str, directory: Union[str, Path],
                    budget_bytes: Optional[int] = None) -> int:
        """Spill a registered table's partitions to memory-mapped files.

        Largest partitions spill first until resident bytes fit
        ``budget_bytes`` (everything spills with no budget); queries keep
        producing bit-for-bit identical results over the read-only
        memmap views. Bytes moved out of memory accumulate in the
        ``spill_bytes`` metric. Spill writes go through the session's
        fault injector (site ``spill.write``), like every other
        persistence path.
        """
        entry = self.catalog.table(name)
        moved = entry.data.spill(directory, budget_bytes=budget_bytes,
                                 faults=self.faults)
        self.telemetry.metrics.counter("spill_bytes").inc(moved)
        return moved

    def register_model(self, name: str,
                       model: Union[Graph, Pipeline, str],
                       replace: bool = False, **metadata) -> Graph:
        """Register a trained pipeline under ``name``.

        Accepts an onnxlite Graph, a ``repro.learn`` Pipeline (converted on
        the fly, like ONNX export), or a path to a serialized graph.
        """
        if isinstance(model, Pipeline):
            graph = convert_pipeline(model, name=name)
        elif isinstance(model, Graph):
            graph = model
        elif isinstance(model, str):
            graph = load_graph(model)
        else:
            raise CatalogError(
                f"cannot register model of type {type(model).__name__}")
        self.catalog.add_model(name, graph, replace=replace, **metadata)
        return graph

    # ------------------------------------------------------------------
    # Persistence & warm start (repro.persist.warm)
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Export this session's warm state (plans, feedback, stats)."""
        return self.warm.snapshot()

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Write :meth:`snapshot` to ``path`` (atomically) and return it."""
        return self.snapshot().save(path)

    def load_snapshot(self, snapshot: Union[str, Path, Snapshot]
                      ) -> Dict[str, int]:
        """Warm-start from a snapshot or a path to one; returns
        :meth:`~repro.persist.warm.WarmState.load`'s summary."""
        return self.warm.load(snapshot)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: str) -> PlanNode:
        """Parse + bind (no optimization)."""
        return Binder(self.catalog).bind(parse(query))

    def optimize(self, query: str):
        """Parse, bind and optimize; returns (plan, report)."""
        return self.engine.optimize(parse(query))

    def explain(self, query: str, analyze: bool = False) -> str:
        """Optimized plan rendering plus the optimizer's report.

        With ``analyze=True`` the query is actually executed — the
        ordinary lifecycle on the explain route: through the plan cache
        (so warm entries render as cache hits) with profiling forced on,
        but past the breaker board, because an EXPLAIN must not consume
        a half-open breaker's trial slot, and leaving the cached entry's
        adaptive state alone — and the plan is annotated with *observed*
        per-operator rows in/out, selectivity, and self-time, plus the
        serving context that produced it: cache hit/miss, circuit-breaker
        state, plan fingerprint, and compile-vs-reuse counts.
        """
        if analyze:
            record = RunStats(query, route=ROUTE_EXPLAIN)
            self.engine.run(record, None)
            return render_analyze(record)
        return self.prepare(query).explain()

    def to_sql_server(self, query: str) -> str:
        """SQL text of the optimized plan (paper §6: SQL Server output)."""
        plan, _ = self.optimize(query)
        return plan_to_sql(plan, self.catalog)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def sql(self, query: str,
            deadline: Union[Deadline, float, None] = None) -> Table:
        """Optimize (or fetch from the plan cache) and execute a query.

        ``deadline`` (seconds, or a :class:`~repro.resilience.Deadline`)
        bounds the call cooperatively: checked at operator boundaries,
        predict batches and plan-cache waits, raising
        :class:`~repro.errors.DeadlineExceededError` at most one check
        interval past expiry.
        """
        return self.sql_with_stats(query, deadline=deadline)[0]

    def sql_with_stats(self, query: str,
                       deadline: Union[Deadline, float, None] = None
                       ) -> Tuple[Table, RunStats]:
        """Like :meth:`sql` but also returns this call's :class:`RunStats`.

        Safe for concurrent use: the record is per call, never read
        back from shared session state. On a plan-cache hit
        ``stats.optimize_seconds`` is just the cache lookup (normalizing
        the query comes before the optimize phase).

        Adaptive sessions profile the execution, fold the observations
        into the feedback store, and — when the feedback-driven passes
        would now produce a different plan than the cached one — mark the
        cache entry stale so the next call re-optimizes it (observable as
        ``plan_cache.stats.reoptimizations``).

        When the query's circuit breaker is open (its adaptive plan
        failed repeatedly), the call is served from a safe static
        re-optimization instead (``stats.static_plan``,
        ``serving_stats.degraded_runs``).
        """
        record = RunStats(query)
        return self.engine.run(record, Deadline.coerce(deadline)), record

    def serve(self, queries: Iterable[str], workers: int = 4,
              max_pending: Optional[int] = None,
              backpressure: str = "block",
              retry: Optional[RetryPolicy] = None,
              deadline: Union[Deadline, float, None] = None
              ) -> List[QueryOutcome]:
        """Run a batch of queries concurrently: one
        :class:`~repro.resilience.QueryOutcome` per query, in order.

        A failing query never stops the batch; its outcome carries the
        typed error, and ``[o.result() for o in session.serve(...)]``
        re-raises the first one in query order. The arguments and the loop
        are described in :mod:`repro.serving.serve`.
        """
        return serve(self.engine, queries, workers=workers,
                     max_pending=max_pending, backpressure=backpressure,
                     retry=retry, deadline=deadline)

    def prepare(self, query: str) -> "PreparedQuery":
        """Optimize once, execute many times (offline optimization, §7.4).

        The paper notes Raven's optimizations "could be performed offline
        (saving the optimized model/plan) — this way Raven can be beneficial
        for any dataset size". A prepared query amortizes the optimizer
        cost across executions and exposes the optimized pipeline graphs
        for persistence.
        """
        plan, report = self.optimize(query)
        return PreparedQuery(self, query, plan, report)

    def execute_plan(self, plan: PlanNode) -> Table:
        """Execute an already-optimized plan."""
        return self.engine.run(RunStats(plan=plan), None)


class PreparedQuery:
    """An optimized, repeatedly-executable prediction query.

    Holds the optimized plan (optimizer cost already paid); the optimized
    model graphs can be saved to disk and re-registered later, so the
    logical optimizations survive across sessions.
    """

    def __init__(self, session: RavenSession, query: str, plan: PlanNode,
                 report: OptimizationReport):
        self.session = session
        self.query = query
        self.plan = plan
        self.report = report

    def execute(self) -> Table:
        """Run the prepared plan (no re-optimization)."""
        return self.execute_with_stats()[0]

    def execute_with_stats(self) -> Tuple[Table, RunStats]:
        """Run the prepared plan, returning this call's stats."""
        record = RunStats(self.query, plan=self.plan, report=self.report)
        return self.session.engine.run(record, None), record

    def optimized_graphs(self) -> List[Graph]:
        """The post-optimization pipeline graphs still in the plan.

        Empty when MLtoSQL compiled every Predict away.
        """
        from repro.relational.logical import find_predict_nodes
        return [predict.graph for predict in find_predict_nodes(self.plan)]

    def save_models(self, directory: str) -> List[str]:
        """Persist the optimized model graphs ("saving the optimized model").

        Returns the written file paths (``<dir>/<model>_optimized.ronnx``).
        """
        import os

        from repro.onnxlite.serialize import save_graph
        from repro.relational.logical import find_predict_nodes

        os.makedirs(directory, exist_ok=True)
        paths: List[str] = []
        for predict in find_predict_nodes(self.plan):
            path = os.path.join(directory,
                                f"{predict.model_name}_optimized.ronnx")
            save_graph(predict.graph, path)
            paths.append(path)
        return paths

    def explain(self) -> str:
        return self.plan.pretty(self.session.catalog) + "\n-- " + \
            self.report.summary().replace("\n", "\n-- ")
