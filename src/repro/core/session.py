"""RavenSession: the user-facing entry point (paper §6's Raven Session).

Wraps catalog + parser + optimizer + executor:

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

**One record per query.** Every run — ``sql()``, a ``serve`` attempt,
``explain(analyze=True)``, a prepared plan — creates one
:class:`RunStats` and is the only thing the run writes to: the session
stamps the route, the cache outcome, named events (``cache.*``,
``breaker.*``, ``plan.stale``), phase timings and the error; the
executors write per-operator rows and time, conjunct/join-step/partition
observations and expression-program counts straight onto it. Nothing
else is kept while a query runs.

**One lifecycle.** :meth:`RavenSession._sql_routed` is linear —
normalize → admit (circuit breaker) → resolve the plan (the plan cache,
or the open breaker's static entry) → execute — and the routes
(adaptive, half-open trial, degraded-static, explain) differ only in
which of those steps they take, never in a separate code path.

**One fold.** :meth:`RavenSession._fold` runs once when the lifecycle
ends, on success and on every error, and derives everything else from
the record: feedback-store observations and the staleness check that
re-optimizes drifted cached plans (``plan_cache.stats.reoptimizations``),
the query-run ``serving_stats`` counters, latency histograms, the
slow-query log entry, trace root attributes, and ``session.last_run``.
``sql_with_stats`` returns the record; EXPLAIN ANALYZE renders it.

Around that core: sessions are safe for concurrent ``sql()`` calls, keep
a normalized plan cache (:mod:`repro.serving`) and run batches, one
outcome per query (:meth:`RavenSession.serve`, described in
:mod:`repro.serving.serve`);
``RavenSession(adaptive=False)`` turns profiling and the feedback loop
off and must produce bit-for-bit identical results (an adaptive session
profiles every run); and the session's warm state — optimized plans,
learned feedback, catalog statistics — survives a restart through
:mod:`repro.persist` (``save_snapshot`` / ``warm_start=`` / an attached
:class:`~repro.persist.SnapshotStore` checkpointing every K
re-optimizations, whose newest file ``store.load_latest()`` reads back).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.profile import OperatorProfile
from repro.adaptive.reopt import feedback_divergence
from repro.core.binder import Binder
from repro.core.executor import DEFAULT_BATCH_SIZE, PredictRuntime, QueryExecutor
from repro.core.optimizer import OptimizationReport, RavenOptimizer
from repro.core.parser import parse
from repro.core.record import ROUTE_EXPLAIN, RunStats
from repro.core.strategies import OptimizationStrategy
from repro.errors import (
    BackpressureError,
    CatalogError,
    DeadlineExceededError,
    PersistError,
    RavenError,
)
from repro.learn.pipeline import Pipeline
from repro.onnxlite.convert import convert_pipeline
from repro.onnxlite.graph import Graph
from repro.onnxlite.serialize import load_graph
from repro.persist.snapshot import (
    Snapshot,
    build_snapshot,
    install_plans,
    table_digest,
)
from repro.relational.logical import PlanNode
from repro.relational.optimizer import RelationalOptimizer
from repro.resilience.breaker import (
    CircuitBreakerBoard,
    EVENT_CLOSED,
    EVENT_REOPENED,
    EVENT_TRIPPED,
    ROUTE_ADAPTIVE,
    ROUTE_DEGRADED,
    ROUTE_TRIAL,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import QueryOutcome, RetryPolicy
from repro.relational.sqlgen import plan_to_sql
from repro.serving.normalize import normalize_query, query_dependencies
from repro.serving.plan_cache import CachedPlan, PlanCache, dependency_versions
from repro.serving.serve import serve
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.telemetry import Telemetry
from repro.telemetry.explain import render_analyze
from repro.telemetry.metrics import CounterStats, MetricsRegistry

class ServingStats(CounterStats):
    """Counters for session serving traffic (monotonic).

    ``rejected`` counts queries refused by the ``"raise"`` backpressure
    policy when the bounded pending-query depth was full; ``failed`` are
    queries whose final serve outcome was an error (retries exhausted or
    non-retryable); ``retries`` are individual retry attempts;
    ``deadline_exceeded`` counts :class:`DeadlineExceededError` raises;
    ``degraded_runs`` are executions served from a breaker's static
    re-optimization; ``expression_fallbacks`` are compiled-engine →
    interpreted-oracle falls; the ``breaker_*`` fields mirror the
    board's transitions. The resilience counters also cover direct
    ``sql()`` calls, not just ``serve`` batches — a breaker trip is a
    breaker trip however the query arrived.

    Registry counters ``serving_<field>`` (on the session's shared
    registry, so one metrics snapshot or Prometheus scrape sees them)
    behind the attribute API of
    :class:`~repro.telemetry.metrics.CounterStats`.

    ``queries_in_flight`` is the one non-monotonic member: a gauge of
    queries currently inside ``sql()`` (incremented on entry, decremented
    in a ``finally`` so error paths can never wedge it high). It is
    carried by snapshots and the repr but is not part of equality.
    """

    PREFIX = "serving"
    FIELDS = ("submitted", "completed", "rejected", "failed", "retries",
              "deadline_exceeded", "degraded_runs", "expression_fallbacks",
              "breaker_trips", "breaker_reopens", "breaker_half_opens",
              "breaker_closes")

    __slots__ = ("in_flight",)

    def __init__(self, *values: int, queries_in_flight: int = 0,
                 registry: Optional[MetricsRegistry] = None, **named: int):
        if registry is None:
            registry = MetricsRegistry()
        super().__init__(*values, registry=registry, **named)
        self.in_flight = registry.gauge("serving_queries_in_flight")
        if queries_in_flight:
            self.in_flight.set(queries_in_flight)

    @property
    def queries_in_flight(self) -> int:
        return self.in_flight.value

    def snapshot(self) -> "ServingStats":
        return ServingStats(*self._values(),
                            queries_in_flight=self.queries_in_flight)

    def __repr__(self) -> str:
        return (f"{super().__repr__()[:-1]}, "
                f"queries_in_flight={self.queries_in_flight})")


#: The serving counter each lifecycle event on a record bumps when the
#: record is folded.
_EVENT_COUNTERS = {
    f"breaker.{ROUTE_TRIAL}": "breaker_half_opens",
    f"breaker.{ROUTE_DEGRADED}": "degraded_runs",
    f"breaker.{EVENT_TRIPPED}": "breaker_trips",
    f"breaker.{EVENT_REOPENED}": "breaker_reopens",
    f"breaker.{EVENT_CLOSED}": "breaker_closes",
}


class RavenSession:
    """A connection-like object owning a catalog and an optimizer setup."""

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
        self.catalog = Catalog()
        # Runtime telemetry (repro.telemetry): the default keeps the
        # unified metrics registry on and per-query tracing off;
        # telemetry=True also captures span trees; pass a configured
        # Telemetry to share a registry or tune thresholds.
        self.telemetry = Telemetry.coerce(telemetry)
        # Compiled expression engine (CSE + leaf-id CASE routing) for
        # Filter/Project evaluation; False selects the interpreted
        # np.select path (the differential-testing oracle).
        self.compile_expressions = compile_expressions
        # Adaptive execution: profile every run, learn selectivities and
        # costs in the FeedbackStore, re-optimize drifted cached plans.
        # False disables the whole loop (the differential oracle for the
        # adaptive path); results must be bit-for-bit identical.
        self.adaptive = adaptive
        self.feedback: Optional[FeedbackStore] = (
            FeedbackStore() if adaptive else None)
        self.enable_cross = enable_optimizations if enable_cross is None \
            else enable_cross
        self.enable_data_induced = enable_optimizations \
            if enable_data_induced is None else enable_data_induced
        self.enable_optimizations = enable_optimizations
        self.strategy = strategy if enable_optimizations else "none"
        self.gpu_available = gpu_available
        self.dop = dop
        self.runtime = PredictRuntime(batch_size=batch_size)
        self.last_run: Optional[RunStats] = None
        self.serving_stats = ServingStats(registry=self.telemetry.metrics)
        # Fault injection (repro.resilience): when set, every registered
        # site in this session's stack consults the injector. None (the
        # default) keeps the hooks to a single attribute check.
        self.faults = faults
        self.runtime.faults = faults
        # Per-fingerprint circuit breakers: repeated failures of a cached
        # adaptive plan trip to a safe static re-optimization (no learned
        # annotations), half-opening after a recovery interval. Pass a
        # configured CircuitBreakerBoard, or False to disable.
        if isinstance(breakers, CircuitBreakerBoard):
            self.breakers: Optional[CircuitBreakerBoard] = breakers
        else:
            self.breakers = CircuitBreakerBoard() if breakers else None
        # Normalized plan cache (on by default): repeated queries skip
        # parse/bind/optimize. Pass a PlanCache to control capacity, or
        # False to disable. Invalidation is wired to catalog mutations.
        if isinstance(plan_cache, PlanCache):
            self.plan_cache: Optional[PlanCache] = plan_cache
        else:
            self.plan_cache = PlanCache() if plan_cache else None
        if self.plan_cache is not None:
            self.plan_cache.attach(self.catalog)
            # Re-home the cache's counters onto the session registry so
            # one snapshot sees cache + serving + latency together.
            self.plan_cache.stats.bind(self.telemetry.metrics)
        self._stats_lock = threading.Lock()
        # Warm start (repro.persist): plans/statistics from a snapshot
        # install lazily as their dependencies get registered.
        self._warm_lock = threading.Lock()
        self._warm_install_lock = threading.Lock()
        self._warm_plans: List[dict] = []
        self._warm_stats: Dict[str, dict] = {}
        self._warm_listening = False
        self._snapshot_store = None
        self._checkpoint_every = 0
        self._checkpointed_reopts = 0
        if warm_start is not None:
            self.load_snapshot(warm_start)

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
                f"cannot register model of type {type(model).__name__}"
            )
        self.catalog.add_model(name, graph, replace=replace, **metadata)
        return graph

    # ------------------------------------------------------------------
    # Persistence & warm start (repro.persist)
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Export this session's warm state (plans, feedback, stats)."""
        return build_snapshot(self)

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Write :meth:`snapshot` to ``path`` (atomically) and return it."""
        return self.snapshot().save(path)

    def load_snapshot(self, snapshot: Union[str, Path, Snapshot]) -> Dict[str, int]:
        """Warm-start this session from a snapshot (or a path to one).

        Feedback loads into the session's store immediately: each loaded
        entry replaces the resident one for its fingerprint, so loading
        the same snapshot twice equals loading it once. Plan
        entries and table statistics whose dependencies are already
        registered install now; the rest stay pending and install
        automatically as matching tables/models are registered. Entries
        whose dependencies exist with *different* content (schema or
        model changed) are dropped — the ordinary miss path re-optimizes.

        Returns a summary dict: ``plans_installed`` / ``plans_pending`` /
        ``plans_dropped`` / ``feedback_operators`` / ``tables_with_stats``.
        """
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.load(snapshot)
        summary = {"plans_installed": 0, "plans_pending": 0,
                   "plans_dropped": 0, "feedback_operators": 0,
                   "tables_with_stats": 0}
        if snapshot.feedback is not None and self.feedback is not None:
            # load_state validates the whole payload before replacing
            # anything (all-or-nothing), so a malformed feedback export
            # degrades to "no feedback" — plans and statistics still
            # load — instead of crashing the constructor.
            try:
                self.feedback.load_state(snapshot.feedback)
                summary["feedback_operators"] = len(
                    snapshot.feedback.get("operators", {}))
            except PersistError:
                pass
        summary["tables_with_stats"] = len(snapshot.table_stats)
        with self._warm_lock:
            self._warm_stats.update(snapshot.table_stats)
            if self.plan_cache is not None:
                self._warm_plans.extend(snapshot.plans)
        # Subscribe *before* the initial install pass (and after the plan
        # cache's invalidation hook, so a registration first invalidates,
        # then installs): a registration landing between the pass and a
        # later subscription would otherwise leave its plans pending
        # forever. catalog.subscribe is idempotent.
        if not self._warm_listening:
            self.catalog.subscribe(self._on_warm_catalog_change)
            self._warm_listening = True
        for name in self.catalog.table_names:
            self._augment_warm_stats(name)
        installed, dropped = self._install_warm_plans()
        summary["plans_installed"] = installed
        summary["plans_dropped"] = dropped
        with self._warm_lock:
            summary["plans_pending"] = len(self._warm_plans)
        return summary

    def _on_warm_catalog_change(self, kind: str, name: str) -> None:
        if kind == "table":
            self._augment_warm_stats(name)
        self._install_warm_plans()

    def _augment_warm_stats(self, name: str) -> None:
        """Apply a snapshot's statistics to a freshly registered table.

        Only fills fields live collection left unknown, and only when the
        table's content digest still matches the snapshot's — statistics
        from a different schema must never leak in. Applied (or
        discarded) once per table.
        """
        from repro.storage.statistics import TableStats

        with self._warm_lock:
            payload = self._warm_stats.get(name)
        if payload is None or not self.catalog.has_table(name):
            return
        if table_digest(self.catalog.table(name)) == payload.get("digest"):
            try:
                stats = TableStats.from_dict(payload["stats"])
            except (KeyError, TypeError, ValueError):
                stats = None
            if stats is not None:
                self.catalog.augment_stats(name, stats)
            try:
                partition_stats = [TableStats.from_dict(part) for part
                                   in payload.get("partitions") or []]
            except (KeyError, TypeError, ValueError):
                partition_stats = []
            if partition_stats:
                # Matching digest means matching content, and
                # partitioning is a pure function of content — the
                # layout check inside is just belt and braces.
                self.catalog.augment_partition_stats(name, partition_stats)
        with self._warm_lock:
            self._warm_stats.pop(name, None)

    def _install_warm_plans(self) -> Tuple[int, int]:
        """Try installing pending snapshot plans; ``(installed, dropped)``.

        Serialized by ``_warm_install_lock`` so a concurrent registration
        cannot observe an empty pending list mid-install and skip entries
        that just became ready. Only lock-free catalog reads happen under
        the lock (no catalog-lock inversion with the change listener).
        """
        if self.plan_cache is None:
            return 0, 0
        with self._warm_install_lock:
            with self._warm_lock:
                pending = self._warm_plans
                self._warm_plans = []
            if not pending:
                return 0, 0
            installed, still_pending, dropped = install_plans(
                self.plan_cache, self.catalog, pending)
            with self._warm_lock:
                self._warm_plans = still_pending + self._warm_plans
        return installed, dropped

    def attach_snapshot_store(self, store,
                              every_reoptimizations: int = 8) -> None:
        """Auto-checkpoint into ``store`` every K re-optimizations.

        Every K adaptive re-optimizations — the moments cached plans
        actually changed — the session writes a fresh snapshot through
        the :class:`~repro.persist.SnapshotStore`.
        """
        if every_reoptimizations < 1:
            raise ValueError("every_reoptimizations must be >= 1")
        self._checkpointed_reopts = (
            self.plan_cache.stats.reoptimizations
            if self.plan_cache is not None else 0)
        self._checkpoint_every = every_reoptimizations
        self._snapshot_store = store

    def detach_snapshot_store(self) -> None:
        self._snapshot_store = None

    def _maybe_checkpoint(self) -> None:
        store = self._snapshot_store
        if store is None or self.plan_cache is None:
            return
        reoptimizations = self.plan_cache.stats.reoptimizations
        with self._stats_lock:
            previous = self._checkpointed_reopts
            if reoptimizations - previous < self._checkpoint_every:
                return
            self._checkpointed_reopts = reoptimizations
        try:
            store.save(self)
        except (OSError, RavenError):
            # Checkpoints are best-effort: a full disk, or a concurrent
            # drop_table racing build_snapshot's catalog reads, must not
            # fail the serving call that crossed the threshold.
            # Un-claim the counter so a later crossing retries.
            with self._stats_lock:
                if self._checkpointed_reopts == reoptimizations:
                    self._checkpointed_reopts = previous

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: str) -> PlanNode:
        """Parse + bind (no optimization)."""
        return Binder(self.catalog).bind(parse(query))

    def _optimizer(self, static: bool = False) -> RavenOptimizer:
        """The session optimizer; ``static=True`` builds the degraded-mode
        variant that trusts no learned annotation (no feedback store, so
        conjuncts and join regions stay in query-text order)."""
        return RavenOptimizer(
            self.catalog,
            enable_cross=self.enable_cross,
            enable_data_induced=self.enable_data_induced,
            strategy=self.strategy,
            gpu_available=self.gpu_available,
            feedback=self.feedback if self.adaptive and not static else None,
        )

    def optimize(self, query: str):
        """Parse, bind and optimize; returns (plan, report)."""
        return self._optimize_stmt(parse(query))

    def _optimize_stmt(self, stmt, static: bool = False):
        bound = Binder(self.catalog).bind(stmt)
        if not self.enable_optimizations and self.strategy in (None, "none"):
            # Raven (no-opt): only the host engine's own passes run.
            plan = RelationalOptimizer(self.catalog).optimize(bound)
            return plan, OptimizationReport()
        return self._optimizer(static=static).optimize(bound)

    def _resolve_plan(self, query: str, normalized, deadline,
                      record: RunStats) -> None:
        """The lifecycle's plan step: put the plan to run on the record.

        The ordinary routes resolve through the plan cache
        (:meth:`_plan_for`). The degraded route serves the open breaker's
        static re-optimization — it trusts no learned annotation and is
        cached on the breaker entry (dependency-version validated, like
        any cached plan); its ``cache.*`` events are about that entry.
        """
        if record.route != ROUTE_DEGRADED:
            with record.phase("optimize") as span:
                self._plan_for(query, normalized, deadline, record)
                if span is not None:
                    span.set(cache_hit=record.cache_hit)
            return
        with record.phase("optimize", static=True):
            entry = self.breakers.static_entry(normalized.key, self.catalog)
            if entry is None:
                record.event("cache.miss")
                entry = self._optimize_to_entry(query, normalized,
                                                deadline=deadline,
                                                static=True)
                self.breakers.set_static_entry(normalized.key, entry)
            else:
                record.event("cache.hit")
            record.plan, record.report = entry.plan, entry.report

    def _plan_for(self, query: str, normalized, deadline,
                  record: RunStats) -> None:
        """Resolve a query through the plan cache onto ``record``: its
        plan, report, ``cache_hit``, and the cache ``key``/``entry`` the
        staleness check uses after execution (None when the cache is off).

        Concurrent misses for the same normalized key are single-flighted:
        the first caller optimizes while the others wait on the in-flight
        entry (``plan_cache.stats.coalesced``) instead of redundantly
        re-optimizing. The wait is bounded (the cache's ``join_timeout``,
        clamped to the query's deadline): if the owner fails, wedges, or
        times out, waiters optimize independently.

        On a miss the dependency versions are captured *before* optimizing:
        if a concurrent registration lands mid-optimization, the inserted
        entry's recorded versions no longer match the live catalog and the
        next lookup discards it instead of serving a stale plan.
        """
        cache = self.plan_cache
        if cache is None:
            if deadline is not None:
                deadline.check("plan optimization")
            record.plan, record.report = self.optimize(query)
            return
        entry, flight, owner = cache.begin(normalized.key, self.catalog)
        if entry is not None:
            record.event("cache.hit")
            record.cache_hit = True
        elif owner:
            record.event("cache.miss")
            try:
                entry = self._optimize_to_entry(query, normalized,
                                                deadline=deadline)
            except BaseException:
                cache.complete(flight, None)
                raise
            cache.complete(flight, entry)
        else:
            record.event("cache.join")
            timeout = cache.join_timeout
            if deadline is not None:
                timeout = deadline.bound(timeout)
            entry = cache.join(flight, self.catalog, timeout=timeout)
            if entry is not None:
                record.event("cache.coalesced")
                record.cache_hit = True
            else:
                # Owner failed, timed out, or its entry was invalidated:
                # optimize here.
                record.event("cache.miss")
                entry = self._optimize_to_entry(query, normalized,
                                                deadline=deadline)
                cache.put(normalized.key, entry)
        record.key, record.entry = normalized.key, entry
        record.plan, record.report = entry.plan, entry.report

    def _optimize_to_entry(self, query: str, normalized, deadline=None,
                           static: bool = False) -> CachedPlan:
        """Parse + optimize a query into a cache-ready entry."""
        if deadline is not None:
            deadline.check("plan optimization")
        if self.faults is not None:
            self.faults.fire("plan_cache.optimize", detail=normalized.template)
        stmt = parse(query)
        deps = query_dependencies(stmt)
        versions = dependency_versions(self.catalog, deps.tables, deps.models)
        plan, report = self._optimize_stmt(stmt, static=static)
        return CachedPlan(
            template=normalized.template,
            params=normalized.params,
            plan=plan,
            report=report,
            tables=deps.tables,
            models=deps.models,
            versions=versions,
        )

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
            self._run_query(record, None)
            return render_analyze(record)
        plan, report = self.optimize(query)
        return plan.pretty(self.catalog) + "\n-- " + \
            report.summary().replace("\n", "\n-- ")

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
        ``stats.optimize_seconds`` is just the normalize+lookup time.

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
        return self._run_query(record, Deadline.coerce(deadline)), record

    def _run_query(self, record: RunStats,
                   deadline: Optional[Deadline]) -> Table:
        """One run, start to finish: open the record's trace, run the
        lifecycle, fold the record — on success and on every error."""
        record.trace = self.telemetry.start_trace(record.query)
        if record.trace is not None:
            record.span = record.trace.root
            record.span.set(attempt=record.attempt)
        started = time.perf_counter()
        # The live-concurrency gauge: dec in the finally so no error path
        # (breaker raise, deadline, executor fault) can wedge it high.
        self.serving_stats.in_flight.inc()
        try:
            return self._sql_routed(record.query, deadline, record)
        except BaseException as error:
            record.error = error
            raise
        finally:
            self.serving_stats.in_flight.dec()
            record.seconds = time.perf_counter() - started
            self._fold(record)

    def _sql_routed(self, query: str, deadline: Optional[Deadline],
                    record: RunStats) -> Table:
        """The lifecycle: normalize → admit → resolve the plan → execute
        (``query`` is ``record.query``).

        Admission asks the query's circuit breaker for the route (an
        EXPLAIN only looks at its state); a prepared plan, already on the
        record, skips straight to execution. Runs on the adaptive path —
        ordinary or half-open trial — report their outcome back to the
        breaker.
        """
        normalized = None
        if record.plan is None and self.plan_cache is not None:
            normalized = normalize_query(query)
        guarded = None
        if normalized is not None and self.breakers is not None:
            if record.route == ROUTE_EXPLAIN:
                record.breaker_state = self.breakers.state(normalized.key)
            else:
                record.route = self.breakers.acquire(normalized.key)
                if record.route != ROUTE_ADAPTIVE:
                    record.event(f"breaker.{record.route}")
                if record.route != ROUTE_DEGRADED:
                    guarded = normalized.key
        try:
            if record.plan is None:
                self._resolve_plan(query, normalized, deadline, record)
            # Degraded runs never profile: feedback must keep describing
            # the adaptive path the half-open trial will retest. EXPLAIN
            # ANALYZE profiles even for adaptive=False sessions.
            record.profile = record.route == ROUTE_EXPLAIN or (
                self.adaptive and record.route != ROUTE_DEGRADED)
            table = self._execute(record, deadline)
        except BaseException as error:
            self._breaker_outcome(guarded, record, error)
            raise
        self._breaker_outcome(guarded, record, None)
        return table

    def _breaker_outcome(self, key, record: RunStats, error) -> None:
        """Report one adaptive-path result to the breaker board; a state
        transition comes back as an event on the record.

        Failures are library errors (RavenError, including deadline
        expiry — a plan that repeatedly blows its deadline deserves
        tripping) and internal defects; admission rejections
        (BackpressureError) and BaseExceptions like KeyboardInterrupt
        never count.
        """
        if key is None:
            return
        trial = record.route == ROUTE_TRIAL
        if error is None:
            event = self.breakers.record_success(key, trial=trial)
        elif (isinstance(error, Exception)
              and not isinstance(error, BackpressureError)):
            event = self.breakers.record_failure(key, trial=trial)
        else:
            return
        if event is not None:
            record.event(f"breaker.{event}")

    def _execute(self, record: RunStats,
                 deadline: Optional[Deadline]) -> Table:
        """The lifecycle's execute step: run ``record.plan``."""
        # Per-call runtime view: shares the inference-session and compiled-
        # program caches but keeps the deadline, span and GPU-time
        # accounting local, so concurrent calls never interleave state.
        runtime = self.runtime.for_call()
        with record.phase("execute") as span:
            table = QueryExecutor(
                self.catalog, runtime, dop=self.dop,
                compile_expressions=self.compile_expressions,
                record=record, deadline=deadline, faults=self.faults,
                feedback=self.feedback, metrics=self.telemetry.metrics,
            ).execute(record.plan)
            if span is not None:
                span.set(rows=table.num_rows)
        record.gpu_adjustment_seconds = runtime.gpu_time_adjustment
        return table

    def _fold(self, record: RunStats) -> None:
        """Derive everything a finished run leaves behind from its record.

        The one place the adaptive loop learns from a run, the query-run
        serving counters move, and telemetry (trace ring, histograms,
        slow-query log) hears of it — reached on success and, with what
        the run observed before failing, on every error.
        """
        profiles = record.operator_profiles if record.error is None else None
        if profiles is not None and self.feedback is not None:
            self.feedback.record_profile(profiles)
            # An EXPLAIN leaves the cached entry's adaptive state alone.
            if record.entry is not None and record.route != ROUTE_EXPLAIN:
                self._check_staleness(record, profiles)
        stats = self.serving_stats
        with self._stats_lock:
            self.runtime.gpu_time_adjustment += record.gpu_adjustment_seconds
            for name in record.events:
                counter = _EVENT_COUNTERS.get(name)
                if counter is not None:
                    setattr(stats, counter, getattr(stats, counter) + 1)
            if isinstance(record.error, DeadlineExceededError):
                stats.deadline_exceeded += 1
            if record.expression_fallbacks:
                stats.expression_fallbacks += record.expression_fallbacks
        self.last_run = record
        self.telemetry.observe_query(record)

    def _check_staleness(self, record: RunStats,
                         profiles: OperatorProfile) -> None:
        """Mark the cached plan stale when execution no longer supports it.

        Stale = the feedback passes would now produce a different plan,
        or an operator's recent behaviour has drifted from its long-run
        average (EWMA drift signal) — either way the plan was optimized
        against assumptions execution no longer supports. A consumed
        drift signal is reset so the slow EWMA's convergence tail cannot
        keep re-marking the replacement plan call after call.
        """
        entry = record.entry
        drifted = self._drifted_fingerprints(profiles)
        if drifted or feedback_divergence(entry.plan, self.feedback,
                                          self.catalog):
            if self.plan_cache.mark_stale(record.key, entry):
                record.event("plan.stale", drifted=len(drifted))
            for fingerprint in drifted:
                self.feedback.consume_drift(fingerprint)
        else:
            # Converged: the right moment to auto-checkpoint — the cache
            # holds the *replacement* plan, not the just-dropped stale
            # one.
            self._maybe_checkpoint()

    def _drifted_fingerprints(self, root: OperatorProfile) -> List[str]:
        """Profiled operator/conjunct fingerprints tripping drift."""
        drifted: List[str] = []
        for profile in root.walk():
            if self.feedback.has_drifted(profile.fingerprint):
                drifted.append(profile.fingerprint)
            for part in profile.conjuncts:
                if self.feedback.has_drifted(part.fingerprint):
                    drifted.append(part.fingerprint)
            for step in profile.joins:
                if self.feedback.has_drifted(step.fingerprint):
                    drifted.append(step.fingerprint)
        return drifted

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
        return serve(self, queries, workers=workers,
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
        return self._run_query(RunStats(plan=plan), None)


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
        return self.session._run_query(record, None), record

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
