"""The engine behind :class:`~repro.core.session.RavenSession`.

One record per query: every run — ``sql()``, a ``serve`` attempt,
``explain(analyze=True)``, a prepared plan — creates one
:class:`~repro.core.record.RunStats` and is the only thing the run
writes to. The engine stamps the route, the cache outcome, named events
(``cache.*``, ``breaker.*``, ``plan.stale``), phase timings and the
error; the executors write per-operator rows and time, conjunct,
join-step and partition observations and expression-program counts
straight onto it. :meth:`Engine.run` takes the record through one
linear lifecycle, :meth:`Engine._resolve` is its one plan step and
:meth:`Engine.optimize` the one way a statement is optimized, and
:meth:`Engine._fold` derives everything else from the record, once.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.adaptive.profile import OperatorProfile
from repro.adaptive.reopt import feedback_divergence
from repro.core.binder import Binder
from repro.core.executor import QueryExecutor
from repro.core.optimizer import OptimizationReport, RavenOptimizer
from repro.core.parser import parse
from repro.core.record import ROUTE_EXPLAIN, RunStats
from repro.errors import BackpressureError
from repro.relational.logical import PlanNode
from repro.relational.optimizer import RelationalOptimizer
from repro.resilience.breaker import ROUTE_ADAPTIVE, ROUTE_DEGRADED, ROUTE_TRIAL
from repro.resilience.deadline import Deadline
from repro.serving.normalize import normalize_query, query_dependencies
from repro.serving.plan_cache import CachedPlan, ServingStats, \
    dependency_versions
from repro.storage.table import Table


class Engine:
    """Runs queries over explicit collaborators.

    ``catalog``, ``plan_cache`` (None: off), ``breakers`` (None: off),
    ``feedback`` (None unless adaptive), ``telemetry``, the predict
    ``runtime`` and the ``warm`` state are shared with the session that
    built the engine; the keywords are the optimizer and execution
    settings, resolved as ``RavenSession`` documents them.
    """

    def __init__(self, catalog, plan_cache, breakers, feedback, telemetry,
                 runtime, warm, *, enable_optimizations: bool,
                 enable_cross: Optional[bool],
                 enable_data_induced: Optional[bool], strategy,
                 gpu_available: bool, adaptive: bool, dop: int,
                 compile_expressions: bool, faults):
        self.catalog = catalog
        self.plan_cache = plan_cache
        self.breakers = breakers
        self.feedback = feedback
        self.telemetry = telemetry
        self.runtime = runtime
        self.warm = warm
        self.enable_optimizations = enable_optimizations
        self.enable_cross = enable_optimizations if enable_cross is None \
            else enable_cross
        self.enable_data_induced = enable_optimizations \
            if enable_data_induced is None else enable_data_induced
        self.strategy = strategy if enable_optimizations else "none"
        self.gpu_available = gpu_available
        self.adaptive = adaptive
        self.dop = dop
        self.compile_expressions = compile_expressions
        self.faults = faults
        runtime.faults = faults
        self.serving_stats = ServingStats(registry=telemetry.metrics)
        self.last_run: Optional[RunStats] = None

    def optimize(self, stmt, static: bool = False
                 ) -> Tuple[PlanNode, OptimizationReport]:
        """Bind and optimize a parsed statement into ``(plan, report)``.

        ``static=True`` is the degraded-mode variant that trusts no
        learned annotation (no feedback store, so conjuncts and join
        regions stay in query-text order). With optimizations and the
        strategy off, only the host engine's own passes run (Raven
        no-opt).
        """
        bound = Binder(self.catalog).bind(stmt)
        if not self.enable_optimizations and self.strategy in (None, "none"):
            plan = RelationalOptimizer(self.catalog).optimize(bound)
            return plan, OptimizationReport()
        return RavenOptimizer(
            self.catalog,
            enable_cross=self.enable_cross,
            enable_data_induced=self.enable_data_induced,
            strategy=self.strategy,
            gpu_available=self.gpu_available,
            feedback=self.feedback if self.adaptive and not static else None,
        ).optimize(bound)

    # ------------------------------------------------------------------
    # The lifecycle
    # ------------------------------------------------------------------
    def run(self, record: RunStats, deadline: Optional[Deadline]) -> Table:
        """One run, start to finish: normalize → admit → resolve the plan
        → execute, then fold the record — on success and on every error.

        The routes (adaptive, half-open trial, degraded-static, explain)
        differ only in which of those steps they take. Admission asks
        the query's circuit breaker for the route (an EXPLAIN only looks
        at its state); a prepared plan, already on the record, skips
        straight to execution. Runs on the adaptive path — ordinary or
        half-open trial — report their outcome back to the breaker.
        """
        record.trace = self.telemetry.start_trace(record.query)
        if record.trace is not None:
            record.span = record.trace.root
            record.span.set(attempt=record.attempt)
        started = time.perf_counter()
        # The live-concurrency gauge: dec in the finally so no error path
        # (breaker raise, deadline, executor fault) can wedge it high.
        self.serving_stats.in_flight.inc()
        guarded = None
        try:
            normalized = None
            if record.plan is None and self.plan_cache is not None:
                normalized = normalize_query(record.query)
            if normalized is not None and self.breakers is not None:
                if record.route == ROUTE_EXPLAIN:
                    record.breaker_state = self.breakers.state(normalized.key)
                else:
                    record.route = self.breakers.acquire(normalized.key)
                    if record.route != ROUTE_ADAPTIVE:
                        record.event(f"breaker.{record.route}")
                    if record.route != ROUTE_DEGRADED:
                        guarded = normalized.key
            if record.plan is None:
                self._resolve(record, normalized, deadline)
            # Degraded runs never profile: feedback must keep describing
            # the adaptive path the half-open trial will retest. EXPLAIN
            # ANALYZE profiles even for adaptive=False sessions.
            record.profile = record.route == ROUTE_EXPLAIN or (
                self.adaptive and record.route != ROUTE_DEGRADED)
            table = self._execute(record, deadline)
        except BaseException as error:
            record.error = error
            self._breaker_outcome(guarded, record, error)
            raise
        else:
            self._breaker_outcome(guarded, record, None)
            return table
        finally:
            self.serving_stats.in_flight.dec()
            record.seconds = time.perf_counter() - started
            self._fold(record)

    def _resolve(self, record: RunStats, normalized,
                 deadline: Optional[Deadline]) -> None:
        """The plan step: put the plan to run on the record.

        With the cache off the query is optimized on every call.
        Otherwise it resolves through the plan cache: a hit; an owned
        miss, which optimizes while concurrent misses for the same key
        wait on its in-flight entry (``plan_cache.stats.coalesced``); or
        a join whose owner failed, wedged, timed out or was invalidated,
        which optimizes here. The wait is bounded by the cache's
        ``join_timeout``, clamped to the deadline. The cache ``key`` and
        ``entry`` go on the record for the staleness check. The degraded
        route serves the open breaker's static re-optimization instead:
        it trusts no learned annotation and is cached on the breaker
        entry (dependency-version validated, like any cached plan); its
        ``cache.*`` events are about that entry.

        On a miss the dependency versions are captured *before*
        optimizing: if a concurrent registration lands mid-optimization,
        the entry's recorded versions no longer match the live catalog
        and the next lookup discards it instead of serving a stale plan.
        """
        cache = self.plan_cache
        if cache is None:
            with record.phase("optimize") as span:
                if deadline is not None:
                    deadline.check("plan optimization")
                record.plan, record.report = self.optimize(
                    parse(record.query))
                if span is not None:
                    span.set(cache_hit=False)
            return
        key, static = normalized.key, record.route == ROUTE_DEGRADED
        phase = (record.phase("optimize", static=True) if static
                 else record.phase("optimize"))
        with phase as span:
            flight, owner = None, False
            if static:
                entry = self.breakers.static_entry(key, self.catalog)
                record.event("cache.miss" if entry is None else "cache.hit")
            else:
                entry, flight, owner = cache.begin(key, self.catalog)
                if entry is not None:
                    record.event("cache.hit")
                    record.cache_hit = True
                elif owner:
                    record.event("cache.miss")
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
                        record.event("cache.miss")
            if entry is None:
                try:
                    if deadline is not None:
                        deadline.check("plan optimization")
                    if self.faults is not None:
                        self.faults.fire("plan_cache.optimize",
                                         detail=normalized.template)
                    stmt = parse(record.query)
                    deps = query_dependencies(stmt)
                    versions = dependency_versions(self.catalog, deps.tables,
                                                   deps.models)
                    plan, report = self.optimize(stmt, static=static)
                except BaseException:
                    if owner:
                        cache.complete(flight, None)
                    raise
                entry = CachedPlan(
                    template=normalized.template, params=normalized.params,
                    plan=plan, report=report, tables=deps.tables,
                    models=deps.models, versions=versions)
                if static:
                    self.breakers.set_static_entry(key, entry)
                elif owner:
                    cache.complete(flight, entry)
                else:
                    cache.put(key, entry)
            record.plan, record.report = entry.plan, entry.report
            if not static:
                record.key, record.entry = key, entry
                if span is not None:
                    span.set(cache_hit=record.cache_hit)

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
        """The execute step: run ``record.plan``."""
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

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def _fold(self, record: RunStats) -> None:
        """Derive everything a finished run leaves behind from its record.

        The one place the adaptive loop learns from a run (feedback
        observations, and the staleness check that re-optimizes drifted
        cached plans), the serving counters move, ``last_run`` is set and
        telemetry (trace ring, histograms, slow-query log) hears of it —
        reached on success and, with what the run observed before
        failing, on every error.
        """
        profiles = record.operator_profiles if record.error is None else None
        if profiles is not None and self.feedback is not None:
            self.feedback.record_profile(profiles)
            # An EXPLAIN leaves the cached entry's adaptive state alone.
            if record.entry is not None and record.route != ROUTE_EXPLAIN:
                self._check_staleness(record, profiles)
        if record.gpu_adjustment_seconds:
            self.runtime.add_gpu_adjustment(record.gpu_adjustment_seconds)
        self.serving_stats.observe(record)
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
        drifted = _drifted_fingerprints(self.feedback, profiles)
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
            self.warm.maybe_checkpoint()


def _drifted_fingerprints(feedback, root: OperatorProfile) -> List[str]:
    """Profiled operator/conjunct/join-step fingerprints tripping drift."""
    drifted: List[str] = []
    for profile in root.walk():
        if feedback.has_drifted(profile.fingerprint):
            drifted.append(profile.fingerprint)
        for part in profile.conjuncts:
            if feedback.has_drifted(part.fingerprint):
                drifted.append(part.fingerprint)
        for step in profile.joins:
            if feedback.has_drifted(step.fingerprint):
                drifted.append(step.fingerprint)
    return drifted
