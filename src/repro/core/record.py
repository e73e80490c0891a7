"""The record of one query run (:class:`RunStats`).

Kept apart from :mod:`repro.core.session` so that the serving loop
(:mod:`repro.serving.serve`), which the session imports, can import the
record type at module level.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, List, Optional

from repro.adaptive.profile import OperatorProfile, PlanProfiler, \
    plan_fingerprint
from repro.core.optimizer import OptimizationReport
from repro.relational.logical import PlanNode
from repro.resilience.breaker import ROUTE_ADAPTIVE, ROUTE_DEGRADED

if TYPE_CHECKING:
    from repro.serving.plan_cache import CachedPlan

#: ``RunStats.route`` of an ``explain(analyze=True)`` run; the other
#: routes are the breaker board's admission decisions (``ROUTE_*``).
ROUTE_EXPLAIN = "explain"


class RunStats(PlanProfiler):
    """The record of one query run: written once, folded once.

    Returned per-call by :meth:`RavenSession.sql_with_stats` so concurrent
    callers each see their own numbers; ``session.last_run`` holds the most
    recently finished call's record as a best-effort alias.

    The session writes the query-level fields below; the executors write
    the inherited :class:`~repro.adaptive.profile.PlanProfiler` half
    (``programs_compiled`` / ``programs_reused`` / ``expression_fallbacks``
    and the per-operator observations behind :attr:`operator_profiles`).
    ``optimize_seconds`` vs ``execute_seconds`` is the per-call
    optimize/execute breakdown (on a plan-cache hit the former is just
    the cache lookup: normalizing the query comes before the optimize
    phase); ``seconds`` is the whole call. A run that failed keeps what
    it observed up to ``error``.
    """

    def __init__(self, query: str = "", route: str = ROUTE_ADAPTIVE,
                 plan: Optional[PlanNode] = None,
                 report: Optional[OptimizationReport] = None,
                 attempt: int = 1):
        super().__init__()
        # Decided once the plan is resolved (see Engine.run).
        self.profile = False
        self.query = query
        # adaptive | trial | degraded (served the breaker's static plan)
        # | explain.
        self.route = route
        # Which execution of a served query this was (1 = first try).
        self.attempt = attempt
        self.plan = plan
        self.report = report
        self.cache_hit = False
        # The plan-cache key and entry that served the plan (None when
        # the cache is off, the plan was static or handed in prepared).
        self.key = None
        self.entry: Optional[CachedPlan] = None
        # The query's breaker state as an EXPLAIN saw it.
        self.breaker_state: Optional[str] = None
        self.seconds = 0.0
        self.optimize_seconds = 0.0
        self.execute_seconds = 0.0
        # Modeled-minus-measured device time of simulated-GPU predicts.
        self.gpu_adjustment_seconds = 0.0
        # Named lifecycle events in order: cache.hit/miss/join/coalesced,
        # breaker.trial/degraded/tripped/reopened/closed, plan.stale.
        self.events: List[str] = []
        self.error: Optional[BaseException] = None
        # The query's span tree when tracing is on (``span``, inherited,
        # is the span the current lifecycle phase runs under).
        self.trace = None

    # -- written by the session as the lifecycle advances ---------------
    def event(self, name: str, **attributes) -> None:
        """Note a named lifecycle event: kept on the record (the serving
        counters are folded from these) and marked on the current span."""
        self.events.append(name)
        if self.span is not None:
            self.span.event(name, **attributes)

    @contextmanager
    def phase(self, name: str, **attributes):
        """Run the ``optimize`` or ``execute`` phase: time it into
        ``<name>_seconds`` (also when it fails) and, when tracing, under a
        child span that becomes the current one. Yields that span or None.
        """
        parent = self.span
        span = None
        if parent is not None:
            span = self.span = parent.child(name, category=name, **attributes)
        started = time.perf_counter()
        try:
            yield span
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        finally:
            setattr(self, f"{name}_seconds", time.perf_counter() - started)
            self.span = parent
        if span is not None:
            span.finish()

    # -- derived views ---------------------------------------------------
    @property
    def static_plan(self) -> bool:
        """Whether the circuit breaker served the safe static
        re-optimization instead of the adaptively-annotated plan."""
        return self.route == ROUTE_DEGRADED

    @property
    def plan_fingerprint(self) -> Optional[str]:
        """Structural fingerprint of the executed plan (joinable against
        the plan cache, the feedback store, and slow-query-log entries)."""
        return None if self.plan is None else plan_fingerprint(self.plan)

    @property
    def operator_profiles(self) -> Optional[OperatorProfile]:
        """Per-operator runtime profile of this call, as a tree mirroring
        the plan (None when the run was not profiled)."""
        if not self.profile or self.plan is None:
            return None
        return self.profile_tree(self.plan)

    @property
    def wall_seconds(self) -> float:
        """The measured execution wall time (alias of ``execute_seconds``)."""
        return self.execute_seconds

    @property
    def adjusted_seconds(self) -> float:
        """Wall time with measured simulated-device time replaced by the
        modeled device time (what a GPU-equipped run would have taken)."""
        return self.execute_seconds + self.gpu_adjustment_seconds
