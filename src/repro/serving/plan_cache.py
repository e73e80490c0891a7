"""A normalized, versioned, LRU-bounded cache of optimized plans.

The paper's end-to-end wins come from optimizing a prediction query once
and running the optimized plan many times; under repeated traffic the
parse + bind + optimize cost on every ``RavenSession.sql()`` call throws
that away. The cache stores the fully optimized physical plan and its
:class:`~repro.core.optimizer.OptimizationReport`, keyed by

* the normalized query template and lifted-literal signature
  (:mod:`repro.serving.normalize`); and
* the catalog versions of every table/model the query references.

Concurrent misses for the same normalized key are **single-flighted**
(:meth:`PlanCache.begin` / :meth:`PlanCache.join`): the first caller
optimizes while the others wait on the in-flight entry instead of
redundantly re-optimizing; coalesced waits are counted in
``stats.coalesced``. If the owner fails (or its entry is invalidated
before publication) waiters fall back to optimizing independently.

Entries are invalidated two ways, belt and braces:

* **eagerly** — the cache subscribes to catalog change notifications
  (:meth:`repro.storage.catalog.Catalog.subscribe`), so re-registering a
  table or model drops every plan that read it;
* **on lookup** — each entry records the dependency versions it was
  optimized against, and :meth:`get` rejects entries whose recorded
  versions no longer match the live catalog (covers plans inserted while
  a concurrent DDL was in flight).

All operations are thread-safe; counters are exposed via :attr:`stats`.
The session's serving-traffic counters (:class:`ServingStats`) sit next
to the cache's own (:class:`PlanCacheStats`) and share their registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import DeadlineExceededError
from repro.resilience.breaker import (
    EVENT_CLOSED,
    EVENT_REOPENED,
    EVENT_TRIPPED,
    ROUTE_DEGRADED,
    ROUTE_TRIAL,
)
from repro.storage.catalog import Catalog
from repro.telemetry.metrics import CounterStats, MetricsRegistry

DEFAULT_CAPACITY = 128
# Default bound on waiting for another caller's in-flight optimization:
# a wedged owner (deadlocked optimizer, injected delay fault) must not
# strand waiters forever — on expiry they optimize independently.
DEFAULT_JOIN_TIMEOUT = 30.0

# (kind, name) -> catalog entry version at optimization time.
DependencyVersions = Dict[Tuple[str, str], int]


class PlanCacheStats(CounterStats):
    """Hit/miss/eviction/invalidation counters (monotonic).

    ``coalesced`` counts misses that waited on a concurrent in-flight
    optimization of the same key and received its entry instead of
    optimizing redundantly; they are deliberately not counted as hits
    (or misses), so ``hit_rate`` reflects genuinely warm lookups.
    ``reoptimizations`` are entries dropped because execution feedback
    diverged from the plan (adaptive re-optimization through the
    single-flight miss path); ``restored`` are entries installed from a
    persisted snapshot (warm start) after validating against the live
    catalog; ``join_timeouts`` are single-flight waits that expired
    before the owner published (the waiter optimized independently).

    Registry counters ``plan_cache_<field>`` behind the attribute API of
    :class:`~repro.telemetry.metrics.CounterStats`.
    """

    PREFIX = "plan_cache"
    FIELDS = ("hits", "misses", "evictions", "invalidations", "coalesced",
              "reoptimizations", "restored", "join_timeouts")

    __slots__ = ()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


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
    :class:`~repro.telemetry.metrics.CounterStats`. Concurrent writers
    update them with :meth:`~repro.telemetry.metrics.CounterStats.inc`
    and :meth:`observe`, each one counter's own atomic increment.

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

    def observe(self, record) -> None:
        """Count one finished run (a :class:`~repro.core.record.RunStats`):
        its lifecycle events, a deadline expiry and its expression
        fallbacks."""
        for name in record.events:
            counter = _EVENT_COUNTERS.get(name)
            if counter is not None:
                self.inc(counter)
        if isinstance(record.error, DeadlineExceededError):
            self.inc("deadline_exceeded")
        if record.expression_fallbacks:
            self.inc("expression_fallbacks", record.expression_fallbacks)

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


@dataclass
class CachedPlan:
    """One optimized plan plus everything needed to validate reuse."""

    template: str
    params: Tuple
    plan: object  # repro.relational.logical.PlanNode
    report: object  # repro.core.optimizer.OptimizationReport
    tables: FrozenSet[str] = frozenset()
    models: FrozenSet[str] = frozenset()
    versions: DependencyVersions = field(default_factory=dict)

    def depends_on(self, kind: str, name: str) -> bool:
        names = self.tables if kind == "table" else self.models
        return name in names

    def is_current(self, catalog: Catalog) -> bool:
        return all(catalog.entry_version(kind, name) == version
                   for (kind, name), version in self.versions.items())


def dependency_versions(catalog: Catalog, tables, models) -> DependencyVersions:
    """Capture the live versions of a query's dependencies.

    Unregistered names map to ``None`` so that *registering* them later
    also invalidates (resolution could change).
    """
    versions: DependencyVersions = {}
    for name in tables:
        versions[("table", name)] = catalog.entry_version("table", name)
    for name in models:
        versions[("model", name)] = catalog.entry_version("model", name)
    return versions


#: Sentinel distinguishing "use the cache's join_timeout" from an
#: explicit ``timeout=None`` (wait unbounded).
_USE_DEFAULT = object()


class Flight:
    """An in-flight optimization of one cache key (single-flight token)."""

    __slots__ = ("key", "event")

    def __init__(self, key: Tuple):
        self.key = key
        self.event = threading.Event()


class PlanCache:
    """Thread-safe LRU cache of optimized plans for one session."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 join_timeout: Optional[float] = DEFAULT_JOIN_TIMEOUT):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        if join_timeout is not None and join_timeout <= 0:
            raise ValueError("join_timeout must be positive (or None)")
        self.capacity = capacity
        # Default wait bound applied when join() gets no explicit timeout.
        self.join_timeout = join_timeout
        self._entries: "OrderedDict[Tuple, CachedPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self._stats = PlanCacheStats()
        self._flights: Dict[Tuple, Flight] = {}

    # ------------------------------------------------------------------
    def _lookup_locked(self, key: Tuple, catalog: Catalog) -> Optional[CachedPlan]:
        """Version-validated lookup; counts hits/invalidations, not misses."""
        entry = self._entries.get(key)
        if entry is not None and not entry.is_current(catalog):
            # Stale insert that raced a catalog mutation.
            del self._entries[key]
            self._stats.invalidations += 1
            return None
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        return entry

    def get(self, key: Tuple, catalog: Catalog) -> Optional[CachedPlan]:
        """Look up a plan; validates dependency versions before returning."""
        with self._lock:
            entry = self._lookup_locked(key, catalog)
            if entry is None:
                self._stats.misses += 1
            return entry

    def put(self, key: Tuple, entry: CachedPlan) -> None:
        with self._lock:
            self._put_locked(key, entry)

    def restore(self, key: Tuple, entry: CachedPlan) -> None:
        """Install an entry deserialized from a snapshot (warm start).

        The caller (:mod:`repro.persist.snapshot`) has already validated
        the entry against the live catalog and re-stamped its dependency
        versions; this is an ordinary LRU insert that additionally counts
        in ``stats.restored``. A live entry for the same key — optimized
        in *this* process against the current data — always wins.
        """
        with self._lock:
            if key in self._entries:
                return
            self._put_locked(key, entry)
            self._stats.restored += 1

    def entries(self) -> list:
        """Point-in-time ``(key, entry)`` list, LRU-oldest first.

        Snapshot export iterates this copy outside the lock; entries are
        shared objects, but their plan/report fields are immutable after
        publication.
        """
        with self._lock:
            return list(self._entries.items())

    def _put_locked(self, key: Tuple, entry: CachedPlan) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    # ------------------------------------------------------------------
    # Single-flight misses
    # ------------------------------------------------------------------
    def begin(self, key: Tuple, catalog: Catalog
              ) -> Tuple[Optional[CachedPlan], Optional[Flight], bool]:
        """Single-flight lookup: ``(entry, flight, owner)``.

        * ``entry`` is not None — cache hit, nothing else to do.
        * ``owner`` True — this caller must optimize, then call
          :meth:`complete` with the entry (or None on failure).
        * otherwise — another caller is already optimizing this key; wait
          via :meth:`join`.
        """
        with self._lock:
            entry = self._lookup_locked(key, catalog)
            if entry is not None:
                return entry, None, False
            flight = self._flights.get(key)
            if flight is None:
                flight = Flight(key)
                self._flights[key] = flight
                self._stats.misses += 1
                return None, flight, True
            return None, flight, False

    def complete(self, flight: Flight, entry: Optional[CachedPlan]) -> None:
        """Publish the owner's result (entry=None on failure) and wake waiters."""
        with self._lock:
            if entry is not None:
                self._put_locked(flight.key, entry)
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        flight.event.set()

    def join(self, flight: Flight, catalog: Catalog,
             timeout: Optional[float] = _USE_DEFAULT) -> Optional[CachedPlan]:
        """Wait for an in-flight optimization and fetch its entry.

        A waiter that receives the owner's entry counts as ``coalesced``
        (a miss whose optimization was saved) — deliberately *not* as a
        hit, so cold concurrent bursts don't inflate ``hit_rate``.
        Returns None when the owner failed, timed out, or its entry was
        already invalidated; that waiter re-optimizes independently and
        counts as an ordinary miss. The wait is bounded by the cache's
        ``join_timeout`` unless an explicit ``timeout`` (or None, meaning
        unbounded) is passed; expiries count in ``stats.join_timeouts``.
        """
        if timeout is _USE_DEFAULT:
            timeout = self.join_timeout
        finished = flight.event.wait(timeout)
        with self._lock:
            if not finished:
                self._stats.join_timeouts += 1
            entry = None
            if finished:
                entry = self._entries.get(flight.key)
                if entry is not None and not entry.is_current(catalog):
                    del self._entries[flight.key]
                    self._stats.invalidations += 1
                    entry = None
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(flight.key)
            self._stats.coalesced += 1
            return entry

    # ------------------------------------------------------------------
    # Adaptive staleness
    # ------------------------------------------------------------------
    def mark_stale(self, key: Tuple,
                   entry: Optional[CachedPlan] = None) -> bool:
        """Drop an entry whose plan no longer matches execution feedback.

        Called by the session when the adaptive subsystem detects drift
        (the feedback-driven passes would now produce a different plan).
        The next lookup for the key misses and re-optimizes through the
        ordinary single-flight path — with the feedback store warm, the
        replacement plan reflects the observed behaviour. Counted in
        ``stats.reoptimizations``.

        When ``entry`` is given, only that exact entry is dropped: a
        concurrent execution of an already-replaced plan must not evict
        the fresh re-optimized entry that superseded it. Returns False
        when nothing was dropped (a concurrent call won the race).
        """
        with self._lock:
            current = self._entries.get(key)
            if current is None or (entry is not None and current is not entry):
                return False
            del self._entries[key]
            self._stats.reoptimizations += 1
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, kind: Optional[str] = None,
                   name: Optional[str] = None) -> int:
        """Drop entries depending on ``(kind, name)``; everything if None.

        Returns the number of entries removed.
        """
        with self._lock:
            if kind is None or name is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                stale = [key for key, entry in self._entries.items()
                         if entry.depends_on(kind, name)]
                for key in stale:
                    del self._entries[key]
                removed = len(stale)
            self._stats.invalidations += removed
            return removed

    def attach(self, catalog: Catalog) -> None:
        """Subscribe this cache's invalidation hook to catalog changes."""
        catalog.subscribe(self._on_catalog_change)

    def detach(self, catalog: Catalog) -> None:
        catalog.unsubscribe(self._on_catalog_change)

    def _on_catalog_change(self, kind: str, name: str) -> None:
        self.invalidate(kind, name)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> PlanCacheStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        s = self._stats
        return (f"PlanCache(size={len(self)}/{self.capacity}, hits={s.hits}, "
                f"misses={s.misses}, evictions={s.evictions}, "
                f"invalidations={s.invalidations}, coalesced={s.coalesced}, "
                f"reoptimizations={s.reoptimizations})")
