"""Per-fingerprint circuit breakers with static-plan degradation.

A plan the adaptive subsystem annotated (learned conjunct order, join
order) can go bad in ways feedback never sees: a
poisoned snapshot, a model whose behaviour changed under it, an operator
that now reliably fails. Retrying such a plan fails every time and burns
the retry budget of every caller.

:class:`CircuitBreakerBoard` keeps one breaker per query fingerprint
(the normalized plan-cache key). After ``failure_threshold`` consecutive
failures of the adaptive path the breaker **trips**: subsequent calls
for that fingerprint are served from a **safe static re-optimization** —
optimized with no feedback store, so conjuncts run in query-text order
and no learned annotation is trusted — cached on the breaker entry with
its own dependency-version validation. After ``recovery_seconds`` the
breaker **half-opens**: exactly one caller is let through the adaptive
path as a trial; success closes the breaker (and drops the static plan),
failure re-opens it for another recovery interval.

Transitions are reported back to the session so they surface in
``serving_stats`` (``breaker_trips`` / ``breaker_half_opens`` /
``breaker_closes`` / ``degraded_runs``). The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Optional, Tuple

DEFAULT_FAILURE_THRESHOLD = 3
DEFAULT_RECOVERY_SECONDS = 30.0
#: Breaker entries are created on first *failure* only (healthy traffic
#: allocates nothing) and LRU-bounded so unique-query floods can't grow
#: the board without bound.
MAX_TRACKED = 4096

STATE_CLOSED = "closed"
STATE_OPEN = "open"

#: Routing decisions returned by :meth:`CircuitBreakerBoard.acquire`.
ROUTE_ADAPTIVE = "adaptive"   # normal path (breaker closed or untracked)
ROUTE_TRIAL = "trial"         # half-open probe: adaptive path, report back
ROUTE_DEGRADED = "degraded"   # breaker open: serve the static plan

#: Transition events returned by record_failure / record_success.
EVENT_TRIPPED = "tripped"
EVENT_REOPENED = "reopened"
EVENT_CLOSED = "closed"


class _Breaker:
    """State for one fingerprint. All mutation happens under the board lock."""

    __slots__ = ("failures", "state", "opened_at", "trial_active",
                 "static_entry")

    def __init__(self):
        self.failures = 0
        self.state = STATE_CLOSED
        self.opened_at = 0.0
        self.trial_active = False
        # A serving CachedPlan holding the static re-optimization (plan,
        # report, dependency versions) — validated against the live
        # catalog before reuse, dropped when the breaker closes.
        self.static_entry = None


class CircuitBreakerBoard:
    """Thread-safe registry of per-fingerprint breakers for one session."""

    def __init__(self, failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 recovery_seconds: float = DEFAULT_RECOVERY_SECONDS,
                 clock: Callable[[], float] = time.monotonic,
                 max_tracked: int = MAX_TRACKED):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds must be >= 0")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.clock = clock
        self.max_tracked = max_tracked
        self._lock = threading.Lock()
        self._breakers: "OrderedDict[Tuple, _Breaker]" = OrderedDict()

    # ------------------------------------------------------------------
    def _get(self, key: Tuple, create: bool = False) -> Optional[_Breaker]:
        breaker = self._breakers.get(key)
        if breaker is None and create:
            breaker = _Breaker()
            self._breakers[key] = breaker
            while len(self._breakers) > self.max_tracked:
                self._breakers.popitem(last=False)
        if breaker is not None:
            self._breakers.move_to_end(key)
        return breaker

    # ------------------------------------------------------------------
    def acquire(self, key: Tuple) -> str:
        """Route one call: adaptive, half-open trial, or degraded.

        An open breaker past its recovery interval admits exactly one
        concurrent trial; everyone else stays on the static plan until
        the trial resolves.
        """
        with self._lock:
            breaker = self._get(key)
            if breaker is None or breaker.state == STATE_CLOSED:
                return ROUTE_ADAPTIVE
            if (not breaker.trial_active
                    and self.clock() - breaker.opened_at
                    >= self.recovery_seconds):
                breaker.trial_active = True
                return ROUTE_TRIAL
            return ROUTE_DEGRADED

    def record_failure(self, key: Tuple, trial: bool = False) -> Optional[str]:
        """Count one adaptive-path failure; returns the transition event.

        A failed half-open trial re-opens for a fresh recovery interval
        (``EVENT_REOPENED``); a closed breaker crossing the threshold
        trips (``EVENT_TRIPPED``); otherwise None.
        """
        with self._lock:
            breaker = self._get(key, create=True)
            if trial:
                breaker.trial_active = False
                breaker.state = STATE_OPEN
                breaker.opened_at = self.clock()
                return EVENT_REOPENED
            if breaker.state == STATE_OPEN:
                return None
            breaker.failures += 1
            if breaker.failures >= self.failure_threshold:
                breaker.state = STATE_OPEN
                breaker.opened_at = self.clock()
                breaker.failures = 0
                return EVENT_TRIPPED
            return None

    def record_success(self, key: Tuple, trial: bool = False) -> Optional[str]:
        """Count one adaptive-path success; returns the transition event.

        A successful trial closes the breaker and drops its static plan
        (``EVENT_CLOSED``); an ordinary success resets the consecutive-
        failure count (the threshold is *consecutive*, not lifetime).
        """
        with self._lock:
            breaker = self._get(key)
            if breaker is None:
                return None
            if trial:
                breaker.trial_active = False
                breaker.state = STATE_CLOSED
                breaker.failures = 0
                breaker.static_entry = None
                return EVENT_CLOSED
            if breaker.state == STATE_CLOSED:
                breaker.failures = 0
            return None

    # ------------------------------------------------------------------
    # Static-plan cache (degraded mode)
    # ------------------------------------------------------------------
    def static_entry(self, key: Tuple, catalog) -> Optional[object]:
        """The cached static plan for an open breaker, version-validated."""
        with self._lock:
            breaker = self._get(key)
            if breaker is None or breaker.static_entry is None:
                return None
            if not breaker.static_entry.is_current(catalog):
                breaker.static_entry = None
                return None
            return breaker.static_entry

    def set_static_entry(self, key: Tuple, entry) -> None:
        with self._lock:
            breaker = self._get(key, create=True)
            breaker.static_entry = entry

    # ------------------------------------------------------------------
    def state(self, key: Tuple) -> str:
        """The breaker state for a fingerprint (untracked = closed)."""
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker.state if breaker is not None else STATE_CLOSED

    def open_count(self) -> int:
        with self._lock:
            return sum(1 for b in self._breakers.values()
                       if b.state == STATE_OPEN)

    def __len__(self) -> int:
        return len(self._breakers)

    def __repr__(self) -> str:
        return (f"CircuitBreakerBoard(tracked={len(self)}, "
                f"open={self.open_count()})")
