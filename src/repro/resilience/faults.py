"""Deterministic, seedable fault injection for the serving stack.

Every resilience policy in this repo — deadlines, retries, circuit
breakers, degraded-mode fallbacks, crash-safe IO — is tested against
*real injected failures at the real call sites*, not mocks. Components
expose **named injection points** (:data:`SITES`) and call
:meth:`FaultInjector.fire` (or :meth:`FaultInjector.tear` for IO sites)
when an injector is installed; with no injector installed the hooks are
a single ``is None`` check.

Registered sites:

========================  ====================================================
``executor.operator``      before each relational operator executes
                           (``delay`` = slow operator, ``error`` = crash)
``executor.compile``       expression compilation in the compiled engine
                           (``error=CompileError`` exercises the
                           interpreted-oracle fallback)
``predict.run``            per predict batch in the runtime
``plan_cache.optimize``    inside the single-flight owner's optimization
                           (``delay`` = wedged optimizer stranding waiters)
``snapshot.write``         SnapshotStore/Snapshot file writes
                           (``torn`` = crash mid-write leaving a partial
                           temp file)
``telemetry.dump``         trace-ring / slow-query-log / metrics disk dumps
                           (``torn`` = crash mid-dump; serving continues and
                           the previous dump stays intact)
``spill.write``            memory-mapped column spill files
                           (``torn`` = crash mid-spill leaving a partial
                           temp file; the in-memory column stays intact)
========================  ====================================================

Scheduling is deterministic two ways: ``on_hits`` fires on exact 1-based
hit indices of a site (reproducible under any thread interleaving), and
``probability`` draws from one seeded :class:`random.Random` under the
injector lock (reproducible for a fixed seed and call order — use
``on_hits`` when concurrency makes the order nondeterministic).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import InjectedFaultError

SITE_EXECUTOR_OPERATOR = "executor.operator"
SITE_EXECUTOR_COMPILE = "executor.compile"
SITE_PREDICT_RUN = "predict.run"
SITE_PLAN_OPTIMIZE = "plan_cache.optimize"
SITE_SNAPSHOT_WRITE = "snapshot.write"
SITE_TELEMETRY_DUMP = "telemetry.dump"
SITE_SPILL_WRITE = "spill.write"

#: Every injection point registered in the serving stack. ``inject``
#: validates against this set so a typo'd site name fails loudly instead
#: of silently never firing.
SITES = frozenset({
    SITE_EXECUTOR_OPERATOR,
    SITE_EXECUTOR_COMPILE,
    SITE_PREDICT_RUN,
    SITE_PLAN_OPTIMIZE,
    SITE_SNAPSHOT_WRITE,
    SITE_TELEMETRY_DUMP,
    SITE_SPILL_WRITE,
})

MODE_ERROR = "error"
MODE_DELAY = "delay"
MODE_TORN = "torn"
MODES = (MODE_ERROR, MODE_DELAY, MODE_TORN)


@dataclass
class FaultRule:
    """One schedule at one site.

    ``on_hits`` (1-based hit indices, e.g. ``{1, 3}``) and
    ``probability`` compose as OR; with neither restriction the rule
    fires on every hit. ``max_fires`` retires the rule after N firings.
    """

    site: str
    mode: str = MODE_ERROR
    probability: Optional[float] = None
    on_hits: Optional[frozenset] = None
    delay_seconds: float = 0.0
    error: Union[BaseException, Type[BaseException], str, None] = None
    max_fires: Optional[int] = None
    fires: int = 0

    def should_fire(self, hit: int, rng: random.Random) -> bool:
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        if self.on_hits is not None and hit in self.on_hits:
            return True
        if self.probability is not None:
            return rng.random() < self.probability
        return self.on_hits is None

    def build_error(self, detail: str) -> BaseException:
        suffix = f" [{detail}]" if detail else ""
        if self.error is None:
            return InjectedFaultError(
                f"injected fault at {self.site}{suffix}")
        if isinstance(self.error, BaseException):
            return self.error
        if isinstance(self.error, str):
            return InjectedFaultError(self.error + suffix)
        return self.error(f"injected fault at {self.site}{suffix}")


@dataclass(frozen=True)
class FiredFault:
    """One log line: which rule fired at which hit of which site."""

    site: str
    hit: int
    mode: str
    detail: str = ""


@dataclass
class FaultLog:
    """Per-site hit/fire counters plus the ordered firing log."""

    hits: Dict[str, int] = field(default_factory=dict)
    fired: List[FiredFault] = field(default_factory=list)

    def fires(self, site: Optional[str] = None) -> int:
        if site is None:
            return len(self.fired)
        return sum(1 for f in self.fired if f.site == site)


class FaultInjector:
    """A seeded schedule of faults over the registered injection sites."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._rules: Dict[str, List[FaultRule]] = {}
        self.log = FaultLog()
        # Injectable for tests that want delays without real sleeping.
        self._sleep = time.sleep

    # ------------------------------------------------------------------
    def inject(self, site: str, mode: str = MODE_ERROR, *,
               probability: Optional[float] = None,
               on_hits: Optional[Sequence[int]] = None,
               delay: float = 0.0,
               error: Union[BaseException, Type[BaseException], str,
                            None] = None,
               max_fires: Optional[int] = None) -> FaultRule:
        """Register a fault schedule; returns the rule for inspection."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; registered "
                             f"sites: {sorted(SITES)}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if mode == MODE_DELAY and delay <= 0.0:
            raise ValueError("delay mode requires delay > 0")
        rule = FaultRule(
            site=site, mode=mode, probability=probability,
            on_hits=frozenset(on_hits) if on_hits is not None else None,
            delay_seconds=delay, error=error, max_fires=max_fires)
        with self._lock:
            self._rules.setdefault(site, []).append(rule)
        return rule

    def clear(self, site: Optional[str] = None) -> None:
        """Drop rules (one site, or all); counters and log are kept."""
        with self._lock:
            if site is None:
                self._rules.clear()
            else:
                self._rules.pop(site, None)

    # ------------------------------------------------------------------
    def _match(self, site: str, detail: str,
               modes: Tuple[str, ...]) -> Optional[FaultRule]:
        """Count a hit and return the first firing rule among ``modes``."""
        with self._lock:
            hit = self.log.hits.get(site, 0) + 1
            self.log.hits[site] = hit
            for rule in self._rules.get(site, ()):
                if rule.mode in modes and rule.should_fire(hit, self._rng):
                    rule.fires += 1
                    self.log.fired.append(
                        FiredFault(site, hit, rule.mode, detail))
                    return rule
            return None

    def fire(self, site: str, detail: str = "") -> None:
        """The hook components call: raise or delay per the schedule.

        Counts the hit even when nothing fires, so ``on_hits`` indices
        line up with real traffic. Delay rules sleep *outside* the lock.
        """
        rule = self._match(site, detail, (MODE_ERROR, MODE_DELAY))
        if rule is None:
            return
        if rule.mode == MODE_DELAY:
            self._sleep(rule.delay_seconds)
            return
        raise rule.build_error(detail)

    def tear(self, site: str, detail: str = "") -> bool:
        """IO-site hook: True = the caller must simulate a torn write.

        The caller writes a deliberately truncated payload and raises
        :class:`InjectedFaultError`, modeling a crash mid-write; the
        crash-safe IO paths must leave the previous durable state intact.
        """
        return self._match(site, detail, (MODE_TORN,)) is not None

    # ------------------------------------------------------------------
    def hits(self, site: str) -> int:
        with self._lock:
            return self.log.hits.get(site, 0)

    def fires(self, site: Optional[str] = None) -> int:
        with self._lock:
            return self.log.fires(site)

    def __repr__(self) -> str:
        with self._lock:
            rules = sum(len(v) for v in self._rules.values())
            return (f"FaultInjector(seed={self.seed}, rules={rules}, "
                    f"hits={sum(self.log.hits.values())}, "
                    f"fires={len(self.log.fired)})")
