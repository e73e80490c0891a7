"""Slow-query log: full evidence for every query over a threshold.

Each entry captures what an operator needs to reconstruct *why* a query
was slow without reproducing it: the SQL, wall/optimize/execute seconds,
the plan fingerprint (joinable against the plan cache and the adaptive
feedback store), cache/degraded flags, the error if any, and — when
tracing was on — the full span tree.

The log is a bounded in-memory ring; :meth:`SlowQueryLog.dump` persists
it crash-safely via :func:`repro.persist.atomic.atomic_write_text` at
the ``telemetry.dump`` fault site, so a torn dump never corrupts a
previous one (chaos-tested).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.persist.atomic import atomic_write_text

from .trace import SITE_TELEMETRY_DUMP

SCHEMA = "repro-slowlog-v1"

DEFAULT_THRESHOLD_SECONDS = 1.0
DEFAULT_CAPACITY = 128


class SlowQueryLog:
    """Bounded ring of slow-query records (threshold is mutable live)."""

    def __init__(self, threshold_seconds: float = DEFAULT_THRESHOLD_SECONDS,
                 capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def record(self, record) -> Optional[Dict[str, object]]:
        """Append the entry for a finished query's record (a
        :class:`~repro.core.session.RunStats`) if it ran over the
        threshold. A query that failed keeps whatever it observed before
        failing; the plan-level fields need a plan."""
        if record.seconds < self.threshold_seconds:
            return None
        entry: Dict[str, object] = {
            "query": record.query,
            "at": time.time(),
            "seconds": record.seconds,
        }
        if record.plan is not None:
            entry["optimize_seconds"] = record.optimize_seconds
            entry["execute_seconds"] = record.execute_seconds
            entry["cache_hit"] = record.cache_hit
            entry["static_plan"] = record.static_plan
            entry["plan_fingerprint"] = record.plan_fingerprint
        if record.error is not None:
            entry["error"] = f"{type(record.error).__name__}: {record.error}"
        if record.trace is not None:
            entry["trace"] = record.trace.to_dict()
        with self._lock:
            self._ring.append(entry)
        return entry

    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, object]]:
        """Recorded entries, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, path, faults=None):
        """Atomically write the log as JSON at the telemetry.dump site."""
        text = json.dumps({
            "schema": SCHEMA,
            "threshold_seconds": self.threshold_seconds,
            "entries": self.entries(),
        }, indent=2)
        return atomic_write_text(path, text, faults=faults,
                                 site=SITE_TELEMETRY_DUMP)

    def __repr__(self) -> str:
        return (f"SlowQueryLog(threshold={self.threshold_seconds}s, "
                f"entries={len(self)}/{self.capacity})")
