"""Per-query trace spans: who did what, when, and how many rows.

A :class:`Trace` is one query's span tree — parse/optimize, cache
hit/miss/single-flight join, each relational operator with rows in/out,
each predict batch, retry attempts and breaker transitions — rooted at a
``query`` span. Spans carry wall-clock offsets relative to the trace
start (one ``perf_counter`` anchor per trace, so concurrent traces never
share clock state), the recording thread id, free-form attributes, and
point-in-time events.

The :class:`Tracer` holds a bounded ring of recently *finished* traces
and exports them two ways:

* :meth:`Tracer.export_json` — the span trees as plain dicts;
* :meth:`Tracer.export_chrome` — Chrome trace-event format (``ph: "X"``
  complete events, microsecond timestamps, plus ``ph: "M"``
  process/thread-name metadata records), loadable in
  ``chrome://tracing`` / Perfetto, with one labeled timeline row per
  thread.

Disabled-path contract: ``Tracer.start`` returns ``None`` when tracing
is off without allocating anything — callers hold a single ``trace is
None`` check on the hot path, and the zero-allocation test pins it.

Thread safety: span mutation takes the owning trace's lock (children
append concurrently under morsel fan-out); ``finish`` hands
the trace to the ring under the tracer's lock.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional

from repro.persist.atomic import atomic_write_text

DEFAULT_CAPACITY = 64

#: Fault-injection site for telemetry dumps (trace ring, slow-query
#: log); registered in :data:`repro.resilience.faults.SITES`.
SITE_TELEMETRY_DUMP = "telemetry.dump"

_trace_ids = itertools.count(1)


class Span:
    """One timed operation within a trace (a node of the span tree)."""

    __slots__ = ("name", "category", "start", "end", "status", "thread_id",
                 "thread_name", "attributes", "events", "children", "_trace")

    def __init__(self, trace: "Trace", name: str, category: str = "",
                 attributes: Optional[Dict[str, object]] = None):
        self._trace = trace
        self.name = name
        self.category = category
        self.start = trace._now()
        self.end: Optional[float] = None
        self.status = "ok"
        current = threading.current_thread()
        self.thread_id = current.ident or threading.get_ident()
        self.thread_name = current.name
        self.attributes = attributes
        self.events: List[tuple] = []
        self.children: List["Span"] = []

    # ------------------------------------------------------------------
    def child(self, name: str, category: str = "", **attributes) -> "Span":
        span = Span(self._trace, name, category, attributes or None)
        with self._trace._lock:
            self.children.append(span)
        return span

    def event(self, name: str, **attributes) -> None:
        """Record a point-in-time marker on this span (cache hit, breaker
        transition, plan marked stale...)."""
        with self._trace._lock:
            self.events.append((name, self._trace._now(),
                                attributes or None))

    def set(self, **attributes) -> None:
        with self._trace._lock:
            if self.attributes is None:
                self.attributes = {}
            self.attributes.update(attributes)

    def finish(self, status: Optional[str] = None, **attributes) -> None:
        if attributes:
            self.set(**attributes)
        if status is not None:
            self.status = status
        if self.end is None:
            self.end = self._trace._now()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(status="error" if exc_type is not None else None)

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else self._trace._now()
        return max(0.0, end - self.start)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in list(self.children):
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant span (pre-order) with ``name``; None if absent."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def event_names(self) -> List[str]:
        return [name for name, _, _ in self.events]

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "thread_id": self.thread_id,
        }
        if self.category:
            out["category"] = self.category
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = [
                {"name": name, "at": at,
                 **({"attributes": attrs} if attrs else {})}
                for name, at, attrs in self.events
            ]
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, start={self.start:.6f}, "
                f"duration={self.duration:.6f}, "
                f"children={len(self.children)})")


class Trace:
    """One query's span tree, anchored to its own monotonic clock."""

    __slots__ = ("trace_id", "query", "started_at", "status", "error",
                 "root", "_t0", "_lock")

    def __init__(self, query: str, trace_id: Optional[str] = None,
                 attributes: Optional[Dict[str, object]] = None,
                 root_name: str = "query"):
        self.trace_id = trace_id or f"t{next(_trace_ids):08d}"
        self.query = query
        self.started_at = time.time()
        self.status = "ok"
        self.error: Optional[str] = None
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.root = Span(self, root_name, category="query",
                         attributes=attributes)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def finish(self, status: str = "ok",
               error: Optional[BaseException] = None) -> None:
        self.status = status
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"
        self.root.finish(status=status)

    @property
    def duration(self) -> float:
        return self.root.duration

    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "trace_id": self.trace_id,
            "query": self.query,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
            "root": self.root.to_dict(),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_chrome(self) -> List[Dict[str, object]]:
        """Chrome trace-event 'X' (complete) events for every span."""
        base_us = self.started_at * 1e6
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for span in self.spans():
            args: Dict[str, object] = {"trace_id": self.trace_id}
            if span.attributes:
                args.update(span.attributes)
            if span.status != "ok":
                args["status"] = span.status
            events.append({
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": base_us + span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            })
            for name, at, attrs in span.events:
                events.append({
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": base_us + at * 1e6,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": dict(attrs) if attrs else {},
                })
        return events

    def __repr__(self) -> str:
        return (f"Trace({self.trace_id}, status={self.status!r}, "
                f"duration={self.duration:.6f}s, "
                f"spans={sum(1 for _ in self.spans())})")


class Tracer:
    """Creates traces and keeps a bounded ring of finished ones."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False):
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = capacity
        #: The hot-path switch: callers check this (or just call
        #: :meth:`start` and branch on None).
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ring: "deque[Trace]" = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def start(self, query: str, root_name: str = "query",
              **attributes) -> Optional[Trace]:
        """A new live trace, or None (allocating nothing) when disabled."""
        if not self.enabled:
            return None
        return Trace(query, attributes=attributes or None,
                     root_name=root_name)

    def finish(self, trace: Trace, status: str = "ok",
               error: Optional[BaseException] = None) -> None:
        """Close the trace's root span and admit it to the ring."""
        trace.finish(status=status, error=error)
        with self._lock:
            self._ring.append(trace)

    # ------------------------------------------------------------------
    def traces(self) -> List[Trace]:
        """Finished traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def last(self) -> Optional[Trace]:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_json(self) -> List[Dict[str, object]]:
        return [trace.to_dict() for trace in self.traces()]

    def export_chrome(self) -> Dict[str, object]:
        """Chrome trace-event document: ``ph:"M"`` metadata records first
        (process/thread names, so Perfetto lanes are labeled), then every
        span/event from the ring."""
        traces = self.traces()
        pid = os.getpid()
        thread_names: Dict[int, str] = {}
        for trace in traces:
            for span in trace.spans():
                thread_names.setdefault(span.thread_id, span.thread_name)
        events: List[Dict[str, object]] = []
        if traces:
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": "repro-serving"},
            })
            for tid in sorted(thread_names):
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": thread_names[tid]},
                })
        for trace in traces:
            events.extend(trace.to_chrome())
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump_json(self, path, faults=None):
        """Atomically write the ring as JSON (crash-safe; a torn write
        never corrupts a previous dump)."""
        text = json.dumps({"schema": "repro-traces-v1",
                           "traces": self.export_json()}, indent=2)
        return atomic_write_text(path, text, faults=faults,
                                 site=SITE_TELEMETRY_DUMP)

    def dump_chrome(self, path, faults=None):
        """Atomically write the ring in Chrome trace-event format."""
        text = json.dumps(self.export_chrome(), indent=2)
        return atomic_write_text(path, text, faults=faults,
                                 site=SITE_TELEMETRY_DUMP)

    def __repr__(self) -> str:
        return (f"Tracer(enabled={self.enabled}, "
                f"traces={len(self)}/{self.capacity})")
