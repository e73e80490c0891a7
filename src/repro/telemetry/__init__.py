"""Runtime telemetry: trace spans, unified metrics, slow-query log.

One :class:`Telemetry` instance per :class:`~repro.core.session.RavenSession`
bundles the three runtime-observability surfaces this package provides:

* ``telemetry.metrics`` — the :class:`~repro.telemetry.metrics.MetricsRegistry`
  every component shares (session serving stats, plan-cache stats, the
  queries-in-flight gauge, per-query latency histograms);
* ``telemetry.tracer`` — the :class:`~repro.telemetry.trace.Tracer`
  producing per-query span trees into a bounded ring (off by default:
  ``Tracer.start`` returns None without allocating);
* ``telemetry.slow_log`` — the :class:`~repro.telemetry.slowlog.SlowQueryLog`
  capturing plan fingerprint + full trace for queries over a threshold.

None of them watches a query run. A run writes to its one record
(:class:`~repro.core.session.RunStats`; when tracing is on the record
carries the live :class:`~repro.telemetry.trace.Trace` and the span each
phase runs under), and when the run ends — successfully or not — the
session's fold hands the record to :meth:`Telemetry.observe_query`
exactly once. Everything here is a view of that record: the trace's root
attributes and status, the ``query/optimize/execute_seconds`` histograms,
the ``queries{outcome}`` counters, the slow-query entry, and
:func:`~repro.telemetry.explain.render_analyze`'s EXPLAIN ANALYZE text.

Cost model: ``Telemetry(...)`` with defaults keeps metrics on and tracing
off — the per-query overhead is a handful of counter increments and
three histogram observes. ``telemetry.enabled = False`` turns the whole
observation layer off (the benchmark baseline); ``tracing=True`` (or
``RavenSession(telemetry=True)``) adds span capture, gated at ≤10%
overhead by ``benchmarks/bench_telemetry.py``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .metrics import Histogram, MetricsRegistry, Scalar, geometric_bounds
from .slowlog import DEFAULT_THRESHOLD_SECONDS, SlowQueryLog
from .trace import SITE_TELEMETRY_DUMP, Span, Trace, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "SITE_TELEMETRY_DUMP",
    "Scalar",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "Trace",
    "Tracer",
    "geometric_bounds",
]


class Telemetry:
    """The session-level facade over tracer + metrics + slow-query log."""

    def __init__(self, tracing: bool = False,
                 registry: Optional[MetricsRegistry] = None,
                 trace_capacity: int = 64,
                 slow_query_seconds: float = DEFAULT_THRESHOLD_SECONDS,
                 slow_log_capacity: int = 128):
        #: Master observation switch. When False, ``observe_query`` is a
        #: single-attribute-check no-op and tracing is implicitly off —
        #: the hot loop pays one branch.
        self.enabled = True
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity, enabled=tracing)
        self.slow_log = SlowQueryLog(threshold_seconds=slow_query_seconds,
                                     capacity=slow_log_capacity)
        # Hot-path instruments are created once here, never looked up
        # per query.
        self._query_seconds = self.metrics.histogram("query_seconds")
        self._optimize_seconds = self.metrics.histogram("optimize_seconds")
        self._execute_seconds = self.metrics.histogram("execute_seconds")
        self._queries_ok = self.metrics.counter("queries",
                                                {"outcome": "ok"})
        self._queries_error = self.metrics.counter("queries",
                                                   {"outcome": "error"})

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "Telemetry":
        """Normalize a ``RavenSession(telemetry=...)`` argument.

        A ``Telemetry`` instance passes through (shared registries and
        pre-tuned thresholds); ``True`` means metrics + tracing;
        ``None``/``False`` means the default metrics-only layer.
        """
        if isinstance(value, cls):
            return value
        return cls(tracing=bool(value))

    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        return self.enabled and self.tracer.enabled

    def start_trace(self, query: str, root_name: str = "query",
                    **attributes) -> Optional[Trace]:
        """A live trace for ``query``, or None when tracing is off."""
        if not self.enabled:
            return None
        return self.tracer.start(query, root_name=root_name, **attributes)

    def observe_query(self, record) -> None:
        """Fold one finished query's record (success or failure) into the
        trace ring, histograms, counters and — when over the threshold —
        the slow-query log."""
        if not self.enabled:
            return
        trace = record.trace
        if trace is not None:
            if record.plan is not None:
                trace.root.set(cache_hit=record.cache_hit,
                               static_plan=record.static_plan,
                               plan_fingerprint=record.plan_fingerprint)
            if record.error is None:
                self.tracer.finish(trace)
            else:
                self.tracer.finish(trace, status="error", error=record.error)
        self._query_seconds.observe(record.seconds)
        if record.error is None:
            self._queries_ok.inc()
        else:
            self._queries_error.inc()
        if record.plan is not None:
            self._optimize_seconds.observe(record.optimize_seconds)
            self._execute_seconds.observe(record.execute_seconds)
        self.slow_log.record(record)

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry's full JSON snapshot (counters, gauges, and
        histograms with p50/p95/p99 estimates)."""
        return self.metrics.snapshot()

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.metrics.to_prometheus()

    def dump(self, directory, faults=None) -> Dict[str, str]:
        """Crash-safe disk dump of every telemetry surface into
        ``directory``: traces (JSON + Chrome trace-event), the slow-query
        log, and a metrics snapshot. Returns the written paths."""
        import json

        from repro.persist.atomic import atomic_write_text

        os.makedirs(directory, exist_ok=True)
        paths = {
            "traces": os.path.join(directory, "traces.json"),
            "chrome": os.path.join(directory, "trace_events.json"),
            "slow_log": os.path.join(directory, "slow_queries.json"),
            "metrics": os.path.join(directory, "metrics.json"),
        }
        self.tracer.dump_json(paths["traces"], faults=faults)
        self.tracer.dump_chrome(paths["chrome"], faults=faults)
        self.slow_log.dump(paths["slow_log"], faults=faults)
        atomic_write_text(
            paths["metrics"],
            json.dumps({"schema": "repro-metrics-v1",
                        "metrics": self.metrics_snapshot()}, indent=2),
            faults=faults, site=SITE_TELEMETRY_DUMP)
        return paths

    def __repr__(self) -> str:
        return (f"Telemetry(enabled={self.enabled}, "
                f"tracing={self.tracer.enabled}, "
                f"slow_log={len(self.slow_log)})")
