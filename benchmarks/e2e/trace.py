"""Outside-in tracing: spans recorded around calls into each layer.

The engine is not instrumented. One traced operation is a root span
around a plain ``session.sql(query)``, then the same query replayed
stage by stage through the public entry points, then every subtree of
the optimized plan executed on a bare ``QueryExecutor`` so that an
operator's self time is its subtree's time minus its children's. Replay
spans therefore start after their root ended; ``parent`` records which
span caused them, not containment in time.

Span names::

    query                    root, plain session.sql(query)
    serving.normalize        serving.normalize_query(query)
    serving.plan_cache       session.plan_cache.get(key, catalog)
    core.parse               core.parser.parse(query)
    core.bind                Binder(catalog).bind(stmt)
    session.optimize         session.optimize(query)   (parses and binds again)
    session.execute_plan     session.execute_plan(plan)
    executor.fresh_plan      QueryExecutor.execute(the plan session.optimize
                             just returned): compiles its programs, then runs
    op.<Operator>            QueryExecutor.execute(subtree); parent = the
                             enclosing operator's span, or the root
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.core.binder import Binder
from repro.core.executor import QueryExecutor
from repro.core.parser import parse
from repro.serving import normalize_query

#: Which layer metric an operator's self time is charged to.
OPERATOR_LAYER = {
    "Project": "relational.expr_ms",
    "Filter": "relational.expr_ms",
    "Join": "relational.join_ms",
    "MultiJoin": "relational.join_ms",
    "Aggregate": "relational.agg_ms",
    "Scan": "storage.scan_ms",
    "Predict": "predict.run_ms",
}


class Spans:
    """In-memory span list: ``{id, name, op_id, parent, start, end}``."""

    def __init__(self):
        self.spans: List[dict] = []

    @contextmanager
    def span(self, name: str, op_id: int, parent: Optional[int]):
        record = {"id": len(self.spans), "name": name, "op_id": op_id,
                  "parent": parent, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"clock": "time.perf_counter seconds", "spans": self.spans},
                      handle)


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


def trace_operation(spans: Spans, session, query: str, op_id: int):
    """Root span, staged replay, operator replay; returns the root's table."""
    stats = session.plan_cache.stats
    misses_before = stats.misses
    with spans.span("query", op_id, None) as root:
        table = session.sql(query)
    root["cache_miss"] = stats.misses > misses_before
    root["programs_compiled"] = session.last_run.programs_compiled
    parent = root["id"]

    with spans.span("serving.normalize", op_id, parent):
        normalized = normalize_query(query)
    with spans.span("serving.plan_cache", op_id, parent):
        entry = session.plan_cache.get(normalized.key, session.catalog)
    with spans.span("core.parse", op_id, parent):
        statement = parse(query)
    with spans.span("core.bind", op_id, parent):
        Binder(session.catalog).bind(statement)
    with spans.span("session.optimize", op_id, parent):
        plan, _report = session.optimize(query)
    with spans.span("executor.fresh_plan", op_id, parent):
        QueryExecutor(session.catalog, session.runtime.for_call()).execute(plan)
    if entry is not None:
        plan = entry.plan   # the plan the root call executed, programs compiled
    with spans.span("session.execute_plan", op_id, parent):
        session.execute_plan(plan)
    _replay_operators(spans, session, plan, op_id, parent)
    return table


def _replay_operators(spans: Spans, session, plan, op_id: int, parent: int):
    executor = QueryExecutor(session.catalog, session.runtime.for_call())
    with spans.span(f"op.{type(plan).__name__}", op_id, parent) as record:
        executor.execute(plan)
    for child in plan.children():
        _replay_operators(spans, session, child, op_id, record["id"])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def operation_layers(op_spans: List[dict]) -> Dict[str, float]:
    """One traced operation's milliseconds per layer."""
    by_name = {}
    children: Dict[int, List[dict]] = {}
    for span in op_spans:
        by_name.setdefault(span["name"], span)
        children.setdefault(span["parent"], []).append(span)
    root = by_name["query"]
    out = {name: 0.0 for name in set(OPERATOR_LAYER.values())}
    operator_total = 0.0
    for span in op_spans:
        if not span["name"].startswith("op."):
            continue
        below = sum(seconds(child) for child in children.get(span["id"], ()))
        self_ms = max(0.0, seconds(span) - below) * 1e3
        out[OPERATOR_LAYER[span["name"][3:]]] += self_ms
        if span["parent"] == root["id"]:
            operator_total = seconds(span) * 1e3
    ms = {name: seconds(by_name[name]) * 1e3
          for name in ("query", "serving.normalize", "serving.plan_cache",
                       "core.parse", "core.bind", "session.optimize",
                       "executor.fresh_plan")}
    out["serving.normalize_ms"] = ms["serving.normalize"]
    out["serving.plan_cache_ms"] = ms["serving.plan_cache"]
    out["core.parse_ms"] = ms["core.parse"]
    out["core.bind_ms"] = ms["core.bind"]
    out["core.optimize_ms"] = max(
        0.0, ms["session.optimize"] - ms["core.parse"] - ms["core.bind"])
    # Compiled programs live on the plan's nodes: the fresh plan compiles
    # them, the cached one (replayed operator by operator) reuses them.
    out["relational.compile_ms"] = max(0.0, ms["executor.fresh_plan"] - operator_total)
    # What the root call provably did: normalize, look the plan up, run the
    # operators and, only when it missed, plan and compile.
    attributed = ms["serving.normalize"] + ms["serving.plan_cache"] + operator_total
    if root["cache_miss"]:
        attributed += ms["session.optimize"] + out["relational.compile_ms"]
    out["query_ms"] = ms["query"]
    out["attributed_ms"] = attributed
    return out


def layer_metrics(spans: Spans, untraced_query_ms: float) -> Dict[str, float]:
    """Median per operation of each layer's milliseconds, plus the derived
    ``session.overhead_ms`` and ``trace.*`` shares; ``untraced_query_ms`` is
    the median of the same process's untraced operations."""
    by_op: Dict[int, List[dict]] = {}
    for span in spans.spans:
        by_op.setdefault(span["op_id"], []).append(span)
    per_op = [operation_layers(op_spans) for op_spans in by_op.values()]
    medians = {name: statistics.median(op[name] for op in per_op)
               for name in per_op[0]}
    query_ms = medians.pop("query_ms")
    attributed_ms = medians.pop("attributed_ms")
    medians["session.overhead_ms"] = query_ms - attributed_ms
    medians["trace.unattributed_share"] = (query_ms - attributed_ms) / query_ms
    medians["trace.overhead_share"] = query_ms / untraced_query_ms - 1
    roots = [s for s in spans.spans if s["name"] == "query"]
    medians["relational.programs_compiled"] = \
        sum(s["programs_compiled"] for s in roots) / len(roots)
    medians["serving.plan_cache_hit_rate"] = \
        sum(1 for s in roots if not s["cache_miss"]) / len(roots)
    return medians
