"""EXPLAIN ANALYZE rendering: the optimized plan, annotated with what
actually happened when it ran.

:func:`render_analyze` reads three kinds of evidence off the query's one
record (:class:`~repro.core.session.RunStats`) into one text block:

* the optimized plan shape (via the profile tree, which mirrors it
  node-for-node — including nodes that never executed, shown with zero
  calls);
* observed per-operator rows in/out, selectivity, and self-time from
  :class:`repro.adaptive.profile.OperatorProfile` (plus per-conjunct and
  per-join-step sub-lines where the executor recorded them);
* the serving context that produced the plan: cache hit vs miss vs
  degraded-static route, breaker state, plan fingerprint, compile-vs-
  reuse counts, and the optimizer's own rule report.
"""

from __future__ import annotations

from typing import List


def render_analyze(record) -> str:
    """Render an EXPLAIN ANALYZE block from a finished query's record.

    ``record`` is the run's :class:`~repro.core.session.RunStats`: its
    profile tree is the plan, its other fields the serving context, and
    its optimizer rule report is appended as commented lines.
    """
    lines: List[str] = ["EXPLAIN ANALYZE"]

    route = "degraded-static" if record.static_plan else "adaptive"
    cache = "hit" if record.cache_hit else "miss"
    lines.append(f"route: {route} | plan cache: {cache}")
    if record.breaker_state is not None:
        lines.append(f"breaker: {record.breaker_state}")
    lines.append(f"plan fingerprint: {record.plan_fingerprint}")
    lines.append(f"optimize: {record.optimize_seconds * 1e3:.2f}ms | "
                 f"execute: {record.execute_seconds * 1e3:.2f}ms")
    lines.append(f"expression programs: {record.programs_compiled} compiled, "
                 f"{record.programs_reused} reused")
    if record.expression_fallbacks:
        lines.append(f"expression fallbacks: {record.expression_fallbacks}")

    lines.append("")
    lines.append("plan (observed rows in->out, selectivity, self time):")
    lines.append(record.operator_profiles.pretty())

    if record.report is not None:
        summary = record.report.summary()
        if summary:
            lines.append("")
            lines.append("-- " + summary.replace("\n", "\n-- "))

    return "\n".join(lines)
