"""Telemetry overhead benchmark: what observation costs the hot path.

The telemetry layer makes two promises (``src/repro/telemetry``):

* the **default** layer (metrics on, tracing off) is nearly free — a
  handful of counter increments and three histogram observes per query;
* **full tracing** (span tree per query) stays within a small constant
  factor of the untraced path.

This bench measures both as warmed per-query medians over interleaved
rounds (so clock drift and cache effects hit every variant equally):

* ``disabled_overhead`` — default telemetry vs ``telemetry.enabled =
  False`` (the PR-7-era zero-observation baseline); gated ≤ 2% at full
  scale;
* ``tracing_overhead`` — tracing on vs default; gated ≤ 10% at full
  scale.

It also reports the serve-path p50/p99 **as the telemetry layer itself
measured them** (``telemetry.metrics_snapshot()``), which doubles as an
end-to-end check that the histograms see every query.
"""

import statistics
import time

from benchmarks._util import ReportTable, build_workload, env_scale, run_report

ROUNDS = 30
QUERIES_PER_ROUND = 4
WARMUP = 5

#: Acceptance ceilings (enforced at full scale, where per-query work is
#: large enough that the ratios measure the telemetry layer rather than
#: timer noise).
TRACING_OVERHEAD_LIMIT = 1.10
DISABLED_OVERHEAD_LIMIT = 1.02


def _median_query_seconds(session, query, rounds_done) -> float:
    start = time.perf_counter()
    for _ in range(QUERIES_PER_ROUND):
        session.sql(query)
    rounds_done.append((time.perf_counter() - start) / QUERIES_PER_ROUND)
    return rounds_done[-1]


def _telemetry_report() -> ReportTable:
    workload = build_workload("hospital", "dt")

    baseline = workload.make_session()
    baseline.telemetry.enabled = False
    default = workload.make_session()
    traced = workload.make_session(telemetry=True)
    variants = [
        ("baseline (telemetry off)", baseline, []),
        ("default (metrics only)", default, []),
        ("tracing (span trees)", traced, []),
    ]

    for _, session, _ in variants:
        for _ in range(WARMUP):
            session.sql(workload.query)

    # Interleaved rounds: every variant sees the same thermal/clock
    # conditions, so the ratios cancel machine drift.
    for _ in range(ROUNDS):
        for _, session, samples in variants:
            _median_query_seconds(session, workload.query, samples)

    medians = {label: statistics.median(samples)
               for label, _, samples in variants}
    baseline_s = medians["baseline (telemetry off)"]
    default_s = medians["default (metrics only)"]
    traced_s = medians["tracing (span trees)"]
    disabled_overhead = default_s / max(baseline_s, 1e-12)
    tracing_overhead = traced_s / max(default_s, 1e-12)

    # The serve-path latency histograms, as telemetry itself saw the
    # run — the acceptance surface for dashboard consumers.
    snapshot = traced.telemetry.metrics_snapshot()
    query_hist = snapshot["histograms"]["query_seconds"]
    expected = WARMUP + ROUNDS * QUERIES_PER_ROUND
    assert query_hist["count"] == expected, (
        f"telemetry histograms missed queries: {query_hist['count']} "
        f"observed vs {expected} executed")
    assert len(traced.telemetry.tracer) > 0

    table = ReportTable(
        title=f"Telemetry overhead (hospital/dt, {ROUNDS} rounds x "
              f"{QUERIES_PER_ROUND} queries)",
        columns=["variant", "per_query_ms", "vs_previous"],
    )
    table.add(variant="telemetry off", per_query_ms=baseline_s * 1e3,
              vs_previous="1.00x (floor)")
    table.add(variant="metrics only (default)", per_query_ms=default_s * 1e3,
              vs_previous=f"{disabled_overhead:.3f}x vs off")
    table.add(variant="tracing on", per_query_ms=traced_s * 1e3,
              vs_previous=f"{tracing_overhead:.3f}x vs default")
    table.note(f"telemetry-measured serve latency: "
               f"p50={query_hist['p50'] * 1e3:.2f}ms "
               f"p99={query_hist['p99'] * 1e3:.2f}ms "
               f"over {query_hist['count']} queries")
    table.note(f"acceptance: default <= {DISABLED_OVERHEAD_LIMIT:.2f}x off, "
               f"tracing <= {TRACING_OVERHEAD_LIMIT:.2f}x default "
               f"(enforced at full scale)")

    if env_scale() >= 1.0:
        assert disabled_overhead <= DISABLED_OVERHEAD_LIMIT, (
            f"default telemetry costs {disabled_overhead:.3f}x the "
            f"disabled path (limit {DISABLED_OVERHEAD_LIMIT:.2f}x)")
        assert tracing_overhead <= TRACING_OVERHEAD_LIMIT, (
            f"tracing costs {tracing_overhead:.3f}x the untraced path "
            f"(limit {TRACING_OVERHEAD_LIMIT:.2f}x)")
    else:
        table.note("reduced scale: overhead ceilings reported, not "
                   "enforced (tiny per-query work inflates the ratios)")
    return table


def test_telemetry_overhead(benchmark):
    run_report(benchmark, _telemetry_report, "bench_telemetry")
