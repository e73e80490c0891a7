"""Persistence benchmark: warm-started first call vs cold first call.

The scenario the persist subsystem exists for: a serving worker learned
(via adaptive execution) that a query's written conjunct order was
maximally wrong, re-optimized it, and checkpointed a snapshot. A fleet
then spawns a *new* worker. Cold, that worker re-pays parse + optimize
and re-runs the misestimated written-order plan until feedback fixes it;
warm-started from the snapshot, its very first call hits the plan cache
with the already-reoptimized plan and the learned feedback — no
re-learning, no re-optimization.

Acceptance gates (also run by the CI bench-smoke job):

* the warm-started session's **first** execution is never slower than a
  cold session's first execution, and at full scale (>= 50k rows)
  >= 1.5x faster;
* the warm first call is a cache hit (``stats.cache_hit``) with **zero**
  re-optimizations — plan and feedback were reused, not re-learned;
* warm results are bit-for-bit identical to a fresh
  ``RavenSession(adaptive=False)`` oracle.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks._util import ReportTable, run_report, scaled
from repro import RavenSession, Table

# Same floor rationale as bench_adaptive: below ~20k rows the filter work
# the learned ordering saves is comparable to fixed per-call costs and the
# smoke gate would measure noise.
ROWS = scaled(200_000, minimum=20_000)

FULL_SCALE_ROWS = 50_000
FULL_SCALE_SPEEDUP = 1.5
REPEATS = 5

# Written order: wide (keep-almost-all) conjuncts first, narrow last.
TARGET_SELECTIVITIES = (0.98, 0.90, 0.80, 0.02)


def _poly(values: np.ndarray) -> np.ndarray:
    return (values * values * values * values
            + 3.0 * values * values * values
            + 2.0 * values * values + values)


def _poly_sql(column: str) -> str:
    return (f"{column} * {column} * {column} * {column} "
            f"+ 3.0 * {column} * {column} * {column} "
            f"+ 2.0 * {column} * {column} + {column}")


def _build_workload():
    rng = np.random.default_rng(23)
    columns = {f"x{index}": rng.uniform(0.0, 1.0, ROWS)
               for index in range(len(TARGET_SELECTIVITIES))}
    table = Table.from_arrays(**columns)
    conjuncts = []
    for index, selectivity in enumerate(TARGET_SELECTIVITIES):
        name = f"x{index}"
        threshold = float(np.quantile(_poly(columns[name]), selectivity))
        conjuncts.append(f"{_poly_sql('t.' + name)} < {threshold!r}")
    query = ("SELECT t.x0 FROM readings AS t\nWHERE "
             + "\n  AND ".join(conjuncts))
    return table, query


def _learned_snapshot_path(table: Table, query: str, directory: str) -> str:
    """Warm a session until its plan reaches the fixed point; snapshot it."""
    session = RavenSession()
    session.register_table("readings", table)
    # Converged = a cache-hit run whose own profile caused no new
    # re-optimization: the snapshot must capture a *fixed-point* plan, or
    # the warm-started session would immediately re-optimize it.
    for _ in range(12):
        before = session.plan_cache.stats.reoptimizations
        _, stats = session.sql_with_stats(query)
        if stats.cache_hit \
                and session.plan_cache.stats.reoptimizations == before:
            break
    assert session.plan_cache.stats.reoptimizations >= 1, (
        "feedback never re-optimized the misestimated plan"
    )
    path = str(Path(directory) / "learned.json")
    session.save_snapshot(path)
    return path


def _first_call_seconds(table: Table, query: str, warm_start=None):
    """Wall time of a brand-new session's first execution of ``query``."""
    session = RavenSession(warm_start=warm_start)
    session.register_table("readings", table)
    started = time.perf_counter()
    result, stats = session.sql_with_stats(query)
    seconds = time.perf_counter() - started
    return seconds, result, stats, session


def _trimmed_mean(values):
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return sum(values) / len(values)


def _persist_report() -> ReportTable:
    table, query = _build_workload()
    with tempfile.TemporaryDirectory() as directory:
        snapshot_path = _learned_snapshot_path(table, query, directory)

        oracle = RavenSession(adaptive=False)
        oracle.register_table("readings", table)
        expected = oracle.sql(query)

        cold_times, warm_times = [], []
        warm_stats = warm_session = None
        for _ in range(REPEATS):
            seconds, _, _, _ = _first_call_seconds(table, query)
            cold_times.append(seconds)
            seconds, result, stats, session = _first_call_seconds(
                table, query, warm_start=snapshot_path)
            warm_times.append(seconds)
            warm_stats, warm_session = stats, session
            assert result.column_names == expected.column_names
            for name in expected.column_names:  # bit-for-bit vs the oracle
                a, b = result.array(name), expected.array(name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    # Plan + feedback reuse, not re-learning: the warm first call hits the
    # cache and never re-optimizes.
    assert warm_stats.cache_hit, "warm-started first call missed the cache"
    assert warm_session.plan_cache.stats.reoptimizations == 0, (
        "warm-started session re-optimized a supposedly fixed-point plan"
    )
    assert warm_session.plan_cache.stats.restored == 1

    cold_seconds = _trimmed_mean(cold_times)
    warm_seconds = _trimmed_mean(warm_times)
    speedup = cold_seconds / max(warm_seconds, 1e-12)

    report = ReportTable(
        title="Persistence: first call of a new worker "
              f"(trimmed mean of {REPEATS} fresh sessions)",
        columns=["variant", "rows", "first_call_ms", "note"],
    )
    report.add(variant="cold (no snapshot)", rows=ROWS,
               first_call_ms=cold_seconds * 1e3,
               note="optimizes + runs the misestimated written order")
    report.add(variant="warm (snapshot)", rows=ROWS,
               first_call_ms=warm_seconds * 1e3,
               note="cache hit, reoptimizations=0")

    required = FULL_SCALE_SPEEDUP if ROWS >= FULL_SCALE_ROWS else 1.0
    report.note(f"warm-start speedup {speedup:.1f}x "
                f"(acceptance: >= {required:.1f}x at {ROWS} rows)")
    report.note("warm results verified bit-for-bit against the "
                "adaptive=False oracle")
    assert speedup >= required, (
        f"warm-started first call only {speedup:.2f}x vs cold "
        f"(required >= {required:.1f}x at {ROWS} rows)"
    )
    return report


def test_warm_start_vs_cold(benchmark):
    run_report(benchmark, _persist_report, "bench_persist")
