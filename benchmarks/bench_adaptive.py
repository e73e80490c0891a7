"""Adaptive execution benchmark: misestimated selectivities vs feedback.

The workload the adaptive subsystem exists for: a conjunctive filter whose
*written* order is maximally wrong — the expensive, keep-almost-everything
conjuncts come first and the highly selective one comes last. A static
optimizer has no statistics to know better and bakes the written order into
the cached plan forever; the adaptive session profiles the cascade, learns
the per-conjunct selectivities and costs, marks the cached plan stale
(``plan_cache.stats.reoptimizations``), and re-optimizes it with the
selective conjunct first.

Acceptance gate (also run by the CI bench-smoke job): the warmed adaptive
plan must never be slower than the warmed static plan, and at full scale
(>= 50k rows) must be >= 2x faster. Results are verified bit-for-bit
between both sessions before timing.
"""

import numpy as np

from benchmarks._util import ReportTable, run_report, scaled, timed
from repro import RavenSession, Table

# Floor of 20k rows: below that the filter work the reordering saves is
# comparable to fixed per-call costs (cache lookup, profiling) and the
# never-slower smoke gate would measure noise instead of the subsystem.
ROWS = scaled(200_000, minimum=20_000)

# Full-scale acceptance: adaptive >= 2x on the misestimated workload; at
# smoke scale (RAVEN_SCALE << 1) only "never slower" is required.
FULL_SCALE_ROWS = 50_000
FULL_SCALE_SPEEDUP = 2.0

# Written order: wide (keep-almost-all) conjuncts first, the narrow one
# last. Every conjunct is the same-shaped polynomial, so per-conjunct cost
# is uniform and the win comes purely from ordering by selectivity.
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
    """The readings table and the misestimated-order query over it."""
    rng = np.random.default_rng(17)
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


def _make_session(adaptive: bool, table: Table) -> RavenSession:
    session = RavenSession(adaptive=adaptive)
    session.register_table("readings", table)
    return session


def _warm(session: RavenSession, query: str, max_rounds: int = 6) -> int:
    """Run until the plan cache serves a warm (post-reoptimization) hit."""
    rounds = 0
    for _ in range(max_rounds):
        _, stats = session.sql_with_stats(query)
        rounds += 1
        if stats.cache_hit:
            break
    return rounds


def _adaptive_report() -> ReportTable:
    table, query = _build_workload()
    static = _make_session(adaptive=False, table=table)
    adaptive = _make_session(adaptive=True, table=table)

    expected = static.sql(query)
    actual = adaptive.sql(query)
    assert expected.column_names == actual.column_names
    for name in expected.column_names:  # bit-for-bit before timing
        a, b = actual.array(name), expected.array(name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    _warm(static, query)
    warm_rounds = _warm(adaptive, query)
    reoptimizations = adaptive.plan_cache.stats.reoptimizations
    assert reoptimizations >= 1, (
        "feedback never re-optimized the misestimated plan"
    )

    static_seconds = timed(lambda: static.sql(query), repeats=7)
    adaptive_seconds = timed(lambda: adaptive.sql(query), repeats=7)
    speedup = static_seconds / max(adaptive_seconds, 1e-12)

    report = ReportTable(
        title="Adaptive execution: misestimated selectivities "
              "(trimmed mean of 7, warmed plans)",
        columns=["variant", "rows", "wall_ms", "selectivities", "note"],
    )
    written = "/".join(f"{s:.2f}" for s in TARGET_SELECTIVITIES)
    report.add(variant="static (as written)", rows=ROWS,
               wall_ms=static_seconds * 1e3, selectivities=written,
               note="wide conjuncts evaluated first")
    report.add(variant="adaptive (feedback)", rows=ROWS,
               wall_ms=adaptive_seconds * 1e3, selectivities=written,
               note=f"reoptimizations={reoptimizations}, "
                    f"warm_rounds={warm_rounds}")

    required = FULL_SCALE_SPEEDUP if ROWS >= FULL_SCALE_ROWS else 1.0
    report.note(f"adaptive speedup {speedup:.1f}x "
                f"(acceptance: >= {required:.1f}x at {ROWS} rows)")
    report.note("results verified bit-for-bit against the static oracle")
    assert speedup >= required, (
        f"warmed adaptive plan only {speedup:.2f}x vs static "
        f"(required >= {required:.1f}x at {ROWS} rows)"
    )
    return report


def test_adaptive_vs_static(benchmark):
    run_report(benchmark, _adaptive_report, "bench_adaptive")
