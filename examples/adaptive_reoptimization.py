"""Adaptive re-optimization: cached plans flip after feedback drift.

Run with: ``python examples/adaptive_reoptimization.py``

Part 1 — conjunct reordering. The static optimizer has no statistics
about a filter's conjuncts, so it keeps the written order — here
deliberately pessimal: the conjunct that keeps ~98% of rows runs first
and the one that keeps ~1% runs last. The adaptive session:

1. profiles the first execution (per-conjunct rows and wall time land in
   ``RunStats.operator_profiles`` and the session's FeedbackStore);
2. notices the cached plan diverges from what feedback now prefers and
   marks it stale (``plan_cache.stats.reoptimizations``);
3. re-optimizes through the plan cache's single-flight path — the new
   plan evaluates the selective conjunct first — and serves warm hits
   from then on.

Part 2 — join ordering under drift. A star-join prediction query joins a
1:1 wide dimension and a key-sparse dimension; per-table statistics tie,
so the plan runs as written until observed per-edge join selectivities
flip the region to join the sparse dimension first (a ``MultiJoin`` with
a reordered execution sequence, bit-for-bit identical output). Then the
"next day's" data arrives with the opposite shape; the join-selectivity
EWMAs drift, and the warmed order flips back — the Hydro-style loop.
"""

import time

import numpy as np

from repro import RavenSession, Table
from repro.relational.expressions import conjuncts
from repro.relational.logical import Filter, MultiJoin, walk

QUERY = """
SELECT t.reading FROM sensors AS t
WHERE t.reading * t.reading + t.reading < 5.9
  AND t.noise * t.noise + t.noise < 0.03
"""


def median_seconds(fn, repeats: int = 5) -> float:
    """Median wall time of ``fn`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return sorted(times)[repeats // 2]


def filter_order(session: RavenSession) -> str:
    """The conjunct order the session's optimizer currently produces."""
    plan, _ = session.optimize(QUERY)
    filt = next(node for node in walk(plan) if isinstance(node, Filter))
    return "\n    AND ".join(repr(part)
                             for part in conjuncts(filt.predicate))


STAR_QUERY = """
SELECT f.fv, p.pv, s.sv
FROM fact AS f
JOIN profiles AS p ON f.uid = p.uid
JOIN segments AS s ON f.sid = s.sid
"""


def join_order(session: RavenSession) -> str:
    """The join sequence the session's optimizer currently produces."""
    plan, _ = session.optimize(STAR_QUERY)
    regions = [node for node in walk(plan) if isinstance(node, MultiJoin)]
    if not regions:
        return "text order (binary join tree)"
    names = ["fact", "profiles", "segments"]
    sequence = regions[0].sequence()
    return " -> ".join(names[index] for index in sequence)


def star_tables(rng, n: int, sparse: str):
    """fact + two dimensions; ``sparse`` names the one covering only ~2%
    of the fact keys (invisible to per-table statistics: both dimensions
    have the same row count and unique keys)."""
    domain = 50 * n
    uid_domain = domain if sparse == "profiles" else n
    sid_domain = domain if sparse == "segments" else n
    fact = Table.from_arrays(
        uid=rng.integers(0, uid_domain, n),
        sid=rng.integers(0, sid_domain, n),
        fv=rng.normal(0.0, 1.0, n),
    )
    profiles = Table.from_arrays(
        uid=rng.choice(max(uid_domain, n), n, replace=False),
        pv=rng.normal(0.0, 1.0, n))
    segments = Table.from_arrays(
        sid=rng.choice(max(sid_domain, n), n, replace=False),
        sv=rng.normal(0.0, 1.0, n))
    return {"fact": fact, "profiles": profiles, "segments": segments}


def star_join_drift() -> None:
    rng = np.random.default_rng(29)
    n = 60_000

    adaptive = RavenSession()
    static = RavenSession(adaptive=False)
    day_one = star_tables(rng, n, sparse="segments")
    for session in (adaptive, static):
        for name, table in day_one.items():
            session.register_table(name, table)

    print("\n== Part 2: star-join ordering under drift ==")
    print(f"-- join order before any execution: {join_order(adaptive)}")

    for _ in range(3):
        result = adaptive.sql(STAR_QUERY)
    oracle = static.sql(STAR_QUERY)
    assert all(oracle.array(c).tobytes() == result.array(c).tobytes()
               for c in oracle.column_names)
    print(f"-- day 1 (segments sparse): {result.num_rows} rows, "
          f"order now: {join_order(adaptive)}")

    # Day 2: the data drifts the other way — profiles becomes the sparse
    # dimension. Re-registration invalidates cached plans, but the
    # feedback fingerprints are structural: the first day-2 runs still
    # trust yesterday's selectivities, then the join-step EWMAs catch up
    # and the warmed order flips back.
    day_two = star_tables(rng, n, sparse="profiles")
    for session in (adaptive, static):
        for name, table in day_two.items():
            session.register_table(name, table, replace=True)
    for _ in range(4):
        result = adaptive.sql(STAR_QUERY)
    oracle = static.sql(STAR_QUERY)
    assert all(oracle.array(c).tobytes() == result.array(c).tobytes()
               for c in oracle.column_names)
    print(f"-- day 2 (profiles sparse): {result.num_rows} rows, "
          f"order now: {join_order(adaptive)}")
    print(f"-- reoptimizations so far: "
          f"{adaptive.plan_cache.stats.reoptimizations} "
          f"(all results bit-for-bit identical to the static oracle)")


def main() -> None:
    rng = np.random.default_rng(11)
    n = 200_000
    sensors = Table.from_arrays(
        reading=rng.uniform(0.0, 1.0, n),   # r*r + r < 5.9  keeps ~98%
        noise=rng.uniform(0.0, 1.0, n),     # n*n + n < 0.03 keeps ~3%
    )

    adaptive = RavenSession()               # adaptive execution on by default
    static = RavenSession(adaptive=False)   # the differential oracle
    for session in (adaptive, static):
        session.register_table("sensors", sensors)

    print("-- optimizer's conjunct order before any execution:")
    print("    " + filter_order(adaptive))

    result, stats = adaptive.sql_with_stats(QUERY)
    print(f"\n-- first run: {result.num_rows} rows, "
          f"cache_hit={stats.cache_hit}")
    print("-- operator profile (rows in -> out, self time):")
    print(stats.operator_profiles.pretty())

    cache = adaptive.plan_cache.stats
    print(f"\n-- feedback drifted from the cached plan: "
          f"reoptimizations={cache.reoptimizations}")

    _, second = adaptive.sql_with_stats(QUERY)   # re-optimized (miss)
    _, third = adaptive.sql_with_stats(QUERY)    # warm hit on the new plan
    print(f"-- second run cache_hit={second.cache_hit} "
          f"(re-optimized), third run cache_hit={third.cache_hit}")

    print("\n-- optimizer's conjunct order after feedback (flipped):")
    print("    " + filter_order(adaptive))

    static.sql(QUERY)  # warm the static plan cache too
    static_seconds = median_seconds(lambda: static.sql(QUERY))
    adaptive_seconds = median_seconds(lambda: adaptive.sql(QUERY))
    oracle = static.sql(QUERY)
    fast = adaptive.sql(QUERY)
    assert all(np.array_equal(oracle.array(c), fast.array(c))
               for c in oracle.column_names)
    print(f"\n-- warmed static plan:   {static_seconds * 1e3:7.2f} ms")
    print(f"-- warmed adaptive plan: {adaptive_seconds * 1e3:7.2f} ms "
          f"({static_seconds / adaptive_seconds:.1f}x, identical results)")

    star_join_drift()


if __name__ == "__main__":
    main()
