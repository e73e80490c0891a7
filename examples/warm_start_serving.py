"""Warm-starting a restarted serving worker from its own checkpoints.

Run with: ``python examples/warm_start_serving.py``

The paper optimizes a prediction query once and runs it millions of
times — but a restarted worker used to start cold: empty plan cache,
empty feedback store, no learned selectivities. This example shows the
persist subsystem closing that gap:

1. worker A serves a query whose written conjunct order is maximally
   wrong; the adaptive loop profiles it, re-optimizes the cached plan,
   and reaches a fixed point;
2. worker A checkpoints into a :class:`~repro.persist.SnapshotStore`
   (the auto-checkpoint hook writes one on every re-optimization here);
3. worker B — worker A restarted — warm-starts from the store's newest
   checkpoint: its *first* call is a plan-cache hit running the
   already-reoptimized plan — warmed-plan latency with zero re-learning.
"""

import tempfile
import time

import numpy as np

from repro import RavenSession, SnapshotStore, Table


def _poly_sql(column: str) -> str:
    return (f"{column} * {column} * {column} * {column} "
            f"+ 3.0 * {column} * {column} * {column} "
            f"+ 2.0 * {column} * {column} + {column}")


def make_workload(rows: int = 200_000):
    """A filter whose written order is maximally wrong: the wide
    (keep-almost-everything) conjuncts come first, the narrow one last."""
    rng = np.random.default_rng(11)
    selectivities = (0.98, 0.90, 0.80, 0.02)
    columns = {f"x{i}": rng.uniform(0.0, 1.0, rows)
               for i in range(len(selectivities))}

    def poly(values):
        return (values ** 4 + 3.0 * values ** 3 + 2.0 * values ** 2 + values)

    conjuncts = []
    for index, selectivity in enumerate(selectivities):
        threshold = float(np.quantile(poly(columns[f"x{index}"]), selectivity))
        conjuncts.append(f"{_poly_sql('t.x' + str(index))} < {threshold!r}")
    query = ("SELECT t.x0 FROM readings AS t\nWHERE "
             + "\n  AND ".join(conjuncts))
    return Table.from_arrays(**columns), query


def first_call_ms(session: RavenSession, table: Table, query: str) -> float:
    session.register_table("readings", table)
    started = time.perf_counter()
    _, stats = session.sql_with_stats(query)
    elapsed = (time.perf_counter() - started) * 1e3
    print(f"  first call: {elapsed:7.2f} ms  (cache_hit={stats.cache_hit}, "
          f"reoptimizations={session.plan_cache.stats.reoptimizations}, "
          f"restored={session.plan_cache.stats.restored})")
    return elapsed


def main() -> None:
    table, query = make_workload()

    with tempfile.TemporaryDirectory() as directory:
        store = SnapshotStore(directory, keep=4)

        # --- worker A: learns, re-optimizes, checkpoints -------------
        print("worker A (learns the workload, auto-checkpoints):")
        worker_a = RavenSession()
        store.attach(worker_a, every_reoptimizations=1)
        worker_a.register_table("readings", table)
        for round_number in range(1, 7):
            _, stats = worker_a.sql_with_stats(query)
            print(f"  round {round_number}: {stats.execute_seconds * 1e3:7.2f} ms "
                  f"(cache_hit={stats.cache_hit}, reoptimizations="
                  f"{worker_a.plan_cache.stats.reoptimizations})")
            if stats.cache_hit:
                break
        print(f"  checkpoints written: {len(store.paths())}")

        # --- a cold worker for contrast ------------------------------
        print("\nworker cold (no snapshot — re-pays optimization and "
              "re-learns):")
        cold_ms = first_call_ms(RavenSession(), table, query)

        # --- worker B: worker A restarted, from its newest checkpoint -
        print("\nworker B (warm-started from the snapshot store):")
        warm = RavenSession(warm_start=store.load_latest())
        warm_ms = first_call_ms(warm, table, query)

        print(f"\nwarm-start speedup on the first call: "
              f"{cold_ms / max(warm_ms, 1e-9):.1f}x "
              f"(plan + feedback + statistics reused)")


if __name__ == "__main__":
    main()
