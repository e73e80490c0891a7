"""Serving quickstart: plan cache and concurrent serve().

Run with: ``python examples/serving_throughput.py``

Shows the serving path end to end:

1. repeated queries hit the normalized plan cache (optimize once, run many);
2. ``session.serve`` answers a batch of queries over a thread pool, one
   outcome per query (``outcome.result()`` is the table).
"""

import time

import numpy as np

from repro import RavenSession, Table
from repro.learn import GradientBoostingClassifier, make_standard_pipeline


def main() -> None:
    rng = np.random.default_rng(7)
    n = 100_000

    customers = Table.from_arrays(
        id=np.arange(n),
        age=rng.normal(45, 14, n).round(),
        income=rng.gamma(4.0, 15_000.0, n),
        tenure_months=rng.integers(1, 120, n).astype(float),
        plan=rng.choice(["basic", "plus", "premium"], n),
        region=rng.choice(["north", "south", "east", "west"], n),
    )
    churned = ((customers.array("tenure_months") < 12)
               | ((customers.array("plan") == "basic")
                  & (customers.array("age") < 30))).astype(int)
    pipeline = make_standard_pipeline(
        GradientBoostingClassifier(n_estimators=20, max_depth=3,
                                   random_state=0),
        numeric_columns=["age", "income", "tenure_months"],
        categorical_columns=["plan", "region"],
    )
    pipeline.fit(customers, churned)

    session = RavenSession()  # plan cache is on by default
    session.register_table("customers", customers, primary_key=["id"])
    session.register_model("churn", pipeline)

    query = """
        SELECT d.id, p.score
        FROM PREDICT(MODEL = churn, DATA = customers AS d)
             WITH (score FLOAT) AS p
        WHERE d.age > 30 AND p.score > 0.6
    """

    # 1. Cold call pays parse+bind+optimize and compiles the expression
    #    programs; warm calls skip both (programs are cached on the plan,
    #    which the plan cache keeps warm).
    _, cold = session.sql_with_stats(query)
    _, warm = session.sql_with_stats(query)
    print(f"cold optimize: {cold.optimize_seconds * 1e3:7.2f} ms "
          f"(cache_hit={cold.cache_hit}, "
          f"expr programs compiled={cold.programs_compiled}, "
          f"reused={cold.programs_reused})")
    print(f"warm optimize: {warm.optimize_seconds * 1e3:7.2f} ms "
          f"(cache_hit={warm.cache_hit}, "
          f"expr programs compiled={warm.programs_compiled}, "
          f"reused={warm.programs_reused})")
    print(f"plan cache:    {session.plan_cache}")

    # 2. A burst of traffic: the same query template at several literals,
    #    dispatched over 8 worker threads.
    burst = [query.replace("0.6", f"0.{k}") for k in range(3, 8)] * 8
    started = time.perf_counter()
    results = [outcome.result()
               for outcome in session.serve(burst, workers=8)]
    elapsed = time.perf_counter() - started
    print(f"\nserved {len(results)} queries in {elapsed:.2f} s "
          f"({len(results) / elapsed:.0f} queries/s, workers=8)")
    print(f"plan cache:    {session.plan_cache}")


if __name__ == "__main__":
    main()
