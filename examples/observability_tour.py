"""Tour of the runtime telemetry layer: traces, metrics, EXPLAIN ANALYZE.

What a production prediction-serving deployment gets for free from
``RavenSession(telemetry=True)``:

1. **Per-query span trees** — parse/optimize (with plan-cache hit/miss
   events), every relational operator with observed rows in/out, every
   predict batch, breaker transitions — in a bounded ring, exportable
   as JSON or Chrome trace-event format (``chrome://tracing``).
2. **A unified metrics registry** — the serving counters, plan-cache
   counters, the queries-in-flight gauge, and per-query latency
   histograms all land on one registry, snapshottable as JSON or a
   Prometheus scrape.
3. **EXPLAIN ANALYZE** — the optimized plan annotated with *observed*
   per-operator cardinalities, selectivities, and self-times, plus
   cache/breaker state and compile-vs-reuse counts.
4. **A slow-query log** — full trace + plan fingerprint for every query
   over a threshold, dumped crash-safely alongside the trace ring.

Run with: ``python examples/observability_tour.py``
"""

import tempfile

import numpy as np

from repro import RavenSession, Table, Telemetry
from repro.learn import DecisionTreeClassifier, make_standard_pipeline

QUERY = """
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, p.score
FROM PREDICT(MODEL = covid_risk, DATA = data AS d) WITH (score FLOAT) AS p
WHERE d.asthma = 1 AND p.score > 0.5
"""

FILTER_QUERY = "SELECT pi.id FROM patient_info AS pi WHERE pi.age > 50"


def build_session(n: int = 60_000, seed: int = 0) -> RavenSession:
    rng = np.random.default_rng(seed)
    patients = Table.from_arrays(
        id=np.arange(n),
        age=rng.normal(55, 16, n).round(),
        bmi=rng.normal(27, 5, n),
        asthma=rng.integers(0, 2, n),
        hypertension=rng.choice(["none", "mild", "severe"], n,
                                p=[0.6, 0.3, 0.1]),
        smoker=rng.choice(["yes", "no"], n, p=[0.25, 0.75]),
    )
    pulmonary = Table.from_arrays(
        id=np.arange(n),
        bpm=rng.normal(72, 12, n),
        fev=rng.normal(3.0, 0.7, n),
    )
    labels = ((patients.array("age") > 62)
              | ((patients.array("asthma") == 1)
                 & (pulmonary.array("bpm") > 78))).astype(int)
    joined = Table({**patients.columns,
                    "bpm": pulmonary.columns["bpm"],
                    "fev": pulmonary.columns["fev"]})
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=7, random_state=0),
        ["age", "bmi", "bpm", "fev", "asthma"],
        ["hypertension", "smoker"])
    pipeline.fit(joined, labels)

    # telemetry=True turns span capture on; the Telemetry object also
    # takes explicit knobs (trace-ring size, slow-query threshold).
    session = RavenSession(telemetry=Telemetry(tracing=True,
                                               trace_capacity=128,
                                               slow_query_seconds=1.0))
    session.register_table("patient_info", patients, primary_key=["id"])
    session.register_table("pulmonary_test", pulmonary, primary_key=["id"])
    session.register_model("covid_risk", pipeline)
    return session


def show_span_tree(span, depth: int = 0) -> None:
    attrs = span.attributes or {}
    rows = (f" rows={attrs['rows']}" if "rows" in attrs else "")
    rows_in = (f" rows_in={attrs['rows_in']}" if "rows_in" in attrs else "")
    events = (f" events={span.event_names()}" if span.events else "")
    print(f"  {'  ' * depth}{span.name} [{span.category}] "
          f"{span.duration * 1e3:.2f}ms{rows_in}{rows}{events}")
    for child in span.children:
        show_span_tree(child, depth + 1)


def main() -> None:
    session = build_session()

    # --- 1. Span trees: cold (cache miss) vs warm (cache hit) ----------
    session.sql(QUERY)
    cold = session.telemetry.tracer.last()
    session.sql(QUERY)
    warm = session.telemetry.tracer.last()
    print("=== cold-query span tree (plan-cache miss) ===")
    show_span_tree(cold.root)
    print("\n=== warm-query span tree (plan-cache hit) ===")
    show_span_tree(warm.root)

    # --- 2. EXPLAIN ANALYZE: observed rows/time per operator -----------
    print("\n=== EXPLAIN ANALYZE ===")
    print(session.explain(QUERY, analyze=True))

    # --- 3. A serve() burst, then the metrics the layer collected ------
    for outcome in session.serve([QUERY, FILTER_QUERY] * 10, workers=4):
        outcome.result()  # re-raises a failed query's error
    snapshot = session.telemetry.metrics_snapshot()
    latency = snapshot["histograms"]["query_seconds"]
    print("=== metrics snapshot after a serve() burst ===")
    print(f"queries observed: {latency['count']}")
    print(f"latency p50={latency['p50'] * 1e3:.2f}ms "
          f"p95={latency['p95'] * 1e3:.2f}ms "
          f"p99={latency['p99'] * 1e3:.2f}ms")
    print("counters:", {name: value
                        for name, value in snapshot["counters"].items()
                        if value})

    # The same registry renders as a Prometheus scrape payload.
    print("\n=== prometheus excerpt ===")
    for line in session.telemetry.prometheus().splitlines():
        if "plan_cache" in line or line.startswith("# TYPE query_seconds"):
            print(line)

    # --- 4. Slow-query log + crash-safe disk dumps ---------------------
    # Drop the threshold so the next query counts as "slow" and lands in
    # the log with its full trace and plan fingerprint.
    session.telemetry.slow_log.threshold_seconds = 0.0
    session.sql(QUERY)
    entry = session.telemetry.slow_log.entries()[-1]
    print("\n=== slow-query log entry ===")
    print(f"query took {entry['seconds'] * 1e3:.2f}ms, "
          f"plan fingerprint {entry['plan_fingerprint']}, "
          f"cache_hit={entry['cache_hit']}")

    with tempfile.TemporaryDirectory() as directory:
        paths = session.telemetry.dump(directory)
        print("\n=== telemetry dump (atomic, torn-write safe) ===")
        for surface, path in sorted(paths.items()):
            print(f"{surface}: {path}")
        print("(trace_events.json loads in chrome://tracing / Perfetto)")


if __name__ == "__main__":
    main()
