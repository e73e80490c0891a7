"""Resilience benchmark: availability and tail latency under injected faults.

The serving SLO the resilience subsystem exists for: with a small rate
of transient predict-runtime failures injected (1% of predict batches
raise), a retrying ``serve`` batch must still answer **every**
query — availability 1.0 — and the retried tail must stay bounded.

Three measured variants over the same query stream:

* **clean**      — no faults, no retries: the latency floor;
* **faults+retry** — 1% predict faults, RetryPolicy(max_attempts=3):
  the headline configuration (gated);
* **faults, no retry** — the same faults with retries disabled: shows
  the availability gap retries close.

Acceptance gates (also run by the CI bench-smoke job):

* availability under faults+retry is 1.0 — every query returns a
  successful outcome, and each is bit-for-bit identical to the clean
  run;
* every submitted query yields an outcome (no aborts, no hangs) in all
  variants, including no-retry where some outcomes are typed errors;
* p99 latency under faults+retry stays within an order of magnitude of
  the clean p99 at smoke scale (retries on 1% of traffic must not blow
  up the tail).
"""

import time

import numpy as np

from benchmarks._util import ReportTable, run_report, scaled
from repro import FaultInjector, RavenSession, RetryPolicy, Table

ROWS = scaled(60_000, minimum=4_000)

QUERIES = 40
FAULT_PROBABILITY = 0.01
SEED = 20260808
# The injector draws one seeded uniform per predict batch; this seed's
# draw sequence fires within the first ~20 draws, so the schedule
# exercises real faults even at CI smoke scale (~160 batches total).
FAULT_SEED = 42
P99_BLOWUP_LIMIT = 10.0


def _build_tables():
    rng = np.random.default_rng(SEED)
    patients = Table.from_arrays(
        id=np.arange(ROWS),
        age=rng.normal(55, 15, ROWS).round(),
        asthma=rng.integers(0, 2, ROWS),
        bmi=rng.normal(26, 4, ROWS),
        smoker=rng.choice(["yes", "no"], ROWS),
        hypertension=rng.choice(["none", "mild", "severe"], ROWS),
    )
    pulmonary = Table.from_arrays(
        id=np.arange(ROWS),
        bpm=rng.normal(70, 12, ROWS),
        fev=rng.normal(3.0, 0.6, ROWS),
    )
    return patients, pulmonary


def _train_pipeline(patients, pulmonary):
    from repro.learn import DecisionTreeClassifier, make_standard_pipeline
    frame = dict(patients.columns)
    frame.update({name: pulmonary.columns[name] for name in ("bpm", "fev")})
    frame = Table(frame)
    labels = ((patients.array("age") > 60)
              | (patients.array("smoker") == "yes")).astype(int)
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=6, random_state=0),
        ["age", "bmi", "bpm", "fev", "asthma"],
        ["smoker", "hypertension"])
    pipeline.fit(frame, labels)
    return pipeline


def _make_session(patients, pulmonary, pipeline, faults=None):
    # strategy="none" keeps the model in the ML runtime (no MLtoSQL
    # translation) so the injected predict.run faults sit on the real
    # inference path; the small batch size gives each query several
    # predict batches — i.e. several draws against the fault schedule.
    session = RavenSession(faults=faults, strategy="none", batch_size=1_000)
    session.register_table("patient_info", patients, primary_key=["id"])
    session.register_table("pulmonary_test", pulmonary, primary_key=["id"])
    session.register_model("covid_risk", pipeline)
    return session


def _queries():
    # Parameter-varied instances of one predict query: same cached plan,
    # different literals — the steady-state serving shape.
    template = (
        "WITH data AS (\n"
        "  SELECT * FROM patient_info AS pi\n"
        "  JOIN pulmonary_test AS pt ON pi.id = pt.id\n"
        ")\n"
        "SELECT d.id, p.score\n"
        "FROM PREDICT(MODEL = covid_risk, DATA = data AS d) "
        "WITH (score FLOAT) AS p\n"
        "WHERE d.asthma = {asthma} AND p.score > {threshold}")
    out = []
    for index in range(QUERIES):
        out.append(template.format(asthma=index % 2,
                                   threshold=0.3 + 0.01 * (index % 5)))
    return out


def _run_variant(session, queries, retry):
    per_query = []
    started = time.perf_counter()
    outcomes = []
    for query in queries:
        t0 = time.perf_counter()
        [outcome] = session.serve([query], workers=1, retry=retry)
        per_query.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    wall = time.perf_counter() - started
    return outcomes, per_query, wall


def _p99(latencies):
    return float(np.quantile(np.asarray(latencies), 0.99))


def _resilience_report() -> ReportTable:
    patients, pulmonary = _build_tables()
    pipeline = _train_pipeline(patients, pulmonary)
    queries = _queries()
    retry = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01,
                        seed=FAULT_SEED)

    # Clean floor (also the bit-for-bit reference).
    clean = _make_session(patients, pulmonary, pipeline)
    clean_outcomes, clean_lat, _ = _run_variant(clean, queries, retry=None)
    assert all(o.ok for o in clean_outcomes)

    def faulty_session():
        faults = FaultInjector(seed=FAULT_SEED)
        faults.inject("predict.run", probability=FAULT_PROBABILITY)
        return _make_session(patients, pulmonary, pipeline, faults=faults)

    # Headline: 1% predict faults + retries.
    retried = faulty_session()
    retried_outcomes, retried_lat, _ = _run_variant(retried, queries, retry)
    assert len(retried_outcomes) == len(queries)
    availability = sum(o.ok for o in retried_outcomes) / len(queries)
    for outcome, reference in zip(retried_outcomes, clean_outcomes):
        if outcome.ok:
            assert outcome.table.column_names == reference.table.column_names
            for name in reference.table.column_names:
                a = outcome.table.array(name)
                b = reference.table.array(name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    # Same faults, retries disabled: the gap retries close.
    bare = faulty_session()
    bare_outcomes, bare_lat, _ = _run_variant(
        bare, queries, RetryPolicy(max_attempts=1, seed=FAULT_SEED))
    assert len(bare_outcomes) == len(queries)  # isolated, never aborted
    bare_availability = sum(o.ok for o in bare_outcomes) / len(queries)

    clean_p99 = _p99(clean_lat)
    retried_p99 = _p99(retried_lat)
    p99_ratio = retried_p99 / max(clean_p99, 1e-12)

    report = ReportTable(
        title=f"Resilience: {QUERIES} queries, {FAULT_PROBABILITY:.0%} "
              "injected predict faults",
        columns=["variant", "availability", "p99_ms", "retries", "note"],
    )
    report.add(variant="clean", availability=1.0, p99_ms=clean_p99 * 1e3,
               retries=0, note="latency floor + bit-for-bit reference")
    report.add(variant="faults+retry", availability=availability,
               p99_ms=retried_p99 * 1e3,
               retries=retried.serving_stats.retries,
               note=f"injected fires={retried.faults.fires()}")
    report.add(variant="faults, no retry", availability=bare_availability,
               p99_ms=_p99(bare_lat) * 1e3, retries=0,
               note=f"{sum(not o.ok for o in bare_outcomes)} typed errors")

    report.note(f"faults+retry p99 blowup {p99_ratio:.2f}x over clean "
                f"(acceptance: <= {P99_BLOWUP_LIMIT:.0f}x)")
    assert retried.faults.fires() > 0, (
        "no faults fired: the bench measured nothing (seed/scale drift?)"
    )
    report.note("every successful outcome verified bit-for-bit against "
                "the clean run")
    assert availability == 1.0, (
        f"retries failed to close the availability gap: {availability:.3f} "
        f"({[repr(o.error) for o in retried_outcomes if not o.ok]})"
    )
    assert p99_ratio <= P99_BLOWUP_LIMIT, (
        f"retried p99 {retried_p99 * 1e3:.2f}ms is {p99_ratio:.1f}x the "
        f"clean p99 {clean_p99 * 1e3:.2f}ms (limit {P99_BLOWUP_LIMIT:.0f}x)"
    )
    return report


def test_availability_under_faults(benchmark):
    run_report(benchmark, _resilience_report, "bench_resilience")
