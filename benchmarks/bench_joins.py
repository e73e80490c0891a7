"""Adaptive join ordering benchmark: misestimated star-join cardinality.

The workload the join-ordering pass exists for: a star-join prediction
query whose *written* join order is maximally wrong. The fact table joins
a same-size 1:1 dimension first (keeps every row, copies every column)
and a key-sparse dimension last — only ~2% of fact keys exist in it, a
cross-table domain mismatch that per-table statistics cannot see (both
dimensions have the same row count and unique keys), so the cold
statistics-based estimates tie and the plan runs as written. One profiled
execution observes the per-edge join selectivities; the feedback pass
flips the region to join the sparse dimension first (``MultiJoin`` with a
reordered execution sequence), shrinking the intermediate result ~50x.

Both sessions run the region as a row-index ``MultiJoin`` (the static one
in text order), so neither copies a column more than once; what the
reordering saves is the index shuffling and key lookups of the wide 1:1
step at full cardinality.

Acceptance gate (also run by the CI bench-smoke job): the warmed adaptive
plan must never be slower than the warmed static plan, at every scale.
Both warmed plans are timed on the adaptive session through
``execute_plan``, so both pay the same per-query bookkeeping (profiling,
feedback recording, staleness checks) and the ratio measures the join
order alone: at the 20k-row floor the reordering saves a few tenths of a
millisecond per query, about what that bookkeeping costs. Their samples
alternate and each times a batch of calls (``SAMPLE_SECONDS``), since
the 3-6% saved is less than one call's run-to-run spread. The absolute time
of a warmed star join is measured by the repository benchmark
(``benchmarks/e2e``, workload ``join_tree``), not here. Results are
verified bit-for-bit between both sessions and both plans before timing
(the MultiJoin's canonical output order makes reordering invisible).
"""

import numpy as np

from benchmarks._util import ReportTable, run_report, scaled, timed
from repro import RavenSession, Table
from repro.learn import LogisticRegression, make_standard_pipeline
from repro.relational.logical import MultiJoin, walk

# Floor of 20k rows: below that the copies the reordering avoids are
# comparable to fixed per-call costs and the never-slower smoke gate
# would measure noise instead of the subsystem.
ROWS = scaled(200_000, minimum=20_000)

# Wall time of one timing sample: a warm star join takes ~5 ms at the
# floor and ~60 ms at full scale, and the reorder saves 3-6% of it, so
# each sample times a batch of calls to resolve that.
SAMPLE_SECONDS = 0.2

# Fraction of fact keys present in the sparse dimension (the misestimate:
# statistics see equal-size dimensions with unique keys either way).
SPARSE_MATCH_FRACTION = 0.02

# A linear model consumes every feature, so model-projection pushdown
# keeps the full dimension payload flowing through the joins — the
# copies whose placement the join order decides.
NUMERIC_FEATURES = ["f1", "f2", "p1", "p2", "p3", "p4", "p5", "p6", "s1"]

STAR_QUERY = """
WITH joined AS (
  SELECT * FROM fact AS f
  JOIN profiles AS p ON f.uid = p.uid
  JOIN segments AS s ON f.sid = s.sid
)
SELECT d.uid, pr.score
FROM PREDICT(MODEL = risk, DATA = joined AS d) WITH (score FLOAT) AS pr
"""


def _build_tables():
    rng = np.random.default_rng(23)
    domain = int(ROWS / SPARSE_MATCH_FRACTION)
    fact = Table.from_arrays(
        uid=rng.permutation(ROWS),
        sid=rng.integers(0, domain, ROWS),
        f1=rng.normal(0.0, 1.0, ROWS),
        f2=rng.normal(0.0, 1.0, ROWS),
    )
    # profiles: 1:1 with fact (keeps everything), wide payload — the
    # columns the text order copies at full cardinality.
    profiles = Table.from_arrays(
        uid=np.arange(ROWS),
        **{f"p{i}": rng.normal(0.0, 1.0, ROWS) for i in range(1, 7)},
    )
    # segments: same row count and unique keys, but over a 50x domain.
    segments = Table.from_arrays(
        sid=rng.choice(domain, ROWS, replace=False),
        s1=rng.normal(0.0, 1.0, ROWS),
    )
    return fact, profiles, segments


def _train_model(rng_seed: int = 5):
    rng = np.random.default_rng(rng_seed)
    n = 4_000
    frame = Table.from_arrays(
        **{name: rng.normal(0.0, 1.0, n) for name in NUMERIC_FEATURES})
    labels = (frame.array("f1") + frame.array("p1") > 0.0).astype(int)
    pipeline = make_standard_pipeline(
        LogisticRegression(C=1.0, max_iter=300), NUMERIC_FEATURES, [])
    pipeline.fit(frame, labels)
    return pipeline


def _make_session(adaptive: bool, tables, model) -> RavenSession:
    session = RavenSession(adaptive=adaptive)
    fact, profiles, segments = tables
    session.register_table("fact", fact)
    session.register_table("profiles", profiles)
    session.register_table("segments", segments)
    session.register_model("risk", model)
    return session


def _warm(session: RavenSession, query: str, max_rounds: int = 6):
    """Run until the plan cache serves a warm (post-reoptimization) hit;
    returns the rounds and the plan that hit ran."""
    for rounds in range(1, max_rounds + 1):
        _, stats = session.sql_with_stats(query)
        if stats.cache_hit:
            break
    return rounds, stats.plan


def _timed_alternately(first, second, repeats: int):
    """Trimmed-mean seconds per call of ``first`` and of ``second``.

    Each of the ``repeats`` samples per side times a batch of calls that
    lasts about ``SAMPLE_SECONDS`` (one call of ``first`` sets the batch
    size for both), and the two sides' samples alternate, so that a drift
    of the machine reaches both alike.
    """
    calls = max(1, round(SAMPLE_SECONDS / timed(first, repeats=1)))
    times = ([], [])
    for _ in range(repeats):
        for fn, samples in zip((first, second), times):
            samples.append(timed(lambda: [fn() for _ in range(calls)],
                                 repeats=1) / calls)
    return tuple(sum(sorted(samples)[1:-1]) / (repeats - 2)
                 for samples in times)


def _assert_bitwise_equal(actual, expected) -> None:
    assert expected.column_names == actual.column_names
    for name in expected.column_names:
        a, b = actual.array(name), expected.array(name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _joins_report() -> ReportTable:
    tables = _build_tables()
    model = _train_model()
    static = _make_session(False, tables, model)
    adaptive = _make_session(True, tables, model)

    expected = static.sql(STAR_QUERY)
    _assert_bitwise_equal(adaptive.sql(STAR_QUERY), expected)

    _, static_plan = _warm(static, STAR_QUERY)
    warm_rounds, adaptive_plan = _warm(adaptive, STAR_QUERY)
    reoptimizations = adaptive.plan_cache.stats.reoptimizations
    assert reoptimizations >= 1, (
        "feedback never re-optimized the misestimated join order"
    )
    regions = [node for node in walk(adaptive_plan)
               if isinstance(node, MultiJoin)]
    assert regions and regions[0].order is not None \
        and list(regions[0].order) != list(range(len(regions[0].inputs))), (
        "warmed plan must carry a reordered MultiJoin region"
    )
    order = regions[0].order

    # Both plans on one session: the same bookkeeping on both sides.
    for plan in (static_plan, adaptive_plan):  # bit-for-bit before timing
        _assert_bitwise_equal(adaptive.execute_plan(plan), expected)
    static_seconds, adaptive_seconds = _timed_alternately(
        lambda: adaptive.execute_plan(static_plan),
        lambda: adaptive.execute_plan(adaptive_plan), repeats=7)
    speedup = static_seconds / max(adaptive_seconds, 1e-12)

    report = ReportTable(
        title="Adaptive join ordering: misestimated star-join cardinality "
              "(trimmed mean of 7 batched samples, warmed plans, one session)",
        columns=["variant", "fact_rows", "wall_ms", "join_order", "note"],
    )
    report.add(variant="static (text order)", fact_rows=ROWS,
               wall_ms=static_seconds * 1e3,
               join_order="fact->profiles->segments",
               note="1:1 wide join runs first")
    report.add(variant="adaptive (feedback)", fact_rows=ROWS,
               wall_ms=adaptive_seconds * 1e3,
               join_order=f"MultiJoin order={order}",
               note=f"reoptimizations={reoptimizations}, "
                    f"warm_rounds={warm_rounds}")

    report.note(f"adaptive speedup {speedup:.2f}x "
                "(acceptance: never slower, >= 1.0x)")
    report.note("results verified bit-for-bit against the static oracle "
                "(canonical MultiJoin output order)")
    assert speedup >= 1.0, (
        f"warmed adaptive join order is slower than text order "
        f"({speedup:.2f}x at {ROWS} fact rows)"
    )
    return report


def test_adaptive_join_ordering(benchmark):
    run_report(benchmark, _joins_report, "bench_joins")
