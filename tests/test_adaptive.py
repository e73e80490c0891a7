"""Adaptive execution: profiling, feedback, and re-optimization.

The acceptance bar for the subsystem: ``RavenSession(adaptive=False)``
must be bit-for-bit identical to the adaptive path, and re-optimization
of drifted cached plans must be observable via
``plan_cache.stats.reoptimizations`` — including under concurrent
``serve()``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.adaptive.feedback as feedback_module
from repro import FeedbackStore, RavenSession, Table
from repro.adaptive.profile import (
    OperatorProfile,
    conjunct_fingerprint,
    plan_fingerprint,
)
from repro.adaptive.reopt import (
    apply_feedback,
    plan_conjunct_order,
)
from repro.errors import BackpressureError
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.logical import (
    Filter,
    Predict,
    Scan,
    walk,
)


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


# A filter whose written conjunct order is maximally wrong: the wide
# (keep-almost-everything) conjunct comes first, the narrow one last.
MISESTIMATED_QUERY = """
SELECT t.a, t.b
FROM readings AS t
WHERE t.a * t.a + t.a < 10.0 AND t.b * t.b + t.b < 0.01
"""


@pytest.fixture()
def readings_table(rng) -> Table:
    n = 4_000
    return Table.from_arrays(
        a=rng.uniform(0.0, 1.0, n),       # a*a + a < 10   keeps 100%
        b=rng.uniform(0.0, 1.0, n),       # b*b + b < 0.01 keeps ~1%
        c=rng.uniform(0.0, 1.0, n),
    )


def make_adaptive_pair(readings_table):
    sessions = []
    for adaptive in (True, False):
        sess = RavenSession(adaptive=adaptive)
        sess.register_table("readings", readings_table)
        sessions.append(sess)
    return sessions


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_structurally_equal_plans_share_fingerprints(self, session,
                                                         covid_query):
        plan_a, _ = session.optimize(covid_query)
        plan_b, _ = session.optimize(covid_query)
        assert plan_a is not plan_b
        assert plan_fingerprint(plan_a) == plan_fingerprint(plan_b)

    def test_conjunct_order_does_not_change_filter_fingerprint(self):
        pred_ab = BinaryOp("and", col("t.a").gt(lit(0.5)),
                           col("t.b").lt(lit(0.1)))
        pred_ba = BinaryOp("and", col("t.b").lt(lit(0.1)),
                           col("t.a").gt(lit(0.5)))
        f_ab = Filter(Scan("t"), pred_ab)
        f_ba = Filter(Scan("t"), pred_ba)
        assert plan_fingerprint(f_ab) == plan_fingerprint(f_ba)
        # ... and the per-conjunct keys map onto each other regardless of
        # position, so observations survive reordering.
        assert conjunct_fingerprint(f_ab, 0) == conjunct_fingerprint(f_ba, 1)
        assert conjunct_fingerprint(f_ab, 1) == conjunct_fingerprint(f_ba, 0)

    def test_different_predicates_differ(self):
        f1 = Filter(Scan("t"), col("t.a").gt(lit(0.5)))
        f2 = Filter(Scan("t"), col("t.a").gt(lit(0.6)))
        assert plan_fingerprint(f1) != plan_fingerprint(f2)


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------

class TestProfiling:
    def test_run_stats_carry_operator_profiles(self, session, covid_query):
        result, stats = session.sql_with_stats(covid_query)
        profile = stats.operator_profiles
        assert profile is not None
        assert profile.rows_out == result.num_rows
        assert profile.calls >= 1
        assert profile.seconds >= 0.0
        # The tree mirrors the plan: every operator appears, scans read
        # what they emit.
        labels = [node.operator for node in profile.walk()]
        assert any(label.startswith("Scan") for label in labels)
        assert session.last_run is stats

    def test_filter_profiles_record_selectivity(self, readings_table):
        sess = RavenSession()
        sess.register_table("readings", readings_table)
        _, stats = sess.sql_with_stats(MISESTIMATED_QUERY)
        filters = [p for p in stats.operator_profiles.walk()
                   if p.operator.startswith("Filter")]
        assert filters
        cascade = [p for p in filters if p.conjuncts]
        assert cascade, "conjunctive filter must profile per-conjunct"
        parts = cascade[0].conjuncts
        assert len(parts) == 2
        # Written order: wide first (~1.0), narrow second (~0.0).
        assert parts[0].selectivity > 0.9
        assert parts[1].selectivity < 0.1

    def test_optimize_execute_breakdown(self, session, covid_query):
        _, stats = session.sql_with_stats(covid_query)
        assert stats.execute_seconds == stats.wall_seconds
        assert stats.total_seconds == pytest.approx(
            stats.optimize_seconds + stats.execute_seconds)

    def test_non_adaptive_sessions_do_not_profile(self, patients_table):
        sess = RavenSession(adaptive=False)
        sess.register_table("t", patients_table)
        _, stats = sess.sql_with_stats("SELECT t.id FROM t WHERE t.age > 50")
        assert stats.operator_profiles is None
        assert sess.feedback is None


# ---------------------------------------------------------------------------
# Feedback store
# ---------------------------------------------------------------------------

class TestFeedbackStore:
    def test_profiles_aggregate_under_fingerprints(self, readings_table):
        sess = RavenSession()
        sess.register_table("readings", readings_table)
        sess.sql(MISESTIMATED_QUERY)
        store = sess.feedback
        assert len(store) > 0
        _, stats = sess.sql_with_stats(MISESTIMATED_QUERY)
        filt = next(p for p in stats.operator_profiles.walk()
                    if p.conjuncts)
        # The narrow conjunct (over t.b) keeps its feedback history even
        # though re-optimization may have moved it to the front.
        narrow = next(p for p in filt.conjuncts if "t.b" in p.expression)
        feedback = store.observed(narrow.fingerprint)
        assert feedback is not None
        assert feedback.calls >= 2
        assert feedback.selectivity_fast < 0.1

    def test_ewma_drift_signal(self):
        store = FeedbackStore()
        scan = Scan("t")
        fp = plan_fingerprint(Filter(scan, col("t.a").gt(lit(0.0))))

        def observe(selectivity: float) -> None:
            root = OperatorProfile(operator="Filter", fingerprint=fp,
                                   calls=1, rows_in=1000,
                                   rows_out=int(1000 * selectivity),
                                   seconds=0.001)
            store.record_profile(root)

        for _ in range(20):
            observe(0.9)
        assert store.drift_score(fp) < 0.05
        assert not store.has_drifted(fp)
        for _ in range(3):
            observe(0.05)  # behaviour changes abruptly
        assert store.drift_score(fp) > 0.25
        assert store.has_drifted(fp)

    def test_store_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(feedback_module, "MAX_OPERATOR_ENTRIES", 4)
        store = FeedbackStore()
        for index in range(10):
            store.record_profile(OperatorProfile(
                operator="Scan", fingerprint=f"fp{index}", calls=1,
                rows_in=10, rows_out=10, seconds=0.0))
        assert len(store) <= 4
        assert store.observed("fp9") is not None
        assert store.observed("fp0") is None
        assert store.stats.operator_evictions == 6


# ---------------------------------------------------------------------------
# Feedback-driven decisions (unit level)
# ---------------------------------------------------------------------------

def _observe_conjuncts(store: FeedbackStore, filter_node: Filter,
                       selectivities, seconds_per_call=0.001, rows=10_000):
    """Feed per-conjunct observations for a filter, in cascade order."""
    parts = []
    active = rows
    for index, selectivity in enumerate(selectivities):
        out = int(active * selectivity)
        parts.append((conjunct_fingerprint(filter_node, index),
                      active, out))
        active = out
    root = OperatorProfile(operator="Filter",
                           fingerprint=plan_fingerprint(filter_node),
                           calls=1, rows_in=rows,
                           rows_out=active, seconds=0.0)
    from repro.adaptive.profile import ConjunctProfile
    root.conjuncts = [
        ConjunctProfile(expression=f"c{i}", fingerprint=fp, calls=1,
                        rows_in=rows_in, rows_out=rows_out,
                        seconds=seconds_per_call)
        for i, (fp, rows_in, rows_out) in enumerate(parts)
    ]
    store.record_profile(root)


class TestFeedbackDecisions:
    def test_conjuncts_reorder_by_observed_selectivity(self):
        store = FeedbackStore()
        pred = BinaryOp("and", col("t.a").gt(lit(0.0)),
                        col("t.b").lt(lit(0.5)))
        node = Filter(Scan("t"), pred)
        assert plan_conjunct_order(node, store) is None  # nothing observed
        _observe_conjuncts(store, node, [0.99, 0.01])
        assert plan_conjunct_order(node, store) == [1, 0]

    def test_no_reorder_without_meaningful_gain(self):
        store = FeedbackStore()
        pred = BinaryOp("and", col("t.a").gt(lit(0.0)),
                        col("t.b").lt(lit(0.5)))
        node = Filter(Scan("t"), pred)
        _observe_conjuncts(store, node, [0.52, 0.50])
        assert plan_conjunct_order(node, store) is None

    def test_partial_conjuncts_are_never_reordered(self):
        store = FeedbackStore()
        guard = col("t.a").ne(lit(0.0))
        guarded = BinaryOp("/", lit(1.0), col("t.a")).gt(lit(2.0))
        node = Filter(Scan("t"), BinaryOp("and", guard, guarded))
        _observe_conjuncts(store, node, [0.99, 0.01])
        assert plan_conjunct_order(node, store) is None

    def test_morsel_profiles_use_per_call_means(self, rng):
        # A dop>1 broadcast join re-reads the dimension subtree once per
        # morsel (3 here); the cardinality feedback must not multiply it.
        dim = Table.from_arrays(k=np.arange(100),
                                dv=rng.normal(0, 1, 100))
        fact = Table.from_arrays(k=rng.integers(0, 100, 20_000),
                                 fv=rng.normal(0, 1, 20_000))
        sess = RavenSession(dop=4)
        sess.register_table("dim", dim)
        sess.register_table("fact", fact)
        sess.sql("SELECT d.dv, f.fv FROM dim AS d JOIN fact AS f "
                 "ON d.k = f.k")
        dim_feedback = next(
            (f for f in sess.feedback._operators.values()
             if f.operator.startswith("Scan(dim")), None)
        assert dim_feedback is not None
        assert dim_feedback.rows_out_ewma == pytest.approx(100)

    def test_apply_feedback_reaches_fixed_point(self):
        store = FeedbackStore()
        pred = BinaryOp("and", col("t.a").gt(lit(0.0)),
                        col("t.b").lt(lit(0.5)))
        plan = Filter(Scan("t"), pred)
        _observe_conjuncts(store, plan, [0.99, 0.01])
        rewritten, changed, info = apply_feedback(plan, store)
        assert changed and info["filters_reordered"] == 1
        # The rewritten plan now encodes the feedback: no further change.
        _, changed_again, _ = apply_feedback(rewritten, store)
        assert not changed_again


# ---------------------------------------------------------------------------
# Session-level re-optimization
# ---------------------------------------------------------------------------

class TestAdaptiveReoptimization:
    def test_cached_plan_reoptimizes_after_feedback(self, readings_table):
        adaptive, static = make_adaptive_pair(readings_table)
        oracle = static.sql(MISESTIMATED_QUERY)

        _, first = adaptive.sql_with_stats(MISESTIMATED_QUERY)
        assert not first.cache_hit
        # Execution feedback diverged from the as-written order: the entry
        # was marked stale, which counts as a re-optimization.
        assert adaptive.plan_cache.stats.reoptimizations == 1
        table2, second = adaptive.sql_with_stats(MISESTIMATED_QUERY)
        assert not second.cache_hit  # re-optimized through the miss path
        table3, third = adaptive.sql_with_stats(MISESTIMATED_QUERY)
        assert third.cache_hit      # fixed point: plan matches feedback
        assert adaptive.plan_cache.stats.reoptimizations == 1

        for table in (table2, table3):
            assert tables_equal_bitwise(oracle, table)

    def test_reoptimized_plan_flips_conjunct_order(self, readings_table):
        adaptive, _ = make_adaptive_pair(readings_table)
        adaptive.sql(MISESTIMATED_QUERY)  # learn
        plan, report = adaptive.optimize(MISESTIMATED_QUERY)
        assert "adaptive_feedback" in report.rules_applied
        filt = next(node for node in walk(plan) if isinstance(node, Filter))
        from repro.relational.expressions import conjuncts
        parts = conjuncts(filt.predicate)
        # The narrow conjunct (over t.b) now runs first.
        assert "t.b" in repr(parts[0])

    def test_adaptive_vs_static_differential_suite(self, patients_table,
                                                   pulmonary_table,
                                                   dt_pipeline, covid_query,
                                                   readings_table):
        queries = [
            covid_query,
            "SELECT pi.id, pi.age FROM patient_info AS pi "
            "WHERE pi.age > 40 AND pi.asthma = 1 AND pi.bmi > 20.0",
            "SELECT pi.id, pt.bpm FROM patient_info AS pi "
            "JOIN pulmonary_test AS pt ON pi.id = pt.id "
            "WHERE pt.bpm > 80.0 AND pi.age > 30",
            "SELECT pi.smoker, COUNT(*) AS n, AVG(pi.bmi) AS avg_bmi "
            "FROM patient_info AS pi WHERE pi.age > 30 AND pi.bmi > 18.0 "
            "GROUP BY pi.smoker ORDER BY n DESC",
            MISESTIMATED_QUERY,
        ]
        sessions = []
        for adaptive in (True, False):
            sess = RavenSession(adaptive=adaptive)
            sess.register_table("patient_info", patients_table,
                                primary_key=["id"])
            sess.register_table("pulmonary_test", pulmonary_table,
                                primary_key=["id"])
            sess.register_model("covid_risk", dt_pipeline)
            sess.register_table("readings", readings_table)
            sessions.append(sess)
        adaptive_sess, static_sess = sessions
        # Several rounds so re-optimized (reordered/annotated) plans are
        # exercised, not just first executions.
        for round_index in range(4):
            for query in queries:
                expected = static_sess.sql(query)
                actual = adaptive_sess.sql(query)
                assert tables_equal_bitwise(expected, actual), (
                    f"round {round_index}: {query[:60]}"
                )

    def test_ewma_drift_marks_cached_plan_stale(self, readings_table):
        adaptive, _ = make_adaptive_pair(readings_table)
        query = "SELECT t.a FROM readings AS t WHERE t.a < 2.0"
        stats = None
        for _ in range(3):
            _, stats = adaptive.sql_with_stats(query)
        assert stats.cache_hit
        # Simulate drifting behaviour: a long history whose recent
        # selectivity diverged from the long-run average.
        filter_fp = next(p.fingerprint for p in stats.operator_profiles.walk()
                         if p.operator.startswith("Filter"))
        feedback = adaptive.feedback.observed(filter_fp)
        feedback.calls = 50
        feedback.selectivity_slow = 0.2
        feedback.selectivity_fast = 0.9
        before = adaptive.plan_cache.stats.reoptimizations
        adaptive.sql(query)  # this run's staleness check sees the drift
        assert adaptive.plan_cache.stats.reoptimizations == before + 1
        # The drift signal is consumed by the re-optimization: the slow
        # EWMA's convergence tail must not keep thrashing the cache.
        adaptive.sql(query)          # miss: re-optimizes once
        _, warm = adaptive.sql_with_stats(query)
        assert warm.cache_hit
        assert adaptive.plan_cache.stats.reoptimizations == before + 1

    def test_reoptimizations_observable_under_concurrent_serve(
            self, readings_table):
        adaptive, static = make_adaptive_pair(readings_table)
        oracle = static.sql(MISESTIMATED_QUERY)
        for _ in range(3):
            tables = [outcome.result() for outcome in
                      adaptive.serve([MISESTIMATED_QUERY] * 8, workers=4)]
            for table in tables:
                assert tables_equal_bitwise(oracle, table)
        stats = adaptive.plan_cache.stats
        assert stats.reoptimizations >= 1
        # The loop must converge: warm hits dominate by the last round.
        assert stats.hits > 0


# ---------------------------------------------------------------------------
# serve() backpressure
# ---------------------------------------------------------------------------

class TestBackpressure:
    QUERY = "SELECT pi.id FROM patient_info AS pi WHERE pi.age > 50"

    def test_block_policy_bounds_pending_depth(self, session):
        active = 0
        peak = 0
        lock = threading.Lock()
        original = session._run_query

        def tracked(record, deadline):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                time.sleep(0.002)
                return original(record, deadline)
            finally:
                with lock:
                    active -= 1

        session._run_query = tracked
        try:
            results = session.serve([self.QUERY] * 8, workers=4,
                                    max_pending=2, backpressure="block")
        finally:
            del session._run_query
        assert len(results) == 8
        assert all(outcome.ok for outcome in results)
        assert 1 <= peak <= 2
        stats = session.serving_stats
        assert stats.submitted == 8 and stats.completed == 8
        assert stats.rejected == 0

    def test_raise_policy_rejects_and_counts(self, session):
        release = threading.Event()
        original = session._run_query

        def slow(record, deadline):
            release.wait(timeout=5.0)
            return original(record, deadline)

        session._run_query = slow
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with pytest.raises(BackpressureError):
                [outcome.result() for outcome in
                 session.serve([self.QUERY] * 3, workers=2, max_pending=1,
                               backpressure="raise")]
        finally:
            del session._run_query
            release.set()
            timer.cancel()
        assert session.serving_stats.rejected >= 1

    def test_serial_path_counts_too(self, session):
        [outcome.result() for outcome in
         session.serve([self.QUERY] * 3, workers=1, max_pending=2)]
        stats = session.serving_stats
        assert stats.submitted == 3 and stats.completed == 3

    def test_bad_arguments_rejected(self, session):
        with pytest.raises(ValueError):
            session.serve([self.QUERY], backpressure="drop")
        with pytest.raises(ValueError):
            session.serve([self.QUERY], max_pending=0)


# ---------------------------------------------------------------------------
# Feedback isolation
# ---------------------------------------------------------------------------

class TestFeedbackWrites:
    def test_predicts_write_feedback_only_through_profiles(
            self, noopt_session, covid_query, monkeypatch):
        # An sql() Predict (the no-opt session keeps its Predict node)
        # does not write to the feedback store; the only write is the
        # run's profile, folded once.
        store = noopt_session.feedback
        profiles = []
        monkeypatch.setattr(store, "record_profile", profiles.append)
        before = store.export_state()
        noopt_session.sql(covid_query)
        assert any(isinstance(node, Predict)
                   for node in walk(noopt_session.last_run.plan))
        assert len(profiles) == 1
        assert store.export_state() == before
