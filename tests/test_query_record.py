"""The per-query record (``RunStats``): written once, folded once.

One agreement test instead of per-view checks — for every route a query
can take, with tracing off and on, serial and fanned out, every view
derived from the record shows the same numbers — plus the regressions
the single fold fixed, the pin on lazily rendered labels, and the pin on
the session's constructor and the package's exports.
"""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

import repro
from repro import RavenSession, Telemetry
from repro.adaptive.feedback import MAX_LABEL_CHARS, FeedbackStore
from repro.adaptive.profile import PlanProfiler
from repro.core.session import ROUTE_EXPLAIN, ServingStats
from repro.errors import DeadlineExceededError, InjectedFaultError
from repro.relational.expressions import Expression
from repro.relational.logical import Scan, walk
from repro.resilience import CircuitBreakerBoard, Deadline, FaultInjector
from repro.serving.plan_cache import PlanCacheStats
from repro.telemetry.explain import render_analyze

FILTER_QUERY = "SELECT pi.id FROM patient_info AS pi WHERE pi.age > 50"

ROUTES = ["cold-miss", "warm-hit", "degraded-static", "half-open-trial",
          "explain", "failing"]

#: The serving counter each lifecycle event moves (pinned here on purpose:
#: the session folds the same mapping from the record's events).
EVENT_COUNTERS = {
    "breaker.trial": "breaker_half_opens",
    "breaker.degraded": "degraded_runs",
    "breaker.tripped": "breaker_trips",
    "breaker.reopened": "breaker_reopens",
    "breaker.closed": "breaker_closes",
}
CACHE_COUNTERS = {
    "cache.hit": "hits",
    "cache.miss": "misses",
    "cache.coalesced": "coalesced",
    "plan.stale": "reoptimizations",
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_session(patients_table, pulmonary_table, dt_pipeline, *,
                 partitioned=False, **kwargs):
    session = RavenSession(**kwargs)
    session.register_table(
        "patient_info", patients_table, primary_key=["id"],
        partition_column="hypertension" if partitioned else None)
    # Fewer rows than patient_info, so that is the table a fan-out drives.
    session.register_table("pulmonary_test", pulmonary_table.slice(0, 3_000),
                           primary_key=["id"])
    session.register_model("covid_risk", dt_pipeline)
    return session


def observed_state(session):
    store = session.feedback
    with store._lock:
        operators = {fingerprint: (fb.calls, fb.rows_in, fb.rows_out)
                     for fingerprint, fb in store._operators.items()}
    return {
        "serving": session.serving_stats.snapshot(),
        "cache": session.plan_cache.stats.snapshot(),
        "operators": operators,
        "profiles_recorded": store.profiles_recorded,
        "metrics": session.telemetry.metrics_snapshot(),
    }


def expected_feedback(profiles):
    """(calls, rows_in, rows_out) the profile tree adds per fingerprint."""
    totals = Counter()

    def add(fingerprint, calls, rows_in, rows_out):
        totals[fingerprint, "calls"] += calls
        totals[fingerprint, "rows_in"] += rows_in
        totals[fingerprint, "rows_out"] += rows_out

    for profile in profiles.walk():
        if profile.calls == 0:
            continue
        add(profile.fingerprint, profile.calls, profile.rows_in,
            profile.rows_out)
        for part in profile.conjuncts + profile.partitions:
            add(part.fingerprint, part.calls, part.rows_in, part.rows_out)
        for step in profile.joins:
            add(step.fingerprint, step.calls, step.cross_rows, step.rows_out)
    return totals


class TestEveryViewAgrees:
    @pytest.mark.parametrize("dop", [1, 4], ids=["serial", "dop4-partitioned"])
    @pytest.mark.parametrize("tracing", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_views_agree(self, route, tracing, dop, patients_table,
                         pulmonary_table, dt_pipeline, covid_query):
        clock = FakeClock()
        faults = FaultInjector(seed=5)
        session = make_session(
            patients_table, pulmonary_table, dt_pipeline,
            partitioned=dop > 1, dop=dop, faults=faults,
            telemetry=Telemetry(tracing=tracing, slow_query_seconds=0.0),
            breakers=CircuitBreakerBoard(failure_threshold=1,
                                         recovery_seconds=10.0, clock=clock))
        # Bring the session to where the next run takes the route.
        if route == "warm-hit":
            for _ in range(10):   # until the cached plan stops being replaced
                _table, warm = session.sql_with_stats(covid_query)
                if warm.cache_hit and "plan.stale" not in warm.events:
                    break
        elif route in ("degraded-static", "half-open-trial"):
            faults.inject("executor.operator", max_fires=1)
            with pytest.raises(InjectedFaultError):
                session.sql(covid_query)
            if route == "half-open-trial":
                clock.now += 11.0
        elif route == "failing":
            faults.inject("executor.operator", max_fires=1)

        before = observed_state(session)
        if route == "explain":
            text = session.explain(covid_query, analyze=True)
            record = session.last_run
            assert text == render_analyze(record)
        elif route == "failing":
            with pytest.raises(InjectedFaultError) as raised:
                session.sql(covid_query)
            record = session.last_run
            assert record.error is raised.value
        else:
            _table, record = session.sql_with_stats(covid_query)
        after = observed_state(session)

        assert record.route == {
            "degraded-static": "degraded", "half-open-trial": "trial",
            "explain": ROUTE_EXPLAIN}.get(route, "adaptive")
        assert record.cache_hit == ("cache.hit" in record.events
                                    and not record.static_plan)
        if route in ("cold-miss", "warm-hit"):
            assert record.cache_hit == (route == "warm-hit")
        assert session.serving_stats.queries_in_flight == 0
        if dop > 1 and route != "failing":
            assert (after["metrics"]["counters"]["morsels_executed"]
                    > before["metrics"]["counters"].get("morsels_executed", 0))

        # Each counter moves by exactly the events on the record.
        serving = Counter(EVENT_COUNTERS[name] for name in record.events
                          if name in EVENT_COUNTERS)
        serving["expression_fallbacks"] += record.expression_fallbacks
        for name in ServingStats.FIELDS:
            moved = (getattr(after["serving"], name)
                     - getattr(before["serving"], name))
            assert moved == serving[name], name
        # (A degraded run's cache.* events are about the breaker's entry.)
        cache = Counter(CACHE_COUNTERS[name] for name in record.events
                        if name in CACHE_COUNTERS and not record.static_plan)
        for name in PlanCacheStats.FIELDS:
            moved = getattr(after["cache"], name) - getattr(before["cache"],
                                                            name)
            assert moved == cache[name], name

        # Metrics and the slow-query log heard of the run once.
        outcome = "error" if route == "failing" else "ok"
        counters, histograms = (after["metrics"][kind]
                                for kind in ("counters", "histograms"))
        old = before["metrics"]
        assert counters[f"queries{{outcome={outcome}}}"] == \
            old["counters"][f"queries{{outcome={outcome}}}"] + 1
        for name in ("query_seconds", "optimize_seconds", "execute_seconds"):
            assert histograms[name]["count"] == \
                old["histograms"][name]["count"] + 1
        entry = session.telemetry.slow_log.entries()[-1]
        assert entry["plan_fingerprint"] == record.plan_fingerprint
        assert entry["cache_hit"] == record.cache_hit
        assert entry["static_plan"] == record.static_plan
        assert entry["optimize_seconds"] == record.optimize_seconds
        assert ("error" in entry) == (route == "failing")

        # The feedback store learned exactly what the profile tree says —
        # or, from a degraded or failed run, nothing.
        profiles = record.operator_profiles
        learns = route not in ("degraded-static", "failing")
        assert (profiles is not None) == (route != "degraded-static")
        assert after["profiles_recorded"] - before["profiles_recorded"] == \
            int(learns)
        learned = Counter()
        for fingerprint, totals in after["operators"].items():
            old_totals = before["operators"].get(fingerprint, (0, 0, 0))
            for kind, new, was in zip(("calls", "rows_in", "rows_out"),
                                      totals, old_totals):
                if new != was:
                    learned[fingerprint, kind] = new - was
        assert learned == (+expected_feedback(profiles) if learns
                           else Counter())

        if profiles is not None and route != "failing":
            # EXPLAIN ANALYZE prints the tree's numbers...
            text = render_analyze(record)
            by_type = Counter()
            for node, profile in zip(walk(record.plan), profiles.walk()):
                assert (f"{profile.operator}: {profile.rows_in}->"
                        f"{profile.rows_out} rows") in text
                assert profile.operator == node._label()
                if isinstance(node, Scan):
                    assert profile.rows_in == profile.rows_out
                else:
                    assert profile.rows_in == sum(
                        child.rows_out for child in profile.children)
                name = type(node).__name__
                by_type[name, "calls"] += profile.calls
                by_type[name, "rows_in"] += profile.rows_in
                by_type[name, "rows"] += profile.rows_out
            # ...and the operator spans add up to the same ones.
            if tracing:
                spanned = Counter()
                execute = record.trace.root.find("execute")
                for span in execute.walk():
                    if span.category != "operator" \
                            or span.name == "Materialized":
                        continue
                    spanned[span.name, "calls"] += 1
                    spanned[span.name, "rows_in"] += span.attributes["rows_in"]
                    spanned[span.name, "rows"] += span.attributes["rows"]
                assert +spanned == +by_type

        if tracing:
            trace = session.telemetry.tracer.last()
            assert trace is record.trace
            assert trace.status == outcome
            root = trace.root
            assert root.attributes["cache_hit"] == record.cache_hit
            assert root.attributes["static_plan"] == record.static_plan
            assert root.attributes["plan_fingerprint"] == \
                record.plan_fingerprint
            optimize = root.find("optimize")
            assert sorted(optimize.event_names() + root.event_names()) == \
                sorted(record.events)
            assert all(name.startswith("cache.")
                       for name in optimize.event_names())
            assert entry["trace"]["root"]["name"] == "query"
        else:
            assert record.trace is None and "trace" not in entry
            assert len(session.telemetry.tracer) == 0


class TestSingleFoldRegressions:
    def test_degraded_route_counts_an_expired_deadline(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=3)
        faults.inject("executor.operator", max_fires=1)
        session = make_session(
            patients_table, pulmonary_table, dt_pipeline, faults=faults,
            breakers=CircuitBreakerBoard(failure_threshold=1,
                                         recovery_seconds=1e9))
        with pytest.raises(InjectedFaultError):
            session.sql(FILTER_QUERY)
        clock = FakeClock()
        expired = Deadline(1.0, clock=clock)
        clock.now += 5.0
        before = session.serving_stats.snapshot()
        with pytest.raises(DeadlineExceededError, match="plan optimization"):
            session.sql(FILTER_QUERY, deadline=expired)
        stats = session.serving_stats
        assert stats.deadline_exceeded == before.deadline_exceeded + 1
        assert stats.degraded_runs == before.degraded_runs + 1

    @pytest.mark.parametrize("site", ["executor.operator", "predict.run",
                                      "deadline"])
    def test_query_failing_after_planning_keeps_what_it_observed(
            self, site, patients_table, pulmonary_table, dt_pipeline,
            covid_query):
        faults = FaultInjector(seed=4)
        session = make_session(
            patients_table, pulmonary_table, dt_pipeline, faults=faults,
            # predict.run only exists while the model stays a Predict.
            enable_optimizations=site != "predict.run",
            telemetry=Telemetry(slow_query_seconds=0.0))
        session.sql(covid_query)   # the failing run is a plan-cache hit
        deadline = None
        if site == "deadline":
            # Expires on the clock's fourth reading: past the cache
            # lookup, inside execution.
            ticks = iter(range(100))
            deadline = Deadline(3.0, clock=lambda: float(next(ticks)))
            error_type = DeadlineExceededError
        else:
            faults.inject(site, max_fires=1)
            error_type = InjectedFaultError
        before = session.telemetry.metrics_snapshot()["histograms"]
        with pytest.raises(error_type):
            session.sql(covid_query, deadline=deadline)
        entry = session.telemetry.slow_log.entries()[-1]
        assert entry["cache_hit"] is True
        assert entry["static_plan"] is False
        assert entry["plan_fingerprint"] == \
            session.last_run.plan_fingerprint is not None
        assert entry["optimize_seconds"] > 0.0
        assert error_type.__name__ in entry["error"]
        after = session.telemetry.metrics_snapshot()["histograms"]
        for name in ("query_seconds", "optimize_seconds", "execute_seconds"):
            assert after[name]["count"] == before[name]["count"] + 1

    def test_disabled_telemetry_folds_nothing(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        session = make_session(
            patients_table, pulmonary_table, dt_pipeline,
            telemetry=Telemetry(tracing=True, slow_query_seconds=0.0))
        session.telemetry.enabled = False
        _table, record = session.sql_with_stats(covid_query)
        assert record.trace is None
        assert len(session.telemetry.tracer) == 0
        assert len(session.telemetry.slow_log) == 0
        histograms = session.telemetry.metrics_snapshot()["histograms"]
        assert histograms["query_seconds"]["count"] == 0


def count_expression_reprs(monkeypatch):
    """Patch a counter onto every ``Expression.__repr__``; returns the
    list the calls land in."""
    calls = []
    pending = [Expression]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        original = cls.__dict__.get("__repr__")
        if original is None:
            continue

        def counting(self, _original=original):
            calls.append(type(self).__name__)
            return _original(self)

        monkeypatch.setattr(cls, "__repr__", counting)
    return calls


class TestLazyLabels:
    def test_warmed_point_queries_never_render_an_expression(
            self, monkeypatch):
        from repro.datasets import hospital
        from repro.learn import DecisionTreeClassifier

        dataset = hospital.generate(1_000, seed=1)
        session = RavenSession()
        dataset.register(session)
        session.register_model("m", hospital.generate(2_000, seed=1)
                               .train_pipeline(DecisionTreeClassifier(
                                   max_depth=8, random_state=0)))
        # The five point_warm texts of benchmarks/e2e: no filter, numeric
        # range, string equality, two conjuncts, aggregate.
        q = dataset.prediction_query
        queries = [
            q("m"),
            q("m", where="d.glucose BETWEEN 120.0 AND 160.0"),
            q("m", where="d.gender = 'F'"),
            q("m", where="d.asthma = 'yes' AND d.bmi > 28.5"),
            q("m", aggregate=True),
        ]
        for _ in range(10):   # to the adaptive fixed point
            before = session.plan_cache.stats.reoptimizations
            for query in queries:
                session.sql(query)
            if session.plan_cache.stats.reoptimizations == before:
                break
        calls = count_expression_reprs(monkeypatch)
        for query in queries:
            _table, record = session.sql_with_stats(query)
            assert record.cache_hit and record.operator_profiles is not None
            assert session.plan_cache.stats.reoptimizations == before
        assert calls == []
        # Reading a label is what renders it, and only the first time.
        label = record.operator_profiles.operator
        rendered = len(calls)
        assert rendered > 0
        assert record.operator_profiles.operator == label
        assert len(calls) == rendered

    def test_feedback_store_labels_a_new_fingerprint_once(self):
        scan = Scan("events")
        render, renders = scan._label, []

        def counted_label():
            renders.append(1)
            return render()

        scan._label = counted_label
        store = FeedbackStore()
        for _ in range(3):
            profiler = PlanProfiler()
            profiler.record_operator(scan, 10, 0.001)
            store.record_profile(profiler.profile_tree(scan))
        assert len(renders) == 1
        (fingerprint,) = store._operators
        assert store.observed(fingerprint).operator == render()
        assert store.observed(fingerprint).calls == 3

    def test_feedback_labels_are_capped(self, session, covid_query):
        # The translated model's CASE Project renders to kilobytes; the
        # store keeps a bounded label whatever the plan.
        session.sql(covid_query)
        with session.feedback._lock:
            labels = [fb.operator
                      for fb in session.feedback._operators.values()]
        assert any(label.endswith("…") for label in labels)
        assert any(label.startswith("joinstep:") for label in labels)
        for label in labels:
            assert len(label) <= len("joinstep:") + MAX_LABEL_CHARS, label

    def test_partition_label_keeps_prefix_and_index(self):
        scan = Scan("events", columns=[f"column_{i}" for i in range(40)])
        profiler = PlanProfiler()
        profiler.record_operator(scan, 10, 0.001)
        profiler.record_partition(scan, 3, 10, 5, 0.001)
        store = FeedbackStore()
        store.record_profile(profiler.profile_tree(scan))
        labels = sorted(fb.operator for fb in store._operators.values())
        assert len(labels[0]) == MAX_LABEL_CHARS
        assert labels[0].startswith("Scan(events") and labels[0][-1] == "…"
        assert labels[1] == f"partition:{labels[0]}:3"


class TestPinnedSurface:
    def test_session_constructor_parameters(self):
        parameters = list(inspect.signature(RavenSession.__init__).parameters)
        assert parameters[1:] == [
            "enable_optimizations", "enable_cross", "enable_data_induced",
            "strategy", "gpu_available", "dop", "batch_size", "plan_cache",
            "compile_expressions", "adaptive", "warm_start",
            "breakers", "faults", "telemetry"]

    def test_serve_parameters(self):
        parameters = list(inspect.signature(RavenSession.serve).parameters)
        assert parameters[1:] == [
            "queries", "workers", "max_pending", "backpressure", "retry",
            "deadline"]

    def test_feedback_store_constructor_parameters(self):
        assert list(inspect.signature(FeedbackStore.__init__).parameters) \
            == ["self"]

    def test_package_exports(self):
        assert sorted(repro.__all__) == [
            "Catalog", "CircuitBreakerBoard", "Deadline",
            "DeadlineExceededError", "FaultInjector", "FeedbackStore",
            "MetricsRegistry", "OperatorProfile", "OptimizationReport",
            "PartitionedTable", "PlanCache",
            "QueryOutcome", "RavenError", "RavenOptimizer", "RavenSession",
            "RetryPolicy", "RunStats", "Schema", "ServingStats",
            "SlowQueryLog", "Snapshot", "SnapshotStore", "Table",
            "Telemetry", "Tracer", "__version__"]

    def test_wall_seconds_is_a_read_only_alias(self, session):
        _table, stats = session.sql_with_stats(FILTER_QUERY)
        assert stats.wall_seconds == stats.execute_seconds > 0.0
        with pytest.raises(AttributeError):
            stats.wall_seconds = 1.0
