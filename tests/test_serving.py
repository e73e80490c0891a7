"""The serving layer: plan cache and concurrent execution."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import RavenSession
from repro.serving import PlanCache, normalize_query, query_dependencies

PREDICT_QUERY = """
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN pulmonary_test AS pt ON pi.id = pt.id
)
SELECT d.id, p.score
FROM PREDICT(MODEL = covid_risk, DATA = data AS d) WITH (score FLOAT) AS p
WHERE d.asthma = 1 AND p.score > 0.5
"""


def tables_equal(a, b) -> bool:
    return (a.column_names == b.column_names
            and all(np.array_equal(a.array(name), b.array(name))
                    for name in a.column_names))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

class TestNormalization:
    def test_whitespace_comments_and_keyword_case_collapse(self):
        a = normalize_query(
            "SELECT d.id FROM patients AS d WHERE d.age > 40")
        b = normalize_query(
            "select d.id\n  from patients as d -- a comment\n where d.age > 40;")
        assert a.key == b.key

    def test_literals_are_lifted_into_params(self):
        a = normalize_query("SELECT x FROM t WHERE x > 40 AND name = 'bob'")
        b = normalize_query("SELECT x FROM t WHERE x > 41 AND name = 'eve'")
        assert a.template == b.template
        assert a.params != b.params
        assert a.params == (("number", "40"), ("string", "bob"))

    def test_identifiers_stay_case_sensitive(self):
        a = normalize_query("SELECT Col FROM t")
        b = normalize_query("SELECT col FROM t")
        assert a.key != b.key

    def test_dependencies_cover_tables_and_models(self, covid_query):
        deps = query_dependencies(covid_query)
        assert deps.tables == {"patient_info", "pulmonary_test"}
        assert deps.models == {"covid_risk"}
        # CTE names shadow catalog tables and are excluded.
        assert "data" not in deps.tables

    def test_cte_body_reading_shadowed_table_is_a_dependency(self):
        # The binder resolves a CTE body's self-named reference to the
        # catalog table (the CTE isn't in scope inside its own body), so
        # the cached plan must depend on the real table `c`.
        deps = query_dependencies(
            "WITH c AS (SELECT x FROM c WHERE x > 1) SELECT x FROM c")
        assert deps.tables == {"c"}

    def test_mid_statement_semicolon_not_stripped(self):
        valid = normalize_query("SELECT x FROM t")
        broken = normalize_query("SELECT ; x FROM t")
        assert valid.key != broken.key
        # Trailing semicolons stay cosmetic.
        assert normalize_query("SELECT x FROM t ;").key == valid.key


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    def test_hit_miss_counters(self, session):
        stats = session.plan_cache.stats
        _, s1 = session.sql_with_stats(PREDICT_QUERY)
        _, s2 = session.sql_with_stats(PREDICT_QUERY)
        assert not s1.cache_hit and s2.cache_hit
        assert stats.misses == 1 and stats.hits == 1

    def test_textual_variants_share_one_entry(self, session):
        session.sql(PREDICT_QUERY)
        _, stats = session.sql_with_stats(
            PREDICT_QUERY.replace("SELECT", "select").replace("WHERE", "where")
            + "  -- trailing comment")
        assert stats.cache_hit
        assert len(session.plan_cache) == 1

    def test_literal_change_is_a_miss_with_correct_results(self, session):
        low = session.sql(PREDICT_QUERY)
        high, stats = session.sql_with_stats(
            PREDICT_QUERY.replace("0.5", "0.9"))
        assert not stats.cache_hit
        assert len(session.plan_cache) == 2
        assert high.num_rows <= low.num_rows

    def test_cached_plan_results_identical(self, session):
        first = session.sql(PREDICT_QUERY)
        second = session.sql(PREDICT_QUERY)
        assert tables_equal(first, second)

    def test_lru_eviction(self, patients_table, pulmonary_table, dt_pipeline):
        session = RavenSession(plan_cache=PlanCache(capacity=2))
        session.register_table("patient_info", patients_table)
        session.register_table("pulmonary_test", pulmonary_table)
        session.register_model("covid_risk", dt_pipeline)
        for threshold in ("0.2", "0.4", "0.6"):
            session.sql(PREDICT_QUERY.replace("0.5", threshold))
        assert len(session.plan_cache) == 2
        assert session.plan_cache.stats.evictions == 1
        # Oldest entry (0.2) was evicted; re-running it misses again.
        _, stats = session.sql_with_stats(PREDICT_QUERY.replace("0.5", "0.2"))
        assert not stats.cache_hit

    def test_invalidation_on_model_reregister(self, session, dt_pipeline,
                                              gb_pipeline):
        session.sql(PREDICT_QUERY)
        before = session.sql(PREDICT_QUERY)
        session.register_model("covid_risk", gb_pipeline, replace=True)
        assert session.plan_cache.stats.invalidations >= 1
        after, stats = session.sql_with_stats(PREDICT_QUERY)
        assert not stats.cache_hit
        # The new model's scores actually differ from the cached plan's.
        assert not tables_equal(before, after)

    def test_invalidation_on_table_reregister(self, session, patients_table):
        session.sql(PREDICT_QUERY)
        half = patients_table.slice(0, patients_table.num_rows // 2)
        session.register_table("patient_info", half, replace=True)
        result, stats = session.sql_with_stats(PREDICT_QUERY)
        assert not stats.cache_hit
        assert result.num_rows <= half.num_rows

    def test_unrelated_registration_keeps_entries(self, session,
                                                  pulmonary_table):
        session.sql(PREDICT_QUERY)
        session.register_table("unrelated", pulmonary_table)
        _, stats = session.sql_with_stats(PREDICT_QUERY)
        assert stats.cache_hit

    def test_drop_table_invalidates(self, session):
        session.sql(PREDICT_QUERY)
        session.catalog.drop_table("patient_info")
        assert len(session.plan_cache) == 0

    def test_disabled_cache(self, patients_table, pulmonary_table,
                            dt_pipeline):
        session = RavenSession(plan_cache=False)
        session.register_table("patient_info", patients_table)
        session.register_table("pulmonary_test", pulmonary_table)
        session.register_model("covid_risk", dt_pipeline)
        assert session.plan_cache is None
        _, stats = session.sql_with_stats(PREDICT_QUERY)
        assert not stats.cache_hit


# ---------------------------------------------------------------------------
# Single-flight racing eviction / invalidation
# ---------------------------------------------------------------------------

class TestSingleFlightRaces:
    """An in-flight optimization's key can be evicted or invalidated
    before the owner publishes; the cache must stay consistent."""

    @staticmethod
    def _entry(catalog, tables=frozenset(), plan="plan"):
        from repro.serving import CachedPlan, dependency_versions
        return CachedPlan(
            template="q", params=(), plan=plan, report=None,
            tables=frozenset(tables),
            versions=dependency_versions(catalog, tables, set()))

    def test_owner_completes_after_invalidation(self, patients_table):
        from repro.serving.plan_cache import PlanCache
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.add_table("t", patients_table)
        cache = PlanCache()
        cache.attach(catalog)
        key = ("q", ())
        entry = self._entry(catalog, {"t"})
        hit, flight, owner = cache.begin(key, catalog)
        assert hit is None and owner
        # DDL lands while the owner is still optimizing: the entry's
        # recorded versions are now stale.
        catalog.add_table("t", patients_table, replace=True)
        cache.complete(flight, entry)
        # The published entry must not be served: the version check on
        # lookup discards it.
        assert cache.get(key, catalog) is None
        assert cache.stats.invalidations >= 1
        assert len(cache) == 0

    def test_waiter_joins_after_owner_entry_invalidated(self, patients_table):
        from repro.serving.plan_cache import PlanCache
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.add_table("t", patients_table)
        cache = PlanCache()
        key = ("q", ())
        _, flight, owner = cache.begin(key, catalog)
        assert owner
        waiter_result = []

        def waiter():
            waiter_result.append(cache.join(flight, catalog, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        entry = self._entry(catalog, {"t"})
        catalog.add_table("t", patients_table, replace=True)  # mid-flight DDL
        cache.complete(flight, entry)
        thread.join(timeout=5.0)
        # The waiter must not receive the stale entry; it re-optimizes
        # independently (None return, counted as a miss).
        assert waiter_result == [None]

    def test_owner_completes_after_key_evicted(self, patients_table):
        from repro.serving.plan_cache import PlanCache
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.add_table("t", patients_table)
        cache = PlanCache(capacity=2)
        key = ("q", ())
        _, flight, owner = cache.begin(key, catalog)
        assert owner
        # While the flight is open, other keys fill the cache.
        for index in range(3):
            cache.put((f"other{index}", ()), self._entry(catalog))
        assert len(cache) == 2 and cache.stats.evictions == 1
        cache.complete(flight, self._entry(catalog, {"t"}))
        # Publication inserts and LRU-evicts within capacity; the fresh
        # entry is immediately servable.
        assert len(cache) == 2
        assert cache.get(key, catalog) is not None

    def test_owner_completes_after_mark_stale_of_older_entry(
            self, patients_table):
        from repro.serving.plan_cache import PlanCache
        from repro.storage.catalog import Catalog
        catalog = Catalog()
        catalog.add_table("t", patients_table)
        cache = PlanCache()
        key = ("q", ())
        old = self._entry(catalog, {"t"}, plan="old")
        cache.put(key, old)
        fresh = self._entry(catalog, {"t"}, plan="fresh")
        cache.put(key, fresh)
        # A laggard execution of the superseded plan reports drift: the
        # fresh entry must survive.
        assert not cache.mark_stale(key, old)
        assert cache.get(key, catalog) is fresh
        assert cache.stats.reoptimizations == 0
        # Drift against the live entry does drop it.
        assert cache.mark_stale(key, fresh)
        assert cache.stats.reoptimizations == 1
        assert cache.get(key, catalog) is None


# ---------------------------------------------------------------------------
# Concurrent execution
# ---------------------------------------------------------------------------

class TestConcurrentExecution:
    QUERIES = [
        PREDICT_QUERY,
        PREDICT_QUERY.replace("0.5", "0.8"),
        "SELECT pi.id, pi.age FROM patient_info AS pi WHERE pi.age > 60",
        """
        WITH data AS (
          SELECT * FROM patient_info AS pi
          JOIN pulmonary_test AS pt ON pi.id = pt.id
        )
        SELECT d.id, p.score
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
             WITH (score FLOAT) AS p
        ORDER BY id LIMIT 50
        """,
    ]

    def test_concurrent_sql_matches_serial(self, session):
        serial = {query: session.sql(query) for query in self.QUERIES}
        results = [[] for _ in range(8)]
        errors = []

        def worker(index: int) -> None:
            try:
                for query in self.QUERIES:
                    results[index].append(session.sql(query))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for per_thread in results:
            assert len(per_thread) == len(self.QUERIES)
            for query, table in zip(self.QUERIES, per_thread):
                assert tables_equal(serial[query], table)

    def test_serve_preserves_order_and_equality(self, session):
        queries = self.QUERIES * 4
        serial = [session.sql(query) for query in queries]
        served = [outcome.result()
                  for outcome in session.serve(queries, workers=8)]
        assert len(served) == len(queries)
        for expected, actual in zip(serial, served):
            assert tables_equal(expected, actual)

    def test_serve_reports_cache_hits(self, session):
        # Warm the cache first: concurrent cold misses for the same key may
        # each optimize independently (no single-flight yet), so only a
        # pre-warmed entry makes hit counts deterministic.
        session.sql(PREDICT_QUERY)
        outcomes = session.serve([PREDICT_QUERY] * 6, workers=3)
        assert all(outcome.stats.cache_hit for outcome in outcomes)

    def test_serve_rejects_bad_workers(self, session):
        with pytest.raises(ValueError):
            session.serve([PREDICT_QUERY], workers=0)

    def test_per_call_stats_are_isolated(self, session):
        table, stats = session.sql_with_stats(PREDICT_QUERY)
        assert stats.wall_seconds >= 0.0
        assert session.last_run is stats  # best-effort alias, serially exact
        _, second = session.sql_with_stats(PREDICT_QUERY)
        assert second is not stats


# ---------------------------------------------------------------------------
# Inference-session cache
# ---------------------------------------------------------------------------

class TestInferenceSessionCache:
    def test_session_cache_is_lru_bounded(self, session, dt_pipeline,
                                          monkeypatch):
        from repro.core import executor as executor_module
        from repro.onnxlite.convert import convert_pipeline
        monkeypatch.setattr(executor_module, "MAX_CACHED_SESSIONS", 2)
        runtime = session.runtime
        # Mint distinct graph objects; the cache must stay bounded.
        for _ in range(4):
            runtime.session_for(convert_pipeline(dt_pipeline))
        assert len(runtime._sessions) <= 2


# ---------------------------------------------------------------------------
# Catalog versioning
# ---------------------------------------------------------------------------

class TestCatalogVersioning:
    def test_versions_bump_on_mutation(self, patients_table, dt_pipeline):
        session = RavenSession()
        catalog = session.catalog
        v0 = catalog.version
        session.register_table("t", patients_table)
        assert catalog.version > v0
        assert catalog.entry_version("table", "t") == catalog.version
        session.register_table("t", patients_table, replace=True)
        assert catalog.entry_version("table", "t") == catalog.version
        session.register_model("m", dt_pipeline)
        assert catalog.entry_version("model", "m") == catalog.version
        assert catalog.entry_version("model", "missing") is None

    def test_listeners_fire_on_changes(self, patients_table):
        session = RavenSession()
        events = []
        session.catalog.subscribe(lambda kind, name: events.append((kind, name)))
        session.register_table("t", patients_table)
        session.catalog.drop_table("t")
        assert events == [("table", "t"), ("table", "t")]
