"""Persistence & warm start: codecs, snapshots, feedback state, sessions.

Covers:

* plan ⇄ dict round-trips every logical node and expression type
  bit-for-bit (structure, annotations, fingerprints);
* optimize → save → load → execute is bit-for-bit identical to a fresh
  optimize → execute, with ``adaptive=False`` as the oracle;
* ``FeedbackStore.load_state`` round-trips an export, replaces instead
  of summing (loading twice equals loading once), is all-or-nothing and
  LRU-bounded with observable eviction counters;
* a warm-started session serves a previously-learned plan on its first
  call (cache hit, zero re-optimizations) and drops stale entries whose
  catalog dependencies changed; keys older writers emitted are ignored;
* ``SnapshotStore`` rotates, continues its numbering across store
  handles, skips unreadable newest files and auto-checkpoints.
"""

from __future__ import annotations

import json

import pytest

import repro.adaptive.feedback as feedback_module
from repro import RavenSession, Snapshot, SnapshotStore, Table
from repro.adaptive.feedback import FEEDBACK_FORMAT, FeedbackStore
from repro.adaptive.profile import OperatorProfile, plan_fingerprint
from repro.errors import PersistError
from repro.onnxlite.convert import convert_pipeline
from repro.persist import build_snapshot, plan_from_dict, plan_to_dict
from repro.persist.plan_codec import expression_from_dict, expression_to_dict
from repro.persist.snapshot import install_plans, table_digest
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
    col,
    lit,
)
from repro.relational.logical import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    PredictMode,
    Project,
    Scan,
    Sort,
    walk,
)
from repro.relational.optimizer import RelationalOptimizer
from repro.storage.catalog import Catalog
from repro.storage.column import DataType
from repro.storage.statistics import ColumnStats, TableStats


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


MISESTIMATED_QUERY = """
SELECT t.a, t.b
FROM readings AS t
WHERE t.a * t.a + t.a < 10.0 AND t.b * t.b + t.b < 0.01
"""


@pytest.fixture()
def readings_table(rng) -> Table:
    n = 4_000
    return Table.from_arrays(
        a=rng.uniform(0.0, 1.0, n),       # wide conjunct keeps ~100%
        b=rng.uniform(0.0, 1.0, n),       # narrow conjunct keeps ~1%
        c=rng.uniform(0.0, 1.0, n),
    )


def learned_session(readings_table, max_rounds: int = 12) -> RavenSession:
    """An adaptive session whose misestimated plan reached a fixed point.

    Converged = a cache-hit execution whose own profile produced no new
    re-optimization (the entry survived) — merely
    hitting the cache is not enough, since per-conjunct cost timings are
    noisy at test scale and can re-diverge a plan for a round or two.
    """
    session = RavenSession()
    session.register_table("readings", readings_table)
    for _ in range(max_rounds):
        before = session.plan_cache.stats.reoptimizations
        _, stats = session.sql_with_stats(MISESTIMATED_QUERY)
        if stats.cache_hit \
                and session.plan_cache.stats.reoptimizations == before:
            break
    assert session.plan_cache.stats.reoptimizations >= 1
    return session


# ---------------------------------------------------------------------------
# Expression codec
# ---------------------------------------------------------------------------

EXPRESSIONS = [
    ColumnRef("t.a"),
    Literal(3),
    Literal(2.5),
    Literal(True),
    Literal("yes"),
    Literal(1, DataType.FLOAT),  # explicit dtype survives
    BinaryOp("+", col("t.a"), lit(1.0)),
    BinaryOp("and", col("t.a").gt(lit(0.0)), col("t.b").le(lit(1.0))),
    BinaryOp("/", col("t.a"), col("t.b")),
    UnaryOp("not", col("t.flag").eq(lit(1))),
    UnaryOp("-", col("t.a")),
    FunctionCall("sigmoid", [col("t.a")]),
    FunctionCall("pow", [col("t.a"), lit(2.0)]),
    CaseWhen([(col("t.a").gt(lit(0.5)), lit(1.0)),
              (col("t.a").gt(lit(0.1)), lit(0.5))], lit(0.0)),
    InList(col("t.kind"), ["a", "b", "c"]),
    InList(col("t.n"), [1, 2, 3]),
    Between(col("t.a"), lit(0.25), lit(0.75)),
    Cast(col("t.n"), DataType.FLOAT),
]


class TestExpressionCodec:
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=lambda e: repr(e))
    def test_round_trip_is_structural_identity(self, expr):
        payload = expression_to_dict(expr)
        rebuilt = expression_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == expr            # structural equality
        assert repr(rebuilt) == repr(expr)
        assert expression_to_dict(rebuilt) == payload

    def test_unknown_tag_rejected(self):
        with pytest.raises(PersistError):
            expression_from_dict({"t": "mystery"})


# ---------------------------------------------------------------------------
# Plan codec
# ---------------------------------------------------------------------------

def _multijoin() -> MultiJoin:
    edges = [JoinEdge(0, 1, "f.k1", "d1.k"), JoinEdge(0, 2, "f.k2", "d2.k")]
    return MultiJoin([Scan("fact", "f"), Scan("dim1", "d1"),
                      Scan("dim2", "d2")], edges, order=[1, 0, 2])


def _plans(dt_pipeline):
    graph = convert_pipeline(dt_pipeline, name="risk")
    scan = Scan("patients", "d", ["id", "age"])
    yield scan
    yield Filter(scan, col("d.age").gt(lit(40.0)))
    yield Project(scan, [("id", col("d.id")),
                         ("age2", col("d.age") * lit(2.0))])
    yield Join(Scan("l"), Scan("r"), ["l.k"], ["r.k"], how="left")
    yield Join(Scan("l"), Scan("r"), ["l.k", "l.j"], ["r.k", "r.j"],
               how="inner")
    yield _multijoin()
    yield Aggregate(scan, ["d.id"], [AggregateSpec("n", "count"),
                                     AggregateSpec("m", "avg", "d.age")])
    yield Sort(scan, [("d.age", False), ("d.id", True)])
    yield Limit(scan, 7)
    yield Predict(scan, "risk", graph,
                  {"age": "d.age"}, [("score", "probability", DataType.FLOAT)],
                  keep_columns=["d.id"], mode=PredictMode.ML_RUNTIME)


class TestPlanCodec:
    def test_round_trip_every_node_type(self, dt_pipeline):
        for plan in _plans(dt_pipeline):
            payload = plan_to_dict(plan)
            rebuilt = plan_from_dict(json.loads(json.dumps(payload)))
            # The dict form is a fixed point and the structural
            # fingerprint (which ignores pure annotations) is preserved.
            assert plan_to_dict(rebuilt) == payload
            assert plan_fingerprint(rebuilt) == plan_fingerprint(plan)
            assert rebuilt.pretty() == plan.pretty()

    def test_annotations_survive(self, dt_pipeline):
        plans = list(_plans(dt_pipeline))
        join = plan_from_dict(plan_to_dict(plans[4]))
        assert join.how == "inner" and join.left_keys == ["l.k", "l.j"]
        multi = plan_from_dict(plan_to_dict(plans[5]))
        assert multi.order == [1, 0, 2]
        assert multi.edges == _multijoin().edges
        predict = plan_from_dict(plan_to_dict(plans[9]))
        assert predict.mode is PredictMode.ML_RUNTIME
        assert predict.keep_columns == ["d.id"]

    def test_parent_written_predict_batch_rows_still_loads(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        # What the previous writer emitted for a feedback-sized Predict:
        # the since-removed "batch_rows" annotation. The key is ignored,
        # nothing is re-emitted, and the plan scores in the runtime's
        # fixed batches to the same result.
        session = RavenSession(strategy="none", batch_size=64)
        session.register_table("patient_info", patients_table)
        session.register_table("pulmonary_test", pulmonary_table)
        session.register_model("covid_risk", dt_pipeline)
        written, _ = session.optimize(covid_query)
        payload = json.loads(json.dumps(plan_to_dict(written)))
        predicts = [node for node in walk(written)
                    if isinstance(node, Predict)]
        assert predicts and all(node.mode is PredictMode.ML_RUNTIME
                                for node in predicts)

        def stamp(node):
            if node.get("t") == "predict":
                assert "batch_rows" not in node  # the writer stopped
                node["batch_rows"] = 4096
            for value in node.values():
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, dict):
                        stamp(child)

        stamp(payload["root"])
        assert '"batch_rows": 4096' in json.dumps(payload)
        rebuilt = plan_from_dict(payload)
        assert plan_to_dict(rebuilt) == plan_to_dict(written)
        expected = session.execute_plan(written)
        assert expected.num_rows > 64  # more than one predict batch
        assert tables_equal_bitwise(session.execute_plan(rebuilt), expected)

    def test_parent_written_join_payload_still_loads(self, session):
        # What the previous writer emitted for an optimized plan: a tree
        # of inner joins, each carrying the since-removed planned sort
        # side. The key is ignored, nothing is re-emitted, and the tree
        # runs through the binary path to the lowered plan's result.
        query = ("SELECT pi.age, pt.bpm FROM patient_info AS pi "
                 "JOIN pulmonary_test AS pt ON pi.id = pt.id "
                 "WHERE pt.bpm > 80.0")
        written = RelationalOptimizer(session.catalog).optimize(
            session.plan(query))
        payload = json.loads(json.dumps(plan_to_dict(written)))

        def stamp(node):
            if node.get("t") == "join":
                assert "build_side" not in node  # the writer stopped
                node["build_side"] = "left"
            for value in node.values():
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, dict):
                        stamp(child)

        stamp(payload["root"])
        assert '"build_side": "left"' in json.dumps(payload)
        rebuilt = plan_from_dict(payload)
        assert [n for n in walk(rebuilt) if isinstance(n, Join)]
        assert plan_to_dict(rebuilt) == plan_to_dict(written)
        lowered, _ = session.optimize(query)
        assert not [n for n in walk(lowered) if isinstance(n, Join)]
        expected = session.execute_plan(lowered)
        assert expected.num_rows > 0
        assert tables_equal_bitwise(session.execute_plan(rebuilt), expected)

    def test_plannode_convenience_methods(self):
        plan = Filter(Scan("t"), col("t.a").gt(lit(1)))
        assert PlanNode.from_dict(plan.to_dict()).pretty() == plan.pretty()

    def test_bad_format_rejected(self):
        with pytest.raises(PersistError):
            plan_from_dict({"format": "repro-plan-v999", "root": {}})
        with pytest.raises(PersistError):
            plan_from_dict({"root": {"t": "scan"}})

    def test_optimized_plans_round_trip_and_execute(self, session,
                                                    covid_query):
        queries = [
            covid_query,
            "SELECT pi.id, pi.age FROM patient_info AS pi "
            "WHERE pi.age BETWEEN 30.0 AND 70.0 AND pi.asthma = 1 "
            "ORDER BY id LIMIT 50",
            "SELECT pi.smoker, COUNT(*) AS n, AVG(pi.bmi) AS bmi "
            "FROM patient_info AS pi GROUP BY pi.smoker",
            "SELECT pi.id FROM patient_info AS pi "
            "JOIN pulmonary_test AS pt ON pi.id = pt.id "
            "WHERE pt.bpm > 80.0",
        ]
        for query in queries:
            plan, _ = session.optimize(query)
            rebuilt = plan_from_dict(
                json.loads(json.dumps(plan_to_dict(plan))))
            assert rebuilt.pretty(session.catalog) == \
                plan.pretty(session.catalog)
            assert tables_equal_bitwise(session.execute_plan(rebuilt),
                                        session.execute_plan(plan))


# ---------------------------------------------------------------------------
# Feedback export / load
# ---------------------------------------------------------------------------

def _store_with(observations) -> FeedbackStore:
    """observations: list of (fingerprint, rows_in, rows_out, seconds)."""
    store = FeedbackStore()
    for fingerprint, rows_in, rows_out, seconds in observations:
        store.record_profile(OperatorProfile(
            operator="Filter", fingerprint=fingerprint, calls=1,
            rows_in=rows_in, rows_out=rows_out, seconds=seconds))
    return store


OBSERVATIONS = [("shared", 1000, 100, 0.010), ("only_a", 500, 5, 0.004)]


class TestFeedbackMerge:
    def test_export_import_round_trip(self):
        a = _store_with(OBSERVATIONS)
        fresh = FeedbackStore()
        fresh.load_state(a.export_state())
        assert fresh.export_state() == a.export_state()
        assert fresh.profiles_recorded == a.profiles_recorded

    def test_load_replaces_resident_entries(self):
        resident = _store_with([("shared", 1000, 900, 0.020)] * 3)
        incoming = _store_with(OBSERVATIONS)
        resident.load_state(incoming.export_state())
        resident.load_state(incoming.export_state())
        # Per fingerprint the incoming entry wins whole, and loading it
        # again changes nothing: no call, row or profile count adds up.
        assert resident.observed("shared") == incoming.observed("shared")
        assert resident.observed("only_a") == incoming.observed("only_a")
        assert resident.profiles_recorded == 3

    def test_merge_respects_lru_bound_and_counts_evictions(self,
                                                           monkeypatch):
        big = _store_with([(f"fp{i}", 100, 10, 0.001) for i in range(8)])
        monkeypatch.setattr(feedback_module, "MAX_OPERATOR_ENTRIES", 3)
        small = FeedbackStore()
        small.load_state(big.export_state())
        assert len(small) == 3
        assert small.observed("fp7") is not None
        assert small.stats.operator_evictions == 5

    def test_parent_written_models_key_is_ignored(self):
        state = _store_with(OBSERVATIONS).export_state()
        state["models"] = {"risk": {"calls": 1, "rows": 10, "seconds": 0.1,
                                    "seconds_per_row_ewma": 0.01}}
        store = FeedbackStore()
        store.load_state(state)
        assert len(store) == len(OBSERVATIONS)
        assert "models" not in store.export_state()

    def test_bad_format_rejected(self):
        with pytest.raises(PersistError):
            FeedbackStore().load_state({"format": "nope"})
        with pytest.raises(PersistError, match=FEEDBACK_FORMAT):
            FeedbackStore().load_state({})

    def test_malformed_payload_is_all_or_nothing(self):
        state = _store_with(OBSERVATIONS).export_state()
        state["operators"]["broken"] = {"operator": "Filter"}  # missing calls
        target = FeedbackStore()
        with pytest.raises(PersistError):
            target.load_state(state)
        # Nothing loaded before the malformed entry was found.
        assert len(target) == 0
        assert target.profiles_recorded == 0

    def test_malformed_feedback_degrades_warm_start(self, tmp_path):
        session = RavenSession()
        snapshot = session.snapshot()
        snapshot.feedback = {"format": FEEDBACK_FORMAT,
                             "operators": {"x": {"operator": "f"}}}
        warm = RavenSession(warm_start=snapshot)  # must not raise
        assert len(warm.feedback) == 0


# ---------------------------------------------------------------------------
# Statistics persistence
# ---------------------------------------------------------------------------

class TestStatsPersistence:
    def test_table_stats_round_trip(self, patients_table):
        stats = TableStats.collect(patients_table)
        rebuilt = TableStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert rebuilt.row_count == stats.row_count
        assert set(rebuilt.columns) == set(stats.columns)
        for name, column in stats.columns.items():
            assert rebuilt.columns[name] == column  # frozen dataclass eq

    def test_fill_missing_prefers_live_values(self):
        live = ColumnStats("x", DataType.FLOAT, 100, min_value=0.0,
                           max_value=1.0, distinct_count=None)
        persisted = ColumnStats("x", DataType.FLOAT, 90, min_value=-5.0,
                                max_value=9.0, distinct_count=42)
        filled = live.fill_missing(persisted)
        assert filled.min_value == 0.0 and filled.max_value == 1.0  # live wins
        assert filled.distinct_count == 42                          # gap filled
        # dtype mismatch: nothing leaks in
        wrong = ColumnStats("x", DataType.STRING, 90, distinct_count=7)
        assert live.fill_missing(wrong) == live

    def test_catalog_augment_stats(self, patients_table):
        catalog = Catalog()
        catalog.add_table("patients", patients_table)
        version = catalog.version
        entry = catalog.table("patients")
        # Simulate a live collection that skipped distinct counts.
        entry.stats.columns["age"] = ColumnStats(
            "age", DataType.FLOAT, patients_table.num_rows,
            min_value=0.0, max_value=100.0, distinct_count=None)
        persisted = TableStats(row_count=patients_table.num_rows)
        persisted.columns["age"] = ColumnStats(
            "age", DataType.FLOAT, patients_table.num_rows,
            min_value=0.0, max_value=100.0, distinct_count=61)
        assert catalog.augment_stats("patients", persisted)
        assert catalog.table("patients").stats.column("age").distinct_count \
            == 61
        assert catalog.version == version  # estimates never bump versions
        assert not catalog.augment_stats("ghost", persisted)


# ---------------------------------------------------------------------------
# Session snapshots & warm start
# ---------------------------------------------------------------------------

class TestWarmStart:
    def test_save_load_round_trip_file(self, tmp_path, readings_table):
        session = learned_session(readings_table)
        path = session.save_snapshot(tmp_path / "snap.json")
        snapshot = Snapshot.load(path)
        assert len(snapshot.plans) == 1
        assert snapshot.feedback is not None
        assert "readings" in snapshot.table_stats

    def test_warm_started_first_call_is_a_cache_hit(self, tmp_path,
                                                    readings_table):
        session = learned_session(readings_table)
        path = session.save_snapshot(tmp_path / "snap.json")

        warm = RavenSession(warm_start=path)
        assert len(warm.plan_cache) == 0      # pending until registration
        warm.register_table("readings", readings_table)
        assert warm.plan_cache.stats.restored == 1

        result, stats = warm.sql_with_stats(MISESTIMATED_QUERY)
        assert stats.cache_hit
        assert warm.plan_cache.stats.reoptimizations == 0

        oracle = RavenSession(adaptive=False)
        oracle.register_table("readings", readings_table)
        assert tables_equal_bitwise(result, oracle.sql(MISESTIMATED_QUERY))

    def test_warm_start_after_registration(self, readings_table):
        session = learned_session(readings_table)
        warm = RavenSession()
        warm.register_table("readings", readings_table)
        summary = warm.load_snapshot(session.snapshot())
        assert summary["plans_installed"] == 1
        assert summary["plans_pending"] == 0
        _, stats = warm.sql_with_stats(MISESTIMATED_QUERY)
        assert stats.cache_hit

    def test_loaded_plan_matches_fresh_optimization(self, readings_table):
        session = learned_session(readings_table)
        warm = RavenSession(warm_start=session.snapshot())
        warm.register_table("readings", readings_table)
        (_, entry), = warm.plan_cache.entries()
        fresh, _ = session.optimize(MISESTIMATED_QUERY)  # feedback-aware
        assert entry.plan.pretty(warm.catalog) == \
            fresh.pretty(session.catalog)

    def test_schema_change_drops_stale_entries(self, readings_table, rng):
        session = learned_session(readings_table)
        warm = RavenSession(warm_start=session.snapshot())
        different = Table.from_arrays(a=rng.uniform(0, 1, 100),
                                      b=rng.choice(["x", "y"], 100))
        warm.register_table("readings", different)  # same name, new schema
        assert warm.plan_cache.stats.restored == 0
        assert len(warm.plan_cache) == 0

    def test_predict_plans_survive_snapshots(self, tmp_path, patients_table,
                                             pulmonary_table, dt_pipeline,
                                             covid_query):
        def make(warm_start=None):
            sess = RavenSession(warm_start=warm_start)
            sess.register_table("patient_info", patients_table,
                                primary_key=["id"])
            sess.register_table("pulmonary_test", pulmonary_table,
                                primary_key=["id"])
            sess.register_model("covid_risk", dt_pipeline)
            return sess

        session = make()
        expected = session.sql(covid_query)
        path = session.save_snapshot(tmp_path / "predict.json")

        warm = make(warm_start=path)
        assert warm.plan_cache.stats.restored == 1
        result, stats = warm.sql_with_stats(covid_query)
        assert stats.cache_hit
        assert tables_equal_bitwise(result, expected)

    def test_model_change_drops_predict_plans(self, tmp_path, patients_table,
                                              pulmonary_table, dt_pipeline,
                                              lr_pipeline, covid_query):
        session = RavenSession()
        session.register_table("patient_info", patients_table,
                               primary_key=["id"])
        session.register_table("pulmonary_test", pulmonary_table,
                               primary_key=["id"])
        session.register_model("covid_risk", dt_pipeline)
        session.sql(covid_query)

        warm = RavenSession(warm_start=session.snapshot())
        warm.register_table("patient_info", patients_table,
                            primary_key=["id"])
        warm.register_table("pulmonary_test", pulmonary_table,
                            primary_key=["id"])
        warm.register_model("covid_risk", lr_pipeline)  # different model
        assert warm.plan_cache.stats.restored == 0
        # The query still answers correctly through the ordinary path.
        result, stats = warm.sql_with_stats(covid_query)
        assert not stats.cache_hit
        assert result.num_rows >= 0

    def test_loading_a_snapshot_twice_equals_loading_it_once(
            self, readings_table):
        snapshot = learned_session(readings_table).snapshot()
        once = RavenSession()
        once.load_snapshot(snapshot)
        twice = RavenSession()
        twice.load_snapshot(snapshot)
        twice.load_snapshot(snapshot)
        assert once.feedback.export_state() == snapshot.feedback
        assert twice.feedback.export_state() == once.feedback.export_state()

    def test_snapshot_restored_entries_obey_invalidation(self, readings_table):
        session = learned_session(readings_table)
        warm = RavenSession(warm_start=session.snapshot())
        warm.register_table("readings", readings_table)
        assert warm.plan_cache.stats.restored == 1
        warm.register_table("readings", readings_table, replace=True)
        assert len(warm.plan_cache) == 0  # eager invalidation dropped it


class TestSnapshotStore:
    def test_rotation_keeps_newest(self, tmp_path, readings_table):
        session = learned_session(readings_table)
        store = SnapshotStore(tmp_path / "checkpoints", keep=2)
        for _ in range(3):
            store.save(session)
        paths = store.paths()
        assert [path.name for path in paths] == [
            "snapshot-000002.json", "snapshot-000003.json"]
        assert store.latest() == paths[-1]
        assert len(store.load_latest().plans) == 1

    def test_second_store_continues_the_sequence(self, tmp_path,
                                                 readings_table):
        # A restarted session opens a new store on the same directory:
        # it numbers on from the files there, and rotation still keeps
        # the newest ``keep`` of them.
        session = learned_session(readings_table)
        first = SnapshotStore(tmp_path / "restarts", keep=3)
        paths = [first.save(session) for _ in range(2)]
        second = SnapshotStore(tmp_path / "restarts", keep=3)
        paths += [second.save(session) for _ in range(3)]
        assert [path.name for path in paths] == [
            f"snapshot-{sequence:06d}.json" for sequence in range(1, 6)]
        assert second.paths() == paths[-3:]
        assert first.latest() == second.latest() == paths[-1]

    def test_cumulative_checkpoints_do_not_double_count(self, tmp_path,
                                                        readings_table):
        # Successive checkpoints of one session are cumulative: a restart
        # warm-starts from the newest alone, so every observation counts
        # once however many checkpoints are retained.
        session = learned_session(readings_table)
        store = SnapshotStore(tmp_path / "one-session")
        store.save(session)
        session.sql(MISESTIMATED_QUERY)  # a little more traffic
        store.save(session)
        assert len(store.paths()) == 2
        warm = RavenSession(warm_start=store.load_latest())
        assert warm.feedback.export_state() == session.feedback.export_state()

    def test_load_latest_skips_corrupt_checkpoints(self, tmp_path,
                                                   readings_table):
        store = SnapshotStore(tmp_path / "torn")
        good = store.save(learned_session(readings_table))
        torn = good.with_name(good.name.replace("-000001", "-000002"))
        torn.write_text("{half a json")  # writer killed mid-write
        other = good.with_name(good.name.replace("-000001", "-000003"))
        other.write_text(json.dumps({"format": "repro-snapshot-v0"}))
        assert store.latest() == other
        # Degraded to the newest readable checkpoint, not a crash.
        snapshot = store.load_latest()
        assert snapshot is not None and len(snapshot.plans) == 1

    def test_checkpoint_write_failure_never_fails_the_query(
            self, tmp_path, readings_table):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the directory should be")
        session = RavenSession()
        session.register_table("readings", readings_table)
        store = SnapshotStore(blocked / "sub")  # mkdir will raise OSError
        store.attach(session, every_reoptimizations=1)
        for _ in range(6):
            session.sql_with_stats(MISESTIMATED_QUERY)  # must not raise
        assert session.plan_cache.stats.reoptimizations >= 1
        assert store.paths() == []

    def test_load_latest_skips_non_dict_json(self, tmp_path, readings_table):
        store = SnapshotStore(tmp_path / "odd")
        good = store.save(learned_session(readings_table))
        bad = good.with_name(good.name.replace("-000001", "-000002"))
        bad.write_text("[]")  # valid JSON, wrong shape
        assert store.latest() == bad
        snapshot = store.load_latest()
        assert snapshot is not None and len(snapshot.plans) == 1

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "nothing")
        assert store.paths() == []
        assert store.latest() is None
        assert store.load_latest() is None

    def test_nothing_readable_loads_none(self, tmp_path):
        store = SnapshotStore(tmp_path / "unreadable")
        store.directory.mkdir()
        (store.directory / "snapshot-000001.json").write_text("{torn")
        (store.directory / "snapshot-000002.json").write_text("[]")
        assert len(store.paths()) == 2
        assert store.load_latest() is None

    def test_other_files_are_not_snapshots(self, tmp_path):
        # A torn write's scratch file and files of other names are
        # neither listed, nor numbered past, nor pruned.
        store = SnapshotStore(tmp_path / "mixed", keep=1)
        store.directory.mkdir()
        strays = [store.directory / name for name in (
            "snapshot-000009.json.tmp", "snapshot-7.json", "notes.txt")]
        for stray in strays:
            stray.write_text("{}")
        first = store.save(Snapshot())
        second = store.save(Snapshot())
        assert (first.name, second.name) == (
            "snapshot-000001.json", "snapshot-000002.json")
        assert store.paths() == [second]
        assert all(stray.exists() for stray in strays)

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, keep=0)

    def test_auto_checkpoint_every_reoptimization(self, tmp_path,
                                                  readings_table):
        session = RavenSession()
        session.register_table("readings", readings_table)
        store = SnapshotStore(tmp_path / "auto")
        store.attach(session, every_reoptimizations=1)
        # A checkpoint is written on the first profiled run where the
        # *replacement* plan shows no divergence — under timing noise the
        # conjunct-cost ranking can re-diverge for a round or two, so
        # loop until the checkpoint lands rather than until a cache hit.
        for _ in range(12):
            session.sql_with_stats(MISESTIMATED_QUERY)
            if store.paths():
                break
        assert session.plan_cache.stats.reoptimizations >= 1
        assert store.paths(), "re-optimization did not checkpoint"
        snapshot = store.load_latest()
        assert len(snapshot.plans) >= 1
        store.detach(session)

    def test_snapshot_of_empty_session(self, tmp_path):
        session = RavenSession()
        path = session.save_snapshot(tmp_path / "empty.json")
        warm = RavenSession(warm_start=path)
        assert len(warm.plan_cache) == 0


class TestSnapshotFormat:
    def test_unversioned_payloads_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            Snapshot.from_dict({"plans": []})
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(PersistError):
            Snapshot.load(path)
        with pytest.raises(PersistError):
            Snapshot.load(tmp_path / "missing.json")

    def test_malformed_plan_entries_are_dropped(self, readings_table):
        session = learned_session(readings_table)
        snapshot = session.snapshot()
        snapshot.plans[0]["plan"]["root"] = {"t": "mystery"}
        warm = RavenSession()
        warm.register_table("readings", readings_table)
        summary = warm.load_snapshot(snapshot)
        assert summary["plans_dropped"] == 1
        assert summary["plans_installed"] == 0

    def test_wrong_typed_payload_fields_never_crash_warm_start(
            self, readings_table):
        # Valid JSON, wrong shapes: dependencies as a list, params as a
        # string, a non-dict plan. Warm start must degrade, not raise.
        session = learned_session(readings_table)
        good = session.snapshot()
        for corruption in (
            {"dependencies": ["table:readings"]},
            {"params": "oops"},
            {"plan": 17},
        ):
            snapshot = Snapshot.from_dict(
                json.loads(json.dumps(good.to_dict())))
            snapshot.plans[0].update(corruption)
            warm = RavenSession(warm_start=snapshot)
            warm.register_table("readings", readings_table)
            result, stats = warm.sql_with_stats(MISESTIMATED_QUERY)
            assert result.num_rows >= 0  # session fully functional

    def test_parent_written_snapshot_keys_still_load(self, readings_table):
        # What the previous writer also emitted: the snapshot's origin and
        # ancestry, the feedback's per-model costs and a per-plan
        # fixed-point flag. The keys are ignored, nothing re-emits them,
        # and the warm first call is a cache hit matching the oracle.
        session = learned_session(readings_table)
        payload = json.loads(json.dumps(session.snapshot().to_dict()))
        assert "origin" not in payload and "ancestors" not in payload
        assert "models" not in payload["feedback"]
        assert all("fixed_point" not in plan for plan in payload["plans"])
        payload["origin"] = "0123456789ab"
        payload["ancestors"] = ["fedcba987654"]
        payload["feedback"]["models"] = {"risk": {
            "calls": 3, "rows": 300, "seconds": 0.03,
            "seconds_per_row_ewma": 1e-4}}
        for plan in payload["plans"]:
            plan["fixed_point"] = True

        warm = RavenSession(warm_start=Snapshot.from_dict(payload))
        warm.register_table("readings", readings_table)
        assert warm.plan_cache.stats.restored == 1
        result, stats = warm.sql_with_stats(MISESTIMATED_QUERY)
        assert stats.cache_hit
        assert warm.plan_cache.stats.reoptimizations == 0
        oracle = RavenSession(adaptive=False)
        oracle.register_table("readings", readings_table)
        assert tables_equal_bitwise(result, oracle.sql(MISESTIMATED_QUERY))
        rewritten = warm.snapshot().to_dict()
        assert "origin" not in rewritten and "ancestors" not in rewritten
        assert "models" not in rewritten["feedback"]
        assert all("fixed_point" not in plan for plan in rewritten["plans"])

    def test_install_plans_helper_reports_pending(self, readings_table):
        session = learned_session(readings_table)
        snapshot = session.snapshot()
        cache_session = RavenSession()  # nothing registered yet
        installed, pending, dropped = install_plans(
            cache_session.plan_cache, cache_session.catalog, snapshot.plans)
        assert (installed, dropped) == (0, 0)
        assert len(pending) == 1

    def test_table_digest_tracks_schema_and_pk(self, patients_table):
        catalog = Catalog()
        catalog.add_table("plain", patients_table)
        catalog.add_table("keyed", patients_table, primary_key=["id"])
        assert table_digest(catalog.table("plain")) \
            != table_digest(catalog.table("keyed"))

    def test_build_snapshot_skips_dropped_dependencies(self, readings_table):
        session = learned_session(readings_table)
        session.catalog.drop_table("readings")
        snapshot = build_snapshot(session)
        assert snapshot.plans == []  # entry's dependency vanished
