"""Morsel-driven scan fan-out: planning, one differential matrix, telemetry.

The contract under test is bit-for-bit equality with **one whole-plan
``Executor`` run** — the morsel pool may run any morsel on any worker,
over any physical layout, but the merged result (serial tail included)
must be exactly what a single executor produces over the concatenated
table.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.errors import DeadlineExceededError
from repro.learn import DecisionTreeClassifier, make_standard_pipeline
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    col,
    find_predict_nodes,
)
from repro.relational.executor import Executor, Morsel
from repro.relational.morsel import (
    MIN_MORSEL_ROWS,
    MorselExecutor,
    chunk_ranges,
    plan_morsels,
    split_serial_tail,
)
from repro.resilience import Deadline
from repro.storage.catalog import Catalog
from repro.storage.partition import Partition, PartitionedTable
from repro.storage.statistics import TableStats


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def make_events(n=60_000, buckets=6, seed=11) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        id=np.arange(n),
        bucket=np.repeat(np.arange(buckets), n // buckets).astype(np.int64),
        x=rng.normal(size=n),
        y=rng.uniform(0, 100, size=n),
    )


def make_session(dop, table=None, **kwargs) -> RavenSession:
    session = RavenSession(dop=dop, **kwargs)
    session.register_table("events", table if table is not None
                           else make_events(),
                           primary_key=["id"], partition_column="bucket")
    return session


# ---------------------------------------------------------------------------
# Morsel planning
# ---------------------------------------------------------------------------

class TestPlanMorsels:
    def test_partition_aligned_and_covering(self):
        morsels = plan_morsels([(0, 20_000), (1, 9_000), (3, 30_000)], dop=4)
        by_part = {}
        for m in morsels:
            by_part.setdefault(m.partition, []).append(m)
        assert set(by_part) == {0, 1, 3}
        for index, rows in [(0, 20_000), (1, 9_000), (3, 30_000)]:
            parts = sorted(by_part[index])
            assert parts[0].start == 0 and parts[-1].stop == rows
            for a, b in zip(parts, parts[1:]):
                assert a.stop == b.start  # contiguous, no overlap

    def test_zero_row_partitions_produce_no_morsels(self):
        morsels = plan_morsels([(0, 0), (1, 10_000), (2, 0)], dop=2)
        assert {m.partition for m in morsels} == {1}

    def test_floor_prevents_tiny_morsels(self):
        morsels = plan_morsels([(0, MIN_MORSEL_ROWS + 1)], dop=8)
        # Never more than ceil(rows / MIN_MORSEL_ROWS) morsels.
        assert len(morsels) <= 2

    def test_chunk_ranges_balance(self):
        # 100 rows in 4 chunks: equal ranges, not 30/30/30/10.
        assert chunk_ranges(100, 4) == \
            [(0, 25), (25, 50), (50, 75), (75, 100)]
        assert chunk_ranges(10, 3) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_ranges(2, 5) == [(0, 1), (1, 2)]
        assert chunk_ranges(0, 4) == [(0, 0)]

    def test_one_morsel_per_worker_over_one_partition(self):
        # An unpartitioned table at dop=4: four balanced morsels.
        assert plan_morsels([(0, 100_000)], dop=4) == [
            Morsel(0, 0, 25_000), Morsel(0, 25_000, 50_000),
            Morsel(0, 50_000, 75_000), Morsel(0, 75_000, 100_000)]
        # Partitions at most a worker's share stay whole; a larger one
        # is cut: 120k rows / 4 workers = 30k-row target.
        assert plan_morsels([(0, 20_000), (1, 70_000), (2, 30_000)],
                            dop=4) == [
            Morsel(0, 0, 20_000), Morsel(1, 0, 23_334),
            Morsel(1, 23_334, 46_668), Morsel(1, 46_668, 70_000),
            Morsel(2, 0, 30_000)]

    def test_single_worker_keeps_partitions_whole(self):
        # dop=1 has nobody to rebalance with: one morsel per partition,
        # so an unpartitioned table is a single whole-table morsel.
        assert plan_morsels([(0, 400_000)], dop=1) == [Morsel(0, 0, 400_000)]
        assert plan_morsels([(0, 50_000), (2, 90_000)], dop=1) == \
            [Morsel(0, 0, 50_000), Morsel(2, 0, 90_000)]

    def test_split_serial_tail(self):
        plan = Limit(Sort(Filter(Scan("fact"), col("fact.v").gt(0)),
                          [("fact.v", True)]), 3)
        tail, body = split_serial_tail(plan)
        assert [type(t).__name__ for t in tail] == ["Limit", "Sort"]
        assert isinstance(body, Filter)

    def test_invalid_dop(self):
        with pytest.raises(ValueError):
            MorselExecutor(Catalog(), dop=0)


class TestMorselRestriction:
    def test_scan_slices_one_partition(self):
        table = make_events(600, buckets=3)
        catalog = Catalog()
        catalog.add_table("events", table, partition_column="bucket")
        scan = Scan("events")
        executor = Executor(
            catalog, scan_restrictions={scan: Morsel(1, 50, 120)})
        out = executor.execute(scan)
        expected = catalog.table("events").data.partitions[1] \
            .table.slice(50, 120)
        # Scan qualifies output names with the table name; compare data.
        assert out.num_rows == expected.num_rows
        for qualified, bare in zip(out.column_names, expected.column_names):
            assert np.array_equal(out.array(qualified), expected.array(bare))


# ---------------------------------------------------------------------------
# The differential matrix: dop × physical layout × plan shape, every cell
# bit-for-bit against one whole-plan Executor run of the same plan.
# ---------------------------------------------------------------------------

EVENTS = make_events()
BUCKETS = Table.from_arrays(
    bucket=np.arange(6), weight=np.linspace(0.5, 3.0, 6),
    region=np.asarray(["n", "s", "e", "w", "n", "s"]))


def _layouts(spill_dir):
    """The events table in every physical layout (same rows, same order)."""
    spilled = PartitionedTable.from_table(EVENTS, "bucket")
    spilled.spill(spill_dir)
    return {
        "unpartitioned": PartitionedTable.from_table(EVENTS),
        "partition_column": PartitionedTable.from_table(EVENTS, "bucket"),
        "num_partitions": PartitionedTable.from_table(EVENTS,
                                                      num_partitions=5),
        "spilled": spilled,
    }


def _bucket_model():
    features = EVENTS.take(np.arange(0, EVENTS.num_rows, 15))
    labels = ((features.array("x") > 0.2)
              | (features.array("bucket") >= 4)).astype(int)
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=6, random_state=0),
        ["x", "y", "bucket"], [])
    pipeline.fit(features, labels)
    return pipeline


# -- plan-shaped inputs (the six result cases ported from the former DOP
# executor's suite, as hand-built plans over the matrix tables) ----------
def _filter_project_plan():
    return Project(Filter(Scan("events"), col("events.x").gt(0.0)),
                   [("x", col("events.x"))])


def _fact_dim_join_plan():
    return Join(Scan("events"), Scan("buckets"),
                ["events.bucket"], ["buckets.bucket"])


def _grouped_aggregate_plan():
    return Aggregate(Scan("events"), ["events.bucket"],
                     [AggregateSpec("n", "count"),
                      AggregateSpec("s", "sum", "events.x")])


def _global_aggregate_plan():
    return Aggregate(Scan("events"), [], [AggregateSpec("n", "count")])


def _sort_limit_plan():
    return Limit(Sort(Project(Scan("events"), [("x", col("events.x"))]),
                      [("x", True)]), 5)


def _self_join_plan():
    # The driven table is scanned twice: it must run as one serial
    # execution (restricting both scans to one morsel would drop the
    # b-side matches that live in other morsels of the partition).
    return Join(Filter(Scan("events", "a"), col("a.id").lt(200)),
                Filter(Scan("events", "b"), col("b.y").lt(1.0)),
                ["a.bucket"], ["b.bucket"])


PREDICT_QUERY = ("SELECT d.id, p.score FROM PREDICT(MODEL = m, "
                 "DATA = events AS d) WITH (score FLOAT) AS p "
                 "WHERE d.y < 60.0")

# shape -> (session kwargs, inputs); an input is SQL text or a plan builder.
SHAPES = {
    "filter_project": ({}, [
        "SELECT e.id, e.x FROM events AS e WHERE e.y < 37.0",
        _filter_project_plan,
    ]),
    "skip_hit": ({}, [
        "SELECT e.id, e.x FROM events AS e "
        "WHERE e.bucket = 3 AND e.y < 50.0",
    ]),
    "all_skipped": ({}, [
        "SELECT e.id, e.x FROM events AS e WHERE e.bucket > 99",
    ]),
    "global_aggregate_under_project": ({}, [
        "SELECT AVG(e.x) AS m, COUNT(*) AS c FROM events AS e "
        "WHERE e.y < 37.0",
        _global_aggregate_plan,
    ]),
    "group_order_limit": ({}, [
        "SELECT e.bucket, COUNT(*) AS c FROM events AS e WHERE e.y < 37.0 "
        "GROUP BY e.bucket ORDER BY bucket LIMIT 3",
        "SELECT e.id, e.x FROM events AS e WHERE e.x > 1.5 "
        "ORDER BY id LIMIT 40",
        # A subquery's aggregate / sort+limit is not the serial tail:
        # per-morsel groups or limits would not merge into its output.
        "SELECT s.bucket, s.c FROM (SELECT e.bucket AS bucket, "
        "COUNT(*) AS c FROM events AS e GROUP BY e.bucket) AS s "
        "WHERE s.c > 5",
        "SELECT s.id, b.weight FROM (SELECT e.id AS id, e.bucket AS bucket "
        "FROM events AS e ORDER BY id LIMIT 40) AS s "
        "JOIN buckets AS b ON s.bucket = b.bucket",
        _grouped_aggregate_plan,
        _sort_limit_plan,
    ]),
    "star_join": ({}, [
        "SELECT e.id, e.x, b.weight FROM events AS e JOIN buckets AS b "
        "ON e.bucket = b.bucket WHERE e.y < 37.0 AND b.region = 'n'",
        _fact_dim_join_plan,
        _self_join_plan,
    ]),
    "per_partition_predict": ({"strategy": "none"}, [PREDICT_QUERY]),
    "interpreted": ({"compile_expressions": False}, [
        "SELECT e.id, e.x + e.y AS s FROM events AS e WHERE e.x > 1.0",
        "SELECT e.bucket, COUNT(*) AS c, AVG(e.x) AS m FROM events AS e "
        "WHERE e.y < 37.0 GROUP BY e.bucket ORDER BY bucket",
    ]),
    "static": ({"adaptive": False}, [
        "SELECT e.id, e.x FROM events AS e WHERE e.bucket = 3 AND e.y < 50.0",
        "SELECT AVG(e.x) AS m, COUNT(*) AS c FROM events AS e "
        "WHERE e.y < 37.0",
    ]),
}
LAYOUTS = ["unpartitioned", "partition_column", "num_partitions", "spilled"]


def _morsels_executed(session: RavenSession) -> int:
    counters = session.telemetry.metrics.snapshot()["counters"]
    return counters.get("morsels_executed", 0)


class TestFanOutMatrix:
    @pytest.fixture(scope="class")
    def model(self):
        return _bucket_model()

    @pytest.fixture(scope="class")
    def layouts(self, tmp_path_factory):
        return _layouts(tmp_path_factory.mktemp("spill"))

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("layout", LAYOUTS)
    # 7 divides neither the rows nor the partition counts evenly.
    @pytest.mark.parametrize("dop", [1, 2, 4, 7])
    def test_cell_equals_whole_plan_run(self, dop, layout, shape, model,
                                        layouts):
        kwargs, inputs = SHAPES[shape]
        session = RavenSession(dop=dop, **kwargs)
        session.register_table("events", layouts[layout],
                               primary_key=["id"])
        session.register_table("buckets", BUCKETS, primary_key=["bucket"])
        session.register_model("m", model)
        for item in inputs:
            if isinstance(item, str):
                plan, _ = session.optimize(item)
                actual = session.sql(item)
            else:
                plan = item()
                before = _morsels_executed(session)
                actual = session.execute_plan(plan)
                if item is _self_join_plan:
                    assert _morsels_executed(session) == before
            # The oracle: one compiled whole-plan Executor over the
            # concatenated table (global model, no fan-out, no skipping).
            expected = Executor(session.catalog,
                                session.runtime.for_call()).execute(plan)
            assert tables_equal_bitwise(actual, expected), (shape, item)
            if shape == "all_skipped":
                assert actual.num_rows == 0
                assert actual.column_names == ["id", "x"]
            if shape == "per_partition_predict" and layout != "unpartitioned":
                (predict,) = find_predict_nodes(plan)
                assert predict.per_partition_graphs is not None

    def test_empty_partitions_in_layout(self):
        base = make_events(6_000, buckets=3)
        parts = []
        for part in PartitionedTable.from_table(base, "bucket").partitions:
            parts.append(part)
            empty = part.table.slice(0, 0)
            parts.append(Partition(table=empty,
                                   stats=TableStats.collect(empty),
                                   key=f"{part.key}-empty"))
        layout = PartitionedTable(parts, partition_column="bucket")
        serial = RavenSession(dop=1)
        serial.register_table("events", layout)
        parallel = RavenSession(dop=4)
        parallel.register_table("events", layout)
        for _, inputs in SHAPES.values():
            for query in inputs:
                if isinstance(query, str) and "PREDICT" not in query \
                        and "buckets" not in query:
                    assert tables_equal_bitwise(serial.sql(query),
                                                parallel.sql(query)), query


# ---------------------------------------------------------------------------
# One execution context: the serial tail is observed and bounded
# ---------------------------------------------------------------------------

TAIL_QUERY = ("SELECT e.bucket, COUNT(*) AS c, AVG(e.x) AS m "
              "FROM events AS e WHERE e.y < 37.0 "
              "GROUP BY e.bucket ORDER BY bucket")


def _observed_rows(session: RavenSession):
    _, stats = session.sql_with_stats(TAIL_QUERY)
    return [(p.operator, p.rows_in, p.rows_out)
            for p in stats.operator_profiles.walk()]


class TestSerialTailContext:
    @pytest.mark.parametrize("partition_column", [None, "bucket"])
    def test_tail_operators_observed_like_dop1(self, partition_column):
        observed = {}
        for dop in (1, 4):
            session = RavenSession(dop=dop)
            session.register_table("events", EVENTS,
                                   partition_column=partition_column)
            observed[dop] = _observed_rows(session)
            text = session.explain(TAIL_QUERY, analyze=True)
            assert "0->0 rows" not in text
        assert observed[4] == observed[1]
        tail = [row for row in observed[4]
                if row[0].startswith(("Sort", "Project", "Aggregate"))]
        assert len(tail) == 3 and all(rows_in > 0 for _, rows_in, _ in tail)

    def test_deadline_fires_in_tail_operator(self, monkeypatch):
        # The clock jumps past the expiry right after the fan-out, so the
        # first check that can fire is a serial-tail operator's.
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        fan_out = MorselExecutor._run_morsels

        def expire_after_fan_out(self, *args):
            pieces = fan_out(self, *args)
            now[0] = 5.0
            return pieces

        monkeypatch.setattr(MorselExecutor, "_run_morsels",
                            expire_after_fan_out)
        session = make_session(dop=4)
        with pytest.raises(DeadlineExceededError) as raised:
            session.sql(TAIL_QUERY, deadline=deadline)
        assert raised.value.where.startswith("operator Sort")

    def test_tail_operators_traced_under_execute_span(self):
        session = make_session(dop=4, telemetry=True)
        session.sql(TAIL_QUERY)
        names = [s.name for s in session.telemetry.tracer.last().spans()]
        assert {"Sort", "Aggregate", "Materialized", "scan.morsel"} \
            <= set(names)

    def test_per_partition_models_run_on_several_workers(self):
        session = make_session(dop=4, telemetry=True, strategy="none")
        session.register_model("m", _bucket_model())
        plan, _ = session.optimize(PREDICT_QUERY)
        (predict,) = find_predict_nodes(plan)
        assert len(predict.per_partition_graphs) == 6
        # The first predict call waits for a second worker to arrive, so
        # a fan-out always shows two threads (a serial per-partition
        # loop would time out here and fail the thread-id check below).
        seen, overlapped = set(), threading.Event()
        run_batched = session.runtime.run_graph_batched

        def gated(*args, **kwargs):
            seen.add(threading.get_ident())
            if len(seen) > 1:
                overlapped.set()
            overlapped.wait(timeout=10)
            return run_batched(*args, **kwargs)

        session.runtime.run_graph_batched = gated
        actual = session.sql(PREDICT_QUERY)
        morsels = [s for s in session.telemetry.tracer.last().spans()
                   if s.name == "scan.morsel"]
        assert {s.attributes["partition"] for s in morsels} == set(range(6))
        assert len({s.thread_id for s in morsels}) > 1
        serial = make_session(dop=1, strategy="none")
        serial.register_model("m", _bucket_model())
        assert tables_equal_bitwise(actual, serial.sql(PREDICT_QUERY))


# ---------------------------------------------------------------------------
# Runtime zone-map skipping and telemetry
# ---------------------------------------------------------------------------

class TestRuntimeSkipping:
    def test_pruned_partitions_are_counted(self):
        session = make_session(dop=4)
        session.sql("SELECT e.id FROM events AS e WHERE e.bucket = 2")
        counters = session.telemetry.metrics.snapshot()["counters"]
        assert counters.get("partitions_skipped") == 5
        assert counters.get("morsels_executed", 0) >= 1

    def test_all_partitions_skipped_yields_typed_empty(self):
        session = make_session(dop=4)
        out = session.sql("SELECT e.id, e.x FROM events AS e "
                          "WHERE e.bucket > 99")
        assert out.num_rows == 0
        assert out.column_names == ["id", "x"]
        counters = session.telemetry.metrics.snapshot()["counters"]
        assert counters.get("partitions_skipped") == 6
        assert counters.get("morsels_executed", 0) == 0

    def test_morsel_spans_under_tracing(self):
        session = make_session(dop=4, telemetry=True)
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 37.0")
        trace = session.telemetry.tracer.last()
        spans = [s for s in trace.spans() if s.name == "scan.morsel"]
        assert spans, "no scan.morsel spans recorded"
        assert all(s.attributes["table"] == "events" for s in spans)
        assert {s.attributes["partition"] for s in spans} == set(range(6))


# ---------------------------------------------------------------------------
# Skew-aware scheduling
# ---------------------------------------------------------------------------

class TestSelfJoinPruning:
    """Partition restrictions and the driven morsel belong to one
    ``Scan`` node: a self-join filtered on one alias must not prune the
    other alias's scan, and an alias reused by two subqueries (or CTEs)
    names two scans, possibly of different tables."""

    FILTERS = {
        "a_only": "a.g = 0",            # parent: 0 rows (b pruned to g=0)
        "b_only": "b.g = 3",
        "both": "a.g = 0 AND b.g = 2",  # a.k in [0,250) matches b.m in g=2
    }

    @pytest.mark.parametrize("dop", [1, 4])
    @pytest.mark.parametrize("filtered", sorted(FILTERS))
    def test_each_alias_prunes_only_its_own_scan(self, filtered, dop):
        k = np.arange(1000)
        table = Table.from_arrays(k=k, m=(k + 500) % 1000, g=k // 250,
                                  v=k.astype(np.float64))
        query = ("SELECT a.k, b.v FROM t AS a JOIN t AS b ON a.k = b.m "
                 f"WHERE {self.FILTERS[filtered]}")
        flat = RavenSession()
        flat.register_table("t", table)
        expected = flat.sql(query)
        assert expected.num_rows == 250
        partitioned = RavenSession(dop=dop)
        partitioned.register_table("t", table, partition_column="g")
        assert tables_equal_bitwise(expected, partitioned.sql(query))
        counters = partitioned.telemetry.metrics.snapshot()["counters"]
        assert counters["partitions_skipped"] == \
            3 * (2 if filtered == "both" else 1)

    REUSED = {
        "subquery": "SELECT p.k, q.v FROM "
                    "(SELECT x.k AS k FROM t1 AS x{where}) AS p JOIN "
                    "(SELECT x.k AS k, x.v AS v FROM t2 AS x) AS q "
                    "ON p.k = q.k",
        "cte": "WITH p AS (SELECT x.k AS k FROM t1 AS x{where}), "
               "q AS (SELECT x.k AS k, x.v AS v FROM t2 AS x) "
               "SELECT p.k, q.v FROM p JOIN q ON p.k = q.k",
    }

    @pytest.mark.parametrize("dop", [1, 4])
    @pytest.mark.parametrize("t2_partitioned", [True, False])
    @pytest.mark.parametrize("where", ["", " WHERE x.g = 0"])
    @pytest.mark.parametrize("spelling", sorted(REUSED))
    def test_alias_reused_across_subqueries(self, spelling, where,
                                            t2_partitioned, dop):
        k = np.arange(1000)
        t1 = Table.from_arrays(k=k, g=k // 250)
        t2 = Table.from_arrays(k=k[::-1].copy(), g=k // 500,
                               v=k.astype(np.float64))
        query = self.REUSED[spelling].format(where=where)
        flat = RavenSession()
        flat.register_table("t1", t1)
        flat.register_table("t2", t2)
        expected = flat.sql(query)
        assert expected.num_rows == (250 if where else 1000)
        partitioned = RavenSession(dop=dop)
        partitioned.register_table("t1", t1, partition_column="g")
        partitioned.register_table(
            "t2", t2, partition_column="g" if t2_partitioned else None)
        assert tables_equal_bitwise(expected, partitioned.sql(query))

    @pytest.mark.parametrize("dop", [1, 4])
    def test_cte_referenced_twice(self, dop):
        k = np.arange(1000)
        table = Table.from_arrays(k=k, m=(k + 500) % 1000, g=k // 250,
                                  v=k.astype(np.float64))
        query = ("WITH c AS (SELECT x.k AS k, x.m AS m, x.g AS g, x.v AS v "
                 "FROM t AS x) SELECT a.k, b.v FROM c AS a JOIN c AS b "
                 "ON a.k = b.m WHERE a.g = 0")
        flat = RavenSession()
        flat.register_table("t", table)
        expected = flat.sql(query)
        assert expected.num_rows == 250
        partitioned = RavenSession(dop=dop)
        partitioned.register_table("t", table, partition_column="g")
        assert tables_equal_bitwise(expected, partitioned.sql(query))


class TestScheduling:
    def test_warm_feedback_orders_by_observed_cost(self):
        session = make_session(dop=2)
        query = "SELECT e.id FROM events AS e WHERE e.y < 37.0"
        session.sql(query)  # cold: records per-partition observations
        catalog = session.catalog
        executor = MorselExecutor(catalog, dop=2,
                                  feedback=session.feedback)
        target = Scan("events", alias="e", columns=["id", "y"])
        fingerprint = executor._scan_fingerprint(target)
        warm = [session.feedback.partition_seconds_per_row(fingerprint, p)
                for p in range(6)]
        assert all(v is not None and v >= 0.0 for v in warm)

    def test_cold_schedule_is_deterministic_lpt(self):
        catalog = Catalog()
        catalog.add_table("events", make_events(6_000),
                          partition_column="bucket")
        executor = MorselExecutor(catalog, dop=2)
        morsels = [Morsel(0, 0, 100), Morsel(1, 0, 500), Morsel(2, 0, 500),
                   Morsel(3, 0, 50)]
        out = executor._schedule(list(morsels), Scan("events"))
        assert out == [Morsel(1, 0, 500), Morsel(2, 0, 500),
                       Morsel(0, 0, 100), Morsel(3, 0, 50)]
