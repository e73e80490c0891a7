"""Join key indexes: a star join probes its dimensions through the catalog.

A ``MultiJoin`` step into a scanned table (filtered or not) on one integer
key probes that table's cached key index (:mod:`repro.storage.key_index`)
instead of sorting and binary-searching it per query. The written binary
``Join`` tree of ``RavenSession(enable_optimizations=False)`` never takes
the index, so it is the reference here: every case must equal it bit for
bit, and must equal the same plan run with the index disabled.
"""

from __future__ import annotations

import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RavenSession, Table
from repro.adaptive import PlanProfiler
from repro.adaptive.profile import (
    join_edge_fingerprint,
    join_step_fingerprint,
    join_step_fingerprints,
    plan_fingerprint,
)
from repro.adaptive.reopt import apply_feedback, feedback_divergence
from repro.core.parser import parse
from repro.errors import InjectedFaultError
from repro.relational.executor import Executor
from repro.relational.logical import MultiJoin, transform_plan, walk
from repro.resilience import FaultInjector, RetryPolicy
from repro.storage import catalog as catalog_module
from repro.storage.column import Column
from repro.storage.key_index import (
    POSITION_DENSITY,
    PositionIndex,
    SortedIndex,
    build_key_index,
)
from repro.storage.mmap_column import MmapColumn
from repro.storage.partition import PartitionedTable


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def index_disabled():
    """Every MultiJoin step takes the sorted probe."""
    return mock.patch.object(Executor, "_probe_through_index",
                             return_value=None)


def probe_kinds(session, plan):
    """How each MultiJoin step of ``plan`` probed, in step order."""
    record = PlanProfiler()
    Executor(session.catalog, record=record).execute(plan)
    return [step.probe for profile in record.profile_tree(plan).walk()
            for step in profile.joins]


def with_order(plan, order=None, order_insensitive=False):
    return transform_plan(plan, lambda node: MultiJoin(
        node.inputs, node.edges, order, order_insensitive=order_insensitive)
        if isinstance(node, MultiJoin) else None)


# ---------------------------------------------------------------------------
# Key shapes: which index the data gets decides the probe
# ---------------------------------------------------------------------------

#: shape -> the index kind its (non-empty) keys get.
KEY_SHAPES = {
    "dense": "position",
    "under_bound": "position",
    "over_bound": "sorted",
    "duplicates": "sorted",
    "negative": "sorted",
}


def dimension_keys(shape: str, rows: int, rng) -> np.ndarray:
    """``rows`` keys of the given shape, in random row order."""
    if shape == "dense":
        keys = np.arange(rows)
    elif shape in ("under_bound", "over_bound"):
        # Unique keys whose maximum sits just under / at the bound.
        top = POSITION_DENSITY * rows - (shape == "under_bound")
        keys = np.append(rng.choice(top, rows - 1, replace=False), top)
    elif shape == "duplicates":
        keys = rng.integers(0, max(rows // 2, 1), rows)
        if rows > 1:
            keys[-1] = keys[0]
    else:
        keys = np.arange(rows) - rows // 2 - 1
    return rng.permutation(keys).astype(np.int64)


class TestKeyIndexBuild:
    @pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
    def test_shape_picks_the_index(self, shape, rng):
        index = build_key_index([Column.ints(dimension_keys(shape, 40, rng))])
        assert index.kind == KEY_SHAPES[shape]

    def test_empty_table_gets_an_index_that_never_matches(self):
        index = build_key_index([Column.ints([])])
        probe_idx, rows = index.probe(np.arange(-2, 5, dtype=np.int64))
        assert len(probe_idx) == len(rows) == 0

    def test_uniqueness_is_read_from_the_data(self):
        dense_with_repeat = np.array([3, 0, 1, 2, 1], dtype=np.int64)
        index = build_key_index([Column.ints(dense_with_repeat)])
        assert isinstance(index, SortedIndex) and not index.unique

    def test_float_and_string_keys_get_no_index(self):
        assert build_key_index([Column.floats([0.0, 1.0, np.nan])]) is None
        coded = Table.from_arrays(s=np.array(["a", "b"])).encoded()
        assert build_key_index([coded.column("s")]) is None

    def test_partitions_concatenate_in_order(self):
        index = build_key_index([Column.ints([2, 0]), Column.ints([1])])
        assert isinstance(index, PositionIndex)
        assert index.positions[:3].tolist() == [1, 2, 0]

    @given(shape=st.sampled_from(sorted(KEY_SHAPES)),
           rows=st.integers(1, 30), seed=st.integers(0, 2**16),
           probes=st.lists(st.integers(-40, 160), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_probe_matches_nested_loop(self, shape, rows, seed, probes):
        keys = dimension_keys(shape, rows, np.random.default_rng(seed))
        probe_keys = np.asarray(probes, dtype=np.int64)
        probe_idx, matched = build_key_index([Column.ints(keys)]).probe(
            probe_keys)
        expected = [(i, row) for i, key in enumerate(probe_keys)
                    for row in range(rows) if keys[row] == key]
        assert list(zip(probe_idx.tolist(), matched.tolist())) == expected

    @given(keys=st.lists(st.one_of(
               st.integers(-2**63, 2**63 - 1),
               st.integers(-3, 3),
               st.integers(10**12, 10**12 + 40)), min_size=1, max_size=40),
           extra=st.lists(st.integers(-2**63, 2**63 - 1), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_probe_over_any_int64_keys(self, keys, extra):
        # Wide spans, clusters, and the int64 extremes next to keys the
        # position index's unsigned clamp must send to its sentinel.
        keys = np.asarray(keys, dtype=np.int64)
        with np.errstate(over="ignore"):
            probe_keys = np.concatenate([keys, keys + 1, keys - 1,
                                         np.asarray(extra, dtype=np.int64)])
        probe_idx, matched = build_key_index([Column.ints(keys)]).probe(
            probe_keys)
        expected = [(i, row) for i, key in enumerate(probe_keys)
                    for row in range(len(keys)) if keys[row] == key]
        assert list(zip(probe_idx.tolist(), matched.tolist())) == expected


# ---------------------------------------------------------------------------
# The differential: index == index disabled == the written tree
# ---------------------------------------------------------------------------

STAR = ("SELECT f.v, d.dv, e.ev FROM f JOIN d ON f.k = d.k "
        "JOIN e ON f.j = e.j")
FILTERED_STAR = STAR + " WHERE d.dv > 0.0"
GROUPED = ("SELECT e.g, COUNT(*) AS n, MIN(f.v) AS lo, MAX(d.dv) AS hi "
           "FROM f JOIN d ON f.k = d.k JOIN e ON f.j = e.j GROUP BY e.g")


def star_tables(keys: np.ndarray, seed: int, fact_rows: int = 60):
    rng = np.random.default_rng(seed)
    span = int(np.abs(keys).max(initial=0)) + 3
    fact = Table.from_arrays(
        k=rng.integers(-span, span + 1, fact_rows),  # some keys absent
        j=rng.integers(0, 7, fact_rows),
        v=rng.normal(0, 1, fact_rows))
    dim = Table.from_arrays(k=keys, dv=rng.normal(0, 1, len(keys)))
    # A second, dense dimension for the other star step.
    other = Table.from_arrays(j=rng.permutation(6),
                              ev=rng.normal(0, 1, 6),
                              g=rng.integers(0, 3, 6))
    return {"f": fact, "d": dim, "e": other}


def sessions_for(tables):
    """(oracle running the written tree, optimized static session)."""
    oracle = RavenSession(enable_optimizations=False)
    optimized = RavenSession(adaptive=False)
    for session in (oracle, optimized):
        for name, table in tables.items():
            session.register_table(name, table)
    return oracle, optimized


def assert_all_paths_match(oracle, optimized, query, order=None,
                           order_insensitive=False):
    expected = oracle.sql(query)
    plan = with_order(optimized.optimize(query)[0], order, order_insensitive)
    actual = optimized.execute_plan(plan)
    with index_disabled():
        unindexed = optimized.execute_plan(plan)
    assert tables_equal_bitwise(expected, actual)
    assert tables_equal_bitwise(expected, unindexed)
    return plan


class TestIndexDifferential:
    @given(shape=st.sampled_from(sorted(KEY_SHAPES) + ["empty"]),
           rows=st.integers(2, 40), seed=st.integers(0, 2**16),
           query=st.sampled_from([STAR, FILTERED_STAR]),
           order=st.sampled_from([None, [0, 2, 1], [2, 0, 1]]))
    @settings(max_examples=40, deadline=None)
    def test_star_matches_the_written_tree(self, shape, rows, seed, query,
                                           order):
        rows = 0 if shape == "empty" else rows
        keys = dimension_keys(shape, rows, np.random.default_rng(seed))
        oracle, optimized = sessions_for(star_tables(keys, seed))
        plan = assert_all_paths_match(oracle, optimized, query, order)
        kinds = probe_kinds(optimized, plan)
        if order is None:  # text order: both steps probe a dimension
            expected_kind = KEY_SHAPES.get(shape, "position")
            assert kinds == [expected_kind, "position"]
        else:
            assert "probe" not in kinds[1:]

    @given(shape=st.sampled_from(sorted(KEY_SHAPES)),
           rows=st.integers(1, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_order_insensitive_region(self, shape, rows, seed):
        keys = dimension_keys(shape, rows, np.random.default_rng(seed))
        oracle, optimized = sessions_for(star_tables(keys, seed))
        for order in (None, [0, 2, 1]):
            plan = assert_all_paths_match(oracle, optimized, GROUPED, order,
                                          order_insensitive=True)
            (region,) = [n for n in walk(plan) if isinstance(n, MultiJoin)]
            assert region.order_insensitive

    def test_float_and_string_keys_take_the_sorted_probe(self, rng):
        tables = {
            "f": Table.from_arrays(
                x=rng.integers(0, 6, 50).astype(np.float64),
                s=rng.choice(["a", "b", "c", "q"], 50),
                v=rng.normal(0, 1, 50)),
            "d": Table.from_arrays(x=np.array([0.0, 1.0, 2.0, np.nan, 5.0]),
                                   dv=rng.normal(0, 1, 5)),
            "e": Table.from_arrays(s=np.array(["c", "a", "b", "b"]),
                                   ev=rng.normal(0, 1, 4)),
        }
        oracle, optimized = sessions_for(tables)
        for query in ("SELECT f.v, d.dv FROM f JOIN d ON f.x = d.x",
                      "SELECT f.v, e.ev FROM f JOIN e ON f.s = e.s"):
            plan = assert_all_paths_match(oracle, optimized, query)
            assert probe_kinds(optimized, plan) == ["probe"]

    def test_multi_key_step_takes_the_sorted_probe(self, rng):
        tables = {
            "f": Table.from_arrays(a=rng.integers(0, 4, 40),
                                   b=rng.integers(0, 4, 40)),
            "d": Table.from_arrays(a=np.repeat(np.arange(4), 4),
                                   b=np.tile(np.arange(4), 4),
                                   dv=rng.normal(0, 1, 16)),
        }
        oracle, optimized = sessions_for(tables)
        plan = assert_all_paths_match(
            oracle, optimized,
            "SELECT f.a, d.dv FROM f JOIN d ON f.a = d.a AND f.b = d.b")
        assert probe_kinds(optimized, plan) == ["probe"]


# ---------------------------------------------------------------------------
# Lifetime: an index lives and dies with its catalog entry
# ---------------------------------------------------------------------------

class TestIndexLifetime:
    def _tables(self, seed):
        return star_tables(np.random.default_rng(seed).permutation(30),
                           seed=3)

    def test_replace_gives_new_results(self):
        first, second = self._tables(1), self._tables(2)
        oracle, optimized = sessions_for(first)
        before = optimized.sql(STAR)
        old_entry = optimized.catalog.table("d")
        assert set(old_entry.key_indexes) == {"k"}
        for session in (oracle, optimized):
            session.register_table("d", second["d"], replace=True)
        after = optimized.sql(STAR)
        new_entry = optimized.catalog.table("d")
        assert new_entry is not old_entry
        assert new_entry.key_indexes["k"] is not old_entry.key_indexes["k"]
        assert not tables_equal_bitwise(before, after)
        assert tables_equal_bitwise(oracle.sql(STAR), after)

    def test_drop_and_re_add_gives_new_results(self):
        first, second = self._tables(1), self._tables(2)
        oracle, optimized = sessions_for(first)
        before = optimized.sql(STAR)
        for session in (oracle, optimized):
            session.catalog.drop_table("d")
            session.register_table("d", second["d"])
        after = optimized.sql(STAR)
        assert not tables_equal_bitwise(before, after)
        assert tables_equal_bitwise(oracle.sql(STAR), after)

    @pytest.mark.parametrize("query", [STAR, FILTERED_STAR])
    def test_spilled_dimension_matches_the_oracle(self, tmp_path, query):
        oracle, optimized = sessions_for(self._tables(4))
        assert tables_equal_bitwise(oracle.sql(query), optimized.sql(query))
        # Spilled after its index was built, and spilled with none yet.
        optimized.spill_table("d", tmp_path / "d")
        optimized.spill_table("e", tmp_path / "e")
        column = optimized.catalog.table("d").data.partitions[0].table \
            .column("k")
        assert isinstance(column, MmapColumn)
        plan = assert_all_paths_match(oracle, optimized, query)
        assert probe_kinds(optimized, plan) == ["position", "position"]

    def test_partitioned_dimension_matches_the_oracle(self):
        tables = self._tables(5)
        tables["d"] = PartitionedTable.from_table(tables["d"],
                                                  num_partitions=3)
        tables["e"] = PartitionedTable.from_table(tables["e"],
                                                  num_partitions=2)
        oracle, optimized = sessions_for(tables)
        for query in (STAR, FILTERED_STAR, GROUPED):
            plan = assert_all_paths_match(oracle, optimized, query)
            assert probe_kinds(optimized, plan) == ["position", "position"]

    def test_dimension_partitioned_by_a_column_matches_the_oracle(self):
        tables = self._tables(6)
        oracle, optimized = RavenSession(enable_optimizations=False), \
            RavenSession(adaptive=False, dop=2)
        for session in (oracle, optimized):
            for name, table in tables.items():
                session.register_table(
                    name, table,
                    partition_column="g" if name == "e" else None)
        for query in (STAR, STAR + " WHERE e.g = 1", GROUPED):
            assert_all_paths_match(oracle, optimized, query)


# ---------------------------------------------------------------------------
# Concurrency and injected faults
# ---------------------------------------------------------------------------

class TestIndexConcurrency:
    def test_serve_matches_serial_and_stores_one_index(self, rng):
        tables = star_tables(rng.permutation(500), seed=8, fact_rows=3_000)
        served = RavenSession()
        serial = RavenSession()
        for session in (served, serial):
            for name, table in tables.items():
                session.register_table(name, table)
        queries = [STAR + f" WHERE d.dv > {threshold}"
                   for threshold in (-1.0, -0.5, 0.0, 0.5)] * 4 + [GROUPED]
        for outcome, query in zip(served.serve(queries, workers=4), queries):
            assert tables_equal_bitwise(outcome.result(), serial.sql(query))
        assert set(served.catalog.table("d").key_indexes) == {"k"}
        assert set(served.catalog.table("e").key_indexes) == {"j"}

    def test_first_joins_racing_publish_one_copy(self, monkeypatch, rng):
        # More threads than cores, a tiny switch interval and a slow
        # build, so first lookups miss together: every caller must get
        # the one stored index.
        catalog = RavenSession().catalog
        entries = [catalog.add_table(f"t{i}", Table.from_arrays(
            k=rng.permutation(200))) for i in range(3)]
        original = catalog_module.build_key_index

        def slow_build(partitions):
            time.sleep(0.001)
            return original(partitions)

        monkeypatch.setattr(catalog_module, "build_key_index", slow_build)
        seen = {index: set() for index in range(len(entries))}
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait(timeout=10)
                local = np.random.default_rng(seed)
                for _ in range(200):
                    index = int(local.integers(len(entries)))
                    seen[index].add(
                        id(catalog.key_index(entries[index], "k")))
            except BaseException as error:  # surfaced by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(len(ids) == 1 for ids in seen.values())
        for index, entry in enumerate(entries):
            assert id(entry.key_indexes["k"]) in seen[index]


@pytest.mark.chaos
class TestIndexChaos:
    def test_operator_faults_retry_bit_for_bit(self, rng):
        tables = star_tables(rng.permutation(400), seed=9, fact_rows=2_000)
        oracle = RavenSession(enable_optimizations=False)
        faults = FaultInjector(seed=34)
        faults.inject("executor.operator", probability=0.1)
        chaotic = RavenSession(faults=faults)
        for session in (oracle, chaotic):
            for name, table in tables.items():
                session.register_table(name, table)
        queries = [STAR, FILTERED_STAR, GROUPED] * 8
        retry = RetryPolicy(max_attempts=8, base_delay=0.0005,
                            max_delay=0.001, seed=34)
        outcomes = chaotic.serve(queries, workers=1, retry=retry)
        assert faults.fires("executor.operator") > 0
        assert any(o.ok and o.attempts > 1 for o in outcomes)
        for query, outcome in zip(queries, outcomes):
            if outcome.ok:
                assert tables_equal_bitwise(oracle.sql(query), outcome.table)
            else:
                assert isinstance(outcome.error, InjectedFaultError)


# ---------------------------------------------------------------------------
# Observation: index steps are recorded like every other step
# ---------------------------------------------------------------------------

REORDER_QUERY = """
SELECT f.fv, p.pv, s.sv
FROM fact AS f
JOIN profiles AS p ON f.uid = p.uid
JOIN segments AS s ON f.sid = s.sid
"""


def misestimated_star(rng, n=4_000):
    """fact-profiles is 1:1; only ~2% of fact.sid exist in segments —
    invisible to statistics, obvious after one profiled execution."""
    return {
        "fact": Table.from_arrays(uid=rng.permutation(n),
                                  sid=rng.integers(0, 50 * n, n),
                                  fv=rng.normal(0, 1, n)),
        "profiles": Table.from_arrays(uid=np.arange(n),
                                      pv=rng.normal(0, 1, n)),
        "segments": Table.from_arrays(
            sid=rng.choice(50 * n, n, replace=False),
            sv=rng.normal(0, 1, n)),
    }


def adaptive_session(tables):
    session = RavenSession(adaptive=True)
    for name, table in tables.items():
        session.register_table(name, table)
    return session


class TestIndexStepObservation:
    def _steps(self, session):
        _, stats = session.sql_with_stats(REORDER_QUERY)
        return [step for profile in stats.operator_profiles.walk()
                for step in profile.joins]

    def test_step_rows_equal_the_sorted_probe_run(self, rng):
        tables = misestimated_star(rng)
        indexed = self._steps(adaptive_session(tables))
        with index_disabled():
            probed = self._steps(adaptive_session(tables))
        assert [step.probe for step in indexed] == ["position", "sorted"]
        assert [step.probe for step in probed] == ["probe", "probe"]
        for mine, theirs in zip(indexed, probed):
            assert (mine.detail, mine.fingerprint, mine.calls,
                    mine.rows_left, mine.rows_right, mine.rows_out) == \
                (theirs.detail, theirs.fingerprint, theirs.calls,
                 theirs.rows_left, theirs.rows_right, theirs.rows_out)

    def test_feedback_keeps_join_steps_and_reorders(self, rng):
        tables = misestimated_star(rng)
        session = adaptive_session(tables)
        static = RavenSession(adaptive=False)
        for name, table in tables.items():
            static.register_table(name, table)
        steps = self._steps(session)
        for step in steps:
            observed = session.feedback.observed(step.fingerprint)
            assert observed.operator.startswith("joinstep:")
        for _ in range(3):
            actual = session.sql(REORDER_QUERY)
        assert session.plan_cache.stats.reoptimizations >= 1
        (region,) = [node for node in walk(session.optimize(REORDER_QUERY)[0])
                     if isinstance(node, MultiJoin)]
        assert region.order == [0, 2, 1]
        assert tables_equal_bitwise(static.sql(REORDER_QUERY), actual)
        assert [step.probe for step in self._steps(session)] == \
            ["sorted", "position"]

    def test_explain_analyze_shows_the_probe_kind(self, rng):
        session = adaptive_session(misestimated_star(rng))
        text = session.explain(REORDER_QUERY, analyze=True)
        assert "rows position " in text and "rows sorted " in text


class TestWarmBookkeeping:
    """The staleness check decides without rebuilding the plan, and
    decides exactly what :func:`apply_feedback` decides."""

    QUERIES = [
        REORDER_QUERY,
        REORDER_QUERY + " WHERE f.fv > -1.0 AND p.pv < 1.5",
        "SELECT s.sid, COUNT(*) AS n FROM fact AS f "
        "JOIN profiles AS p ON f.uid = p.uid "
        "JOIN segments AS s ON f.sid = s.sid GROUP BY s.sid",
    ]

    def test_divergence_agrees_with_apply_feedback(self, rng):
        session = adaptive_session(misestimated_star(rng))
        store, catalog = session.feedback, session.catalog
        checked = set()
        for _ in range(4):
            for query in self.QUERIES:
                session.sql(query)
                plans = [session.optimize(query)[0],
                         session._optimize_stmt(parse(query),
                                                static=True)[0]]
                for plan in plans:
                    for variant in (plan, with_order(plan),
                                    with_order(plan, order_insensitive=True)):
                        changed = apply_feedback(variant, store, catalog)[1]
                        assert feedback_divergence(
                            variant, store, catalog) == changed
                        checked.add(changed)
        assert checked == {True, False}

    def test_step_fingerprints_are_cached_on_the_region(self):
        session = adaptive_session(
            misestimated_star(np.random.default_rng(1), n=50))
        (region,) = [node for node in walk(session.optimize(REORDER_QUERY)[0])
                     if isinstance(node, MultiJoin)]
        leaf_fps = [plan_fingerprint(leaf) for leaf in region.inputs]
        joined = frozenset({0})
        expected = join_edge_fingerprint(leaf_fps,
                                         region.edges_into(joined, 2))
        assert join_step_fingerprint(region, joined, 2) == expected
        assert join_step_fingerprint(region, frozenset({1}), 2) is None
        assert region._adaptive_edge_fps[joined, 2] == expected
        assert join_step_fingerprints(region) == (
            join_step_fingerprint(region, joined, 1),
            join_step_fingerprint(region, frozenset({0, 1}), 2))
