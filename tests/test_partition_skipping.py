"""Tests for partition skipping (data skipping, paper §4.2)."""

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.core.binder import Binder
from repro.core.parser import parse
from repro.datasets import hospital
from repro.learn import DecisionTreeClassifier
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.logical import Filter, Join, Scan
from repro.relational.optimizer import RelationalOptimizer
from repro.relational.skipping import plan_partition_restrictions
from repro.storage import Catalog


@pytest.fixture()
def partitioned_catalog():
    rng = np.random.default_rng(2)
    n = 6_000
    table = Table.from_arrays(
        id=np.arange(n),
        bucket=np.repeat(np.arange(6), n // 6).astype(np.int64),
        grade=np.repeat(np.asarray(["a", "b", "c"]), n // 3),
        value=rng.normal(size=n),
    )
    catalog = Catalog()
    catalog.add_table("events", table, primary_key=["id"],
                      partition_column="bucket")
    return catalog, table


def _restrictions(catalog, sql):
    plan = Binder(catalog).bind(parse(sql))
    plan = RelationalOptimizer(catalog).optimize(plan)
    # Keyed by Scan node; these single-SELECT cases read better by alias.
    return {scan.alias: kept for scan, kept
            in plan_partition_restrictions(plan, catalog).items()}


class TestRestrictionAnalysis:
    def test_equality_keeps_one_partition(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        restrictions = _restrictions(
            catalog, "SELECT value FROM events AS e WHERE e.bucket = 3")
        assert restrictions == {"e": [3]}

    def test_range_keeps_prefix(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        restrictions = _restrictions(
            catalog, "SELECT value FROM events AS e WHERE e.bucket < 2")
        assert restrictions == {"e": [0, 1]}

    def test_string_partitioning(self):
        rng = np.random.default_rng(0)
        n = 900
        table = Table.from_arrays(
            region=np.repeat(np.asarray(["east", "north", "west"]), n // 3),
            v=rng.normal(size=n))
        catalog = Catalog()
        catalog.add_table("t", table, partition_column="region")
        restrictions = _restrictions(
            catalog, "SELECT v FROM t AS x WHERE x.region = 'north'")
        (kept,) = restrictions["x"]
        assert catalog.table("t").data.partitions[kept].key == "north"

    def test_in_list_over_strings(self):
        table = Table.from_arrays(
            region=np.repeat(np.asarray(["east", "north", "west"]), 30),
            v=np.arange(90.0))
        catalog = Catalog()
        catalog.add_table("t", table, partition_column="region")
        restrictions = _restrictions(
            catalog, "SELECT v FROM t AS x WHERE x.region IN ('east', 'west')")
        assert len(restrictions["x"]) == 2

    def test_predicate_on_other_column_keeps_all(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        restrictions = _restrictions(
            catalog, "SELECT value FROM events AS e WHERE e.value > 0")
        # value spans every partition -> no skipping entry.
        assert restrictions == {}

    def test_unpartitioned_table_untouched(self):
        catalog = Catalog()
        catalog.add_table("t", Table.from_arrays(a=np.arange(10)))
        restrictions = _restrictions(catalog,
                                     "SELECT a FROM t AS x WHERE x.a = 3")
        assert restrictions == {}

    def test_unsatisfiable_predicate_keeps_nothing(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        restrictions = _restrictions(
            catalog, "SELECT value FROM events AS e WHERE e.bucket = 99")
        assert restrictions == {"e": []}

    def test_scan_node_reached_twice_is_not_restricted(
            self, partitioned_catalog):
        # A bound CTE referenced twice shares its subtree: a filter over
        # one reference proves nothing about the other.
        catalog, _ = partitioned_catalog
        shared = Scan("events", "e")
        filtered = Filter(shared, BinaryOp("=", col("e.bucket"), lit(3)))
        assert plan_partition_restrictions(filtered, catalog) == \
            {shared: [3]}
        plan = Join(filtered, shared, ["e.id"], ["e.id"])
        assert plan_partition_restrictions(plan, catalog) == {}


class TestSkippingExecution:
    def test_results_identical_with_skipping(self, partitioned_catalog):
        catalog, table = partitioned_catalog
        session = RavenSession()
        session.catalog = catalog
        out = session.sql("SELECT value FROM events AS e WHERE e.bucket = 2")
        expected = table.mask(table.array("bucket") == 2)
        assert out.num_rows == expected.num_rows
        assert np.allclose(np.sort(out.array("value")),
                           np.sort(expected.array("value")))

    def test_empty_result_for_unsatisfiable(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        session = RavenSession()
        session.catalog = catalog
        out = session.sql("SELECT value FROM events AS e WHERE e.bucket = 99")
        assert out.num_rows == 0

    def test_skipping_composes_with_predict(self):
        dataset = hospital.generate(15_000, seed=4)
        pipeline = dataset.train_pipeline(
            DecisionTreeClassifier(max_depth=8, random_state=0),
            train_rows=3_000)
        session = RavenSession(strategy="none")
        dataset.register(session, partition_column="rcount")
        session.register_model("los", pipeline)
        query = dataset.prediction_query("los", where="d.rcount = 'r_2'")
        out = session.sql(query)

        reference = RavenSession(enable_optimizations=False)
        dataset.register(reference)
        reference.register_model("los", pipeline)
        expected = reference.sql(query)
        assert out.num_rows == expected.num_rows
        assert np.allclose(np.sort(out.array("score")),
                           np.sort(expected.array("score")), atol=1e-9)

    def test_skipped_scan_is_faster(self, partitioned_catalog):
        catalog, _ = partitioned_catalog
        session = RavenSession()
        session.catalog = catalog
        session.sql("SELECT value FROM events AS e WHERE e.bucket = 1")
        skipped_rows = session.last_run  # smoke: ran through the skip path
        assert skipped_rows is not None
