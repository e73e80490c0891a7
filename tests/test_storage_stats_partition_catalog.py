"""Unit tests for statistics, partitioning, and the catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, SchemaError
from repro.storage import (
    Catalog,
    Column,
    ColumnStats,
    PartitionedTable,
    Table,
    TableStats,
)


class TestColumnStats:
    def test_numeric_min_max(self):
        stats = ColumnStats.collect("x", Column.floats([3.0, -1.0, 2.0]))
        assert stats.min_value == -1.0
        assert stats.max_value == 3.0
        assert stats.distinct_count == 3
        assert stats.interval() == (-1.0, 3.0)

    def test_bool_counts_as_numeric(self):
        stats = ColumnStats.collect("b", Column.bools([True, False]))
        assert stats.interval() == (0.0, 1.0)

    def test_string_categories_small_domain(self):
        stats = ColumnStats.collect("s", Column.strings(["a", "b", "a"]))
        assert stats.categories == ("a", "b")
        assert stats.interval() is None

    def test_string_categories_large_domain_dropped(self):
        values = [f"v{i}" for i in range(ColumnStats.MAX_TRACKED_CATEGORIES + 5)]
        stats = ColumnStats.collect("s", Column.strings(values))
        assert stats.categories is None
        assert stats.distinct_count == len(values)

    def test_empty_column(self):
        stats = ColumnStats.collect("x", Column.floats([]))
        assert stats.row_count == 0
        assert stats.interval() is None


class TestZoneMapsOverNulls:
    """NaN-safe zone maps: bounds ignore NaN, null counts track it."""

    def test_nan_ignored_in_bounds(self):
        stats = ColumnStats.collect(
            "x", Column.floats([np.nan, 2.0, np.nan, -4.0, 1.0]))
        assert stats.interval() == (-4.0, 2.0)
        assert stats.null_count == 2

    def test_all_nan_column_has_no_interval(self):
        stats = ColumnStats.collect(
            "x", Column.floats([np.nan, np.nan, np.nan]))
        assert stats.interval() is None
        assert stats.null_count == 3
        assert stats.distinct_count == 0

    def test_int_columns_have_zero_nulls(self):
        stats = ColumnStats.collect("i", Column.ints([1, 2, 3]))
        assert stats.null_count == 0

    def test_null_count_roundtrips_and_merges(self):
        left = ColumnStats.collect("x", Column.floats([np.nan, 1.0]))
        right = ColumnStats.collect("x", Column.floats([2.0, np.nan, np.nan]))
        back = ColumnStats.from_dict(left.to_dict())
        assert back.null_count == 1
        merged_stats = TableStats.collect(
            Table.from_arrays(x=np.array([np.nan, 1.0]))).merge(
            TableStats.collect(
                Table.from_arrays(x=np.array([2.0, np.nan, np.nan]))))
        assert merged_stats.columns["x"].null_count == 3
        assert merged_stats.columns["x"].interval() == (1.0, 2.0)
        assert right.null_count == 2

    def test_legacy_payload_without_null_count(self):
        payload = ColumnStats.collect("x", Column.floats([1.0])).to_dict()
        payload.pop("null_count")
        assert ColumnStats.from_dict(payload).null_count is None

    def test_nan_partition_skipped_by_numeric_predicate(self):
        # NaN never satisfies <, so an all-NaN partition's empty zone
        # map must prove a numeric filter empty and skip the partition.
        from repro.core.binder import Binder
        from repro.core.parser import parse
        from repro.relational.skipping import plan_partition_restrictions

        bucket = np.repeat(np.arange(2), 50).astype(np.int64)
        x = np.where(bucket == 0, np.nan, 5.0)
        catalog = Catalog()
        catalog.add_table("t", Table.from_arrays(bucket=bucket, x=x),
                          partition_column="bucket")
        plan = Binder(catalog).bind(
            parse("SELECT v.x FROM t AS v WHERE v.x < 100.0"))
        ((scan, kept),) = plan_partition_restrictions(plan, catalog).items()
        assert (scan.alias, kept) == ("v", [1])


class TestTableStats:
    def test_collect_and_lookup(self):
        table = Table.from_arrays(a=np.asarray([1.0, 5.0]),
                                  s=np.asarray(["x", "y"]))
        stats = TableStats.collect(table)
        assert stats.row_count == 2
        assert stats.interval("a") == (1.0, 5.0)
        assert stats.column("missing") is None

    def test_merge_extends_ranges(self):
        left = TableStats.collect(Table.from_arrays(a=np.asarray([1.0, 2.0])))
        right = TableStats.collect(Table.from_arrays(a=np.asarray([-5.0])))
        merged = left.merge(right)
        assert merged.row_count == 3
        assert merged.interval("a") == (-5.0, 2.0)

    def test_merge_string_categories_union(self):
        left = TableStats.collect(Table.from_arrays(s=np.asarray(["a"])))
        right = TableStats.collect(Table.from_arrays(s=np.asarray(["b"])))
        merged = left.merge(right)
        assert merged.column("s").categories == ("a", "b")


class TestPartitionedTable:
    def test_single_partition_default(self):
        table = Table.from_arrays(a=np.arange(5))
        parts = PartitionedTable.from_table(table)
        assert parts.num_partitions == 1
        assert parts.num_rows == 5

    def test_partition_by_column(self):
        table = Table.from_arrays(a=np.asarray([1, 2, 1, 3]),
                                  b=np.arange(4.0))
        parts = PartitionedTable.from_table(table, "a")
        assert parts.num_partitions == 3
        assert parts.partition_column == "a"
        assert sorted(p.key for p in parts.partitions) == [1, 2, 3]
        assert parts.num_rows == 4

    def test_partition_by_string_column(self):
        table = Table.from_arrays(s=np.asarray(["x", "y", "x"]))
        parts = PartitionedTable.from_table(table, "s")
        assert parts.num_partitions == 2
        assert all(isinstance(p.key, str) for p in parts.partitions)

    def test_chunk_partitioning(self):
        table = Table.from_arrays(a=np.arange(10))
        parts = PartitionedTable.from_table(table, num_partitions=3)
        assert parts.num_partitions >= 3 - 1
        assert parts.num_rows == 10

    def test_per_partition_stats_refine(self):
        table = Table.from_arrays(k=np.asarray([0, 0, 1, 1]),
                                  v=np.asarray([1.0, 2.0, 10.0, 20.0]))
        parts = PartitionedTable.from_table(table, "k")
        intervals = sorted(p.stats.interval("v") for p in parts.partitions)
        assert intervals == [(1.0, 2.0), (10.0, 20.0)]
        assert parts.global_stats().interval("v") == (1.0, 20.0)

    def test_to_table_roundtrip(self):
        table = Table.from_arrays(k=np.asarray([1, 0, 1]), v=np.arange(3.0))
        parts = PartitionedTable.from_table(table, "k")
        merged = parts.to_table()
        assert merged.num_rows == 3
        assert sorted(merged.array("v").tolist()) == [0.0, 1.0, 2.0]

    def test_empty_partition_list_rejected(self):
        with pytest.raises(SchemaError):
            PartitionedTable([])


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        table = Table.from_arrays(id=np.arange(3), v=np.arange(3.0))
        entry = catalog.add_table("t", table, primary_key=["id"])
        assert entry.num_rows == 3
        assert catalog.table("t").primary_key == ["id"]
        assert catalog.has_table("t")
        assert catalog.table_names == ["t"]

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        table = Table.from_arrays(a=np.asarray([1]))
        catalog.add_table("t", table)
        with pytest.raises(CatalogError):
            catalog.add_table("t", table)
        catalog.add_table("t", table, replace=True)  # explicit replace works

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_bad_primary_key(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.add_table("t", Table.from_arrays(a=np.asarray([1])),
                              primary_key=["missing"])

    def test_partition_column_registration(self):
        catalog = Catalog()
        table = Table.from_arrays(k=np.asarray([0, 1, 0]), v=np.arange(3.0))
        entry = catalog.add_table("t", table, partition_column="k")
        assert entry.data.num_partitions == 2

    def test_models(self):
        catalog = Catalog()
        catalog.add_model("m", object(), origin="test")
        assert catalog.has_model("m")
        assert catalog.model("m").metadata["origin"] == "test"
        assert catalog.model_names == ["m"]
        with pytest.raises(CatalogError):
            catalog.add_model("m", object())
        with pytest.raises(CatalogError):
            catalog.model("other")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.add_table("t", Table.from_arrays(a=np.asarray([1])))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
