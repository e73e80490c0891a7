"""Relational optimizer tests: pushdown, pruning, join elimination."""

import numpy as np
import pytest

from repro.relational import (
    Aggregate,
    AggregateSpec,
    BinaryOp,
    Filter,
    Join,
    Limit,
    Project,
    RelationalOptimizer,
    Scan,
    Sort,
    col,
    execute,
    lit,
    walk,
)
from repro.relational.optimizer import (
    drop_trivial_filters,
    merge_filters,
    prune_columns,
    push_down_filters,
)
from repro.storage import Catalog, Table


@pytest.fixture()
def catalog():
    rng = np.random.default_rng(0)
    n = 500
    catalog = Catalog()
    catalog.add_table("fact", Table.from_arrays(
        id=np.arange(n), key=rng.integers(0, 50, n),
        a=rng.normal(size=n), b=rng.normal(size=n)), primary_key=["id"])
    catalog.add_table("dim", Table.from_arrays(
        key=np.arange(50), c=rng.normal(size=50),
        d=rng.choice(["x", "y"], 50)), primary_key=["key"])
    return catalog


def _optimized_equals_original(plan, catalog):
    before = execute(plan, catalog)
    after = execute(RelationalOptimizer(catalog).optimize(plan), catalog)
    assert before.num_rows == after.num_rows
    for name in before.column_names:
        a, b = before.array(name), after.array(name)
        if a.dtype.kind == "U":
            assert sorted(a.tolist()) == sorted(b.tolist())
        else:
            assert np.allclose(np.sort(a), np.sort(b))


class TestPushdown:
    def test_filter_moves_below_join(self, catalog):
        plan = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            BinaryOp("and", col("fact.a").gt(0.0), col("dim.c").gt(0.0)))
        optimized = push_down_filters(plan, catalog)
        join = next(n for n in walk(optimized) if isinstance(n, Join))
        assert isinstance(join.left, Filter)
        assert isinstance(join.right, Filter)

    def test_cross_side_predicate_stays_above(self, catalog):
        plan = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            col("fact.a").gt(col("dim.c")))
        optimized = push_down_filters(plan, catalog)
        assert isinstance(optimized, Filter)

    def test_left_join_blocks_right_side_pushdown(self, catalog):
        plan = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"],
                 how="left"),
            col("dim.c").gt(0.0))
        optimized = push_down_filters(plan, catalog)
        assert isinstance(optimized, Filter)  # kept above the join

    def test_filter_through_project_substitutes(self, catalog):
        plan = Filter(
            Project(Scan("fact"), [("doubled", col("fact.a") * lit(2.0))]),
            col("doubled").gt(0.0))
        optimized = push_down_filters(plan, catalog)
        assert isinstance(optimized, Project)
        inner = optimized.child
        assert isinstance(inner, Filter)
        assert inner.predicate == (col("fact.a") * lit(2.0)).gt(0.0)

    def test_filter_below_aggregate_on_group_keys(self, catalog):
        plan = Filter(
            Aggregate(Scan("fact"), ["fact.key"],
                      [AggregateSpec("n", "count")]),
            col("fact.key").gt(10))
        optimized = push_down_filters(plan, catalog)
        assert isinstance(optimized, Aggregate)
        assert isinstance(optimized.child, Filter)

    def test_filter_on_aggregate_output_stays(self, catalog):
        plan = Filter(
            Aggregate(Scan("fact"), ["fact.key"],
                      [AggregateSpec("n", "count")]),
            col("n").gt(2))
        optimized = push_down_filters(plan, catalog)
        assert isinstance(optimized, Filter)

    def test_semantics_preserved(self, catalog):
        plan = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            BinaryOp("and", col("fact.a").gt(0.0), col("dim.d").eq("x")))
        _optimized_equals_original(plan, catalog)

    # -- outer-join audit (regression): which sides commute with `left` --

    def test_left_join_allows_left_side_pushdown(self, catalog):
        plan = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"],
                 how="left"),
            col("fact.a").gt(0.0))
        optimized = push_down_filters(plan, catalog)
        join = next(n for n in walk(optimized) if isinstance(n, Join))
        assert not isinstance(optimized, Filter)  # moved below
        assert isinstance(join.left, Filter)

    def test_left_join_left_key_predicate_preserves_null_extension(self,
                                                                   catalog):
        # A predicate on the *left join key* pushed below a left join must
        # not change which surviving left rows get null-extended: the
        # pushed and unpushed plans agree row-for-row. dim_sparse only
        # covers keys 0..39, so fact keys 40..49 null-extend.
        catalog.add_table("dim_sparse", Table.from_arrays(
            key=np.arange(40), e=np.arange(40, dtype=np.float64)))
        plan = Filter(
            Join(Scan("fact"), Scan("dim_sparse"),
                 ["fact.key"], ["dim_sparse.key"], how="left"),
            col("fact.key").gt(35))  # keeps matched and unmatched keys
        optimized = push_down_filters(plan, catalog)
        join = next(n for n in walk(optimized) if isinstance(n, Join))
        assert isinstance(join.left, Filter)
        before = execute(plan, catalog)
        after = execute(optimized, catalog)
        assert before.num_rows > 0
        assert np.isnan(before.array("dim_sparse.e")).any()  # null-extended
        assert before.column_names == after.column_names
        for name in before.column_names:
            a, b = before.array(name), after.array(name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_left_join_right_side_results_unchanged_by_pushdown_pass(
            self, catalog):
        # The pass keeps right-side predicates above a left join; pushing
        # one below by hand demonstrates why: the results differ (dropped
        # rows vs null-extended rows), so the regression pins the pass's
        # refusal with an executable witness.
        predicate = col("dim.c").gt(0.0)
        kept_above = Filter(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"],
                 how="left"), predicate)
        pushed_below = Join(Scan("fact"), Filter(Scan("dim"), predicate),
                            ["fact.key"], ["dim.key"], how="left")
        above = execute(kept_above, catalog)
        below = execute(pushed_below, catalog)
        assert below.num_rows > above.num_rows  # null-extended, not dropped
        optimized = push_down_filters(kept_above, catalog)
        assert isinstance(optimized, Filter)  # the pass never pushes it


class TestFilterHelpers:
    def test_merge_filters(self, catalog):
        plan = Filter(Filter(Scan("fact"), col("fact.a").gt(0.0)),
                      col("fact.b").gt(0.0))
        merged = merge_filters(plan)
        assert isinstance(merged, Filter)
        assert not isinstance(merged.child, Filter)

    def test_drop_trivial_true_filter(self, catalog):
        plan = Filter(Scan("fact"), lit(True))
        assert isinstance(drop_trivial_filters(plan), Scan)

    def test_false_filter_kept(self, catalog):
        plan = Filter(Scan("fact"), lit(False))
        assert isinstance(drop_trivial_filters(plan), Filter)


class TestColumnPruning:
    def test_scan_narrowed_to_used_columns(self, catalog):
        plan = Project(Scan("fact"), [("a", col("fact.a"))])
        pruned = prune_columns(plan, catalog)
        scan = next(n for n in walk(pruned) if isinstance(n, Scan))
        assert scan.columns == ["a"]

    def test_join_keys_survive_pruning(self, catalog):
        plan = Project(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            [("c", col("dim.c"))])
        pruned = prune_columns(plan, catalog)
        scans = {n.table_name: n for n in walk(pruned) if isinstance(n, Scan)}
        assert scans["fact"].columns == ["key"]
        assert set(scans["dim"].columns) == {"key", "c"}

    def test_filter_columns_survive(self, catalog):
        plan = Project(Filter(Scan("fact"), col("fact.b").gt(0.0)),
                       [("a", col("fact.a"))])
        pruned = prune_columns(plan, catalog)
        scan = next(n for n in walk(pruned) if isinstance(n, Scan))
        assert set(scan.columns) == {"a", "b"}

    def test_count_star_keeps_one_column(self, catalog):
        plan = Aggregate(Scan("fact"), [], [AggregateSpec("n", "count")])
        pruned = prune_columns(plan, catalog)
        scan = next(n for n in walk(pruned) if isinstance(n, Scan))
        assert len(scan.columns) == 1


class TestJoinElimination:
    def test_pk_join_eliminated_when_only_keys_used(self, catalog):
        plan = Project(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            [("a", col("fact.a"))])
        optimized = RelationalOptimizer(catalog).optimize(plan)
        assert not any(isinstance(n, Join) for n in walk(optimized))

    def test_join_kept_when_dim_column_used(self, catalog):
        plan = Project(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            [("c", col("dim.c"))])
        optimized = RelationalOptimizer(catalog).optimize(plan)
        assert any(isinstance(n, Join) for n in walk(optimized))

    def test_eliminated_join_preserves_key_columns(self, catalog):
        plan = Project(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            [("k", col("dim.key")), ("a", col("fact.a"))])
        optimized = RelationalOptimizer(catalog).optimize(plan)
        assert not any(isinstance(n, Join) for n in walk(optimized))
        out = execute(optimized, catalog)
        reference = execute(plan, catalog)
        assert np.array_equal(np.sort(out.array("k")),
                              np.sort(reference.array("k")))

    def test_left_side_pk_elimination(self, catalog):
        plan = Project(
            Join(Scan("dim"), Scan("fact"), ["dim.key"], ["fact.key"]),
            [("a", col("fact.a"))])
        optimized = RelationalOptimizer(catalog).optimize(plan)
        assert not any(isinstance(n, Join) for n in walk(optimized))

    def test_no_elimination_without_pk(self, catalog):
        catalog.add_table("nopk", Table.from_arrays(
            key=np.arange(50), z=np.zeros(50)))
        plan = Project(
            Join(Scan("fact"), Scan("nopk"), ["fact.key"], ["nopk.key"]),
            [("a", col("fact.a"))])
        optimized = RelationalOptimizer(catalog).optimize(plan)
        assert any(isinstance(n, Join) for n in walk(optimized))

    def test_disabled_by_flag(self, catalog):
        plan = Project(
            Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"]),
            [("a", col("fact.a"))])
        optimizer = RelationalOptimizer(catalog,
                                        assume_referential_integrity=False)
        assert any(isinstance(n, Join) for n in walk(optimizer.optimize(plan)))


class TestFullPipelinePreservesSemantics:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_shapes(self, catalog, how):
        plan = Project(
            Filter(Join(Scan("fact"), Scan("dim"), ["fact.key"], ["dim.key"],
                        how=how),
                   col("fact.a").gt(-0.5)),
            [("a", col("fact.a")), ("c", col("dim.c"))])
        _optimized_equals_original(plan, catalog)

    def test_sort_limit(self, catalog):
        plan = Limit(Sort(Project(Scan("fact"), [("a", col("fact.a"))]),
                          [("a", True)]), 10)
        before = execute(plan, catalog)
        after = execute(RelationalOptimizer(catalog).optimize(plan), catalog)
        assert before.array("a").tolist() == after.array("a").tolist()
