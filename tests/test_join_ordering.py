"""Adaptive join ordering + selection-vector-aware join execution.

Acceptance bar (ISSUE 4): inner-join reorders preserve row *content and
order* — the MultiJoin's canonical output order makes every execution
sequence bit-for-bit identical to the written binary-join tree, with
``RavenSession(adaptive=False)`` as the differential oracle. Edge cases
the new path must survive: empty build side, empty probe view (all-false
selection vector), duplicate keys on both sides, multi-column keys.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.adaptive import FeedbackStore
from repro.adaptive.profile import (
    JoinStepProfile,
    OperatorProfile,
    join_edge_fingerprint,
    join_step_fingerprints,
    plan_fingerprint,
)
from repro.adaptive.reopt import apply_feedback, plan_join_order
from repro.errors import ExecutionError, PlanError
from repro.core.parser import parse
from repro.relational.executor import Executor, _join_indices
from repro.relational.expressions import col, lit
from repro.relational.logical import (
    Filter,
    Join,
    JoinEdge,
    MultiJoin,
    Scan,
    transform_plan,
    walk,
)
from repro.relational.optimizer import join_region, lower_joins
from repro.storage.column import Column
from repro.storage.partition import PartitionedTable
from repro.storage.catalog import Catalog
from repro.storage.table import TableView


def tables_equal_bitwise(a, b) -> bool:
    if a.column_names != b.column_names:
        return False
    for name in a.column_names:
        x, y = a.array(name), b.array(name)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


@pytest.fixture()
def star_catalog(rng) -> Catalog:
    """A small star schema with duplicate keys on both sides."""
    catalog = Catalog()
    catalog.add_table("fact", Table.from_arrays(
        k1=rng.integers(0, 20, 300),
        k2=rng.integers(0, 15, 300),
        fv=rng.normal(0, 1, 300),
    ))
    catalog.add_table("d1", Table.from_arrays(
        k1=rng.integers(0, 20, 60),   # duplicates: build side fans out
        av=rng.normal(0, 1, 60),
    ))
    catalog.add_table("d2", Table.from_arrays(
        k2=rng.integers(0, 15, 40),
        bv=rng.choice(["x", "y", "z"], 40),
    ))
    return catalog


def _star_tree() -> Join:
    return Join(
        Join(Scan("fact"), Scan("d1"), ["fact.k1"], ["d1.k1"]),
        Scan("d2"), ["fact.k2"], ["d2.k2"],
    )


def _star_multijoin(order=None) -> MultiJoin:
    return MultiJoin(
        [Scan("fact"), Scan("d1"), Scan("d2")],
        [JoinEdge(0, 1, "fact.k1", "d1.k1"),
         JoinEdge(0, 2, "fact.k2", "d2.k2")],
        order=order,
    )


# ---------------------------------------------------------------------------
# Region extraction
# ---------------------------------------------------------------------------

class TestJoinRegion:
    def test_left_deep_tree_flattens(self):
        region = join_region(_star_tree())
        assert region is not None and region.order is None
        assert [type(leaf).__name__ for leaf in region.inputs] == ["Scan"] * 3
        assert {(e.left_input, e.right_input) for e in region.edges} \
            == {(0, 1), (0, 2)}

    def test_filtered_leaf_is_kept_whole(self):
        filtered = Filter(Scan("d1"), col("d1.k1").gt(lit(3)))
        tree = Join(Join(Scan("fact"), filtered, ["fact.k1"], ["d1.k1"]),
                    Scan("d2"), ["fact.k2"], ["d2.k2"])
        region = join_region(tree)
        assert region is not None
        assert region.inputs[1] is filtered

    def test_left_outer_join_is_a_leaf_not_a_region(self):
        outer = Join(Scan("fact"), Scan("d1"), ["fact.k1"], ["d1.k1"],
                     how="left")
        assert join_region(outer) is None
        tree = Join(outer, Scan("d2"), ["fact.k2"], ["d2.k2"])
        region = join_region(tree)
        assert region is not None
        assert region.inputs[0] is outer
        assert len(region.inputs) == 2

    def test_bushy_cross_prefix_region_is_rejected(self):
        # (a JOIN b) x (c JOIN d) with edges a-b, c-d, a-d only: leaf c
        # has no edge to an earlier leaf, so the in-order sequence would
        # need a cross product -> extraction refuses.
        left = Join(Scan("a"), Scan("b"), ["a.k"], ["b.k"])
        right = Join(Scan("c"), Scan("d"), ["c.k"], ["d.k"])
        bushy = Join(left, right, ["a.j"], ["d.j"])
        assert join_region(bushy) is None

    def test_lowering_takes_maximal_regions_and_recurses_into_leaves(self):
        # inner region -> left outer join (stays binary) -> inner region.
        inner = Join(Scan("fact"), Scan("d1"), ["fact.k1"], ["d1.k1"])
        outer = Join(inner, Scan("x"), ["fact.k1"], ["x.k1"], how="left")
        top = Join(outer, Scan("d2"), ["fact.k2"], ["d2.k2"])
        lowered = lower_joins(top)
        assert isinstance(lowered, MultiJoin) and len(lowered.inputs) == 2
        kept = lowered.inputs[0]
        assert isinstance(kept, Join) and kept.how == "left"
        assert isinstance(kept.left, MultiJoin)
        assert not [n for n in walk(lowered)
                    if isinstance(n, Join) and n.how == "inner"]
        # An un-attributable region stays the written tree, but the
        # regions below it still lower; a join-free plan is untouched.
        left = Join(Scan("a"), Scan("b"), ["a.k"], ["b.k"])
        right = Join(Scan("c"), Scan("d"), ["c.k"], ["d.k"])
        bushy = lower_joins(Join(left, right, ["a.j"], ["d.j"]))
        assert isinstance(bushy, Join)
        assert all(isinstance(side, MultiJoin) for side in bushy.children())
        scan = Filter(Scan("a"), col("a.k").gt(lit(0)))
        assert lower_joins(scan) is scan


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestJoinFingerprints:
    def test_order_annotation_does_not_change_fingerprint(self):
        assert plan_fingerprint(_star_multijoin()) \
            == plan_fingerprint(_star_multijoin(order=[0, 2, 1]))

    def test_step_fingerprint_is_position_insensitive(self):
        # The step recorded when the text order joins d2 last is the step
        # the ordering pass looks up for a sequence that adds d2 first.
        text = join_step_fingerprints(_star_multijoin())
        flipped = join_step_fingerprints(_star_multijoin(order=[0, 2, 1]))
        assert text[1] == flipped[0] and text[0] == flipped[1]

    def test_edge_fingerprint_is_side_insensitive(self):
        leaf_fps = ["fpA", "fpB"]
        forward = join_edge_fingerprint(leaf_fps, [JoinEdge(0, 1, "a.k", "b.k")])
        # Same edge observed from the other side (keys swapped with the
        # leaf fingerprints) hashes identically.
        swapped = join_edge_fingerprint(["fpB", "fpA"],
                                        [JoinEdge(0, 1, "b.k", "a.k")])
        assert forward == swapped


# ---------------------------------------------------------------------------
# Ordering decision (unit level)
# ---------------------------------------------------------------------------

def _observe_rows(store: FeedbackStore, node, rows: int) -> None:
    store.record_profile(OperatorProfile(
        operator="Scan", fingerprint=plan_fingerprint(node),
        calls=1, rows_in=rows, rows_out=rows, seconds=0.0))


def _observe_step(store: FeedbackStore, leaves, edges, rows_left: int,
                  rows_right: int, rows_out: int) -> None:
    leaf_fps = [plan_fingerprint(leaf) for leaf in leaves]
    fingerprint = join_edge_fingerprint(leaf_fps, edges)
    profile = OperatorProfile(operator="Join", fingerprint="root",
                              calls=1, rows_in=rows_left + rows_right,
                              rows_out=rows_out, seconds=0.0)
    profile.joins = [JoinStepProfile(
        detail="step", fingerprint=fingerprint, calls=1,
        rows_left=rows_left, rows_right=rows_right, rows_out=rows_out,
        cross_rows=rows_left * rows_right, seconds=0.0)]
    store.record_profile(profile)


class TestJoinOrderDecision:
    def test_observed_cardinalities_flip_the_order(self):
        store = FeedbackStore()
        tree = _star_multijoin()
        fact, d1, d2 = tree.inputs
        _observe_rows(store, fact, 10_000)
        _observe_rows(store, d1, 8_000)
        _observe_rows(store, d2, 8_000)
        # Joining d2 first is observably tiny; d1 first keeps everything.
        _observe_step(store, tree.inputs,
                      [JoinEdge(0, 2, "fact.k2", "d2.k2")], 10_000, 8_000, 50)
        _observe_step(store, tree.inputs,
                      [JoinEdge(0, 1, "fact.k1", "d1.k1")], 10_000, 8_000,
                      10_000)
        assert plan_join_order(tree, store) == [0, 2, 1]

    def test_no_observations_and_no_catalog_keeps_text_order(self):
        assert plan_join_order(_star_multijoin(), FeedbackStore()) is None

    def test_two_way_region_has_one_sequence(self):
        two = lower_joins(Join(Scan("a"), Scan("b"), ["a.k"], ["b.k"]))
        assert isinstance(two, MultiJoin)
        assert plan_join_order(two, FeedbackStore()) is None

    def test_hysteresis_requires_modeled_gain(self):
        store = FeedbackStore()
        tree = _star_multijoin()
        for leaf in tree.inputs:
            _observe_rows(store, leaf, 1_000)
        # Both candidate steps produce identical outputs: no modeled win,
        # so the written order stays.
        for edge in tree.edges:
            _observe_step(store, tree.inputs, [edge], 1_000, 1_000, 500)
        assert plan_join_order(tree, store) is None

    def test_fixed_point_after_reorder(self):
        store = FeedbackStore()
        tree = _star_multijoin()
        _observe_rows(store, tree.inputs[0], 10_000)
        _observe_rows(store, tree.inputs[1], 8_000)
        _observe_rows(store, tree.inputs[2], 8_000)
        _observe_step(store, tree.inputs,
                      [JoinEdge(0, 2, "fact.k2", "d2.k2")], 10_000, 8_000, 50)
        _observe_step(store, tree.inputs,
                      [JoinEdge(0, 1, "fact.k1", "d1.k1")], 10_000, 8_000,
                      10_000)
        rewritten, changed, info = apply_feedback(tree, store)
        assert changed and info["joins_reordered"] == 1
        multi = next(n for n in walk(rewritten) if isinstance(n, MultiJoin))
        assert multi.order == [0, 2, 1]
        _, changed_again, _ = apply_feedback(rewritten, store)
        assert not changed_again

    def test_reorder_back_to_text_order_drops_annotation(self):
        store = FeedbackStore()
        node = _star_multijoin(order=[0, 2, 1])
        _observe_rows(store, node.inputs[0], 10_000)
        _observe_rows(store, node.inputs[1], 8_000)
        _observe_rows(store, node.inputs[2], 8_000)
        # Feedback now says the *written* order is the cheap one.
        _observe_step(store, node.inputs,
                      [JoinEdge(0, 1, "fact.k1", "d1.k1")], 10_000, 8_000, 50)
        _observe_step(store, node.inputs,
                      [JoinEdge(0, 2, "fact.k2", "d2.k2")], 10_000, 8_000,
                      10_000)
        assert plan_join_order(node, store) == [0, 1, 2]
        rewritten, changed, _ = apply_feedback(node, store)
        assert changed
        multi = next(n for n in walk(rewritten) if isinstance(n, MultiJoin))
        assert multi.order is None


# ---------------------------------------------------------------------------
# MultiJoin execution: canonical order, bit-for-bit vs the binary tree
# ---------------------------------------------------------------------------

class TestMultiJoinExecution:
    def test_all_sequences_match_the_binary_tree(self, star_catalog):
        executor = Executor(star_catalog)
        expected = executor.execute(_star_tree())
        assert expected.num_rows > 0
        # Star edges hang off input 0, so it must come first; both
        # remaining sequences (and the unannotated original) must match.
        for order in (None, [0, 1, 2], [0, 2, 1]):
            actual = executor.execute(_star_multijoin(order))
            assert tables_equal_bitwise(expected, actual), f"order={order}"

    def test_triangle_all_permutations(self, rng):
        catalog = Catalog()
        catalog.add_table("a", Table.from_arrays(
            x=rng.integers(0, 6, 40), y=rng.integers(0, 5, 40)))
        catalog.add_table("b", Table.from_arrays(
            x=rng.integers(0, 6, 30), z=rng.integers(0, 4, 30)))
        catalog.add_table("c", Table.from_arrays(
            y=rng.integers(0, 5, 25), z=rng.integers(0, 4, 25)))
        edges = [JoinEdge(0, 1, "a.x", "b.x"),
                 JoinEdge(0, 2, "a.y", "c.y"),
                 JoinEdge(1, 2, "b.z", "c.z")]
        tree = Join(Join(Scan("a"), Scan("b"), ["a.x"], ["b.x"]),
                    Scan("c"), ["a.y", "b.z"], ["c.y", "c.z"])
        executor = Executor(catalog)
        expected = executor.execute(tree)
        assert expected.num_rows > 0
        inputs = [Scan("a"), Scan("b"), Scan("c")]
        for order in itertools.permutations(range(3)):
            actual = executor.execute(MultiJoin(inputs, edges, list(order)))
            assert tables_equal_bitwise(expected, actual), f"order={order}"

    def test_multi_column_key_step(self, rng):
        catalog = Catalog()
        catalog.add_table("l", Table.from_arrays(
            k1=rng.integers(0, 4, 50), k2=rng.integers(0, 3, 50),
            v=rng.normal(0, 1, 50)))
        catalog.add_table("m", Table.from_arrays(
            k1=rng.integers(0, 4, 30), k2=rng.integers(0, 3, 30),
            w=rng.normal(0, 1, 30)))
        catalog.add_table("r", Table.from_arrays(
            k1=rng.integers(0, 4, 20), u=rng.normal(0, 1, 20)))
        tree = Join(Join(Scan("l"), Scan("m"), ["l.k1", "l.k2"],
                         ["m.k1", "m.k2"]),
                    Scan("r"), ["l.k1"], ["r.k1"])
        edges = [JoinEdge(0, 1, "l.k1", "m.k1"),
                 JoinEdge(0, 1, "l.k2", "m.k2"),
                 JoinEdge(0, 2, "l.k1", "r.k1")]
        executor = Executor(catalog)
        expected = executor.execute(tree)
        inputs = [Scan("l"), Scan("m"), Scan("r")]
        for order in ([0, 1, 2], [0, 2, 1]):
            actual = executor.execute(MultiJoin(inputs, edges, order))
            assert tables_equal_bitwise(expected, actual)

    def test_empty_input_table(self, star_catalog):
        star_catalog.add_table("empty", Table.from_arrays(
            k1=np.asarray([], dtype=np.int64)))
        tree = Join(Join(Scan("fact"), Scan("empty"),
                         ["fact.k1"], ["empty.k1"]),
                    Scan("d2"), ["fact.k2"], ["d2.k2"])
        multi = MultiJoin(
            [Scan("fact"), Scan("empty"), Scan("d2")],
            [JoinEdge(0, 1, "fact.k1", "empty.k1"),
             JoinEdge(0, 2, "fact.k2", "d2.k2")],
            order=[0, 2, 1],
        )
        executor = Executor(star_catalog)
        expected = executor.execute(tree)
        actual = executor.execute(multi)
        assert expected.num_rows == 0
        assert tables_equal_bitwise(expected, actual)

    def test_empty_probe_view_all_false_selection(self, star_catalog):
        # A filtered input whose selection vector keeps nothing.
        dead = Filter(Scan("d1"), col("d1.k1").lt(lit(-1)))
        tree = Join(Join(Scan("fact"), dead, ["fact.k1"], ["d1.k1"]),
                    Scan("d2"), ["fact.k2"], ["d2.k2"])
        multi = MultiJoin(
            [Scan("fact"), dead, Scan("d2")],
            [JoinEdge(0, 1, "fact.k1", "d1.k1"),
             JoinEdge(0, 2, "fact.k2", "d2.k2")],
            order=[0, 2, 1],
        )
        executor = Executor(star_catalog)
        expected = executor.execute(tree)
        actual = executor.execute(multi)
        assert expected.num_rows == 0
        assert tables_equal_bitwise(expected, actual)

    def test_disconnected_sequence_is_rejected(self):
        # d1 and d2 only connect through fact; a sequence starting with
        # the two dimensions would need a cross product. Rejected at
        # construction so every consumer (executor, sqlgen) is covered.
        with pytest.raises(PlanError, match="not connected"):
            _star_multijoin(order=[1, 2, 0])

    def test_disconnected_original_order_is_rejected(self):
        # Input 1 (b) shares no edge with input 0 (a): even the original
        # order would need a cross product.
        with pytest.raises(PlanError, match="not connected"):
            MultiJoin([Scan("a"), Scan("b"), Scan("c")],
                      [JoinEdge(1, 2, "b.k", "c.k")])

    def test_executor_rejects_hand_broken_sequence(self, star_catalog):
        # Defense in depth: a node whose order is mutated past the
        # constructor still fails loudly at execution.
        multi = _star_multijoin()
        multi.order = [1, 2, 0]
        with pytest.raises(ExecutionError, match="connecting edge"):
            Executor(star_catalog).execute(multi)

    def test_construction_validation(self):
        with pytest.raises(PlanError):
            MultiJoin([Scan("a")], [])
        with pytest.raises(PlanError):
            _star_multijoin(order=[0, 1])  # not a permutation
        with pytest.raises(PlanError):
            JoinEdge(1, 0, "b.k", "a.k")  # inputs out of original order
        with pytest.raises(PlanError):
            JoinEdge(1, 1, "a.k", "a.k")


# ---------------------------------------------------------------------------
# Selection-vector-aware binary joins; the kernel picks its own sort side
# ---------------------------------------------------------------------------

def _nested_loop_join(left, right, how):
    """Reference equi-join: left-major pairs, ascending right row per
    left row; for a left outer join the unmatched left rows."""
    pairs = [(i, j) for i, lk in enumerate(left)
             for j, rk in enumerate(right) if lk == rk]
    matched = {i for i, _ in pairs}
    unmatched = [i for i in range(len(left)) if i not in matched] \
        if how == "left" else []
    return ([i for i, _ in pairs], [j for _, j in pairs], unmatched)


class TestSelectionVectorJoins:
    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("sizes", [(50, 400), (400, 50), (90, 100),
                                       (0, 7), (7, 0), (0, 0)])
    def test_kernel_matches_nested_loop_on_either_sort_side(self, rng, how,
                                                            sizes):
        # (50, 400) sorts the left side and restores left-major order,
        # (400, 50) and (90, 100) sort the right; duplicates on both sides.
        left = rng.integers(0, 30, sizes[0])
        right = rng.integers(0, 30, sizes[1])
        expected = _nested_loop_join(left.tolist(), right.tolist(), how)
        actual = _join_indices(left, right, how)
        for want, got in zip(expected, actual):
            assert got.dtype.kind == "i"
            assert got.tolist() == want

    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("smaller", ["left", "right"])
    def test_filtered_sides_join_correctly(self, star_catalog, how, smaller):
        # Oracle: materialize the filtered inputs into base tables first,
        # then join those — the pre-late-materialization semantics. The
        # smaller side (>= 4x gap, so it is the one sorted) on either side.
        executor = Executor(star_catalog)
        big = Filter(Scan("fact"), col("fact.fv").gt(lit(-1.0)))
        small = Filter(Scan("d1"), col("d1.k1").gt(lit(12)))
        left, right, left_key, right_key = \
            (small, big, "d1.k1", "fact.k1") if smaller == "left" \
            else (big, small, "fact.k1", "d1.k1")
        star_catalog.add_table("mat_left", executor.execute(left))
        star_catalog.add_table("mat_right", executor.execute(right))
        rows = (star_catalog.table("mat_left").num_rows,
                star_catalog.table("mat_right").num_rows)
        assert min(rows) * 4 < max(rows)
        expected = executor.execute(Join(
            Scan("mat_left", alias="pre"), Scan("mat_right", alias="dim"),
            [f"pre.{left_key}"], [f"dim.{right_key}"], how))
        actual = executor.execute(Join(left, right, [left_key], [right_key],
                                       how))
        assert expected.num_rows == actual.num_rows > 0
        for pre_name, name in zip(expected.column_names, actual.column_names):
            assert expected.array(pre_name).tobytes() \
                == actual.array(name).tobytes()

    def test_join_never_materializes_filtered_inputs(self, star_catalog,
                                                     monkeypatch):
        gathers = []
        original = TableView.materialize

        def spying(self, names=None):
            if self.selection is not None:
                gathers.append(self)
            return original(self, names)

        monkeypatch.setattr(TableView, "materialize", spying)
        plan = Join(Filter(Scan("fact"), col("fact.fv").gt(lit(0.0))),
                    Scan("d1"), ["fact.k1"], ["d1.k1"])
        result = Executor(star_catalog).execute(plan)
        assert result.num_rows > 0
        # The filtered probe side reaches the join as a view; only its
        # key column is gathered (through .array), never the full table.
        assert gathers == []

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_empty_probe_view_binary(self, star_catalog, how):
        dead = Filter(Scan("fact"), col("fact.fv").gt(lit(1e9)))
        plan = Join(dead, Scan("d1"), ["fact.k1"], ["d1.k1"], how)
        result = Executor(star_catalog).execute(plan)
        assert result.num_rows == 0
        assert result.column_names  # schema survives

    def test_empty_build_side_left_outer_fills(self, star_catalog):
        dead = Filter(Scan("d1"), col("d1.k1").lt(lit(-1)))
        plan = Join(Scan("fact"), dead, ["fact.k1"], ["d1.k1"], "left")
        result = Executor(star_catalog).execute(plan)
        assert result.num_rows == 300  # every fact row null-extended
        assert np.isnan(result.array("d1.av")).all()

    def test_unsupported_join_types_rejected_at_construction(self):
        for how in ("full", "right", "cross"):
            with pytest.raises(PlanError):
                Join(Scan("a"), Scan("b"), ["a.k"], ["b.k"], how=how)


# ---------------------------------------------------------------------------
# The join differential: the written binary tree (what an unoptimized
# session runs) is the reference for the lowered MultiJoin in text order,
# in every reordered sequence, with the output sort skipped, flat and
# fanned out over partitions — bit for bit, row order included.
# ---------------------------------------------------------------------------

def _differential_tables():
    rng = np.random.default_rng(11)
    n = 600
    return {
        # Every key column has duplicates on both sides of its joins.
        "f": Table.from_arrays(
            k1=rng.integers(0, 20, n), k2=rng.integers(0, 15, n),
            s=rng.choice([f"r{i}" for i in range(8)], n),
            v=rng.normal(0, 1, n)),
        "a": Table.from_arrays(
            k1=rng.integers(0, 20, 200), j=rng.integers(0, 6, 200),
            av=rng.normal(0, 1, 200)),
        "b": Table.from_arrays(
            k2=rng.integers(0, 15, 40), bv=rng.choice(["x", "y", "z"], 40)),
        "c": Table.from_arrays(
            j=rng.integers(0, 6, 12), cv=rng.normal(0, 1, 12)),
        "d": Table.from_arrays(
            k1=rng.integers(0, 20, 80), k2=rng.integers(0, 15, 80),
            dv=rng.normal(0, 1, 80)),
        "e": Table.from_arrays(
            s=np.asarray(["r1", "r3", "r5", "r5", "zz"]),
            ev=np.arange(5, dtype=np.float64)),
    }


_STAR = ("SELECT f.v, a.av, b.bv FROM f JOIN a ON f.k1 = a.k1 "
         "JOIN b ON f.k2 = b.k2")
JOIN_SHAPES = {
    "two_way": "SELECT f.v, a.av FROM f JOIN a ON f.k1 = a.k1",
    "star": _STAR,
    "chain": ("SELECT f.v, a.av, c.cv FROM f JOIN a ON f.k1 = a.k1 "
              "JOIN c ON a.j = c.j"),
    "two_key_edge": ("SELECT f.v, d.dv, b.bv FROM f "
                     "JOIN d ON f.k1 = d.k1 AND f.k2 = d.k2 "
                     "JOIN b ON f.k2 = b.k2"),
    # ~40 fact rows against ~195 of a: the held side is the sorted one.
    "both_sides_filtered": _STAR + " WHERE f.v > 1.5 AND a.av > -2.0",
    "empty_probe_side": _STAR + " WHERE f.v > 1000000.0",
    "empty_build_side": _STAR + " WHERE a.av > 1000000.0",
    "duplicate_keys": "SELECT f.v, d.dv FROM f JOIN d ON f.k2 = d.k2",
    "string_keys": ("SELECT f.v, e.ev, a.av FROM f JOIN e ON f.s = e.s "
                    "JOIN a ON f.k1 = a.k1"),
    # The fact table (the one a dop>1 session would fan out over) is not
    # the leftmost join input, so its row order is not the output's.
    "fact_not_first": "SELECT a.av, f.v FROM a JOIN f ON a.k1 = f.k1",
}


def _connected_orders(multi: MultiJoin):
    for order in itertools.permutations(range(len(multi.inputs))):
        try:
            MultiJoin(multi.inputs, multi.edges, list(order))
        except PlanError:
            continue  # would need a cross product
        yield list(order)


def _row_multiset(table):
    order = np.lexsort([table.array(name) for name in table.column_names])
    return [table.array(name)[order].tobytes()
            for name in table.column_names]


@pytest.fixture(scope="module")
def differential_sessions():
    tables = _differential_tables()
    sessions = {}
    for layout, dop in (("flat", 1), ("partitioned", 4)):
        for optimized in (False, True):
            session = RavenSession(enable_optimizations=optimized, dop=dop)
            for name, table in tables.items():
                if name == "f" and layout == "partitioned":
                    table = PartitionedTable.from_table(table,
                                                        num_partitions=4)
                session.register_table(name, table)
            sessions[layout, optimized] = session
    return sessions


class TestJoinDifferential:
    @pytest.mark.parametrize("layout", ["flat", "partitioned"])
    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_every_execution_matches_the_written_tree(
            self, differential_sessions, shape, layout):
        query = JOIN_SHAPES[shape]
        written = differential_sessions["flat", False]
        written_plan, _ = written.optimize(query)
        assert not [n for n in walk(written_plan) if isinstance(n, MultiJoin)]
        expected = written.sql(query)
        if not shape.startswith("empty"):
            assert expected.num_rows > 0
        # The written tree, fanned out.
        assert tables_equal_bitwise(
            expected, differential_sessions[layout, False].sql(query))

        session = differential_sessions[layout, True]
        lowered, _ = session.optimize(query)
        assert not [n for n in walk(lowered)
                    if isinstance(n, Join) and n.how == "inner"]
        (multi,) = [n for n in walk(lowered) if isinstance(n, MultiJoin)]
        # Whatever sequence feedback has settled on by now.
        assert tables_equal_bitwise(expected, session.sql(query))
        orders = list(_connected_orders(multi))
        assert list(range(len(multi.inputs))) in orders
        for order in orders:
            for order_insensitive in (False, True):
                plan = transform_plan(lowered, lambda n: MultiJoin(
                    n.inputs, n.edges, order,
                    order_insensitive=order_insensitive)
                    if isinstance(n, MultiJoin) else None)
                actual = session.execute_plan(plan)
                label = f"order={order} insensitive={order_insensitive}"
                if order_insensitive:
                    # The only cells whose row order is unspecified.
                    assert _row_multiset(actual) == _row_multiset(expected), \
                        label
                else:
                    assert tables_equal_bitwise(expected, actual), label


class TestJoinCountPins:
    """Two counts that repeat exactly: an optimized star PREDICT query has
    no inner ``Join``, and running it gathers each scanned column once."""

    QUERY = """
    WITH joined AS (
      SELECT * FROM fact AS f
      JOIN profiles AS p ON f.uid = p.uid
      JOIN segments AS s ON f.sid = s.sid
    )
    SELECT d.uid, pr.score
    FROM PREDICT(MODEL = risk, DATA = joined AS d) WITH (score FLOAT) AS pr
    """

    @pytest.fixture()
    def session(self, rng):
        from repro.learn import DecisionTreeClassifier, make_standard_pipeline

        n = 400
        features = ["fv", "pv", "sv"]
        frame = Table.from_arrays(
            **{name: rng.normal(0, 1, n) for name in features})
        pipeline = make_standard_pipeline(
            DecisionTreeClassifier(max_depth=4), features, [])
        pipeline.fit(frame, (frame.array("fv") + frame.array("pv")
                             + frame.array("sv") > 0).astype(int))
        session = RavenSession()
        session.register_table("fact", Table.from_arrays(
            uid=np.arange(n), sid=rng.integers(0, 50, n),
            fv=rng.normal(0, 1, n), unused=rng.normal(0, 1, n)))
        session.register_table("profiles", Table.from_arrays(
            uid=np.arange(n), pv=rng.normal(0, 1, n)))
        session.register_table("segments", Table.from_arrays(
            sid=np.arange(50), sv=rng.normal(0, 1, 50)))
        session.register_model("risk", pipeline)
        return session

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_optimized_star_has_no_inner_join(self, session, adaptive):
        session.adaptive = adaptive
        for plan in (session.optimize(self.QUERY)[0],
                     session._optimize_stmt(parse(self.QUERY),
                                            static=True)[0]):
            assert [n for n in walk(plan) if isinstance(n, MultiJoin)]
            assert not [n for n in walk(plan)
                        if isinstance(n, Join) and n.how == "inner"]

    def test_each_scanned_column_is_gathered_once(self, session,
                                                  monkeypatch):
        plan, _ = session.optimize(self.QUERY)
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert len(scans) == 3
        scanned = sum(len(scan.columns) for scan in scans)
        takes = []
        original = Column.take
        monkeypatch.setattr(
            Column, "take",
            lambda self, indices: takes.append(1) or original(self, indices))
        assert session.execute_plan(plan).num_rows == 400
        assert len(takes) == scanned


# ---------------------------------------------------------------------------
# Session-level: the full adaptive loop over star joins
# ---------------------------------------------------------------------------

STAR_QUERY = """
SELECT f.fv, p.pv, s.sv
FROM fact AS f
JOIN profiles AS p ON f.uid = p.uid
JOIN segments AS s ON f.sid = s.sid
"""


def _star_sessions(rng, n=6_000):
    """A misestimated star: cold estimates tie, observation breaks it.

    fact-profiles is 1:1 (keeps everything); fact.sid covers a domain 50x
    larger than segments, so only ~2% of fact rows survive that join —
    invisible to per-table statistics, obvious after one execution.
    """
    fact = Table.from_arrays(
        uid=np.arange(n) % n,
        sid=rng.integers(0, 50 * n, n),
        fv=rng.normal(0, 1, n),
    )
    profiles = Table.from_arrays(uid=np.arange(n), pv=rng.normal(0, 1, n))
    segments = Table.from_arrays(
        sid=rng.choice(50 * n, n, replace=False), sv=rng.normal(0, 1, n))
    sessions = []
    for adaptive in (True, False):
        sess = RavenSession(adaptive=adaptive)
        sess.register_table("fact", fact)
        sess.register_table("profiles", profiles)
        sess.register_table("segments", segments)
        sessions.append(sess)
    return sessions


class TestAdaptiveStarJoinSession:
    def test_feedback_reorders_and_stays_bit_for_bit(self, rng):
        adaptive, static = _star_sessions(rng)
        expected = static.sql(STAR_QUERY)
        for round_index in range(4):
            actual, stats = adaptive.sql_with_stats(STAR_QUERY)
            assert tables_equal_bitwise(expected, actual), \
                f"round {round_index}"
        assert adaptive.plan_cache.stats.reoptimizations >= 1
        plan, report = adaptive.optimize(STAR_QUERY)
        multi = [node for node in walk(plan) if isinstance(node, MultiJoin)]
        assert multi, "warmed plan must carry the reordered join region"
        # segments (input 2) moves ahead of profiles (input 1).
        assert multi[0].order == [0, 2, 1]

    def test_warm_plan_reaches_fixed_point(self, rng):
        adaptive, _ = _star_sessions(rng)
        for _ in range(4):
            adaptive.sql(STAR_QUERY)
        reopts = adaptive.plan_cache.stats.reoptimizations
        _, stats = adaptive.sql_with_stats(STAR_QUERY)
        assert stats.cache_hit
        assert adaptive.plan_cache.stats.reoptimizations == reopts

    def test_join_step_drift_uses_relative_measure(self):
        # Join-step selectivities are cross-product fractions (O(1/rows)):
        # an absolute fast-vs-slow divergence can never reach the 0.25
        # threshold, so drift for joinstep entries is scale-relative.
        store = FeedbackStore()
        leaves = _star_multijoin().inputs
        edge = [JoinEdge(0, 2, "fact.k2", "d2.k2")]
        fingerprint = join_edge_fingerprint(
            [plan_fingerprint(leaf) for leaf in leaves], edge)
        for _ in range(20):  # long stable history: sel = 1e-5
            _observe_step(store, leaves, edge, 100_000, 100_000,
                          100_000)
        assert not store.has_drifted(fingerprint)
        for _ in range(4):   # recent behaviour: sel = 1e-6 (10x shift)
            _observe_step(store, leaves, edge, 100_000, 100_000,
                          10_000)
        assert store.drift_score(fingerprint) > 0.25
        assert store.has_drifted(fingerprint)
        # Consuming the signal (what the session does after marking the
        # plan stale) resets the long-run average.
        store.consume_drift(fingerprint)
        assert not store.has_drifted(fingerprint)

    def test_join_step_profiles_feed_the_store(self, rng):
        adaptive, _ = _star_sessions(rng)
        _, stats = adaptive.sql_with_stats(STAR_QUERY)
        joins = [p for p in stats.operator_profiles.walk() if p.joins]
        assert joins, "join operators must profile their steps"
        steps = [step for p in joins for step in p.joins]
        assert any(step.selectivity is not None for step in steps)
        observed = [adaptive.feedback.observed(step.fingerprint)
                    for step in steps]
        assert all(o is not None for o in observed)

    def test_group_by_on_top_of_reordered_region(self, rng):
        adaptive, static = _star_sessions(rng)
        query = ("SELECT f.uid, COUNT(*) AS n FROM fact AS f "
                 "JOIN profiles AS p ON f.uid = p.uid "
                 "JOIN segments AS s ON f.sid = s.sid "
                 "GROUP BY f.uid ORDER BY n DESC LIMIT 10")
        expected = static.sql(query)
        for _ in range(4):
            actual = adaptive.sql(query)
            assert tables_equal_bitwise(expected, actual)

    def test_left_join_above_inner_region(self, rng):
        adaptive, static = _star_sessions(rng)
        extra = Table.from_arrays(uid=np.arange(100),
                                  xv=np.arange(100, dtype=np.float64))
        for sess in (adaptive, static):
            sess.register_table("extra", extra)
        query = ("SELECT f.fv, s.sv, x.xv FROM fact AS f "
                 "JOIN profiles AS p ON f.uid = p.uid "
                 "JOIN segments AS s ON f.sid = s.sid "
                 "LEFT JOIN extra AS x ON f.uid = x.uid")
        expected = static.sql(query)
        for _ in range(4):
            actual = adaptive.sql(query)
            assert tables_equal_bitwise(expected, actual)

    def test_dop_chunked_execution_matches(self, rng):
        adaptive, static = _star_sessions(rng)
        chunked = RavenSession(adaptive=True, dop=4)
        for name in ("fact", "profiles", "segments"):
            chunked.register_table(
                name, static.catalog.table(name).data.to_table())
        expected = static.sql(STAR_QUERY)
        for _ in range(3):
            actual = chunked.sql(STAR_QUERY)
            assert tables_equal_bitwise(expected, actual)
