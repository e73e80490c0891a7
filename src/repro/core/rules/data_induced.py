"""Data-induced optimizations (paper §4.2).

Column min/max statistics (and small string domains) stored in the catalog
induce predicates over model inputs: a tree split whose threshold lies
outside a column's observed range can be pruned exactly like a WHERE-clause
range predicate would allow.

When the table feeding the model is *partitioned*, the rule goes further
and compiles one specialized model per partition from the per-partition
statistics — the executor then dispatches each partition to its own model.
The induced pruning composes with model-projection pushdown: features
pruned by induced predicates subsequently vanish from the input columns.
The optimizer runs this rule before predicate-based pruning (where the
two orders agree, see :meth:`repro.core.optimizer.RavenOptimizer.
_statistics_first`), so its result — a function of the registered model
and the catalog's statistics alone — is memoized on the model's catalog
entry and a cold plan reuses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.rules.base import (
    Rule,
    RuleResult,
    predict_nodes,
    replace_predict,
    rewrite_memo,
)
from repro.core.rules.intervals import InputConstraints, Interval, StringConstraint
from repro.core.rules.predicate_pruning import (
    _tree_node_total,
    prune_graph_with_constraints,
)
from repro.core.rules.projection_pushdown import pushdown_graph
from repro.onnxlite.graph import Graph
from repro.relational.logical import PlanNode, Predict, Scan, walk
from repro.storage.catalog import Catalog
from repro.storage.statistics import TableStats


class DataInducedOptimization(Rule):
    """Statistics-driven model pruning + per-partition model compilation.

    The result for a Predict is a pure function of (its graph, its
    inputs' provenance, its source tables' statistics objects), so it is
    memoized in the model's rewrite memo (see
    :func:`~repro.core.rules.base.memoized`), keyed by the graph and the
    provenance and checked against the statistics objects: each cold
    plan after the first gets the same pruned graph back without a tree
    walk. Every way the key's parts change invalidates it:
    re-registering the model makes a new entry, re-registering a table
    makes new statistics objects, and
    :meth:`~repro.storage.catalog.Catalog.augment_stats` swaps the
    table's statistics object.

    An instance builds each Predict's provenance and statistics box once
    (:meth:`statistics_box`), so the optimizer's order check and the rule
    share them.
    """

    name = "data_induced_optimization"

    def __init__(self, per_partition: bool = True):
        self.per_partition = per_partition
        self._boxes: Dict[int, tuple] = {}

    def apply(self, plan: PlanNode, catalog: Catalog) -> RuleResult:
        result = RuleResult(plan=plan)
        for predict in predict_nodes(result.plan):
            new_predict, info = self._optimize_predict(predict, catalog)
            if new_predict is not None:
                result.plan = replace_predict(result.plan, predict, new_predict)
                result.applied = True
                result.merge_info(info)
        return result

    def statistics_box(self, predict: Predict, catalog: Catalog
                       ) -> Tuple[Dict[str, Tuple[str, str]], InputConstraints]:
        """``(provenance, constraints from the global statistics)``."""
        found = self._boxes.get(id(predict))
        if found is None or found[0] is not predict:
            provenance = input_column_provenance(predict, catalog)
            box = constraints_from_stats(provenance, {
                table: catalog.table(table).stats
                for table in _tables(provenance)})
            found = self._boxes[id(predict)] = (predict, provenance, box)
        return found[1], found[2]

    # ------------------------------------------------------------------
    def _optimize_predict(self, predict: Predict,
                          catalog: Catalog) -> Tuple[Optional[Predict], Dict]:
        provenance, box = self.statistics_box(predict, catalog)
        if not provenance:
            return None, {}
        graph, per_partition_graphs, info = self._memoized(
            predict, provenance, box, catalog)
        if graph is None:
            return None, {}
        new_predict = predict.replace(graph=graph)
        if per_partition_graphs is not None:
            new_predict = new_predict.replace(
                per_partition_graphs=per_partition_graphs)
        return new_predict, dict(info)

    def _memoized(self, predict: Predict, provenance, box, catalog: Catalog):
        memo = rewrite_memo(catalog, predict)
        if memo is None:
            return self._prune(predict, provenance, box, catalog)
        # The statistics objects the result read, compared by identity.
        stats = [stats for table in sorted(_tables(provenance))
                 for stats in (catalog.table(table).stats, *(
                     part.stats for part in catalog.table(table).data.partitions))]
        key = (self.name, predict.graph, tuple(sorted(provenance.items())),
               self.per_partition)
        cached = memo.get(key)
        if cached is None or len(cached[0]) != len(stats) \
                or any(a is not b for a, b in zip(cached[0], stats)):
            cached = memo.put(key, (
                stats, self._prune(predict, provenance, box, catalog)))
        return cached[1]

    def _prune(self, predict: Predict, provenance, box: InputConstraints,
               catalog: Catalog):
        """``(graph, per_partition_graphs, info)``; graph is None when
        nothing changed. ``box`` holds the global statistics' constraints."""
        info: Dict[str, object] = {}
        # Global statistics pruning.
        graph = predict.graph.copy()
        before = _tree_node_total(graph)
        prune_graph_with_constraints(graph, box)
        after = _tree_node_total(graph)
        changed = after < before
        if changed:
            info["induced_tree_nodes_before"] = before
            info["induced_tree_nodes_after"] = after

        # Per-partition specialization.
        per_partition_graphs: Optional[List[Graph]] = None
        if self.per_partition:
            per_partition_graphs, partition_info = self._specialize_partitions(
                predict, provenance, catalog)
            if per_partition_graphs is not None:
                info.update(partition_info)
                changed = True

        if not changed:
            return None, None, {}
        return graph, per_partition_graphs, info

    def _specialize_partitions(self, predict: Predict, provenance,
                               catalog: Catalog):
        tables = _tables(provenance)
        if len(tables) != 1:
            # Per-partition stats refine nothing when inputs span tables.
            return None, {}
        (table_name,) = tables
        entry = catalog.table(table_name)
        if entry.data.num_partitions <= 1:
            return None, {}

        graphs: List[Graph] = []
        pruned_column_counts: List[int] = []
        original_inputs = len(predict.graph.inputs)
        for partition in entry.data.partitions:
            constraints = constraints_from_stats(
                provenance, {table_name: partition.stats})
            graph = predict.graph.copy()
            prune_graph_with_constraints(graph, constraints)
            # Compose with projection pushdown: features gone from the
            # partition model free their input columns (paper §4.2, Tab. 2).
            pushdown_graph(graph)
            graphs.append(graph)
            pruned_column_counts.append(original_inputs - len(graph.inputs))
        info = {
            "partitions": len(graphs),
            "partition_column": entry.data.partition_column,
            "avg_pruned_columns": (sum(pruned_column_counts)
                                   / max(len(pruned_column_counts), 1)),
        }
        return graphs, info


# ---------------------------------------------------------------------------
# Provenance + constraint building
# ---------------------------------------------------------------------------

def input_column_provenance(predict: Predict, catalog: Catalog
                            ) -> Dict[str, Tuple[str, str]]:
    """Model input name -> (table, column) by resolving scan aliases.

    Only name-preserved columns (``alias.column`` straight from a Scan) are
    resolvable; inputs derived through expressions get no statistics.
    """
    alias_to_table: Dict[str, str] = {}
    for node in walk(predict.child):
        if isinstance(node, Scan):
            alias_to_table[node.alias] = node.table_name
    provenance: Dict[str, Tuple[str, str]] = {}
    for model_input, plan_column in predict.input_mapping.items():
        if "." not in plan_column:
            continue
        alias, column = plan_column.split(".", 1)
        table = alias_to_table.get(alias)
        if table is None or not catalog.has_table(table):
            continue
        if column in catalog.table(table).schema:
            provenance[model_input] = (table, column)
    return provenance


def constraints_from_stats(provenance: Dict[str, Tuple[str, str]],
                           stats_by_table: Dict[str, TableStats]
                           ) -> InputConstraints:
    """Translate min/max (+ small string domains) into input constraints.

    ``nanmin``/``nanmax`` bound only the non-null rows: a column with
    nulls, or whose null count is unknown, gets an interval that may be
    NaN, so no split it decides sends the NaN rows left.
    """
    constraints = InputConstraints.empty()
    for model_input, (table, column) in provenance.items():
        stats = stats_by_table.get(table)
        if stats is None:
            continue
        column_stats = stats.column(column)
        if column_stats is None or column_stats.row_count == 0:
            continue
        interval = column_stats.interval()
        if interval is not None:
            constraints.numeric[model_input] = Interval(
                *interval, may_be_nan=column_stats.null_count != 0)
        elif column_stats.categories is not None:
            constraints.strings[model_input] = StringConstraint(
                tuple(column_stats.categories))
    return constraints


def _tables(provenance: Dict[str, Tuple[str, str]]) -> set:
    return {table for table, _ in provenance.values()}
