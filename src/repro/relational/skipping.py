"""Partition skipping (data skipping) from per-partition statistics.

Paper §4.2: "Data statistics can also be used in concert with data
partitioning to further speed up query execution, for instance by means of
data skipping." A filter conjunct over a partitioned table's column is
checked against each partition's min/max (or tracked category set); a
partition whose statistics *prove* the predicate unsatisfiable is never
scanned.

The analysis reuses the optimizer's constraint machinery
(:mod:`repro.core.rules.intervals` parses predicates into intervals /
string sets), keeping one soundness story for pruning models and pruning
partitions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.relational.expressions import conjuncts
from repro.relational.logical import Filter, PlanNode, Scan, walk
from repro.storage.catalog import Catalog
from repro.storage.statistics import TableStats


def plan_partition_restrictions(plan: PlanNode, catalog: Catalog
                                ) -> Dict[Scan, List[int]]:
    """Partition indices each scan must read, keyed by the ``Scan`` node
    itself; scans not listed read all.

    A restriction belongs to the scan it was proven for, and only the
    node identifies that scan: a table name is shared by the two sides
    of a self-join, and an alias is only unique within one SELECT (two
    subqueries may both say ``t AS x``). A node the plan reaches at more
    than one place (a CTE referenced twice) is left unrestricted. Only
    filters sitting *directly above* a scan (possibly stacked) are
    used — after the relational optimizer's pushdown pass that is where
    every single-table conjunct lives, so the analysis stays trivially
    sound (no reasoning across joins needed).
    """
    restrictions: Dict[Scan, List[int]] = {}
    seen: Set[Scan] = set()
    shared: Set[Scan] = set()
    for node in walk(plan):
        if isinstance(node, Scan):
            (shared if node in seen else seen).add(node)
        if not isinstance(node, Filter):
            continue
        scan = _scan_below(node)
        if scan is None:
            continue
        entry = catalog.table(scan.table_name) \
            if catalog.has_table(scan.table_name) else None
        if entry is None or entry.data.num_partitions <= 1:
            continue
        kept = _surviving_partitions(node, scan, entry)
        if kept is not None and len(kept) < entry.data.num_partitions:
            previous = restrictions.get(scan)
            if previous is not None:
                kept = sorted(set(previous) & set(kept))
            restrictions[scan] = kept
    for scan in shared:
        restrictions.pop(scan, None)
    return restrictions


def _scan_below(filter_node: Filter) -> Optional[Scan]:
    node: PlanNode = filter_node.child
    while isinstance(node, Filter):
        node = node.child
    return node if isinstance(node, Scan) else None


def _surviving_partitions(filter_node: Filter, scan: Scan,
                          entry) -> Optional[List[int]]:
    from repro.core.rules.intervals import Interval, StringConstraint
    from repro.core.rules.predicate_pruning import parse_constraint

    parsed = []
    node: PlanNode = filter_node
    while isinstance(node, Filter):
        for conjunct in conjuncts(node.predicate):
            constraint = parse_constraint(conjunct)
            if constraint is not None:
                parsed.append(constraint)
        node = node.child
    if not parsed:
        return None

    kept: List[int] = []
    for index, partition in enumerate(entry.data.partitions):
        if not _provably_empty(parsed, scan.alias, partition.stats):
            kept.append(index)
    return kept


def _provably_empty(parsed, alias: str, stats: TableStats) -> bool:
    """True when any conjunct is unsatisfiable under the partition stats."""
    from repro.core.rules.intervals import Interval, StringConstraint

    for column, constraint in parsed:
        unqualified = column.split(".", 1)[1] if "." in column else column
        column_stats = stats.column(unqualified)
        if column_stats is None:
            continue
        if isinstance(constraint, Interval):
            if column_stats.row_count and column_stats.null_count is not None \
                    and column_stats.null_count == column_stats.row_count:
                # Every value is NaN, and NaN satisfies no interval
                # (comparisons with NaN are always false).
                return True
            observed = column_stats.interval()
            if observed is None:
                continue
            if Interval(*observed).intersect(constraint).is_empty:
                return True
        elif isinstance(constraint, StringConstraint):
            categories = column_stats.categories
            if categories is None:
                continue
            if not set(constraint.values) & set(categories):
                return True
    return False
