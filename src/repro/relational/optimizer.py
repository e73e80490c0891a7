"""Relational optimizer passes.

These are the host-engine optimizations that the paper relies on Spark /
SQL Server to perform after Raven's rewrites (paper §2.2: "well known
optimizations are also triggered by the data engine"): predicate pushdown,
projection pruning down to scans, PK-FK join elimination and constant
folding. Raven's model-projection pushdown only pays off because these
passes then push the narrowed column set below joins and into scans.

:func:`lower_joins` is the last static step of the Raven optimizer (not of
:class:`RelationalOptimizer`, whose output stays the written ``Join``
tree — the reference the lowered path is tested against): every inner
equi-join region becomes one row-index :class:`MultiJoin`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    conjunction,
    conjuncts,
    fold_constants,
    substitute_columns,
)
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
    transform_plan,
)
from repro.storage.catalog import Catalog
from repro.storage.column import DataType


class RelationalOptimizer:
    """Runs the standard pass pipeline over a logical plan."""

    def __init__(self, catalog: Catalog, assume_referential_integrity: bool = True):
        self.catalog = catalog
        self.assume_referential_integrity = assume_referential_integrity

    def optimize(self, plan: PlanNode) -> PlanNode:
        plan = fold_plan_constants(plan)
        plan = merge_filters(plan)
        plan = push_down_filters(plan, self.catalog)
        plan = prune_columns(plan, self.catalog)
        if self.assume_referential_integrity:
            plan = eliminate_joins(plan, self.catalog)
            plan = prune_columns(plan, self.catalog)
        plan = drop_trivial_filters(plan)
        return plan


# ---------------------------------------------------------------------------
# Constant folding / trivial filters
# ---------------------------------------------------------------------------

def fold_plan_constants(plan: PlanNode) -> PlanNode:
    def fold(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Filter):
            return Filter(node.child, fold_constants(node.predicate))
        if isinstance(node, Project):
            return Project(node.child,
                           [(n, fold_constants(e)) for n, e in node.outputs])
        return None

    return transform_plan(plan, fold)


def drop_trivial_filters(plan: PlanNode) -> PlanNode:
    def drop(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Filter) and isinstance(node.predicate, Literal):
            if node.predicate.dtype is DataType.BOOL and node.predicate.value:
                return node.child
        return None

    return transform_plan(plan, drop)


def merge_filters(plan: PlanNode) -> PlanNode:
    def merge(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Filter) and isinstance(node.child, Filter):
            combined = BinaryOp("and", node.child.predicate, node.predicate)
            return Filter(node.child.child, combined)
        return None

    return transform_plan(plan, merge)


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------

def push_down_filters(plan: PlanNode, catalog: Optional[Catalog] = None) -> PlanNode:
    """Push filter conjuncts as close to the scans as possible.

    ``catalog`` (when given) resolves the schemas of unpruned scans so that
    predicates can move below joins even before column pruning ran.
    """

    def push(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, Filter):
            return None
        child = node.child
        parts = conjuncts(node.predicate)

        if isinstance(child, Project):
            mapping = {name: expr for name, expr in child.outputs}
            rewritten = [substitute_columns(p, mapping) for p in parts]
            pushed = Filter(child.child, conjunction(rewritten))
            return Project(push_down_filters(pushed, catalog), child.outputs)

        if isinstance(child, Join):
            left_names = set(_plan_column_names(child.left, catalog))
            right_names = set(_plan_column_names(child.right, catalog))
            to_left, to_right, keep = [], [], []
            for part in parts:
                refs = part.referenced_columns()
                if refs and refs <= left_names:
                    # Left-side predicates (including ones over the join
                    # keys) commute with both inner and left outer joins:
                    # they decide which left rows exist at all, which is
                    # the same set whether applied before or after the
                    # join null-extends unmatched survivors.
                    to_left.append(part)
                elif refs and refs <= right_names:
                    # Under a left outer join, right-side predicates do not
                    # commute with the join: applied below, a failing right
                    # row turns its left partner into a null-extended row
                    # instead of dropping it. Keep them above.
                    (to_right if child.how == "inner" else keep).append(part)
                else:
                    keep.append(part)
            if not to_left and not to_right:
                return None
            left = child.left if not to_left else Filter(child.left, conjunction(to_left))
            right = child.right if not to_right else Filter(child.right, conjunction(to_right))
            new_join = Join(push_down_filters(left, catalog),
                            push_down_filters(right, catalog),
                            child.left_keys, child.right_keys, child.how)
            if keep:
                return Filter(new_join, conjunction(keep))
            return new_join

        if isinstance(child, Predict):
            child_names = set(_plan_column_names(child.child, catalog))
            below, above = [], []
            for part in parts:
                refs = part.referenced_columns()
                (below if refs and refs <= child_names else above).append(part)
            if not below:
                return None
            pushed = Filter(child.child, conjunction(below))
            new_predict = child.with_children([push_down_filters(pushed, catalog)])
            if above:
                return Filter(new_predict, conjunction(above))
            return new_predict

        if isinstance(child, Aggregate):
            group_keys = set(child.group_by)
            below, above = [], []
            for part in parts:
                refs = part.referenced_columns()
                (below if refs and refs <= group_keys else above).append(part)
            if not below:
                return None
            pushed = Filter(child.child, conjunction(below))
            new_agg = child.with_children([push_down_filters(pushed, catalog)])
            if above:
                return Filter(new_agg, conjunction(above))
            return new_agg

        if isinstance(child, Sort):
            return Sort(Filter(child.child, node.predicate), child.keys)

        return None

    # Iterate to fixpoint: pushing a filter may expose another opportunity.
    previous = None
    current = plan
    while previous is not current:
        previous = current
        current = transform_plan(current, push)
    return current


def _plan_column_names(plan: PlanNode, catalog: Optional[Catalog] = None) -> List[str]:
    """Output column names via a structural walk (catalog resolves scans)."""
    if isinstance(plan, Scan):
        if plan.columns is not None:
            return [f"{plan.alias}.{c}" for c in plan.columns]
        if catalog is not None and catalog.has_table(plan.table_name):
            return plan.output_schema(catalog).names
        # Unknown without a catalog; a wildcard marker blocks pushdown.
        return [f"{plan.alias}.*"]
    if isinstance(plan, Project):
        return [name for name, _ in plan.outputs]
    if isinstance(plan, (Join, MultiJoin)):
        names: List[str] = []
        for child in plan.children():
            names += _plan_column_names(child, catalog)
        return names
    if isinstance(plan, Predict):
        base = plan.keep_columns if plan.keep_columns is not None \
            else _plan_column_names(plan.child, catalog)
        return list(base) + [name for name, _, _ in plan.output_columns]
    if isinstance(plan, Aggregate):
        return list(plan.group_by) + [s.name for s in plan.aggregates]
    children = plan.children()
    if len(children) == 1:
        return _plan_column_names(children[0], catalog)
    return []


# ---------------------------------------------------------------------------
# Column pruning
# ---------------------------------------------------------------------------

def prune_columns(plan: PlanNode, catalog: Catalog,
                  required: Optional[Set[str]] = None) -> PlanNode:
    """Narrow every operator to the columns actually needed above it.

    ``required=None`` keeps the plan's full output (used at the root).
    """
    if required is None:
        required = set(plan.output_schema(catalog).names)

    if isinstance(plan, Scan):
        available = plan.output_schema(catalog).names
        keep = [name for name in available if name in required]
        unqualified = [name.split(".", 1)[1] for name in keep]
        if not unqualified:
            # Keep one column so the row count survives (e.g. COUNT(*)).
            unqualified = [available[0].split(".", 1)[1]] if available else []
        return Scan(plan.table_name, plan.alias, unqualified)

    if isinstance(plan, Filter):
        child_required = set(required) | plan.predicate.referenced_columns()
        return Filter(prune_columns(plan.child, catalog, child_required),
                      plan.predicate)

    if isinstance(plan, Project):
        kept = [(n, e) for n, e in plan.outputs if n in required]
        if not kept:
            kept = plan.outputs[:1]
        child_required: Set[str] = set()
        for _, expr in kept:
            child_required |= expr.referenced_columns()
        if not child_required:
            # Pure-literal projection still needs the child's cardinality.
            child_names = plan.child.output_schema(catalog).names
            child_required = set(child_names[:1])
        return Project(prune_columns(plan.child, catalog, child_required), kept)

    if isinstance(plan, Join):
        left_names = set(plan.left.output_schema(catalog).names)
        right_names = set(plan.right.output_schema(catalog).names)
        left_required = (required & left_names) | set(plan.left_keys)
        right_required = (required & right_names) | set(plan.right_keys)
        return Join(prune_columns(plan.left, catalog, left_required),
                    prune_columns(plan.right, catalog, right_required),
                    plan.left_keys, plan.right_keys, plan.how)

    if isinstance(plan, Aggregate):
        child_required = set(plan.group_by)
        for spec in plan.aggregates:
            if spec.column is not None:
                child_required.add(spec.column)
        if not child_required:
            child_names = plan.child.output_schema(catalog).names
            child_required = set(child_names[:1])
        return Aggregate(prune_columns(plan.child, catalog, child_required),
                         plan.group_by, plan.aggregates)

    if isinstance(plan, Sort):
        child_required = set(required) | {name for name, _ in plan.keys}
        return Sort(prune_columns(plan.child, catalog, child_required), plan.keys)

    if isinstance(plan, Limit):
        return Limit(prune_columns(plan.child, catalog, required), plan.count)

    if isinstance(plan, Predict):
        child_names = plan.child.output_schema(catalog).names
        kept = [n for n in (plan.keep_columns if plan.keep_columns is not None
                            else child_names) if n in required]
        child_required = set(kept) | set(plan.input_mapping.values())
        pruned_child = prune_columns(plan.child, catalog, child_required)
        return plan.replace(child=pruned_child, keep_columns=kept)

    children = plan.children()
    new_children = [prune_columns(c, catalog, None) for c in children]
    return plan.with_children(new_children)


# ---------------------------------------------------------------------------
# PK-FK join elimination
# ---------------------------------------------------------------------------

def eliminate_joins(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Remove inner joins against a primary-key table whose only required
    columns are the join keys themselves.

    Validity needs (a) uniqueness of the PK side (each probe row matches at
    most once — guaranteed by the primary key) and (b) referential integrity
    (each probe row matches at least once — an engine-level assumption the
    caller opts into). Both Spark and SQL Server perform this rewrite when
    constraints are declared; Raven's model-projection pushdown is what
    creates the opportunity (paper §4.1: "avoid those joins altogether").
    """

    def eliminate(node: PlanNode) -> Optional[PlanNode]:
        if not isinstance(node, Join) or node.how != "inner":
            return None
        # Try dropping the right side, then the left side.
        replacement = _try_drop_side(node, catalog, drop_right=True)
        if replacement is not None:
            return replacement
        return _try_drop_side(node, catalog, drop_right=False)

    previous = None
    current = plan
    while previous is not current:
        previous = current
        current = transform_plan(current, eliminate)
    return current


def _try_drop_side(join: Join, catalog: Catalog, drop_right: bool) -> Optional[PlanNode]:
    doomed = join.right if drop_right else join.left
    kept = join.left if drop_right else join.right
    doomed_keys = join.right_keys if drop_right else join.left_keys
    kept_keys = join.left_keys if drop_right else join.right_keys

    if not isinstance(doomed, Scan):
        return None
    entry = catalog.table(doomed.table_name)
    if not entry.primary_key:
        return None
    doomed_unqualified = [k.split(".", 1)[1] for k in doomed_keys]
    if sorted(entry.primary_key) != sorted(doomed_unqualified):
        return None
    produced = set(doomed.output_schema(catalog).names)
    if not produced <= set(doomed_keys):
        return None  # a non-key column of the PK table is still needed

    # Re-expose the dropped side's key columns as aliases of the kept keys;
    # they are equal on every surviving (inner-join) row.
    kept_names = kept.output_schema(catalog).names
    outputs: List[Tuple[str, Expression]] = [(n, ColumnRef(n)) for n in kept_names]
    for doomed_key, kept_key in zip(doomed_keys, kept_keys):
        outputs.append((doomed_key, ColumnRef(kept_key)))
    return Project(kept, outputs)


# ---------------------------------------------------------------------------
# Join lowering: inner-join regions run as one row-index MultiJoin
# ---------------------------------------------------------------------------

def _leaf_claims(node: PlanNode) -> Tuple[set, set]:
    """(exact column names, alias prefixes) a region leaf can produce.

    Used to attribute a join key column to one leaf. A ``Scan`` claims its
    alias as a prefix (covering unpruned ``columns=None`` scans); nodes
    with explicit output lists claim exact names. Unknown operators claim
    nothing, which makes the attribution — and therefore the region
    extraction — fail safely.
    """
    if isinstance(node, Scan):
        exact = set() if node.columns is None else \
            {f"{node.alias}.{c}" for c in node.columns}
        return exact, {node.alias}
    if isinstance(node, Project):
        return {name for name, _ in node.outputs}, set()
    if isinstance(node, Aggregate):
        return set(node.group_by) | {s.name for s in node.aggregates}, set()
    if isinstance(node, Predict):
        outputs = {name for name, _, _ in node.output_columns}
        if node.keep_columns is not None:
            return set(node.keep_columns) | outputs, set()
        exact, prefixes = _leaf_claims(node.child)
        return exact | outputs, prefixes
    if isinstance(node, (Filter, Sort, Limit)):
        return _leaf_claims(node.children()[0])
    if isinstance(node, (Join, MultiJoin)):
        exact: set = set()
        prefixes: set = set()
        for child in node.children():
            child_exact, child_prefixes = _leaf_claims(child)
            exact |= child_exact
            prefixes |= child_prefixes
        return exact, prefixes
    return set(), set()


def join_region(node: PlanNode) -> Optional[MultiJoin]:
    """The maximal inner-join region rooted at ``node``, flattened into a
    text-order :class:`MultiJoin`, or None.

    The inputs are the region's non-inner-join subplans in original
    (in-order, i.e. query text) order; the edges its equi-join key pairs
    mapped onto input indices. None when ``node`` is not an inner
    ``Join``, when a join key cannot be attributed to exactly one leaf,
    or when the leaf order violates the connected-prefix property (a
    bushy shape whose in-order sequence would need a cross product).
    """
    if not (isinstance(node, Join) and node.how == "inner"):
        return None
    leaves: List[PlanNode] = []
    pairs: List[Tuple[str, str]] = []  # (key column, key column)

    def flatten(current: PlanNode) -> None:
        if isinstance(current, Join) and current.how == "inner":
            flatten(current.left)
            flatten(current.right)
            pairs.extend(zip(current.left_keys, current.right_keys))
        else:
            leaves.append(current)

    flatten(node)
    claims = [_leaf_claims(leaf) for leaf in leaves]

    def leaf_of(column: str) -> Optional[int]:
        matches = [index for index, (exact, prefixes) in enumerate(claims)
                   if column in exact or column.split(".", 1)[0] in prefixes]
        return matches[0] if len(matches) == 1 else None

    edges: List[JoinEdge] = []
    for left_key, right_key in pairs:
        left_leaf = leaf_of(left_key)
        right_leaf = leaf_of(right_key)
        if left_leaf is None or right_leaf is None or left_leaf == right_leaf:
            return None
        if left_leaf > right_leaf:
            left_leaf, right_leaf = right_leaf, left_leaf
            left_key, right_key = right_key, left_key
        edges.append(JoinEdge(left_leaf, right_leaf, left_key, right_key))
    # Connected-prefix check: leaf i must share an edge with a leaf < i.
    for index in range(1, len(leaves)):
        if not any(edge.right_input == index for edge in edges):
            return None
    return MultiJoin(leaves, edges)


def lower_joins(plan: PlanNode) -> PlanNode:
    """Lower every maximal inner-join region :func:`join_region` can
    extract (two inputs included) to a text-order ``MultiJoin``.

    Top-down, so a region is taken at its topmost join; the pass then
    continues inside the region's inputs. Binary ``Join`` nodes survive
    only as left outer joins and un-attributable regions. A join-free
    plan comes back as the same object.
    """
    plan = join_region(plan) or plan
    children = plan.children()
    new_children = [lower_joins(child) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return plan
    return plan.with_children(new_children)
