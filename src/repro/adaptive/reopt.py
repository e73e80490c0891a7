"""Feedback-driven plan re-optimization.

The optimizer's static rules position operators; these passes *tune* them
from what the :class:`~repro.adaptive.feedback.FeedbackStore` observed:

* **Conjunct reordering** — a Filter over ``a AND b AND c`` is evaluated
  as a short-circuit cascade by the compiled expression engine, so the
  order of conjuncts decides how many rows each one touches. The pass
  orders conjuncts by the classic rank criterion
  ``(selectivity - 1) / cost`` (most filtering power per unit cost
  first), using observed per-conjunct selectivities and per-row costs.
* **Join ordering** — every inner equi-join region reaches this pass as a
  :class:`MultiJoin` in text order (the static pipeline lowers it); a
  region of three or more relations is ordered greedily by estimated
  output cardinality: base-table statistics when cold, FeedbackStore
  EWMA cardinalities and per-edge join selectivities when warm. The
  decision only ever flips ``MultiJoin.order``, whose canonical output
  order (per-input row positions, original input order major) is exactly
  what the written binary-join tree emits — so the rewrite preserves row
  content *and* row order bit-for-bit. (Which side of a join step gets
  sorted is not planned at all: the executor picks it from the row
  counts it sees.)

Every decision carries **hysteresis** (reordering needs a >10% modeled
win), so a warmed plan reaches a fixed point instead of oscillating —
the session re-optimizes a cached plan only while :func:`apply_feedback`
still wants to change it, or when a fingerprint's EWMA drift signal fires.

All rewrites are *result-preserving*: AND is commutative (and reordering
is refused when any conjunct could raise on rows another one guards), and
the MultiJoin emits the canonical (written-order) row order regardless of
its execution sequence.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.profile import (
    conjunct_fingerprint,
    join_step_fingerprint,
    plan_fingerprint,
)
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    UnaryOp,
    conjunction,
    conjuncts,
)
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    MultiJoin,
    PlanNode,
    Project,
    Scan,
    Sort,
    transform_plan,
    walk,
)

# Reordering must model a real win before touching a plan (hysteresis).
REORDER_MIN_GAIN = 0.10
# Join-order changes likewise: the greedy sequence must model at least
# this fractional reduction in summed intermediate cardinalities before a
# (possibly cached, warmed) plan is disturbed.
JOIN_REORDER_MIN_GAIN = 0.10
# Cold-start estimation defaults (no feedback, no statistics): the
# textbook guesses — a filter conjunct keeps 1/4 of its input, a group-by
# collapses to a tenth, an unknown relation has a thousand rows.
DEFAULT_FILTER_SELECTIVITY = 0.25
DEFAULT_GROUP_FRACTION = 0.10
DEFAULT_TABLE_ROWS = 1_000.0

_TOTAL_BINARY_OPS = frozenset(
    {"+", "-", "*", "and", "or", "=", "<>", "<", "<=", ">", ">="})


def _is_total(expr: Expression) -> bool:
    """True when evaluating ``expr`` on any row can never raise or warn.

    Division, casts and library functions (``log``, ``sqrt``, ...) are
    partial: a sibling conjunct may be guarding their domain, so filters
    containing them keep their written order.
    """
    if isinstance(expr, (ColumnRef, Literal)):
        return True
    if isinstance(expr, BinaryOp):
        return (expr.op in _TOTAL_BINARY_OPS
                and _is_total(expr.left) and _is_total(expr.right))
    if isinstance(expr, UnaryOp):
        return _is_total(expr.operand)
    if isinstance(expr, Between):
        return all(_is_total(child) for child in expr.children())
    if isinstance(expr, InList):
        return all(_is_total(child) for child in expr.children())
    return False


def _cascade_cost(order: List[int], selectivities: List[float],
                  costs: List[float]) -> float:
    """Modeled per-row cost of evaluating conjuncts in ``order``.

    Conjunct ``k`` only touches the rows every earlier conjunct kept
    (independence assumption — the same one textbook selectivity
    estimation makes).
    """
    total = 0.0
    active = 1.0
    for index in order:
        total += costs[index] * active
        active *= selectivities[index]
    return total


def plan_conjunct_order(filter_node: Filter, store: FeedbackStore
                        ) -> Optional[List[int]]:
    """The conjunct order feedback prefers, or None to keep the plan's.

    Requires observed selectivity for *every* conjunct (a partially
    observed filter keeps its order), refuses non-total conjuncts, and
    applies rank ordering ``(s - 1) / c`` with a minimum modeled gain.
    """
    parts = conjuncts(filter_node.predicate)
    if len(parts) < 2:
        return None
    if not all(_is_total(part) for part in parts):
        return None
    selectivities: List[float] = []
    costs: List[float] = []
    for index in range(len(parts)):
        feedback = store.observed(conjunct_fingerprint(filter_node, index))
        if feedback is None or feedback.selectivity_fast is None:
            return None
        selectivities.append(min(1.0, max(0.0, feedback.selectivity_fast)))
        costs.append(feedback.seconds_per_row_ewma or 1.0)
    # Normalize costs so the rank is scale-free; guard degenerate zeros.
    mean_cost = sum(costs) / len(costs)
    if mean_cost <= 0.0:
        costs = [1.0] * len(parts)
    else:
        costs = [max(cost / mean_cost, 1e-6) for cost in costs]
    ranks = sorted(range(len(parts)),
                   key=lambda i: ((selectivities[i] - 1.0) / costs[i], i))
    if ranks == list(range(len(parts))):
        return None
    current = _cascade_cost(list(range(len(parts))), selectivities, costs)
    best = _cascade_cost(ranks, selectivities, costs)
    if best >= current * (1.0 - REORDER_MIN_GAIN):
        return None  # not worth disturbing a warmed plan
    return ranks


# ---------------------------------------------------------------------------
# Join ordering: greedy by estimated output cardinality
# ---------------------------------------------------------------------------

def estimated_rows(node: PlanNode, store: FeedbackStore,
                   catalog=None) -> float:
    """Estimated output cardinality of a subplan.

    Observed (FeedbackStore EWMA) when warm; otherwise a structural
    statistics-based estimate: base-table row counts from the catalog,
    scaled by the textbook default selectivity per filter conjunct.
    """
    observed = store.rows_out(plan_fingerprint(node))
    if observed is not None:
        return max(float(observed), 0.0)
    return _static_rows(node, catalog)


def _static_rows(node: PlanNode, catalog) -> float:
    if isinstance(node, Scan):
        if catalog is not None and catalog.has_table(node.table_name):
            return float(catalog.table(node.table_name).num_rows)
        return DEFAULT_TABLE_ROWS
    if isinstance(node, Filter):
        child = _static_rows(node.child, catalog)
        return child * DEFAULT_FILTER_SELECTIVITY ** len(conjuncts(node.predicate))
    if isinstance(node, Limit):
        return min(float(node.count), _static_rows(node.child, catalog))
    if isinstance(node, Aggregate):
        if not node.group_by:
            return 1.0
        return max(1.0, _static_rows(node.child, catalog)
                   * DEFAULT_GROUP_FRACTION)
    if isinstance(node, Join):
        left = _static_rows(node.left, catalog)
        if node.how == "left":
            return left  # left outer preserves the left cardinality
        return max(left, _static_rows(node.right, catalog))
    if isinstance(node, MultiJoin):
        return max(_static_rows(child, catalog) for child in node.inputs)
    children = node.children()
    if len(children) == 1:  # Project / Predict / Sort: row-preserving
        return _static_rows(children[0], catalog)
    return DEFAULT_TABLE_ROWS


def _key_distinct(leaf: PlanNode, column: str, catalog) -> Optional[float]:
    """Distinct count of a join key column from base-table statistics."""
    base = leaf
    while isinstance(base, (Filter, Limit, Sort)):
        base = base.children()[0]
    if not isinstance(base, Scan) or catalog is None:
        return None
    alias, _, unqualified = column.partition(".")
    if alias != base.alias or not catalog.has_table(base.table_name):
        return None
    stats = catalog.table(base.table_name).stats.column(unqualified)
    if stats is None or stats.distinct_count is None:
        return None
    return float(max(stats.distinct_count, 1))


class _JoinOrderModel:
    """Cost model over one join region: cards + step selectivities."""

    def __init__(self, region: MultiJoin, store: FeedbackStore, catalog):
        self.region = region
        self.leaves = region.inputs
        self.edges = region.edges
        self.cards = [estimated_rows(leaf, store, catalog)
                      for leaf in self.leaves]
        self.store = store
        self.catalog = catalog
        self._sel_cache: Dict[Tuple[FrozenSet[int], int], Optional[float]] = {}

    def selectivity(self, joined: FrozenSet[int],
                    target: int) -> Optional[float]:
        """Selectivity of joining ``target`` into ``joined``; None when
        disconnected (a cross product — never chosen)."""
        key = (joined, target)
        if key in self._sel_cache:
            return self._sel_cache[key]
        fingerprint = join_step_fingerprint(self.region, joined, target)
        if fingerprint is None:
            self._sel_cache[key] = None
            return None
        observed = self.store.selectivity(fingerprint)
        if observed is not None:
            result = min(max(float(observed), 0.0), 1.0)
        else:
            # Cold: the classic 1 / max(ndv) per key pair, with the leaf's
            # estimated cardinality standing in for an unknown ndv.
            result = 1.0
            for edge in self.region.edges_into(joined, target):
                ndv_left = _key_distinct(self.leaves[edge.left_input],
                                         edge.left_key, self.catalog) \
                    or max(self.cards[edge.left_input], 1.0)
                ndv_right = _key_distinct(self.leaves[edge.right_input],
                                          edge.right_key, self.catalog) \
                    or max(self.cards[edge.right_input], 1.0)
                result /= max(ndv_left, ndv_right, 1.0)
        self._sel_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def greedy_sequence(self) -> Optional[List[int]]:
        """Greedy order: cheapest connected pair first, then repeatedly
        the connected input minimizing the estimated step output."""
        count = len(self.leaves)
        pairs = sorted({(edge.left_input, edge.right_input)
                        for edge in self.edges})
        best_pair = None
        best_key = None
        for i, j in pairs:
            sel = self.selectivity(frozenset((i,)), j)
            if sel is None:  # pragma: no cover - pairs share an edge
                continue
            out = self.cards[i] * self.cards[j] * sel
            key = (out, min(self.cards[i], self.cards[j]), i, j)
            if best_key is None or key < best_key:
                best_key, best_pair = key, (i, j, out)
        if best_pair is None:
            return None
        i, j, current = best_pair
        sequence = [i, j]
        joined = {i, j}
        while len(sequence) < count:
            best_target = None
            best_target_key = None
            for target in range(count):
                if target in joined:
                    continue
                sel = self.selectivity(frozenset(joined), target)
                if sel is None:
                    continue  # not yet connected
                out = current * self.cards[target] * sel
                key = (out, self.cards[target], target)
                if best_target_key is None or key < best_target_key:
                    best_target_key = key
                    best_target = (target, out)
            if best_target is None:
                return None  # disconnected graph: keep the written order
            target, current = best_target
            sequence.append(target)
            joined.add(target)
        return sequence

    def sequence_cost(self, sequence: List[int]) -> float:
        """Summed estimated intermediate cardinalities (the C_out model)."""
        current = self.cards[sequence[0]]
        joined = {sequence[0]}
        total = 0.0
        for target in sequence[1:]:
            sel = self.selectivity(frozenset(joined), target)
            if sel is None:
                return float("inf")  # sequence needs a cross product
            current = current * self.cards[target] * sel
            total += current
            joined.add(target)
        return total


def plan_join_order(node: MultiJoin, store: FeedbackStore,
                    catalog=None) -> Optional[List[int]]:
    """The execution sequence feedback/statistics prefer, or None.

    Returns a permutation of the region's inputs, only when it differs
    from the node's current sequence *and* models at least
    :data:`JOIN_REORDER_MIN_GAIN` less summed intermediate cardinality
    (hysteresis — warmed plans reach a fixed point). A two-input region
    has one sequence.
    """
    if len(node.inputs) < 3:
        return None
    model = _JoinOrderModel(node, store, catalog)
    current = node.sequence()
    greedy = model.greedy_sequence()
    if greedy is None or greedy == current:
        return None
    current_cost = model.sequence_cost(current)
    greedy_cost = model.sequence_cost(greedy)
    if greedy_cost >= current_cost * (1.0 - JOIN_REORDER_MIN_GAIN):
        return None
    return greedy


#: Aggregate functions whose result is invariant under any permutation of
#: their input rows. ``sum``/``avg`` are excluded deliberately: float
#: addition is non-associative, so a different accumulation order can
#: differ in the last ULPs — and bit-for-bit means bit-for-bit.
PERMUTATION_INVARIANT_AGGS = frozenset({"count", "min", "max"})


def _order_free_below(node: PlanNode, order_free: bool) -> bool:
    """Whether row order is unobservable in ``node``'s inputs, given
    whether it is in ``node``'s output (see
    :func:`_annotate_order_insensitive`)."""
    if isinstance(node, Aggregate):
        return all(spec.func in PERMUTATION_INVARIANT_AGGS
                   for spec in node.aggregates)
    if isinstance(node, (Filter, Project)):
        return order_free
    # Order-sensitive consumers (Sort re-sorts but Limit/Join/Predict
    # observe row order; being conservative costs only the sort), and a
    # MultiJoin's own inputs.
    return False


def _annotate_order_insensitive(node: PlanNode,
                                order_free: bool = False) -> PlanNode:
    """Mark MultiJoins whose canonical output sort provably cannot matter.

    ``order_free`` is True when every operator between here and the query
    result includes an ``Aggregate`` whose functions are all
    permutation-invariant (:data:`PERMUTATION_INVARIANT_AGGS`), reached
    through row-order-preserving operators only (``Filter``/``Project``)
    — grouped output is keyed (sorted by group value), so row order below
    such an aggregate is unobservable. A marked ``MultiJoin`` skips its
    canonical output sort; unmarked plans keep the sorted path, which is
    the differential oracle for this rewrite. Identity-preserving when
    nothing changes, like every reopt pass.
    """
    child_free = _order_free_below(node, order_free)
    if isinstance(node, MultiJoin):
        inputs = [_annotate_order_insensitive(child, child_free)
                  for child in node.inputs]
        changed = any(new is not old
                      for new, old in zip(inputs, node.inputs))
        if order_free != node.order_insensitive or changed:
            return MultiJoin(inputs, node.edges, node.order,
                             order_insensitive=order_free)
        return node
    children = node.children()
    if not children:
        return node
    new_children = [_annotate_order_insensitive(child, child_free)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return node
    return node.with_children(new_children)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def apply_feedback(plan: PlanNode, store: FeedbackStore, catalog=None
                   ) -> Tuple[PlanNode, bool, Dict[str, object]]:
    """Rewrite ``plan`` using observed feedback.

    Returns ``(plan, changed, info)``; ``changed`` is False when every
    decision matched what the plan already encodes — which is also the
    session's staleness test for cached plans (a warmed plan goes stale
    exactly when this pass would now produce something different).

    ``catalog`` (optional) supplies base-table statistics for the join
    ordering pass's cold estimates; without it the pass still runs on
    feedback observations and default guesses.
    """
    info: Dict[str, object] = {
        "filters_reordered": 0,
        "joins_reordered": 0,
        "joins_sort_skipped": 0,
    }

    def rewrite(node: PlanNode) -> Optional[PlanNode]:
        if isinstance(node, Filter):
            order = plan_conjunct_order(node, store)
            if order is None:
                return None
            parts = conjuncts(node.predicate)
            info["filters_reordered"] += 1
            predicate = conjunction([parts[index] for index in order])
            return Filter(node.child, predicate)
        if isinstance(node, MultiJoin):
            desired = plan_join_order(node, store, catalog)
            if desired is None:
                return None
            info["joins_reordered"] += 1
            # The text-order sequence is spelled "no annotation".
            order = None if desired == sorted(desired) else desired
            return MultiJoin(node.inputs, node.edges, order,
                             order_insensitive=node.order_insensitive)
        return None

    rewritten = _annotate_order_insensitive(transform_plan(plan, rewrite))
    info["joins_sort_skipped"] = sum(
        1 for node in walk(rewritten)
        if isinstance(node, MultiJoin) and node.order_insensitive)
    # Every decision that differs from the plan returns a replacement
    # node, so object identity is the complete change test (it also
    # catches annotation *reverts*, which increment no counter).
    return rewritten, rewritten is not plan, info


def feedback_divergence(plan: PlanNode, store: FeedbackStore,
                        catalog=None) -> bool:
    """Would :func:`apply_feedback` change ``plan`` right now?

    The session calls this after each profiled execution of a cached
    plan; True marks the cache entry stale so the next lookup re-optimizes
    through the single-flight path. It asks each Filter and MultiJoin the
    question :func:`apply_feedback` asks it, read-only, and stops at the
    first differing answer, so a converged plan is never rebuilt to learn
    that nothing changes. (The answers match: every decision reads
    structural fingerprints, which a rewritten child leaves as they
    were.)
    """
    for node, order_free in _decision_sites(plan):
        if isinstance(node, Filter):
            if plan_conjunct_order(node, store) is not None:
                return True
        elif node.order_insensitive != order_free \
                or plan_join_order(node, store, catalog) is not None:
            return True
    return False


def _decision_sites(plan: PlanNode) -> Tuple[Tuple[PlanNode, bool], ...]:
    """The Filters and MultiJoins of ``plan``, each with whether row order
    is unobservable at its output; cached on the (immutable) root."""
    cached = plan.__dict__.get("_adaptive_sites")
    if cached is None:
        sites: List[Tuple[PlanNode, bool]] = []

        def visit(node: PlanNode, order_free: bool) -> None:
            if isinstance(node, (Filter, MultiJoin)):
                sites.append((node, order_free))
            child_free = _order_free_below(node, order_free)
            for child in node.children():
                visit(child, child_free)

        visit(plan, False)
        cached = plan._adaptive_sites = tuple(sites)
    return cached
