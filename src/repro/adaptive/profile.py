"""Runtime operator profiling: rows-in/rows-out and wall time per operator.

The optimizer never sees a single run today: it estimates selectivities
and costs statically, and a misestimate is baked into the cached plan
forever. This module closes half of that loop — it observes. The
relational executor records every operator's rows in/out and inclusive
wall time (and, for filters over conjunctions, the per-conjunct cascade)
on the run's :class:`PlanProfiler` — the executor-facing half of the
per-query record, :class:`~repro.core.session.RunStats`;
:meth:`PlanProfiler.profile_tree` links the observations into an
:class:`OperatorProfile` tree mirroring the plan, which EXPLAIN ANALYZE
renders and the :class:`~repro.adaptive.feedback.FeedbackStore` folds in.

Profiles aggregate under **structural fingerprints** rather than object
identities, so observations survive re-optimization: a re-optimized plan
whose subtrees are structurally identical keeps accumulating into the
same feedback keys. Fingerprints are cached on the plan nodes themselves
(the same per-plan-node caching pattern the compiled-expression programs
use), deliberately ignore pure execution annotations (join order and
the order-insensitive mark), and treat AND-conjunctions as order-insensitive —
reordering a filter's conjuncts must not orphan its history.

Overhead is two ``perf_counter()`` calls and one dict update per operator
per execution — noise next to any vectorized kernel.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.relational.expressions import Expression, conjuncts
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
)


def _digest(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()[:16]


def plan_fingerprint(node: PlanNode) -> str:
    """Deterministic structural fingerprint of a plan subtree.

    Cached on the node (``node._adaptive_fp``). Two properties matter for
    feedback aggregation:

    * execution *annotations* (``MultiJoin.order``,
      ``MultiJoin.order_insensitive``) are excluded — they change how a
      node runs, not what it computes;
    * a Filter's conjuncts hash as a sorted multiset — ``a AND b`` and
      ``b AND a`` share one feedback history, so reordering by observed
      selectivity does not reset the observations that drove it.
    """
    cached = node.__dict__.get("_adaptive_fp")
    if cached is not None:
        return cached
    child_fps = [plan_fingerprint(child) for child in node.children()]
    if isinstance(node, Scan):
        cols = "*" if node.columns is None else ",".join(node.columns)
        payload = f"Scan:{node.table_name}:{node.alias}:{cols}"
    elif isinstance(node, Filter):
        parts = sorted(repr(p) for p in conjuncts(node.predicate))
        payload = "Filter:" + "&".join(parts)
    elif isinstance(node, Project):
        payload = "Project:" + ";".join(f"{n}={e!r}" for n, e in node.outputs)
    elif isinstance(node, Join):
        keys = ",".join(f"{lk}={rk}" for lk, rk
                        in zip(node.left_keys, node.right_keys))
        payload = f"Join:{node.how}:{keys}"
    elif isinstance(node, MultiJoin):
        # The execution `order` is a pure annotation: differently-ordered
        # MultiJoins over the same inputs/edges share one feedback history.
        # Edges hash as a sorted multiset — they carry no order of their
        # own.
        edges = sorted(f"{e.left_input}.{e.left_key}={e.right_input}.{e.right_key}"
                       for e in node.edges)
        payload = "MultiJoin:" + "&".join(edges)
    elif isinstance(node, Predict):
        mapping = ",".join(f"{k}->{v}"
                           for k, v in sorted(node.input_mapping.items()))
        outs = ",".join(f"{n}:{g}:{d.name}" for n, g, d in node.output_columns)
        kept = "*" if node.keep_columns is None else ",".join(node.keep_columns)
        payload = (f"Predict:{node.model_name}:{node.mode.value}:"
                   f"{mapping}:{outs}:{kept}")
    elif isinstance(node, Aggregate):
        aggs = ",".join(f"{s.name}={s.func}({s.column})"
                        for s in node.aggregates)
        payload = f"Aggregate:{','.join(node.group_by)}:{aggs}"
    elif isinstance(node, Sort):
        keys = ",".join(f"{c}:{asc}" for c, asc in node.keys)
        payload = f"Sort:{keys}"
    elif isinstance(node, Limit):
        payload = f"Limit:{node.count}"
    else:  # unknown operator: fall back to its label
        payload = node._label()
    fingerprint = _digest(payload + "|" + "|".join(child_fps))
    node._adaptive_fp = fingerprint
    return fingerprint


def partition_fingerprint(fingerprint: str, partition: int) -> str:
    """Fingerprint of one partition's view of an operator.

    The partition dimension of the feedback store: observations of the
    same structural operator over different partitions of its table
    accumulate separately, so per-shard selectivity skew is learnable
    (data-induced plan specialization, skew-aware morsel scheduling).
    Keyed by partition *index* — partitioning is part of the catalog
    entry, so an index is stable until the table itself is replaced,
    which also rolls the plan fingerprints it composes with.
    """
    return _digest(f"partition:{fingerprint}:{partition}")


def conjunct_fingerprint(filter_node: Filter, index: int) -> str:
    """Fingerprint of one conjunct of a Filter's predicate.

    Keyed by the child subtree plus the conjunct expression — *not* by the
    conjunct's position — so observed selectivities survive reordering.
    Cached per node (the conjunct list is immutable once planned).
    """
    cached = filter_node.__dict__.get("_adaptive_conjunct_fps")
    if cached is None:
        child_fp = plan_fingerprint(filter_node.child)
        cached = tuple(
            _digest(f"conjunct:{child_fp}:{part!r}")
            for part in conjuncts(filter_node.predicate)
        )
        filter_node._adaptive_conjunct_fps = cached
    return cached[index]


def join_edge_fingerprint(leaf_fps: List[str],
                          edges: List[JoinEdge]) -> str:
    """Fingerprint of one join *step*: the edge set it resolves.

    Order-insensitive between the two sides of each edge and across the
    edges of the step, and keyed by the leaf subtrees' structural
    fingerprints — so the observation recorded when the text-order plan
    joined (fact ⋈ dim) is exactly what the ordering pass looks up when it
    evaluates joining dim at any other position.
    """
    parts = []
    for edge in edges:
        sides = sorted([f"{leaf_fps[edge.left_input]}:{edge.left_key}",
                        f"{leaf_fps[edge.right_input]}:{edge.right_key}"])
        parts.append("=".join(sides))
    return _digest("joinstep:" + "&".join(sorted(parts)))


def join_step_fingerprint(node: MultiJoin, joined: FrozenSet[int],
                          target: int) -> Optional[str]:
    """Fingerprint of the step joining input ``target`` of ``node`` to the
    inputs ``joined``, or None when no edge connects them.

    Cached on the node per ``(joined, target)``: the join-ordering model
    asks for the same few steps after every warm execution.
    """
    cache = node.__dict__.get("_adaptive_edge_fps")
    if cache is None:
        cache = node.__dict__.setdefault("_adaptive_edge_fps", {})
    key = (joined, target)
    if key not in cache:
        edges = node.edges_into(joined, target)
        cache[key] = join_edge_fingerprint(
            [plan_fingerprint(leaf) for leaf in node.inputs],
            edges) if edges else None
    return cache[key]


def join_step_fingerprints(node: MultiJoin) -> Tuple[str, ...]:
    """One fingerprint per step of a ``MultiJoin``'s execution sequence
    (position 0 — the starting input — has no step), cached on the node."""
    cached = node.__dict__.get("_adaptive_step_fps")
    if cached is None:
        sequence = node.sequence()
        cached = node._adaptive_step_fps = tuple(
            join_step_fingerprint(node, frozenset(sequence[:position]),
                                  sequence[position])
            for position in range(1, len(sequence)))
    return cached


# ---------------------------------------------------------------------------
# Profile data model
# ---------------------------------------------------------------------------

def _lazy_text(name: str) -> property:
    """A text field that may be handed the plan node or expression it
    describes instead of the text: ``repr`` runs on first read, once.

    Labels are read by EXPLAIN ANALYZE and by the feedback store when it
    meets a *new* fingerprint; a warmed query never reads one, so it never
    pays for stringifying its plan (an MLtoSQL ``Project`` renders a whole
    decision tree).
    """
    slot = "_" + name

    def fget(self) -> str:
        value = self.__dict__[slot]
        if not isinstance(value, str):
            value = self.__dict__[slot] = repr(value)
        return value

    def fset(self, value) -> None:
        self.__dict__[slot] = value

    return property(fget, fset)


@dataclass(kw_only=True)
class _RowCounts:
    """Totals of one observed thing over a run: calls, rows, seconds."""

    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0

    def add(self, rows_in: int, rows_out: int, seconds: float) -> None:
        self.calls += 1
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.seconds += seconds

    @property
    def selectivity(self) -> Optional[float]:
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in


@dataclass
class ConjunctProfile(_RowCounts):
    """Observed behaviour of one conjunct within a filter cascade."""

    expression: str
    fingerprint: str


ConjunctProfile.expression = _lazy_text("expression")


@dataclass
class JoinStepProfile:
    """Observed behaviour of one join step (one edge set resolved).

    ``rows_left``/``rows_right`` are the two input cardinalities the step
    actually saw; ``selectivity`` is the fraction of the cross product the
    step kept — the classic join selectivity, invariant (under
    independence) to how much earlier steps already reduced either side,
    which is what lets observations recorded under one join order inform
    the cost of every other order. ``probe`` is how the step found its
    matches: ``position`` or ``sorted`` through the target table's key
    index, ``probe`` by sorting one side per execution.
    """

    detail: str
    fingerprint: str
    probe: str = "probe"
    calls: int = 0
    rows_left: int = 0
    rows_right: int = 0
    rows_out: int = 0
    # Summed per call (sum of l_i * r_i), not left-sum x right-sum: a
    # morsel fan-out joins each morsel against the full build side, and
    # the product of the sums would overcount the cross space by the
    # number of morsels.
    cross_rows: int = 0
    seconds: float = 0.0

    @property
    def selectivity(self) -> Optional[float]:
        if self.cross_rows <= 0:
            return None
        return self.rows_out / self.cross_rows


@dataclass
class PartitionProfile(_RowCounts):
    """Observed behaviour of one partition under one operator.

    Recorded per morsel by the morsel driver: ``rows_in`` counts partition
    rows scanned, ``rows_out`` the rows the operator's pipeline segment kept —
    so ``selectivity`` is the partition's *observed* survival rate, the
    quantity whose per-shard skew the data-induced rule and the morsel
    scheduler both consume.
    """

    partition: int
    fingerprint: str


@dataclass
class OperatorProfile(_RowCounts):
    """One plan operator's aggregated runtime observations.

    ``seconds`` is inclusive (operator + its inputs); :attr:`self_seconds`
    subtracts the children, which is what per-operator cost models want.
    ``rows_in`` is the sum of the children's output cardinalities (for a
    Scan, the rows it read).
    """

    operator: str
    fingerprint: str
    children: List["OperatorProfile"] = field(default_factory=list)
    conjuncts: List[ConjunctProfile] = field(default_factory=list)
    joins: List[JoinStepProfile] = field(default_factory=list)
    partitions: List[PartitionProfile] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self):
        """This profile and its descendants, pre-order."""
        stack = [self]
        while stack:
            profile = stack.pop()
            yield profile
            stack.extend(reversed(profile.children))

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        sel = (f" sel={self.selectivity:.3f}"
               if self.selectivity is not None else "")
        lines = [f"{pad}{self.operator}: {self.rows_in}->{self.rows_out} rows"
                 f"{sel} {self.self_seconds * 1e3:.2f}ms"]
        for part in self.conjuncts:
            psel = f"{part.selectivity:.3f}" if part.selectivity is not None \
                else "?"
            lines.append(f"{pad}  [conjunct sel={psel} "
                         f"{part.seconds * 1e3:.2f}ms] {part.expression}")
        for step in self.joins:
            lines.append(f"{pad}  [join step {step.rows_left}x"
                         f"{step.rows_right}->{step.rows_out} rows "
                         f"{step.probe} {step.seconds * 1e3:.2f}ms] "
                         f"{step.detail}")
        for part in self.partitions:
            psel = f"{part.selectivity:.3f}" if part.selectivity is not None \
                else "?"
            lines.append(f"{pad}  [partition {part.partition} "
                         f"{part.rows_in}->{part.rows_out} rows sel={psel} "
                         f"{part.seconds * 1e3:.2f}ms]")
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


OperatorProfile.operator = _lazy_text("operator")


class PlanProfiler:
    """What the executors of one plan run write — the executor-facing half
    of the per-query record (:class:`~repro.core.session.RunStats` is this
    class plus what the session knows: route, cache outcome, timings).

    One instance is shared by every :class:`~repro.relational.executor.
    Executor` a query fans out to (one per morsel plus the serial tail),
    so it aggregates the whole execution; every write takes the one lock.
    Observations accumulate straight into the :class:`OperatorProfile` of
    their plan node, keyed by node identity (the profile holds the node,
    so the id cannot be recycled) with the label left unrendered;
    :meth:`profile_tree` only links them into the plan's shape.

    ``profile`` says whether operators are observed at all (rows, time,
    the per-conjunct cascade); the expression-program counters are always
    kept. ``span`` is the telemetry span work currently runs under (None
    when tracing is off): operators and predict batches open their child
    spans on it.
    """

    def __init__(self):
        self.profile = True
        self.span = None
        # Compiled-expression engine reuse: programs compiled this run vs
        # found on the plan node or in the session's program table, and
        # operators that fell back
        # from the compiled engine to the interpreted oracle.
        self.programs_compiled = 0
        self.programs_reused = 0
        self.expression_fallbacks = 0
        self._lock = threading.Lock()
        self._nodes: Dict[int, OperatorProfile] = {}
        self._parts: Dict[Tuple[int, str, int], object] = {}

    # ------------------------------------------------------------------
    def record_program(self, compiled: bool) -> None:
        with self._lock:
            if compiled:
                self.programs_compiled += 1
            else:
                self.programs_reused += 1

    def record_fallback(self) -> None:
        with self._lock:
            self.expression_fallbacks += 1

    def _node_locked(self, node: PlanNode) -> OperatorProfile:
        profile = self._nodes.get(id(node))
        if profile is None:
            profile = self._nodes[id(node)] = OperatorProfile(
                node, plan_fingerprint(node))
        return profile

    def _part_locked(self, node: PlanNode, kind: str, index: int, make):
        """The ``index``-th entry of ``node``'s ``kind`` list (conjuncts,
        joins, partitions), made on first sight. A cascade reaches
        conjunct k — a MultiJoin step k — only after k-1, on every
        thread, so those lists fill in index order."""
        part = self._parts.get((id(node), kind, index))
        if part is None:
            part = self._parts[(id(node), kind, index)] = make()
            getattr(self._node_locked(node), kind).append(part)
        return part

    def record_operator(self, node: PlanNode, rows_out: int, seconds: float,
                        rows_in: Optional[int] = None) -> None:
        """One execution of ``node``; ``rows_in`` None means a leaf, which
        reads what it emits."""
        with self._lock:
            self._node_locked(node).add(
                rows_out if rows_in is None else rows_in, rows_out, seconds)

    def record_conjunct(self, node: Filter, index: int, expression: Expression,
                        rows_in: int, rows_out: int, seconds: float) -> None:
        with self._lock:
            self._part_locked(
                node, "conjuncts", index, lambda: ConjunctProfile(
                    expression, conjunct_fingerprint(node, index))
            ).add(rows_in, rows_out, seconds)

    def record_join(self, node: MultiJoin, step: int, detail: str,
                    rows_left: int, rows_right: int, rows_out: int,
                    seconds: float, probe: str) -> None:
        """Record one step of a ``MultiJoin`` and how it probed."""
        fingerprint = join_step_fingerprints(node)[step]
        with self._lock:
            entry = self._part_locked(
                node, "joins", step,
                lambda: JoinStepProfile(detail=detail, fingerprint=fingerprint))
            entry.probe = probe
            entry.calls += 1
            entry.rows_left += rows_left
            entry.rows_right += rows_right
            entry.rows_out += rows_out
            entry.cross_rows += rows_left * rows_right
            entry.seconds += seconds

    def record_partition(self, node: PlanNode, partition: int,
                         rows_in: int, rows_out: int,
                         seconds: float) -> None:
        """Record one partition-restricted execution of ``node``'s segment.

        Called per morsel; several morsels of one partition accumulate
        into one entry.
        """
        with self._lock:
            self._part_locked(
                node, "partitions", partition, lambda: PartitionProfile(
                    partition=partition, fingerprint=partition_fingerprint(
                        plan_fingerprint(node), partition))
            ).add(rows_in, rows_out, seconds)

    # ------------------------------------------------------------------
    def profile_tree(self, plan: PlanNode) -> OperatorProfile:
        """The observations as a tree mirroring ``plan``.

        Nodes without observations appear with zero calls, so the tree
        always has the full plan shape.
        """
        with self._lock:
            return self._link_locked(plan)

    def _link_locked(self, node: PlanNode) -> OperatorProfile:
        profile = self._node_locked(node)
        profile.children = [self._link_locked(child)
                            for child in node.children()]
        # Morsels finish in scheduling order, not partition order.
        profile.partitions.sort(key=lambda part: part.partition)
        return profile
