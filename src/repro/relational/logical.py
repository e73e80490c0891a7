"""Logical query plans.

A plan is a tree of operators over named, typed columns. Column names are
fully qualified by the binder (``alias.column``) so that joins never collide
and rules can track provenance of each column.

The :class:`Predict` operator is the bridge into the ML side of Raven's
unified IR: it carries the trained pipeline (an onnxlite graph), the mapping
from graph inputs to child plan columns, and — after runtime selection — a
physical execution mode annotation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.expressions import Expression
from repro.storage.catalog import Catalog
from repro.storage.column import DataType
from repro.storage.table import Schema


class PlanNode:
    """Base class for logical plan operators."""

    def children(self) -> Tuple["PlanNode", ...]:
        raise NotImplementedError

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        raise NotImplementedError

    def output_schema(self, catalog: Catalog) -> Schema:
        raise NotImplementedError

    def _label(self) -> str:
        return type(self).__name__

    def pretty(self, catalog: Optional[Catalog] = None, indent: int = 0) -> str:
        """Readable indented plan rendering (EXPLAIN-style)."""
        pad = "  " * indent
        lines = [pad + self._label()]
        for child in self.children():
            lines.append(child.pretty(catalog, indent + 1))
        return "\n".join(lines)

    def __repr__(self):
        return self._label()

    # -- persistence (repro.persist.plan_codec) -------------------------
    def to_dict(self) -> dict:
        """Schema-versioned, JSON-compatible form of this plan tree.

        Covers every node type in the logical algebra (including
        ``MultiJoin`` execution orders and learned annotations); the
        inverse is :meth:`PlanNode.from_dict`. Derived per-node caches
        (compiled programs, adaptive fingerprints) are not part of the
        payload — they are recomputed lazily after a round trip.
        """
        from repro.persist.plan_codec import plan_to_dict

        return plan_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "PlanNode":
        """Rebuild a plan tree written by :meth:`PlanNode.to_dict`."""
        from repro.persist.plan_codec import plan_from_dict

        return plan_from_dict(payload)


class Scan(PlanNode):
    """Read a base table; ``columns=None`` reads everything.

    Output column names are qualified with ``alias`` so downstream operators
    are unambiguous. When the relational optimizer pushes projections all the
    way down, ``columns`` shrinks — the analogue of avoiding disk reads in
    the paper.
    """

    def __init__(self, table_name: str, alias: Optional[str] = None,
                 columns: Optional[Sequence[str]] = None):
        self.table_name = table_name
        self.alias = alias or table_name
        self.columns = list(columns) if columns is not None else None

    def children(self):
        return ()

    def with_children(self, children):
        if children:
            raise PlanError("Scan takes no children")
        return self

    def output_schema(self, catalog: Catalog) -> Schema:
        table_schema = catalog.table(self.table_name).schema
        names = self.columns if self.columns is not None else table_schema.names
        return Schema([(f"{self.alias}.{n}", table_schema.dtype_of(n)) for n in names])

    def _label(self):
        cols = "*" if self.columns is None else ", ".join(self.columns)
        return f"Scan({self.table_name} AS {self.alias}: [{cols}])"


class Materialized(PlanNode):
    """Leaf over an already-computed table.

    Stands in for a subtree whose result exists — the merged fan-out
    output the morsel driver's serial tail runs over
    (:meth:`repro.relational.executor.Executor.execute_above`). Purely
    an execution-time node: the planner never emits it and it is not
    persisted.
    """

    def __init__(self, table):
        self.table = table

    def children(self):
        return ()

    def with_children(self, children):
        if children:
            raise PlanError("Materialized takes no children")
        return self

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.table.schema

    def _label(self):
        return f"Materialized({self.table.num_rows} rows)"


class Filter(PlanNode):
    """Keep rows satisfying a boolean predicate."""

    def __init__(self, child: PlanNode, predicate: Expression):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Filter(child, self.predicate)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def _label(self):
        return f"Filter({self.predicate!r})"


class Project(PlanNode):
    """Compute named output expressions (projection + computed columns)."""

    def __init__(self, child: PlanNode, outputs: Sequence[Tuple[str, Expression]]):
        if not outputs:
            raise PlanError("Project needs at least one output")
        self.child = child
        self.outputs = list(outputs)

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Project(child, self.outputs)

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        return Schema([(name, expr.output_dtype(child_schema))
                       for name, expr in self.outputs])

    def output_names(self) -> List[str]:
        return [name for name, _ in self.outputs]

    def _label(self):
        items = ", ".join(f"{n}={e!r}" for n, e in self.outputs[:6])
        more = ", ..." if len(self.outputs) > 6 else ""
        return f"Project({items}{more})"


class Join(PlanNode):
    """Binary equi-join on key column lists (inner or left outer).

    The shape joins are written and bound in. An optimized plan keeps it
    only for what nothing else expresses — left outer joins, and inner
    joins whose keys cannot be attributed to one input each; every other
    inner join is lowered into a :class:`MultiJoin`. The executor sorts
    whichever side is smaller when it runs and emits left-major row order
    either way.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 how: str = "inner"):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join needs matching non-empty key lists")
        if how not in ("inner", "left"):
            raise PlanError(f"unsupported join type: {how!r}")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.how = how

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return Join(left, right, self.left_keys, self.right_keys, self.how)

    def output_schema(self, catalog: Catalog) -> Schema:
        left_schema = self.left.output_schema(catalog)
        right_schema = self.right.output_schema(catalog)
        overlap = set(left_schema.names) & set(right_schema.names)
        if overlap:
            raise PlanError(f"join sides share column names: {sorted(overlap)}")
        return Schema(list(left_schema) + list(right_schema))

    def _label(self):
        keys = ", ".join(f"{lk}={rk}"
                         for lk, rk in zip(self.left_keys, self.right_keys))
        return f"Join[{self.how}]({keys})"


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join key pair between two inputs of a :class:`MultiJoin`.

    ``left_input``/``right_input`` index into ``MultiJoin.inputs`` (with
    ``left_input < right_input`` in the original text order);
    ``left_key``/``right_key`` are the qualified column names each side
    contributes.
    """

    left_input: int
    right_input: int
    left_key: str
    right_key: str

    def __post_init__(self):
        if self.left_input == self.right_input:
            raise PlanError("join edge must connect two distinct inputs")
        if self.left_input > self.right_input:
            raise PlanError("join edge inputs must be in original order")


class MultiJoin(PlanNode):
    """A region of inner equi-joins executed as one n-way operator.

    The lowered form of every inner-join region of an optimized plan
    (:func:`repro.relational.optimizer.lower_joins`; two inputs
    included): ``inputs`` holds the region's leaf subplans in the
    *original* (query text) order, ``edges`` the equi-join key pairs of
    the written tree, and ``order`` — a pure execution annotation, set by
    feedback-driven join ordering — the sequence the executor joins the
    inputs in (``None`` = original order). The executor works on
    per-input row-index vectors, gathers each column once at the end, and
    emits the **canonical output order** (the order the written tree of
    binary joins emits: rows sorted lexicographically by the per-input
    row positions, original input order major), so any ``order`` produces
    bit-for-bit identical results and the written ``Join`` tree
    (``RavenSession(enable_optimizations=False)``) remains a differential
    oracle.

    Every input after the first (in original order *and* in any annotated
    order) must be connected by at least one edge to the inputs before it
    — the lowering only extracts regions with this property, so execution
    never needs a cross product.

    ``order_insensitive`` — likewise a pure execution annotation — marks
    the output order as irrelevant to the query result (the consumer is a
    permutation-invariant aggregate), letting the executor skip the
    canonical output sort. Only the feedback pass sets it, and only under
    that proof; plans without it keep the sorted path, which doubles as
    the differential oracle for the skip.
    """

    def __init__(self, inputs: Sequence[PlanNode], edges: Sequence[JoinEdge],
                 order: Optional[Sequence[int]] = None,
                 order_insensitive: bool = False):
        if len(inputs) < 2:
            raise PlanError("MultiJoin needs at least two inputs")
        for edge in edges:
            if not 0 <= edge.left_input < len(inputs) \
                    or not 0 <= edge.right_input < len(inputs):
                raise PlanError(f"join edge out of range: {edge}")
        if order is not None and sorted(order) != list(range(len(inputs))):
            raise PlanError(
                f"order must be a permutation of the inputs: {order!r}")
        self.inputs = list(inputs)
        self.edges = list(edges)
        self.order = list(order) if order is not None else None
        self.order_insensitive = bool(order_insensitive)
        # Enforce the connected-prefix invariant for both the original
        # order and any annotated sequence, so every consumer (executor,
        # SQL generation) can rely on it instead of failing downstream.
        self._check_connected(list(range(len(self.inputs))), "inputs")
        if self.order is not None:
            self._check_connected(self.order, "order")

    def _check_connected(self, sequence: List[int], label: str) -> None:
        joined = {sequence[0]}
        for target in sequence[1:]:
            if not any(
                (edge.left_input == target and edge.right_input in joined)
                or (edge.right_input == target and edge.left_input in joined)
                for edge in self.edges
            ):
                raise PlanError(
                    f"MultiJoin {label} sequence {sequence} is not "
                    f"connected: input {target} shares no edge with the "
                    f"inputs before it (cross products are unsupported)"
                )
            joined.add(target)

    def children(self):
        return tuple(self.inputs)

    def with_children(self, children):
        if len(children) != len(self.inputs):
            raise PlanError("MultiJoin child count mismatch")
        return MultiJoin(children, self.edges, self.order,
                         order_insensitive=self.order_insensitive)

    def sequence(self) -> List[int]:
        """The execution sequence (annotated order, or original order)."""
        return list(self.order) if self.order is not None \
            else list(range(len(self.inputs)))

    def step_edges(self, position: int) -> List[JoinEdge]:
        """Edges joining ``sequence()[position]`` to the inputs before it."""
        sequence = self.sequence()
        return self.edges_into(set(sequence[:position]), sequence[position])

    def edges_into(self, joined: AbstractSet[int],
                   target: int) -> List[JoinEdge]:
        """Edges joining input ``target`` to any input in ``joined``."""
        return [edge for edge in self.edges
                if (edge.left_input == target and edge.right_input in joined)
                or (edge.right_input == target and edge.left_input in joined)]

    def output_schema(self, catalog: Catalog) -> Schema:
        fields: List[Tuple[str, DataType]] = []
        seen = set()
        for child in self.inputs:
            for name, dtype in child.output_schema(catalog):
                if name in seen:
                    raise PlanError(f"join inputs share column name: {name!r}")
                seen.add(name)
                fields.append((name, dtype))
        return Schema(fields)

    def _label(self):
        keys = ", ".join(f"{e.left_key}={e.right_key}" for e in self.edges)
        order = "" if self.order is None else f", order={self.order}"
        return f"MultiJoin[{len(self.inputs)}]({keys}{order})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``name = func(column)``; column None = COUNT(*)."""

    name: str
    func: str  # count | sum | avg | min | max
    column: Optional[str] = None

    _FUNCS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self):
        if self.func not in self._FUNCS:
            raise PlanError(f"unknown aggregate function: {self.func!r}")
        if self.func != "count" and self.column is None:
            raise PlanError(f"{self.func} requires a column")


class Aggregate(PlanNode):
    """Group-by aggregation. Empty ``group_by`` = global aggregate (one row)."""

    def __init__(self, child: PlanNode, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec]):
        if not aggregates and not group_by:
            raise PlanError("aggregate needs group keys or aggregate functions")
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        fields: List[Tuple[str, DataType]] = []
        for key in self.group_by:
            fields.append((key, child_schema.dtype_of(key)))
        for spec in self.aggregates:
            if spec.func == "count":
                fields.append((spec.name, DataType.INT))
            elif spec.func in ("min", "max") and spec.column is not None:
                fields.append((spec.name, child_schema.dtype_of(spec.column)))
            else:
                fields.append((spec.name, DataType.FLOAT))
        return Schema(fields)

    def _label(self):
        aggs = ", ".join(f"{s.name}={s.func}({s.column or '*'})" for s in self.aggregates)
        return f"Aggregate(by=[{', '.join(self.group_by)}]; {aggs})"


class Sort(PlanNode):
    """Order rows by one or more keys."""

    def __init__(self, child: PlanNode, keys: Sequence[Tuple[str, bool]]):
        if not keys:
            raise PlanError("sort needs at least one key")
        self.child = child
        self.keys = list(keys)  # (column, ascending)

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Sort(child, self.keys)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def _label(self):
        keys = ", ".join(f"{c} {'ASC' if asc else 'DESC'}" for c, asc in self.keys)
        return f"Sort({keys})"


class Limit(PlanNode):
    """Keep the first ``n`` rows."""

    def __init__(self, child: PlanNode, count: int):
        if count < 0:
            raise PlanError("limit must be non-negative")
        self.child = child
        self.count = count

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Limit(child, self.count)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def _label(self):
        return f"Limit({self.count})"


class PredictMode(enum.Enum):
    """Physical execution choice for a Predict operator (paper §5).

    ``ML_RUNTIME`` is the default (invoke the onnxlite runtime via a UDF);
    ``SQL`` never appears at execution time — the MLtoSQL rule replaces the
    Predict node by a Project; the DNN modes run the compiled tensor program.
    """

    ML_RUNTIME = "ml_runtime"
    DNN_CPU = "dnn_cpu"
    DNN_GPU = "dnn_gpu"


class Predict(PlanNode):
    """Evaluate a trained pipeline over the child's rows.

    Attributes
    ----------
    model_name: catalog name of the model (for display / re-binding).
    graph: the onnxlite graph (the *optimized* pipeline after Raven rules).
    input_mapping: graph input name -> child column name.
    output_columns: (exposed column name, graph output name, dtype) triples,
        from the ``WITH (name type)`` clause of the PREDICT statement.
    keep_columns: child columns to carry through alongside predictions
        (``SELECT d.*, p.score`` keeps everything).
    mode: physical runtime annotation set by runtime selection.
    per_partition_graphs: optional partition-specialized graphs installed by
        the data-induced optimization (paper §4.2).
    """

    def __init__(self, child: PlanNode, model_name: str, graph: object,
                 input_mapping: Dict[str, str],
                 output_columns: Sequence[Tuple[str, str, DataType]],
                 keep_columns: Optional[Sequence[str]] = None,
                 mode: PredictMode = PredictMode.ML_RUNTIME,
                 per_partition_graphs: Optional[List[object]] = None):
        self.child = child
        self.model_name = model_name
        self.graph = graph
        self.input_mapping = dict(input_mapping)
        self.output_columns = list(output_columns)
        self.keep_columns = list(keep_columns) if keep_columns is not None else None
        self.mode = mode
        self.per_partition_graphs = per_partition_graphs

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Predict(child, self.model_name, self.graph, self.input_mapping,
                       self.output_columns, self.keep_columns, self.mode,
                       self.per_partition_graphs)

    def replace(self, **updates) -> "Predict":
        """Copy with selected attributes replaced (rules use this)."""
        node = Predict(self.child, self.model_name, self.graph,
                       self.input_mapping, self.output_columns,
                       self.keep_columns, self.mode, self.per_partition_graphs)
        for key, value in updates.items():
            if not hasattr(node, key):
                raise PlanError(f"Predict has no attribute {key!r}")
            setattr(node, key, value)
        return node

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        kept = self.keep_columns if self.keep_columns is not None else child_schema.names
        fields = [(name, child_schema.dtype_of(name)) for name in kept]
        fields += [(name, dtype) for name, _, dtype in self.output_columns]
        return Schema(fields)

    def _label(self):
        outs = ", ".join(name for name, _, _ in self.output_columns)
        return (f"Predict(model={self.model_name}, mode={self.mode.value}, "
                f"outputs=[{outs}])")


def walk(plan: PlanNode):
    """Yield every node in the plan, pre-order."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def transform_plan(plan: PlanNode, fn) -> PlanNode:
    """Bottom-up plan rewrite; ``fn`` returns a replacement node or None."""
    children = plan.children()
    if children:
        new_children = [transform_plan(child, fn) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            plan = plan.with_children(new_children)
    replacement = fn(plan)
    return replacement if replacement is not None else plan


def find_predict_nodes(plan: PlanNode) -> List[Predict]:
    """All Predict operators in the plan (queries may invoke several models)."""
    return [node for node in walk(plan) if isinstance(node, Predict)]
