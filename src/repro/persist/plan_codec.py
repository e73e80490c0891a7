"""Logical plan ⇄ dict round-trip (the snapshot wire format for plans).

An optimized plan is a tree of :mod:`repro.relational.logical` operators
over :mod:`repro.relational.expressions` trees, plus — inside ``Predict``
nodes — onnxlite graphs (which already have a JSON codec in
:mod:`repro.onnxlite.serialize`). This module serializes the whole
algebra, bit-for-bit:

* every plan node type (including ``MultiJoin`` with its edge list and
  execution ``order``) and every expression node type has a tagged dict
  form;
* execution *annotations* learned by the adaptive subsystem
  (``MultiJoin.order``, feedback-reordered conjunct order) survive the
  round trip — they are the whole point of persisting a warmed plan;
* derived per-node caches (compiled expression programs, adaptive
  fingerprints) are deliberately *not*
  serialized: they live in ``node.__dict__`` side slots and are
  recomputed lazily on first execution of a loaded plan.

The payload is versioned (:data:`PLAN_FORMAT`); loaders reject unknown
formats instead of guessing, so a future schema change cannot silently
misread old snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import PersistError
from repro.onnxlite.graph import Graph
from repro.onnxlite.serialize import graph_from_dict, graph_to_dict
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
)
from repro.relational.logical import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    PredictMode,
    Project,
    Scan,
    Sort,
)
from repro.storage.column import DataType

PLAN_FORMAT = "repro-plan-v1"


def _scalar(value):
    """Normalize a python/numpy scalar to a JSON-native value."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise PersistError(
        f"cannot serialize scalar of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def expression_to_dict(expr: Expression) -> Dict[str, Any]:
    """Serialize an expression tree to a tagged, JSON-compatible dict."""
    if isinstance(expr, ColumnRef):
        return {"t": "col", "name": expr.name}
    if isinstance(expr, Literal):
        return {"t": "lit", "value": _scalar(expr.value),
                "dtype": expr.dtype.value}
    if isinstance(expr, BinaryOp):
        return {"t": "bin", "op": expr.op,
                "left": expression_to_dict(expr.left),
                "right": expression_to_dict(expr.right)}
    if isinstance(expr, UnaryOp):
        return {"t": "un", "op": expr.op,
                "operand": expression_to_dict(expr.operand)}
    if isinstance(expr, FunctionCall):
        return {"t": "fn", "name": expr.name,
                "args": [expression_to_dict(arg) for arg in expr.args]}
    if isinstance(expr, CaseWhen):
        return {"t": "case",
                "branches": [[expression_to_dict(cond),
                              expression_to_dict(value)]
                             for cond, value in expr.branches],
                "default": expression_to_dict(expr.default)}
    if isinstance(expr, InList):
        return {"t": "in", "operand": expression_to_dict(expr.operand),
                "values": [_scalar(value) for value in expr.values]}
    if isinstance(expr, Between):
        return {"t": "between", "operand": expression_to_dict(expr.operand),
                "low": expression_to_dict(expr.low),
                "high": expression_to_dict(expr.high)}
    if isinstance(expr, Cast):
        return {"t": "cast", "operand": expression_to_dict(expr.operand),
                "dtype": expr.dtype.value}
    raise PersistError(
        f"cannot serialize expression type {type(expr).__name__}")


def expression_from_dict(payload: Dict[str, Any]) -> Expression:
    """Rebuild an expression tree from :func:`expression_to_dict` output."""
    tag = payload.get("t")
    if tag == "col":
        return ColumnRef(payload["name"])
    if tag == "lit":
        return Literal(payload["value"], DataType(payload["dtype"]))
    if tag == "bin":
        return BinaryOp(payload["op"],
                        expression_from_dict(payload["left"]),
                        expression_from_dict(payload["right"]))
    if tag == "un":
        return UnaryOp(payload["op"], expression_from_dict(payload["operand"]))
    if tag == "fn":
        return FunctionCall(payload["name"],
                            [expression_from_dict(arg)
                             for arg in payload["args"]])
    if tag == "case":
        return CaseWhen([(expression_from_dict(cond),
                          expression_from_dict(value))
                         for cond, value in payload["branches"]],
                        expression_from_dict(payload["default"]))
    if tag == "in":
        return InList(expression_from_dict(payload["operand"]),
                      payload["values"])
    if tag == "between":
        return Between(expression_from_dict(payload["operand"]),
                       expression_from_dict(payload["low"]),
                       expression_from_dict(payload["high"]))
    if tag == "cast":
        return Cast(expression_from_dict(payload["operand"]),
                    DataType(payload["dtype"]))
    raise PersistError(f"unknown expression tag: {tag!r}")


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

def _node_to_dict(node: PlanNode) -> Dict[str, Any]:
    if isinstance(node, Scan):
        return {"t": "scan", "table": node.table_name, "alias": node.alias,
                "columns": None if node.columns is None else list(node.columns)}
    if isinstance(node, Filter):
        return {"t": "filter", "child": _node_to_dict(node.child),
                "predicate": expression_to_dict(node.predicate)}
    if isinstance(node, Project):
        return {"t": "project", "child": _node_to_dict(node.child),
                "outputs": [[name, expression_to_dict(expr)]
                            for name, expr in node.outputs]}
    if isinstance(node, Join):
        return {"t": "join",
                "left": _node_to_dict(node.left),
                "right": _node_to_dict(node.right),
                "left_keys": list(node.left_keys),
                "right_keys": list(node.right_keys),
                "how": node.how}
    if isinstance(node, MultiJoin):
        return {"t": "multijoin",
                "inputs": [_node_to_dict(child) for child in node.inputs],
                "edges": [{"left_input": edge.left_input,
                           "right_input": edge.right_input,
                           "left_key": edge.left_key,
                           "right_key": edge.right_key}
                          for edge in node.edges],
                "order": None if node.order is None else list(node.order),
                "order_insensitive": node.order_insensitive}
    if isinstance(node, Aggregate):
        return {"t": "aggregate", "child": _node_to_dict(node.child),
                "group_by": list(node.group_by),
                "aggregates": [{"name": spec.name, "func": spec.func,
                                "column": spec.column}
                               for spec in node.aggregates]}
    if isinstance(node, Sort):
        return {"t": "sort", "child": _node_to_dict(node.child),
                "keys": [[column, bool(ascending)]
                         for column, ascending in node.keys]}
    if isinstance(node, Limit):
        return {"t": "limit", "child": _node_to_dict(node.child),
                "count": node.count}
    if isinstance(node, Predict):
        if not isinstance(node.graph, Graph):
            raise PersistError(
                f"Predict({node.model_name}) carries a non-onnxlite graph "
                f"({type(node.graph).__name__}); cannot persist")
        per_partition = None
        if node.per_partition_graphs is not None:
            per_partition = [graph_to_dict(graph)
                             for graph in node.per_partition_graphs]
        return {"t": "predict", "child": _node_to_dict(node.child),
                "model_name": node.model_name,
                "graph": graph_to_dict(node.graph),
                "input_mapping": dict(node.input_mapping),
                "output_columns": [[name, graph_output, dtype.value]
                                   for name, graph_output, dtype
                                   in node.output_columns],
                "keep_columns": None if node.keep_columns is None
                else list(node.keep_columns),
                "mode": node.mode.value,
                "per_partition_graphs": per_partition}
    raise PersistError(f"cannot serialize plan node {type(node).__name__}")


def _node_from_dict(payload: Dict[str, Any]) -> PlanNode:
    tag = payload.get("t")
    if tag == "scan":
        return Scan(payload["table"], payload["alias"], payload["columns"])
    if tag == "filter":
        return Filter(_node_from_dict(payload["child"]),
                      expression_from_dict(payload["predicate"]))
    if tag == "project":
        return Project(_node_from_dict(payload["child"]),
                       [(name, expression_from_dict(expr))
                        for name, expr in payload["outputs"]])
    if tag == "join":
        # Payloads written when the sort side was still planned carry one
        # more key (the planned side); it is not read.
        return Join(_node_from_dict(payload["left"]),
                    _node_from_dict(payload["right"]),
                    payload["left_keys"], payload["right_keys"],
                    payload["how"])
    if tag == "multijoin":
        edges = [JoinEdge(edge["left_input"], edge["right_input"],
                          edge["left_key"], edge["right_key"])
                 for edge in payload["edges"]]
        return MultiJoin([_node_from_dict(child)
                          for child in payload["inputs"]],
                         edges, payload["order"],
                         # Absent in pre-annotation snapshots.
                         order_insensitive=payload.get(
                             "order_insensitive", False))
    if tag == "aggregate":
        return Aggregate(_node_from_dict(payload["child"]),
                         payload["group_by"],
                         [AggregateSpec(spec["name"], spec["func"],
                                        spec["column"])
                          for spec in payload["aggregates"]])
    if tag == "sort":
        return Sort(_node_from_dict(payload["child"]),
                    [(column, bool(ascending))
                     for column, ascending in payload["keys"]])
    if tag == "limit":
        return Limit(_node_from_dict(payload["child"]), payload["count"])
    if tag == "predict":
        # Payloads written when predict batches were still sized from
        # feedback carry a "batch_rows" key; it is not read.
        per_partition: Optional[List[Graph]] = None
        if payload["per_partition_graphs"] is not None:
            per_partition = [graph_from_dict(graph)
                             for graph in payload["per_partition_graphs"]]
        return Predict(
            _node_from_dict(payload["child"]),
            payload["model_name"],
            graph_from_dict(payload["graph"]),
            payload["input_mapping"],
            [(name, graph_output, DataType(dtype))
             for name, graph_output, dtype in payload["output_columns"]],
            keep_columns=payload["keep_columns"],
            mode=PredictMode(payload["mode"]),
            per_partition_graphs=per_partition,
        )
    raise PersistError(f"unknown plan node tag: {tag!r}")


def plan_to_dict(plan: PlanNode) -> Dict[str, Any]:
    """Serialize a plan tree to a versioned, JSON-compatible dict."""
    return {"format": PLAN_FORMAT, "root": _node_to_dict(plan)}


def plan_from_dict(payload: Dict[str, Any]) -> PlanNode:
    """Rebuild (and re-validate) a plan from :func:`plan_to_dict` output.

    Node constructors re-run their invariant checks (join key arity,
    ``MultiJoin`` connected-prefix, permutation validity of ``order``), so
    a corrupted payload fails loudly here rather than at execution time.
    """
    if payload.get("format") != PLAN_FORMAT:
        raise PersistError(
            f"not a {PLAN_FORMAT} plan payload: {payload.get('format')!r}")
    return _node_from_dict(payload["root"])
