"""The onnxlite operator graph — this repo's stand-in for ONNX(-ML).

A :class:`Graph` is a DAG of :class:`Node` operators over named edges.
Raven's unified IR (paper §3) is "ONNX extended with relational operators";
here the ML half is this graph format, whose operator set mirrors ONNX-ML
(Scaler, OneHotEncoder, TreeEnsembleClassifier, LinearClassifier, ...) plus
the FeatureExtractor node the paper's model-projection pushdown inserts.

Attribute values are plain Python scalars, lists, numpy arrays, or lists
of read-only :class:`repro.learn.tree.Tree` (shared between graph copies).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import GraphError

# Logical edge dtypes understood by the ML side.
FLOAT = "float"
STRING = "string"
INT = "int"


@dataclass(frozen=True)
class TensorInfo:
    """Name, dtype and width of one graph input or output edge.

    Shapes are ``(None, width)`` — the batch dimension is always dynamic.
    Width 0 means "scalar column" rendered as a 1-D array (labels/scores).
    """

    name: str
    dtype: str = FLOAT
    width: int = 1

    def __post_init__(self):
        if self.dtype not in (FLOAT, STRING, INT):
            raise GraphError(f"bad tensor dtype: {self.dtype!r}")


class Node:
    """One operator application."""

    _counter = itertools.count()

    def __init__(self, op_type: str, inputs: Sequence[str], outputs: Sequence[str],
                 attrs: Optional[dict] = None, name: Optional[str] = None):
        self.op_type = op_type
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.attrs = dict(attrs or {})
        self.name = name or f"{op_type.lower()}_{next(Node._counter)}"

    def __repr__(self):
        return (f"Node({self.op_type}: {self.inputs} -> {self.outputs})")

    def copy(self) -> "Node":
        attrs = {}
        for key, value in self.attrs.items():
            if isinstance(value, np.ndarray):
                attrs[key] = value.copy()
            elif isinstance(value, list):
                attrs[key] = list(value)
            else:
                attrs[key] = value
        return Node(self.op_type, list(self.inputs), list(self.outputs),
                    attrs, self.name)


class Graph:
    """A trained-pipeline DAG.

    Nodes are kept in insertion order; :meth:`topological_nodes` computes a
    valid execution order (and validates acyclicity). Graphs are mutated
    only through the provided editing helpers so the structure invariants
    hold after every rule application.
    """

    def __init__(self, name: str, inputs: Sequence[TensorInfo],
                 outputs: Sequence[str], nodes: Optional[Sequence[Node]] = None):
        self.name = name
        self.inputs: List[TensorInfo] = list(inputs)
        self.outputs: List[str] = list(outputs)
        self.nodes: List[Node] = list(nodes or [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def input_names(self) -> List[str]:
        return [info.name for info in self.inputs]

    def input_info(self, name: str) -> TensorInfo:
        for info in self.inputs:
            if info.name == name:
                return info
        raise GraphError(f"unknown graph input: {name!r}")

    def producers(self) -> Dict[str, Node]:
        """Edge name -> node that produces it."""
        table: Dict[str, Node] = {}
        for node in self.nodes:
            for output in node.outputs:
                if output in table:
                    raise GraphError(f"edge {output!r} has two producers")
                table[output] = node
        return table

    def consumers(self) -> Dict[str, List[Node]]:
        """Edge name -> nodes that consume it."""
        table: Dict[str, List[Node]] = {}
        for node in self.nodes:
            for input_name in node.inputs:
                table.setdefault(input_name, []).append(node)
        return table

    def node_by_output(self, edge: str) -> Optional[Node]:
        for node in self.nodes:
            if edge in node.outputs:
                return node
        return None

    def operator_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.op_type] = counts.get(node.op_type, 0) + 1
        return counts

    def topological_nodes(self) -> List[Node]:
        """Execution order; raises on cycles or dangling edges."""
        produced: Set[str] = set(self.input_names)
        remaining = list(self.nodes)
        ordered: List[Node] = []
        while remaining:
            progressed = False
            still: List[Node] = []
            for node in remaining:
                if all(inp in produced for inp in node.inputs):
                    ordered.append(node)
                    produced.update(node.outputs)
                    progressed = True
                else:
                    still.append(node)
            if not progressed:
                missing = sorted({inp for node in still for inp in node.inputs
                                  if inp not in produced})
                raise GraphError(
                    f"graph has a cycle or dangling inputs: {missing[:5]}"
                )
            remaining = still
        return ordered

    def validate(self) -> None:
        """Check structural invariants (used after every rule application)."""
        ordered = self.topological_nodes()
        produced = set(self.input_names)
        for node in ordered:
            produced.update(node.outputs)
        for output in self.outputs:
            if output not in produced:
                raise GraphError(f"graph output {output!r} is never produced")
        names = [info.name for info in self.inputs]
        if len(set(names)) != len(names):
            raise GraphError("duplicate graph input names")

    # ------------------------------------------------------------------
    # Editing helpers
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def remove_node(self, node: Node) -> None:
        self.nodes = [n for n in self.nodes if n is not node]

    def remove_input(self, name: str) -> None:
        self.inputs = [info for info in self.inputs if info.name != name]

    def rename_edge(self, old: str, new: str) -> None:
        """Rewire every reference to edge ``old`` to ``new``."""
        for node in self.nodes:
            node.inputs = [new if e == old else e for e in node.inputs]
            node.outputs = [new if e == old else e for e in node.outputs]
        self.outputs = [new if e == old else e for e in self.outputs]
        self.inputs = [TensorInfo(new, info.dtype, info.width) if info.name == old
                       else info for info in self.inputs]

    def prune_dead_nodes(self) -> int:
        """Drop nodes whose outputs reach no graph output; returns count."""
        needed: Set[str] = set(self.outputs)
        kept: List[Node] = []
        # Walk in reverse topological order collecting live edges.
        for node in reversed(self.topological_nodes()):
            if any(output in needed for output in node.outputs):
                kept.append(node)
                needed.update(node.inputs)
        removed = len(self.nodes) - len(kept)
        order = {id(n): i for i, n in enumerate(self.nodes)}
        self.nodes = sorted(kept, key=lambda n: order[id(n)])
        return removed

    def prune_dead_inputs(self) -> List[str]:
        """Drop graph inputs no node consumes; returns removed names."""
        consumed: Set[str] = set()
        for node in self.nodes:
            consumed.update(node.inputs)
        consumed.update(self.outputs)  # a passthrough input may be an output
        removed = [info.name for info in self.inputs if info.name not in consumed]
        self.inputs = [info for info in self.inputs if info.name in consumed]
        return removed

    def copy(self) -> "Graph":
        return Graph(self.name, list(self.inputs), list(self.outputs),
                     [node.copy() for node in self.nodes])

    # ------------------------------------------------------------------
    def fresh_edge(self, hint: str) -> str:
        """An edge name not used anywhere in the graph."""
        used = set(self.input_names) | set(self.outputs)
        for node in self.nodes:
            used.update(node.inputs)
            used.update(node.outputs)
        if hint not in used:
            return hint
        for i in itertools.count(1):
            candidate = f"{hint}_{i}"
            if candidate not in used:
                return candidate
        raise AssertionError("unreachable")

    def pretty(self) -> str:
        lines = [f"Graph {self.name!r}"]
        lines.append("  inputs: " + ", ".join(
            f"{i.name}:{i.dtype}[{i.width}]" for i in self.inputs))
        for node in self.topological_nodes():
            lines.append(f"  {node.name}: {node.op_type}"
                         f"({', '.join(node.inputs)}) -> {', '.join(node.outputs)}")
        lines.append("  outputs: " + ", ".join(self.outputs))
        return "\n".join(lines)

    def __repr__(self):
        return (f"Graph({self.name!r}, {len(self.inputs)} inputs, "
                f"{len(self.nodes)} nodes)")
