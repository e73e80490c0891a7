"""Scalar expression trees with vectorized evaluation.

Expressions appear in ``WHERE`` clauses, projection lists and — crucially for
Raven — as the target language of the MLtoSQL transformation (paper §5.1):
scalers become arithmetic, one-hot encoders become equality indicators, and
decision trees become nested ``CASE WHEN`` expressions.

Every node supports:

* ``evaluate(table)`` — vectorized evaluation to a numpy array,
* ``output_dtype(schema)`` — static type derivation,
* ``referenced_columns()`` — free column names (drives projection pushdown),
* structural equality and hashing (drives rule fixpoints and caching).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ExpressionError
from repro.storage.column import DataType
from repro.storage.table import Schema, Table


class Expression:
    """Base class for scalar expressions.

    Nodes are immutable: every attribute is set in ``__init__`` and never
    reassigned; rewrites build new nodes (:meth:`with_children`). The
    structural hash relies on this — it is computed on first use and
    cached in the ``_hash`` slot, so a rebuilt tree that shares subtrees
    with its source re-hashes only the new path. String hashing is salted
    per process, so the cached hash is never persisted. Every subclass
    declares ``__slots__``: no node carries a ``__dict__``.
    """

    __slots__ = ("_hash",)

    def evaluate(self, table: Table) -> np.ndarray:
        raise NotImplementedError

    def output_dtype(self, schema: Schema) -> DataType:
        raise NotImplementedError

    def referenced_columns(self) -> Set[str]:
        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        return ()

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """Rebuild this node with new children (for rewrites)."""
        if children:
            raise ExpressionError(f"{type(self).__name__} takes no children")
        return self

    # -- structural equality ------------------------------------------------
    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((type(self).__name__, self._key()))
            return self._hash

    # -- convenience builder operators (used heavily by MLtoSQL) ------------
    def __add__(self, other): return BinaryOp("+", self, _wrap(other))
    def __sub__(self, other): return BinaryOp("-", self, _wrap(other))
    def __mul__(self, other): return BinaryOp("*", self, _wrap(other))
    def __truediv__(self, other): return BinaryOp("/", self, _wrap(other))

    def eq(self, other): return BinaryOp("=", self, _wrap(other))
    def ne(self, other): return BinaryOp("<>", self, _wrap(other))
    def lt(self, other): return BinaryOp("<", self, _wrap(other))
    def le(self, other): return BinaryOp("<=", self, _wrap(other))
    def gt(self, other): return BinaryOp(">", self, _wrap(other))
    def ge(self, other): return BinaryOp(">=", self, _wrap(other))


def _wrap(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    return Literal(value)


def _python_dtype(value) -> DataType:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return DataType.BOOL
    if isinstance(value, (int, np.integer)):
        return DataType.INT
    if isinstance(value, (float, np.floating)):
        return DataType.FLOAT
    if isinstance(value, (str, np.str_)):
        return DataType.STRING
    raise ExpressionError(f"unsupported literal type: {type(value).__name__}")


class ColumnRef(Expression):
    """Reference to a named column (possibly qualified, e.g. ``d.asthma``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, table: Table) -> np.ndarray:
        return table.array(self.name)

    def output_dtype(self, schema: Schema) -> DataType:
        return schema.dtype_of(self.name)

    def referenced_columns(self) -> Set[str]:
        return {self.name}

    def _key(self):
        return (self.name,)

    def __repr__(self):
        return f"col({self.name!r})"


class Literal(Expression):
    """A typed constant."""

    __slots__ = ("value", "dtype")

    def __init__(self, value, dtype: Optional[DataType] = None):
        if isinstance(value, (np.integer, np.floating, np.bool_, np.str_)):
            value = value.item() if not isinstance(value, np.str_) else str(value)
        self.value = value
        self.dtype = dtype or _python_dtype(value)

    def evaluate(self, table: Table) -> np.ndarray:
        n = table.num_rows
        if self.dtype is DataType.STRING:
            # NB: dtype=np.str_ would truncate to '<U1'; let numpy infer
            # the unicode width from the value itself.
            return np.full(n, self.value)
        np_type = {DataType.FLOAT: np.float64, DataType.INT: np.int64,
                   DataType.BOOL: np.bool_}[self.dtype]
        return np.full(n, self.value, dtype=np_type)

    def output_dtype(self, schema: Schema) -> DataType:
        return self.dtype

    def referenced_columns(self) -> Set[str]:
        return set()

    def _key(self):
        # 0.0 == -0.0 in Python, but they are different constants
        # (1 / x, x * lit): a signed zero keys on its sign too.
        if isinstance(self.value, float) and self.value == 0.0:
            return (self.value, self.dtype, math.copysign(1.0, self.value))
        return (self.value, self.dtype)

    def __repr__(self):
        return f"lit({self.value!r})"


_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/"}
_LOGICAL = {"and", "or"}

_COMPARE_FUNCS: Dict[str, Callable] = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


class BinaryOp(Expression):
    """Arithmetic (+,-,*,/), comparison (=,<>,<,<=,>,>=) or logical (and/or)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        op = op.lower() if op.lower() in _LOGICAL else op
        if op not in _COMPARISONS | _ARITHMETIC | _LOGICAL:
            raise ExpressionError(f"unknown binary operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return BinaryOp(self.op, left, right)

    def evaluate(self, table: Table) -> np.ndarray:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        if self.op in _LOGICAL:
            if self.op == "and":
                return np.logical_and(left, right)
            return np.logical_or(left, right)
        if self.op in _COMPARISONS:
            return _COMPARE_FUNCS[self.op](left, right)
        # Arithmetic. Division is always float (SQL float semantics here):
        # x/0 yields IEEE inf/nan silently — guarded expressions route
        # around those rows, and an unguarded division must not warn.
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        with np.errstate(divide="ignore", invalid="ignore"):
            return left.astype(np.float64) / right.astype(np.float64)

    def output_dtype(self, schema: Schema) -> DataType:
        if self.op in _LOGICAL or self.op in _COMPARISONS:
            return DataType.BOOL
        left = self.left.output_dtype(schema)
        right = self.right.output_dtype(schema)
        if self.op == "/":
            return DataType.FLOAT
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        return DataType.INT

    def referenced_columns(self) -> Set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def _key(self):
        return (self.op, self.left, self.right)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """``NOT expr`` or ``-expr``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        op = op.lower()
        if op not in ("not", "-"):
            raise ExpressionError(f"unknown unary operator: {op!r}")
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def with_children(self, children):
        (operand,) = children
        return UnaryOp(self.op, operand)

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.operand.evaluate(table)
        if self.op == "not":
            return np.logical_not(value)
        return -value

    def output_dtype(self, schema: Schema) -> DataType:
        if self.op == "not":
            return DataType.BOOL
        return self.operand.output_dtype(schema)

    def referenced_columns(self) -> Set[str]:
        return self.operand.referenced_columns()

    def _key(self):
        return (self.op, self.operand)

    def __repr__(self):
        return f"({self.op} {self.operand!r})"


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable logistic function.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_FUNCTIONS: Dict[str, Tuple[int, Callable]] = {
    "abs": (1, np.abs),
    "isnan": (1, np.isnan),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sqrt": (1, np.sqrt),
    "floor": (1, np.floor),
    "ceil": (1, np.ceil),
    "sigmoid": (1, _sigmoid),
    "pow": (2, np.power),
    "least": (2, np.minimum),
    "greatest": (2, np.maximum),
}


class FunctionCall(Expression):
    """Scalar function application (ABS, EXP, SIGMOID, POW, ...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]):
        name = name.lower()
        if name not in _FUNCTIONS:
            raise ExpressionError(
                f"unknown function {name!r}; known: {sorted(_FUNCTIONS)}"
            )
        arity, _ = _FUNCTIONS[name]
        if len(args) != arity:
            raise ExpressionError(f"{name} expects {arity} argument(s), got {len(args)}")
        self.name = name
        self.args = tuple(args)

    def children(self):
        return self.args

    def with_children(self, children):
        return FunctionCall(self.name, list(children))

    def evaluate(self, table: Table) -> np.ndarray:
        _, func = _FUNCTIONS[self.name]
        values = [arg.evaluate(table).astype(np.float64) for arg in self.args]
        return func(*values)

    def output_dtype(self, schema: Schema) -> DataType:
        # isnan is the one predicate-valued function (NULL-as-NaN modeling).
        if self.name == "isnan":
            return DataType.BOOL
        return DataType.FLOAT

    def referenced_columns(self) -> Set[str]:
        out: Set[str] = set()
        for arg in self.args:
            out |= arg.referenced_columns()
        return out

    def _key(self):
        return (self.name, self.args)

    def __repr__(self):
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 [WHEN c2 THEN v2 ...] ELSE d END``.

    This is the SQL encoding of decision trees produced by MLtoSQL; branches
    are evaluated with numpy ``select`` which matches SQL's first-match
    semantics.
    """

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[Tuple[Expression, Expression]],
                 default: Expression):
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        self.branches = tuple((cond, value) for cond, value in branches)
        self.default = default

    def children(self):
        flat: List[Expression] = []
        for cond, value in self.branches:
            flat.extend((cond, value))
        flat.append(self.default)
        return tuple(flat)

    def with_children(self, children):
        children = list(children)
        default = children.pop()
        pairs = [(children[i], children[i + 1]) for i in range(0, len(children), 2)]
        return CaseWhen(pairs, default)

    def evaluate(self, table: Table) -> np.ndarray:
        conditions = [cond.evaluate(table) for cond, _ in self.branches]
        choices = [value.evaluate(table) for _, value in self.branches]
        default = self.default.evaluate(table)
        # Promote to a common dtype for np.select.
        kinds = {c.dtype.kind for c in choices} | {default.dtype.kind}
        if "U" in kinds:
            target = np.result_type(*(c.dtype for c in choices), default.dtype)
            choices = [c.astype(target) for c in choices]
            default = default.astype(target)
        elif "f" in kinds:
            choices = [c.astype(np.float64) for c in choices]
            default = default.astype(np.float64)
        return np.select(conditions, choices, default=default)

    def output_dtype(self, schema: Schema) -> DataType:
        dtypes = {value.output_dtype(schema) for _, value in self.branches}
        dtypes.add(self.default.output_dtype(schema))
        if dtypes == {DataType.STRING}:
            return DataType.STRING
        if DataType.STRING in dtypes:
            raise ExpressionError("CASE branches mix strings and numbers")
        if DataType.FLOAT in dtypes:
            return DataType.FLOAT
        if dtypes == {DataType.BOOL}:
            return DataType.BOOL
        return DataType.INT

    def referenced_columns(self) -> Set[str]:
        out: Set[str] = set()
        for cond, value in self.branches:
            out |= cond.referenced_columns() | value.referenced_columns()
        return out | self.default.referenced_columns()

    def _key(self):
        return (self.branches, self.default)

    def __repr__(self):
        inner = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.branches)
        return f"CASE {inner} ELSE {self.default!r} END"


class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expression, values: Sequence[object]):
        if not values:
            raise ExpressionError("IN list must not be empty")
        self.operand = operand
        self.values = tuple(values)

    def children(self):
        return (self.operand,)

    def with_children(self, children):
        (operand,) = children
        return InList(operand, self.values)

    def evaluate(self, table: Table) -> np.ndarray:
        data = self.operand.evaluate(table)
        return np.isin(data, np.asarray(self.values))

    def output_dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> Set[str]:
        return self.operand.referenced_columns()

    def _key(self):
        return (self.operand, self.values)

    def __repr__(self):
        return f"({self.operand!r} IN {list(self.values)!r})"


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive on both ends, SQL semantics)."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expression, low: Expression, high: Expression):
        self.operand = operand
        self.low = low
        self.high = high

    def children(self):
        return (self.operand, self.low, self.high)

    def with_children(self, children):
        operand, low, high = children
        return Between(operand, low, high)

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.operand.evaluate(table)
        return np.logical_and(value >= self.low.evaluate(table),
                              value <= self.high.evaluate(table))

    def output_dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> Set[str]:
        return (self.operand.referenced_columns()
                | self.low.referenced_columns()
                | self.high.referenced_columns())

    def _key(self):
        return (self.operand, self.low, self.high)

    def __repr__(self):
        return f"({self.operand!r} BETWEEN {self.low!r} AND {self.high!r})"


class Cast(Expression):
    """``CAST(expr AS type)``."""

    __slots__ = ("operand", "dtype")

    def __init__(self, operand: Expression, dtype: DataType):
        self.operand = operand
        self.dtype = dtype

    def children(self):
        return (self.operand,)

    def with_children(self, children):
        (operand,) = children
        return Cast(operand, self.dtype)

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.operand.evaluate(table)
        if self.dtype is DataType.FLOAT:
            return value.astype(np.float64)
        if self.dtype is DataType.INT:
            return value.astype(np.float64).astype(np.int64) \
                if value.dtype.kind == "U" else value.astype(np.int64)
        if self.dtype is DataType.BOOL:
            return value.astype(np.bool_)
        return value.astype(np.str_)

    def output_dtype(self, schema: Schema) -> DataType:
        return self.dtype

    def referenced_columns(self) -> Set[str]:
        return self.operand.referenced_columns()

    def _key(self):
        return (self.operand, self.dtype)

    def __repr__(self):
        return f"cast({self.operand!r} as {self.dtype.value})"


# ---------------------------------------------------------------------------
# Helpers used across the optimizer
# ---------------------------------------------------------------------------

def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def conjuncts(expr: Expression) -> List[Expression]:
    """Split an expression on top-level ANDs: ``a AND (b AND c)`` → [a, b, c]."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjunction(parts: Sequence[Expression]) -> Optional[Expression]:
    """Re-join conjuncts with AND; None for an empty list."""
    parts = list(parts)
    if not parts:
        return None
    expr = parts[0]
    for part in parts[1:]:
        expr = BinaryOp("and", expr, part)
    return expr


def transform_expression(expr: Expression,
                         fn: Callable[[Expression], Optional[Expression]]) -> Expression:
    """Bottom-up rewrite: apply ``fn`` to every node, children first.

    ``fn`` returns a replacement node or None to keep the (rebuilt) node.
    """
    children = expr.children()
    if children:
        new_children = [transform_expression(child, fn) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expr = expr.with_children(new_children)
    replacement = fn(expr)
    return replacement if replacement is not None else expr


def substitute_columns(expr: Expression,
                       mapping: Dict[str, Expression]) -> Expression:
    """Replace column references by expressions (used when inlining projects)."""

    def rewrite(node: Expression) -> Optional[Expression]:
        if isinstance(node, ColumnRef) and node.name in mapping:
            return mapping[node.name]
        return None

    return transform_expression(expr, rewrite)


def fold_constants(expr: Expression) -> Expression:
    """Evaluate constant sub-expressions at compile time.

    Predicate-based pruning leaves behind arithmetic over literals (e.g.
    ``(1 - offset) * scale``); folding keeps compiled SQL small.
    """

    def fold(node: Expression) -> Optional[Expression]:
        if isinstance(node, Literal):
            return None
        kids = node.children()
        if not kids or not all(isinstance(k, Literal) for k in kids):
            # Short-circuit trivial logic: x AND TRUE, x AND FALSE, etc.
            if isinstance(node, BinaryOp) and node.op in _LOGICAL:
                left, right = node.left, node.right
                for a, b in ((left, right), (right, left)):
                    if isinstance(a, Literal) and a.dtype is DataType.BOOL:
                        if node.op == "and":
                            return b if a.value else Literal(False)
                        return Literal(True) if a.value else b
            return None
        try:
            value = node.evaluate(_one_row_table())
        except Exception:
            return None
        scalar = value[0]
        if isinstance(scalar, np.str_):
            return Literal(str(scalar))
        item = scalar.item()
        if isinstance(item, float) and (math.isnan(item) or math.isinf(item)):
            return None
        return Literal(item)

    return transform_expression(expr, fold)


def _one_row_table() -> Table:
    """A one-row table used to evaluate constant expressions at compile time."""
    from repro.storage.column import Column
    return Table({"__dummy__": Column(np.zeros(1))})
