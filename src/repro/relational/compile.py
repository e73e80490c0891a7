"""Compiled expression programs: CSE, constant folding, leaf-id routing.

The MLtoSQL transformation (paper §5.1) bets that scalar SQL expressions
beat a model runtime — but the interpreted :meth:`Expression.evaluate`
walks the tree naively: ``np.select`` evaluates *every* CASE branch on
*every* row (O(rows × leaves) for a translated decision tree instead of
O(rows × depth)), and each projection output re-evaluates shared
subexpressions from scratch. This module lowers an expression tree — or a
whole Project output list at once — into a flat SSA-style program of
vectorized instructions:

* **Common-subexpression elimination** — one instruction per structurally
  distinct subtree across all outputs (the existing structural hashes of
  :class:`Expression` drive deduplication), so an MLtoSQL feature used by
  every node of a translated tree is computed once.
* **Leaf-id routing** — a whole ``CASE WHEN`` nest (a translated
  decision tree, however deep, or a multi-``WHEN`` chain) is one
  ``route`` instruction: parallel node arrays (condition slot, then
  child, else child) over a leaf table. MLtoSQL hands each tree over as
  one :class:`~repro.relational.expressions.TreeCase`, whose arrays are
  already in the route's layout: lowering it copies them and lowers
  each distinct split condition once, giving the program its
  ``expand()`` nest would. Each node splits its rows with
  ``nonzero`` and evaluates a condition only on the rows that reach it;
  each row writes its leaf id once, and constant leaves come out of one
  ``values.take(leaf_id)``. A leaf that is an expression (a guarded
  division, a column) is evaluated on its own rows and scattered once;
  string leaves are evaluated the same way and joined at their common
  width. Short-circuiting ``AND``/``OR`` evaluate their right operand
  only on the rows still undecided. This restores tree-traversal cost
  for translated trees and stops poisoned expressions (``1/x`` guarded
  by ``x <> 0``) from ever touching the guarded-out rows.
* **Constant folding** — literal-only subtrees are evaluated once at
  compile time. A constant stays a 0-d array that numpy broadcasts; it
  is widened to one value per row only where an array must come out: a
  program output, an ``AND``/``OR`` left operand, a function argument.
* **Column-constant comparisons** — ``col op lit`` over a FLOAT or INT
  column with a numeric literal (either operand order, any of
  ``= <> < <= > >=``) is one ``colcmp`` instruction: the column name,
  the comparison ufunc and the 0-d constant in its payload, no operand
  slots. MLtoSQL folds a scaler into its tree's thresholds
  (:mod:`repro.core.rules.ml_to_sql`), so every numeric split of a
  translated tree, like most Filter predicates, is one ``colcmp``.
* **String predicates on codes** — ``col op 'lit'`` (either operand
  order, any of ``= <> < <= > >=``), ``col IN ('a', ...)`` and
  ``col BETWEEN 'a' AND 'b'`` over a STRING column compile to one
  ``strcmp`` instruction over the column's dictionary codes (see
  :mod:`repro.storage.column`). The literal is bound to the column's
  sorted dictionary with ``searchsorted`` — a literal absent from it
  makes ``=`` constant false and ``<>`` constant true — so the program
  itself stays data-independent and plans cached across catalog
  versions stay valid. A column without codes (a string ``CASE``
  result, a spilled column) is compared as strings.
* **Codes bound once per dictionary** — a ``strcmp`` keeps its last
  binding next to the dictionary object it was bound to (holding a
  reference, so the identity check cannot be fooled by a reused id),
  and rebinds only when a different dictionary arrives: after the table
  is registered again, or from another table's column.
* **Pass-through outputs** — an output that is a bare column reference
  is the source :class:`~repro.storage.column.Column` itself
  (:meth:`CompiledProgram.run_columns`), so coded strings stay coded.

Programs depend only on the expressions and the input schema — never on
the data — so one program serves every plan node with the same
structure. A session compiles each distinct (expressions, schema) pair
once and keeps it in its :class:`ProgramTable`: a cold query whose
literal changed only its ``WHERE`` clause reuses the Project's program
(the MLtoSQL ``CASE`` tree) compiled for an earlier query.

Programs are bit-for-bit equivalent to the interpreted path (which stays
available as the differential-testing oracle behind the session flag
``compile_expressions=False``, and always compares decoded strings):
every instruction applies the exact numpy ops :meth:`Expression.evaluate`
would, just on fewer rows — or, for strings, the same order on codes.
Each instruction's evaluator is resolved once, when the program is
built.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExpressionError
from repro.relational.expressions import (
    _COMPARE_FUNCS,
    _FUNCTIONS,
    Between,
    BinaryOp,
    Cast,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    TreeCase,
    UnaryOp,
    _one_row_table,
)
from repro.storage.column import Column, DataType
from repro.storage.table import Schema

_NP_DTYPES = {
    DataType.FLOAT: np.float64,
    DataType.INT: np.int64,
    DataType.BOOL: np.bool_,
}

#: ``lit op col`` is ``col FLIPPED[op] lit``.
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: The SQL operator of a comparison ufunc (for listings).
_COMPARE_OPS = {func: op for op, func in _COMPARE_FUNCS.items()}

_NUMERIC = (DataType.FLOAT, DataType.INT)


def _compare_strings(values: np.ndarray, op: str, literal) -> np.ndarray:
    """A ``strcmp`` over ``<U`` values: the interpreted path's numpy ops."""
    if op == "in":
        return np.isin(values, literal)
    if op == "between":
        low, high = literal
        return np.logical_and(values >= low, values <= high)
    return _COMPARE_FUNCS[op](values, literal)


def _bind_codes(dictionary: np.ndarray, op: str, literal):
    """Bind a ``strcmp`` literal to a sorted dictionary: returns the
    predicate over codes that ``_compare_strings`` computes over strings."""
    size = len(dictionary)
    if op == "in":
        positions = np.minimum(np.searchsorted(dictionary, literal), size - 1)
        present = positions[dictionary[positions] == literal] if size \
            else positions[:0]
        return lambda codes: np.isin(codes, present.astype(codes.dtype))

    def bound(value, side):
        return int(np.searchsorted(dictionary, value, side))

    # The codes in [lo, hi) are the strings that pass (for `<>`: that fail).
    negate = op == "<>"
    if op == "between":
        lo, hi = bound(literal[0], "left"), bound(literal[1], "right")
    elif op in ("=", "<>"):
        lo, hi = bound(literal, "left"), bound(literal, "right")
    elif op in ("<", "<="):
        lo, hi = 0, bound(literal, "left" if op == "<" else "right")
    else:
        lo, hi = bound(literal, "right" if op == ">" else "left"), size
    # lo/hi are Python ints, so each compare runs at the codes' own
    # (narrow) width. A `<>` range is one code or none (the dictionary
    # has no duplicates).
    if lo >= hi or (lo <= 0 and hi >= size):
        constant = (lo < hi) != negate
        return lambda codes: np.full(len(codes), constant)
    if negate:
        return lambda codes: codes != lo
    if hi - lo == 1:
        return lambda codes: codes == lo
    return lambda codes: (codes >= lo) & (codes < hi)


class _Instr:
    """One SSA instruction: an opcode, input slots, and static payload.

    ``bound`` is a ``strcmp``'s last binding, ``(dictionary,
    predicate)``. It is read once and replaced whole, so a run always
    uses a binding made for its own dictionary; two runs that race at
    worst both bind.
    """

    __slots__ = ("kind", "args", "payload", "bound")

    def __init__(self, kind: str, args: Tuple[int, ...] = (), payload=None):
        self.kind = kind
        self.args = args
        self.payload = payload
        self.bound = None

    def __repr__(self):
        if self.kind == "route":
            return f"route {self.payload!r}"
        if self.kind == "colcmp":
            name, compare, constant = self.payload
            return f"colcmp {name!r} {_COMPARE_OPS[compare]} {constant.item()!r}"
        inner = ", ".join(f"%{a}" for a in self.args)
        extra = f" {self.payload!r}" if self.payload is not None else ""
        return f"{self.kind}({inner}){extra}"


@dataclass(frozen=True, eq=False, slots=True)
class _Route:
    """A whole ``CASE`` nest as parallel node arrays and a leaf table.

    Node ``i`` sends its rows where the condition in slot
    ``conditions[i]`` holds to ``then[i]`` and the rest to
    ``otherwise[i]``; a child is a node index (>= 0, the root is node 0)
    or ``~leaf`` (< 0). A multi-``WHEN`` CASE is a chain of nodes and a
    nested CASE value is its own subtree. Leaf ``k`` is the constant
    ``values[k]`` when ``slots[k]`` is None, else the value in
    ``slots[k]``, evaluated on the rows that reach it (``values[k]`` is
    then a placeholder). A string CASE has no ``values``: every leaf is a
    slot.
    """

    conditions: Tuple[int, ...]
    then: Tuple[int, ...]
    otherwise: Tuple[int, ...]
    slots: Tuple[Optional[int], ...]
    values: Optional[np.ndarray]  # read-only

    def __repr__(self):
        constant = sum(slot is None for slot in self.slots)
        conditions = " ".join(f"%{slot}" for slot in dict.fromkeys(
            self.conditions))
        text = (f"{len(self.conditions)} nodes, {len(self.slots)} leaves "
                f"({constant} constant); when {conditions}")
        evaluated = [slot for slot in self.slots if slot is not None]
        if evaluated:
            text += "; values " + " ".join(
                f"%{slot}" for slot in dict.fromkeys(evaluated))
        return text


#: The positions of "every row" of a routed set (it keeps no index).
_ALL = slice(None)


def _rows(value: np.ndarray, n: int) -> np.ndarray:
    """``value`` as an array of ``n`` rows: a 0-d constant is widened."""
    return np.full(n, value, dtype=value.dtype) if value.ndim == 0 else value


class _RunContext:
    """Per-run mutable state: source columns and the full-row value memo."""

    __slots__ = ("source", "num_rows", "columns", "full")

    def __init__(self, source):
        self.source = source
        self.num_rows = source.num_rows
        self.columns: Dict[str, Column] = {}
        # slot -> value over ALL rows of the source; evaluations on a row
        # subset gather from here instead of recomputing.
        self.full: Dict[int, np.ndarray] = {}

    def column(self, name: str) -> Column:
        column = self.columns.get(name)
        if column is None:
            column = self.columns[name] = self.source.column(name)
        return column


class CompiledProgram:
    """A compiled DAG of vectorized instructions for named outputs.

    Immutable after construction (but for each ``strcmp``'s cached
    binding, see :class:`_Instr`) and data-independent (dictionary codes
    are bound to whichever dictionary a run brings), therefore safe to
    share across threads and plan nodes: each :meth:`run` call builds its
    own :class:`_RunContext`. The relational executor stashes the program
    on the plan node (warm hits of plans held by the serving PlanCache
    skip even the lookup) and shares it through the session's
    :class:`ProgramTable` with every other node of the same structure.
    """

    __slots__ = ("instructions", "uses", "outputs", "_steps")

    def __init__(self, instructions: List[_Instr], uses: List[int],
                 outputs: List[Tuple[str, int, DataType]]):
        self.instructions = instructions
        self.uses = uses
        self.outputs = outputs
        # Per slot, resolved once: its evaluator, its instruction and
        # whether its value is memoized (used more than once; constants
        # are their own memo).
        self._steps = tuple(
            (getattr(CompiledProgram, f"_eval_{instr.kind}"), instr,
             uses[slot] > 1 and instr.kind != "const")
            for slot, instr in enumerate(instructions))

    # ------------------------------------------------------------------
    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def output_dtypes(self) -> List[Tuple[str, DataType]]:
        return [(name, dtype) for name, _, dtype in self.outputs]

    def __repr__(self):
        names = ", ".join(name for name, _, _ in self.outputs)
        return (f"CompiledProgram({self.num_instructions} instrs -> "
                f"[{names}])")

    def pretty(self) -> str:
        """Readable SSA listing (debugging / tests)."""
        lines = [f"%{i} = {instr!r}  (uses={self.uses[i]})"
                 for i, instr in enumerate(self.instructions)]
        for name, slot, dtype in self.outputs:
            lines.append(f"output {name}: %{slot} ({dtype.value})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def run(self, source) -> Dict[str, np.ndarray]:
        """Evaluate all outputs over a Table or TableView, as arrays
        (see :meth:`run_columns`)."""
        return {name: column.data for name, column in self.run_columns(source)}

    def run_columns(self, source) -> List[Tuple[str, Column]]:
        """Evaluate all outputs as the columns a Project emits.

        Outputs match the interpreted path's contract: a bare column
        reference is the source column itself (coded strings stay coded,
        nothing is copied); every other output is a fresh, writable array
        — a constant is widened to one value per row, and slots shared
        between outputs are copied on the way out so no two computed
        columns alias each other.
        """
        ctx = _RunContext(source)
        emitted = set()
        columns = []
        for name, slot, dtype in self.outputs:
            instr = self.instructions[slot]
            if instr.kind == "col":
                columns.append((name, ctx.column(instr.payload)))
                continue
            value = self._eval(slot, ctx, None, ctx.full)
            if value.ndim == 0:
                value = _rows(value, ctx.num_rows)
            elif not value.flags.writeable or slot in emitted:
                value = value.copy()
            emitted.add(slot)
            columns.append((name, Column(value, dtype)))
        return columns

    def run_single(self, source) -> np.ndarray:
        """Evaluate a single-output program (Filter predicates)."""
        (name, slot, _), = self.outputs
        ctx = _RunContext(source)
        return _rows(self._eval(slot, ctx, None, ctx.full), ctx.num_rows)

    # ------------------------------------------------------------------
    # Evaluation. ``active`` is None (all rows) or an int64 index array
    # into the source's row domain; ``memo`` caches values computed for
    # exactly this active set (the top-level memo is ``ctx.full``). A
    # constant evaluates to its 0-d payload, which numpy broadcasts.
    # ------------------------------------------------------------------
    def _eval(self, slot: int, ctx: _RunContext,
              active: Optional[np.ndarray], memo: Dict[int, np.ndarray]
              ) -> np.ndarray:
        evaluate, instr, memoize = self._steps[slot]
        if not memoize:  # only memoized slots are ever in a memo
            return evaluate(self, instr, ctx, active, memo)
        value = memo.get(slot)
        if value is not None:
            return value
        if active is not None:
            full = ctx.full.get(slot)
            if full is not None:
                return full[active]
        value = memo[slot] = evaluate(self, instr, ctx, active, memo)
        return value

    def _n(self, ctx: _RunContext, active: Optional[np.ndarray]) -> int:
        return ctx.num_rows if active is None else len(active)

    # -- leaves --------------------------------------------------------
    def _eval_const(self, instr, ctx, active, memo):
        return instr.payload

    def _eval_col(self, instr, ctx, active, memo):
        array = ctx.column(instr.payload).data
        return array if active is None else array[active]

    def _eval_codes(self, instr, ctx, active, memo):
        # A string column's codes; its strings when it carries none.
        column = ctx.column(instr.payload)
        array = column.data if column.codes is None else column.codes
        return array if active is None else array[active]

    # -- pointwise -----------------------------------------------------
    def _eval_cmp(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        right = self._eval(instr.args[1], ctx, active, memo)
        return instr.payload(left, right)

    def _eval_colcmp(self, instr, ctx, active, memo):
        name, compare, constant = instr.payload
        array = ctx.column(name).data
        return compare(array if active is None else array[active], constant)

    def _eval_strcmp(self, instr, ctx, active, memo):
        values = self._eval(instr.args[0], ctx, active, memo)
        name, op, literal = instr.payload
        if values.dtype.kind == "U":
            return _compare_strings(values, op, literal)
        dictionary = ctx.column(name).dictionary
        bound = instr.bound
        if bound is None or bound[0] is not dictionary:
            bound = instr.bound = (dictionary,
                                   _bind_codes(dictionary, op, literal))
        return bound[1](values)

    def _eval_arith(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
        right = self._eval(instr.args[1], ctx, active, memo)
        op = instr.payload
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        # SQL float semantics: x/0 is IEEE inf/nan, silently (routing
        # already keeps guarded rows out; unguarded divisions
        # must not warn either — the suite promotes warnings to errors).
        with np.errstate(divide="ignore", invalid="ignore"):
            return left.astype(np.float64) / right.astype(np.float64)

    def _eval_not(self, instr, ctx, active, memo):
        return np.logical_not(self._eval(instr.args[0], ctx, active, memo))

    def _eval_neg(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        return -value

    def _eval_func(self, instr, ctx, active, memo):
        # Full-length arguments: ``np.power`` takes a faster, last-bit
        # different path for a scalar exponent than the oracle's array.
        n = self._n(ctx, active)
        values = [_rows(self._eval(arg, ctx, active, memo), n)
                  .astype(np.float64) for arg in instr.args]
        return instr.payload(*values)

    def _eval_in(self, instr, ctx, active, memo):
        data = self._eval(instr.args[0], ctx, active, memo)
        return np.isin(data, instr.payload)

    def _eval_between(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        low = self._eval(instr.args[1], ctx, active, memo)
        high = self._eval(instr.args[2], ctx, active, memo)
        return np.logical_and(value >= low, value <= high)

    def _eval_cast(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        dtype = instr.payload
        if dtype is DataType.FLOAT:
            return value.astype(np.float64)
        if dtype is DataType.INT:
            return value.astype(np.float64).astype(np.int64) \
                if value.dtype.kind == "U" else value.astype(np.int64)
        if dtype is DataType.BOOL:
            return value.astype(np.bool_)
        return value.astype(np.str_)

    # -- routed evaluation ---------------------------------------------
    def _eval_and(self, instr, ctx, active, memo):
        left = _rows(self._eval(instr.args[0], ctx, active, memo),
                     self._n(ctx, active))
        out = left.astype(np.bool_, copy=True)
        need = np.nonzero(out)[0]
        if len(need) == len(out):
            # No rows short-circuit; stay on the shared active set/memo.
            right = self._eval(instr.args[1], ctx, active, memo)
            return np.logical_and(out, right)
        if len(need):
            subset = need if active is None else active[need]
            out[need] = self._eval(instr.args[1], ctx, subset, {})
        return out

    def _eval_or(self, instr, ctx, active, memo):
        left = _rows(self._eval(instr.args[0], ctx, active, memo),
                     self._n(ctx, active))
        out = left.astype(np.bool_, copy=True)
        need = np.nonzero(~out)[0]
        if len(need) == len(out):
            right = self._eval(instr.args[1], ctx, active, memo)
            return np.logical_or(out, right)
        if len(need):
            subset = need if active is None else active[need]
            out[need] = self._eval(instr.args[1], ctx, subset, {})
        return out

    def _eval_route(self, instr, ctx, active, memo):
        route = instr.payload
        n = self._n(ctx, active)
        reached = self._route_rows(route, ctx, active, memo) if n else []
        slots, values = route.slots, route.values
        if values is None:
            # String CASE: widths are only known once the pieces exist.
            pieces = [(local, self._eval(slots[leaf], ctx, rows, rows_memo))
                      for leaf, local, rows, rows_memo in reached]
            if not pieces:
                return np.empty(n, dtype="<U1")
            out = np.empty(n, dtype=np.result_type(
                *(value.dtype for _, value in pieces)))
            for local, value in pieces:
                out[local] = value
            return out
        if any(slots[leaf] is None for leaf, _, _, _ in reached):
            leaf_id = np.empty(n, dtype=np.int32)
            for leaf, local, _, _ in reached:
                leaf_id[local] = leaf
            out = values.take(leaf_id)
        else:
            out = np.empty(n, dtype=values.dtype)
        for leaf, local, rows, rows_memo in reached:
            slot = slots[leaf]
            if slot is not None:
                out[local] = self._eval(slot, ctx, rows, rows_memo)
        return out

    def _route_rows(self, route: _Route, ctx: _RunContext,
                    active: Optional[np.ndarray], memo: Dict[int, np.ndarray]
                    ) -> List[tuple]:
        """Split the active rows down the nest, depth first.

        Returns one ``(leaf, local, rows, memo)`` per leaf some row
        reaches: ``local`` are the rows' positions in the active set
        (``_ALL``: all of them), ``rows`` their indices into the source
        (None: all source rows) and ``memo`` the memo of that row set. A
        split that sends every row one way keeps the set and its memo; a
        constant condition sends every row one way.
        """
        conditions, then, otherwise = (route.conditions, route.then,
                                       route.otherwise)
        reached = []
        pending = [(0, None, active, memo)]
        while pending:
            child, local, rows, rows_memo = pending.pop()
            while child >= 0:
                cond = self._eval(conditions[child], ctx, rows, rows_memo)
                if cond.ndim == 0:
                    child = then[child] if cond else otherwise[child]
                    continue
                taken = cond.nonzero()[0]
                if len(taken) == len(cond):
                    child = then[child]
                    continue
                if not len(taken):
                    child = otherwise[child]
                    continue
                kept = (~cond).nonzero()[0]
                pending.append((otherwise[child],
                                *_narrow(local, rows, kept), {}))
                local, rows = _narrow(local, rows, taken)
                rows_memo = {}
                child = then[child]
            reached.append((~child, _ALL if local is None else local, rows,
                            rows_memo))
        return reached


def _shift(children: np.ndarray, first_node: int, first_leaf: int
           ) -> List[int]:
    """Child codes moved past ``first_node`` nodes and ``first_leaf``
    leaves (``~leaf`` codes shift down)."""
    return np.where(children >= 0, children + first_node,
                    children - first_leaf).tolist()


def _narrow(local: Optional[np.ndarray], rows: Optional[np.ndarray],
            positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``local``/``rows`` pair of a row set's subset at ``positions``
    (one gather while both are the same index: a top-level route)."""
    sub_local = positions if local is None else local[positions]
    if rows is local:
        return sub_local, sub_local
    return sub_local, positions if rows is None else rows[positions]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

class _Compiler:
    """Lowers expression trees into one shared instruction DAG."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.instructions: List[_Instr] = []
        self.uses: List[int] = []
        # Structural-hash CSE: one slot per distinct subtree (and one per
        # column's codes, keyed ("codes", name)).
        self._slots: Dict[object, int] = {}

    # ------------------------------------------------------------------
    def lower(self, expr: Expression) -> int:
        return self._intern(expr, self._lower_new)

    def _intern(self, key, build) -> int:
        slot = self._slots.get(key)
        if slot is not None:
            self.uses[slot] += 1
            return slot
        instr = build(key)
        slot = len(self.instructions)
        self.instructions.append(instr)
        self.uses.append(1)
        self._slots[key] = slot
        return slot

    # ------------------------------------------------------------------
    def _lower_new(self, expr: Expression) -> _Instr:
        if isinstance(expr, Literal):
            return self._const_instr(expr)
        if isinstance(expr, ColumnRef):
            return _Instr("col", payload=expr.name)
        if isinstance(expr, (CaseWhen, TreeCase)):
            return self._route(expr)
        predicate = self._column_predicate(expr)
        if predicate is not None:
            return predicate
        children = tuple(self.lower(child) for child in expr.children())
        folded = self._try_fold(expr, children)
        if folded is not None:
            return folded
        if isinstance(expr, BinaryOp):
            if expr.op in _COMPARE_FUNCS:
                return _Instr("cmp", children, _COMPARE_FUNCS[expr.op])
            if expr.op == "and" or expr.op == "or":
                return _Instr(expr.op, children)
            return _Instr("arith", children, expr.op)
        if isinstance(expr, UnaryOp):
            return _Instr("not" if expr.op == "not" else "neg", children)
        if isinstance(expr, FunctionCall):
            _, func = _FUNCTIONS[expr.name]
            return _Instr("func", children, func)
        if isinstance(expr, InList):
            return _Instr("in", children, np.asarray(expr.values))
        if isinstance(expr, Between):
            return _Instr("between", children)
        if isinstance(expr, Cast):
            return _Instr("cast", children, expr.dtype)
        raise ExpressionError(
            f"cannot compile expression node {type(expr).__name__}"
        )

    # ------------------------------------------------------------------
    def _column_predicate(self, expr: Expression) -> Optional[_Instr]:
        """One instruction for a predicate over a column and literals: a
        ``colcmp`` for a FLOAT or INT column compared with a numeric
        literal, a ``strcmp`` over a STRING column's codes when ``expr``
        compares that column with string literals only."""
        if isinstance(expr, BinaryOp) and expr.op in _COMPARE_FUNCS:
            column, literal, op = expr.left, expr.right, expr.op
            if isinstance(column, Literal):
                column, literal, op = literal, column, _FLIPPED[op]
            if (isinstance(column, ColumnRef) and isinstance(literal, Literal)
                    and literal.dtype in _NUMERIC
                    and column.name in self.schema
                    and self.schema.dtype_of(column.name) in _NUMERIC):
                return _Instr("colcmp", payload=(
                    column.name, _COMPARE_FUNCS[op],
                    self._const_instr(literal).payload))
            bounds = (literal,)
        elif isinstance(expr, Between):
            column, op, bounds = expr.operand, "between", (expr.low, expr.high)
        elif isinstance(expr, InList) \
                and all(isinstance(value, str) for value in expr.values):
            column, op, bounds = expr.operand, "in", ()
        else:
            return None
        if not (isinstance(column, ColumnRef) and column.name in self.schema
                and self.schema.dtype_of(column.name) is DataType.STRING
                and all(isinstance(bound, Literal)
                        and bound.dtype is DataType.STRING
                        for bound in bounds)):
            return None
        if op == "in":
            literal = np.asarray(expr.values)
        elif op == "between":
            literal = (expr.low.value, expr.high.value)
        else:
            literal = bounds[0].value
        codes = self._intern(("codes", column.name),
                             lambda key: _Instr("codes", payload=key[1]))
        return _Instr("strcmp", (codes,), (column.name, op, literal))

    def _const_instr(self, literal: Literal) -> _Instr:
        np_dtype = _NP_DTYPES.get(literal.dtype)
        if np_dtype is None:  # string: let numpy size the unicode width
            return _Instr("const", payload=np.asarray(literal.value))
        return _Instr("const", payload=np.asarray(literal.value, dtype=np_dtype))

    def _route(self, case: Expression) -> _Instr:
        """One ``route`` for a whole CASE nest (see :class:`_Route`).

        Nested CASE values are inlined as subtrees, so a translated tree
        is one instruction whatever its depth. A :class:`TreeCase`'s node
        arrays are the route's own (shifted past the nodes and leaves
        before it); each of its splits lowers once per distinct
        condition, in node order, so the program is the one its
        ``expand()`` nest lowers to. Constant leaves of a numeric CASE go
        into one value array in the CASE's dtype.
        """
        np_dtype = _NP_DTYPES.get(case.output_dtype(self.schema))
        conditions: List[int] = []
        then: List[int] = []
        otherwise: List[int] = []
        slots: List[Optional[int]] = []
        constants: List[Optional[np.ndarray]] = []

        def leaf(value: Expression) -> int:
            # A string CASE evaluates every leaf, its constants included.
            if np_dtype is not None and isinstance(value, Literal):
                slot, constant = None, self._const_instr(value).payload
            else:
                slot = self.lower(value)
                instr = self.instructions[slot]
                constant = instr.payload if instr.kind == "const" else None
                if np_dtype is not None and constant is not None:
                    slot = None
            slots.append(slot)
            constants.append(constant)
            return ~(len(slots) - 1)

        def child(value: Expression) -> int:
            if isinstance(value, TreeCase):
                return tree(value)
            if not isinstance(value, CaseWhen):
                return leaf(value)
            root = previous = len(conditions)
            for cond, branch_value in value.branches:
                node = len(conditions)
                conditions.append(self.lower(cond))
                then.append(0)
                otherwise.append(0)
                if node != root:
                    otherwise[previous] = node
                then[node] = child(branch_value)
                previous = node
            otherwise[previous] = child(value.default)
            return root

        def tree(value: TreeCase) -> int:
            root, first_leaf = len(conditions), len(slots)
            conditions.extend(self._tree_conditions(value))
            then.extend(_shift(value.then, root, first_leaf))
            otherwise.extend(_shift(value.otherwise, root, first_leaf))
            for constant in value.values.tolist():
                leaf(Literal(constant, DataType.FLOAT))
            return root

        child(case)
        if all(self.instructions[slot].kind == "const" for slot in conditions) \
                and all(constant is not None for constant in constants):
            folded = self._fold(case)
            if folded is not None:
                return folded
        values = None
        if np_dtype is not None:
            values = np.array([0 if constant is None else constant
                               for constant in constants], dtype=np_dtype)
            values.flags.writeable = False
        referenced = conditions + [slot for slot in slots if slot is not None]
        return _Instr("route", tuple(dict.fromkeys(referenced)),
                      _Route(tuple(conditions), tuple(then), tuple(otherwise),
                             tuple(slots), values))

    def _tree_conditions(self, tree: TreeCase) -> List[int]:
        """The slot of each split's condition, lowering each distinct
        condition once (a repeat counts one more use, as lowering it
        again would)."""
        slots: List[int] = []
        seen: Dict[tuple, int] = {}
        for node, key in enumerate(zip(
                tree.split_operand.tolist(), tree.split_op.tolist(),
                tree.split_constant.view(np.int64).tolist())):
            slot = seen.get(key)
            if slot is None:
                slot = seen[key] = self.lower(tree.condition(node))
            else:
                self.uses[slot] += 1
            slots.append(slot)
        return slots

    def _try_fold(self, expr: Expression, children: Tuple[int, ...]
                  ) -> Optional[_Instr]:
        """Fold a subtree whose inputs are all compile-time constants."""
        if not children or any(self.instructions[slot].kind != "const"
                               for slot in children):
            return None
        return self._fold(expr)

    def _fold(self, expr: Expression) -> Optional[_Instr]:
        try:
            with np.errstate(all="ignore"):
                value = expr.evaluate(_one_row_table())
        except Exception:
            return None
        return _Instr("const", payload=np.asarray(value[0]))


def compile_outputs(outputs: Sequence[Tuple[str, Expression]],
                    schema: Schema) -> CompiledProgram:
    """Compile a Project-style output list into one shared program.

    All outputs share a single instruction DAG, so a subexpression used by
    several outputs (MLtoSQL feature pipelines feeding every tree of an
    ensemble) is evaluated exactly once per run.
    """
    compiler = _Compiler(schema)
    compiled: List[Tuple[str, int, DataType]] = []
    for name, expr in outputs:
        slot = compiler.lower(expr)
        compiled.append((name, slot, expr.output_dtype(schema)))
    return CompiledProgram(compiler.instructions, compiler.uses, compiled)


def compile_predicate(expr: Expression, schema: Schema) -> CompiledProgram:
    """Compile a Filter predicate into a single-output program."""
    return compile_outputs([("__pred__", expr)], schema)


# ---------------------------------------------------------------------------
# One session's programs
# ---------------------------------------------------------------------------

#: Distinct programs a session keeps; the least recently used goes first.
MAX_SESSION_PROGRAMS = 256


class ProgramTable:
    """A session's compiled programs, keyed by structure.

    Keys are ``("filter", predicate, schema fields)`` or ``("project",
    outputs, schema fields)`` — everything a program is compiled from, so
    equal keys compile to equal programs. Thread-safe (concurrent queries
    and the morsel driver's executors share one table) and LRU-bounded
    at :data:`MAX_SESSION_PROGRAMS` entries.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # A plain dict in recency order (oldest first). Finding a key
        # compares the keys' expressions (a translated tree by its
        # arrays' bytes); an OrderedDict's pop or move_to_end looks the
        # key up twice, a dict's pop once.
        self._programs: Dict[tuple, CompiledProgram] = {}

    def __len__(self) -> int:
        return len(self._programs)

    def lookup(self, key: tuple, build: Callable[[], CompiledProgram]
               ) -> Tuple[CompiledProgram, bool]:
        """The program under ``key``, built on a miss (outside the lock);
        also returns whether this call built it."""
        with self._lock:
            program = self._programs.pop(key, None)
            if program is not None:
                self._programs[key] = program  # now the most recent
                return program, False
        program = build()
        with self._lock:
            # A concurrent miss may have won the race: keep one copy.
            program = self._programs.pop(key, program)
            self._programs[key] = program
            while len(self._programs) > MAX_SESSION_PROGRAMS:
                del self._programs[next(iter(self._programs))]
        return program, True
