"""Compiled expression programs: CSE, constant folding, masked routing.

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
* **Masked/routed evaluation** — ``CASE WHEN`` and short-circuiting
  ``AND``/``OR`` evaluate each branch only on the rows still active for
  it (gather → compute → scatter), skipping branches whose active set is
  empty. This restores tree-traversal cost for translated trees and stops
  poisoned expressions (``1/x`` guarded by ``x <> 0``) from ever touching
  the guarded-out rows.
* **Constant folding** — literal-only subtrees are evaluated once at
  compile time and broadcast (zero-copy) at run time.
* **String predicates on codes** — ``col op 'lit'`` (either operand
  order, any of ``= <> < <= > >=``), ``col IN ('a', ...)`` and
  ``col BETWEEN 'a' AND 'b'`` over a STRING column compile to one
  ``strcmp`` instruction over the column's dictionary codes (see
  :mod:`repro.storage.column`). Each run binds the literal to the
  column's sorted dictionary with ``searchsorted`` — a literal absent
  from it makes ``=`` constant false and ``<>`` constant true — so the
  program itself stays data-independent and plans cached across
  catalog versions stay valid. A column without codes (a string
  ``CASE`` result, a spilled column) is compared as strings.
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
"""

from __future__ import annotations

import threading
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
    """One SSA instruction: an opcode, input slots, and static payload."""

    __slots__ = ("kind", "args", "payload")

    def __init__(self, kind: str, args: Tuple[int, ...] = (), payload=None):
        self.kind = kind
        self.args = args
        self.payload = payload

    def __repr__(self):
        inner = ", ".join(f"%{a}" for a in self.args)
        extra = f" {self.payload!r}" if self.payload is not None else ""
        return f"{self.kind}({inner}){extra}"


class _RunContext:
    """Per-run mutable state: source columns, the full-row value memo and
    the string literals bound to this run's dictionaries."""

    __slots__ = ("source", "num_rows", "columns", "full", "bound")

    def __init__(self, source):
        self.source = source
        self.num_rows = source.num_rows
        self.columns: Dict[str, Column] = {}
        # slot -> value over ALL rows of the source; masked evaluations
        # gather from here instead of recomputing.
        self.full: Dict[int, np.ndarray] = {}
        # strcmp instruction -> its predicate over codes.
        self.bound: Dict[_Instr, object] = {}

    def column(self, name: str) -> Column:
        column = self.columns.get(name)
        if column is None:
            column = self.columns[name] = self.source.column(name)
        return column


class CompiledProgram:
    """A compiled DAG of vectorized instructions for named outputs.

    Immutable after construction and data-independent (dictionary codes
    are bound per run), therefore safe to share across threads and plan
    nodes: each :meth:`run` call builds its own :class:`_RunContext`. The
    relational executor stashes the program on the plan node (warm hits
    of plans held by the serving PlanCache skip even the lookup) and
    shares it through the session's :class:`ProgramTable` with every
    other node of the same structure.
    """

    __slots__ = ("instructions", "uses", "outputs")

    def __init__(self, instructions: List[_Instr], uses: List[int],
                 outputs: List[Tuple[str, int, DataType]]):
        self.instructions = instructions
        self.uses = uses
        self.outputs = outputs

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
        — constant broadcasts (read-only, 0-stride) and slots shared
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
            if not value.flags.writeable or slot in emitted:
                value = value.copy()
            emitted.add(slot)
            columns.append((name, Column(value, dtype)))
        return columns

    def run_single(self, source) -> np.ndarray:
        """Evaluate a single-output program (Filter predicates)."""
        (name, slot, _), = self.outputs
        ctx = _RunContext(source)
        return self._eval(slot, ctx, None, ctx.full)

    # ------------------------------------------------------------------
    # Evaluation. ``active`` is None (all rows) or an int64 index array
    # into the source's row domain; ``memo`` caches values computed for
    # exactly this active set (the top-level memo is ``ctx.full``).
    # ------------------------------------------------------------------
    def _eval(self, slot: int, ctx: _RunContext,
              active: Optional[np.ndarray], memo: Dict[int, np.ndarray]
              ) -> np.ndarray:
        value = memo.get(slot)
        if value is not None:
            return value
        if active is not None:
            full = ctx.full.get(slot)
            if full is not None:
                return full[active]
        instr = self.instructions[slot]
        value = getattr(self, f"_eval_{instr.kind}")(instr, ctx, active, memo)
        if self.uses[slot] > 1:
            memo[slot] = value
        return value

    def _n(self, ctx: _RunContext, active: Optional[np.ndarray]) -> int:
        return ctx.num_rows if active is None else len(active)

    # -- leaves --------------------------------------------------------
    def _eval_const(self, instr, ctx, active, memo):
        # payload: 0-d numpy array; broadcast is zero-copy (read-only).
        return np.broadcast_to(instr.payload, (self._n(ctx, active),))

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

    def _eval_strcmp(self, instr, ctx, active, memo):
        values = self._eval(instr.args[0], ctx, active, memo)
        name, op, literal = instr.payload
        if values.dtype.kind == "U":
            return _compare_strings(values, op, literal)
        predicate = ctx.bound.get(instr)
        if predicate is None:
            predicate = ctx.bound[instr] = _bind_codes(
                ctx.column(name).dictionary, op, literal)
        return predicate(values)

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
        # SQL float semantics: x/0 is IEEE inf/nan, silently (masked
        # routing already keeps guarded rows out; unguarded divisions
        # must not warn either — the suite promotes warnings to errors).
        with np.errstate(divide="ignore", invalid="ignore"):
            return left.astype(np.float64) / right.astype(np.float64)

    def _eval_not(self, instr, ctx, active, memo):
        return np.logical_not(self._eval(instr.args[0], ctx, active, memo))

    def _eval_neg(self, instr, ctx, active, memo):
        value = self._eval(instr.args[0], ctx, active, memo)
        return -value

    def _eval_func(self, instr, ctx, active, memo):
        values = [self._eval(arg, ctx, active, memo).astype(np.float64)
                  for arg in instr.args]
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

    # -- routed (masked) evaluation ------------------------------------
    def _eval_and(self, instr, ctx, active, memo):
        left = self._eval(instr.args[0], ctx, active, memo)
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
        left = self._eval(instr.args[0], ctx, active, memo)
        out = left.astype(np.bool_, copy=True)
        need = np.nonzero(~out)[0]
        if len(need) == len(out):
            right = self._eval(instr.args[1], ctx, active, memo)
            return np.logical_or(out, right)
        if len(need):
            subset = need if active is None else active[need]
            out[need] = self._eval(instr.args[1], ctx, subset, {})
        return out

    def _eval_case(self, instr, ctx, active, memo):
        n = self._n(ctx, active)
        np_dtype = instr.payload  # None for string-valued CASE
        pieces: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        out: Optional[np.ndarray] = None
        if np_dtype is not None:
            out = np.empty(n, dtype=np_dtype)
        else:
            pieces = []
        # Remaining rows: local positions into `out` plus absolute
        # indices into the source domain. None means "all of them".
        rem_local: Optional[np.ndarray] = None
        rem_abs = active
        rem_memo = memo
        rem_count = n
        branches = instr.args[:-1]
        default = instr.args[-1]
        for i in range(0, len(branches), 2):
            if rem_count == 0:
                break
            cond = self._eval(branches[i], ctx, rem_abs, rem_memo)
            taken = np.nonzero(cond)[0]
            if len(taken):
                matched_local = taken if rem_local is None else rem_local[taken]
                if len(taken) == rem_count:
                    # Every remaining row matched: same active set, so the
                    # branch value can reuse this set's memo.
                    value = self._eval(branches[i + 1], ctx, rem_abs, rem_memo)
                    self._emit(out, pieces, matched_local, value)
                    rem_count = 0
                    break
                matched_abs = taken if rem_abs is None else rem_abs[taken]
                value = self._eval(branches[i + 1], ctx, matched_abs, {})
                self._emit(out, pieces, matched_local, value)
                kept = np.nonzero(~cond)[0]
                rem_local = kept if rem_local is None else rem_local[kept]
                rem_abs = kept if rem_abs is None else rem_abs[kept]
                rem_memo = {}
                rem_count = len(kept)
        if rem_count:
            value = self._eval(default, ctx, rem_abs, rem_memo)
            local = rem_local if rem_local is not None else slice(None)
            self._emit(out, pieces, local, value)
        if out is not None:
            return out
        # String CASE: widths are only known once the pieces exist.
        if not pieces:
            return np.empty(n, dtype="<U1")
        target = np.result_type(*(value.dtype for _, value in pieces))
        out = np.empty(n, dtype=target)
        for local, value in pieces:
            out[local] = value
        return out

    @staticmethod
    def _emit(out, pieces, local, value):
        if out is not None:
            out[local] = value
        else:
            pieces.append((local, value))


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
        strcmp = self._string_predicate(expr)
        if strcmp is not None:
            return strcmp
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
        if isinstance(expr, CaseWhen):
            dtype = expr.output_dtype(self.schema)
            return _Instr("case", children, _NP_DTYPES.get(dtype))
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
    def _string_predicate(self, expr: Expression) -> Optional[_Instr]:
        """A ``strcmp`` over a STRING column's codes, when ``expr`` compares
        that column with string literals only."""
        if isinstance(expr, BinaryOp) and expr.op in _COMPARE_FUNCS:
            column, literal, op = expr.left, expr.right, expr.op
            if isinstance(column, Literal):
                column, literal, op = literal, column, _FLIPPED[op]
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

    def _try_fold(self, expr: Expression, children: Tuple[int, ...]
                  ) -> Optional[_Instr]:
        """Fold a subtree whose inputs are all compile-time constants."""
        if not children or any(self.instructions[slot].kind != "const"
                               for slot in children):
            return None
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
        # compares expression trees node by node; an OrderedDict's pop or
        # move_to_end looks the key up twice, a dict's pop once.
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
