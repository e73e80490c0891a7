"""Vectorized plan execution with late materialization.

Executes logical plans directly (this engine has no separate physical plan
layer for relational operators — every operator has exactly one vectorized
implementation). ML operators are delegated to a pluggable
``predict_executor`` callback so this module stays independent from the
model-format packages.

Execution is organized around **late materialization**: row-preserving
operators pass a :class:`~repro.storage.table.TableView` — shared column
data plus a selection vector — downstream instead of copying every column
at every operator. ``Filter`` only composes selections; columns are
gathered once, at pipeline breakers (aggregate, sort, predict inputs,
final output). Joins extend this through an inner-join region: a
``MultiJoin`` — the form every inner equi-join region of an optimized
plan arrives in — carries per-input row-index vectors from step to step
and gathers each column once, after its last step. A step that joins a
scanned table (filtered or not) on one integer key probes that table's
key index (:mod:`repro.storage.key_index`), which the catalog builds
once per registered table and column — a star join's dimension is never
sorted per query. Every other step (several keys, a computed input,
float or string keys, a restricted scan) sorts one side and binary-
searches it, the side decided from the row counts the step sees. The
binary ``Join`` (left outer joins, and the written join tree an
unoptimized session runs as the reference) always takes that sorted
probe, so the reference shares no code with the index path it checks;
it gathers both sides at every step. Scalar
expressions are lowered to
:class:`~repro.relational.compile.CompiledProgram` instructions (CSE +
one leaf-id ``route`` per CASE nest + constant folding), stashed on the
plan node so
plans held by the serving cache skip compilation on warm executions, and
shared by structure within a session so a freshly optimized plan reuses
the programs of any earlier plan with the same expressions; the
interpreted path remains available (``compile_expressions=False``) as the
differential-testing oracle. Registered string columns arrive as
dictionary codes (:mod:`repro.storage.column`) and stay codes through
every gather; sort, group-by and join keys read the codes (the sorted
dictionary makes code order string order; two dictionaries meet on
their union).

Resilience (see :mod:`repro.resilience`): a ``deadline`` is checked
cooperatively before every operator — which covers every pipeline
breaker — so a bounded query overruns by at most one operator; a
``faults`` injector exposes the ``executor.operator`` and
``executor.compile`` sites; and when the compiled expression engine
fails (a :class:`~repro.errors.CompileError` or an internal defect) the
operator **falls back to the interpreted oracle** — bit-for-bit the same
result, counted in ``record.expression_fallbacks`` — instead of
failing the query.

Observation: everything a run observes — per-operator rows and time, the
per-conjunct cascade, join steps, compiled-program reuse, fallbacks —
is written to the one ``record`` the executor is given (a
:class:`repro.adaptive.profile.PlanProfiler`, in a session the query's
:class:`~repro.core.session.RunStats`); operator spans open under
``record.span`` when tracing is on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CompileError, ExecutionError, PlanError, RavenError
from repro.relational.compile import (
    CompiledProgram,
    ProgramTable,
    compile_outputs,
    compile_predicate,
)
from repro.relational.expressions import conjuncts
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    JoinEdge,
    Limit,
    Materialized,
    MultiJoin,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
)
from repro.storage.catalog import Catalog, TableEntry
from repro.storage.column import Column, DataType, same_dictionary
from repro.storage.key_index import indexable
from repro.storage.table import Table, TableView, concat_tables

# predict_executor(node, input_table, partition) -> Table of the node's
# output columns; ``partition`` is the morsel's partition index when the
# node carries partition-specialized graphs, else None.
PredictExecutor = Callable[[Predict, Table, Optional[int]], Table]


@dataclass(frozen=True, order=True)
class Morsel:
    """One partition-aligned unit of scan work.

    As a ``scan_restrictions`` value it restricts the driven scan to
    rows ``[start, stop)`` *of one partition*. The morsel driver (:mod:`repro.relational.morsel`) fans a query out over
    morsels and merges results in ``(partition, start)`` order — exactly
    the row order of the unrestricted scan, which is what keeps fanned-
    out execution bit-for-bit identical.
    """

    partition: int
    start: int
    stop: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


def session_programs(catalog: Catalog) -> ProgramTable:
    """The structural program table of the session owning ``catalog``.

    A session owns exactly one catalog, so the table lives on it: every
    executor of the session — concurrent queries, morsel fan-out, bare
    executors over the session's catalog — shares it, and no two
    sessions do.
    """
    programs = catalog.__dict__.get("_programs")
    if programs is None:
        programs = catalog.__dict__.setdefault("_programs", ProgramTable())
    return programs


def unobserved_record():
    """The record of a run nobody reads: what a bare executor writes to."""
    # Lazy import: repro.adaptive imports the relational layer.
    from repro.adaptive.profile import PlanProfiler

    record = PlanProfiler()
    record.profile = False
    return record


class Executor:
    """Evaluates plans against a catalog.

    ``scan_restrictions`` optionally restricts scans, keyed by the
    ``Scan`` node (neither a table name nor an alias names one scan of a
    plan): a :class:`Morsel` for the scan the morsel driver fans out
    over, a list of surviving partition indices for scans pruned by zone
    maps.
    ``compile_expressions`` selects the compiled expression engine (default)
    or the interpreted oracle.
    ``record`` (a :class:`repro.adaptive.profile.PlanProfiler`) receives
    what the run observes. With ``record.profile`` every operator records
    its rows in/out and inclusive wall time, and conjunctive filters run
    as a per-conjunct cascade so individual selectivities are observed;
    with ``record.span`` every operator opens a child span. The observed
    execution is bit-for-bit identical to the unobserved one.
    """

    def __init__(self, catalog: Catalog,
                 predict_executor: Optional[PredictExecutor] = None,
                 scan_restrictions: Optional[Dict[Scan, object]] = None,
                 compile_expressions: bool = True,
                 record=None, deadline=None, faults=None):
        self.catalog = catalog
        self.predict_executor = predict_executor
        self.scan_restrictions = scan_restrictions or {}
        self.compile_expressions = compile_expressions
        self.record = record if record is not None else unobserved_record()
        # Cooperative repro.resilience.Deadline (checked before every
        # operator) and FaultInjector (sites: executor.operator,
        # executor.compile). Both default off with zero hot-path cost.
        self.deadline = deadline
        self.faults = faults
        self.programs = session_programs(catalog)
        # Each Executor instance runs its plan on one thread (the morsel
        # driver builds one Executor per morsel), so a plain list works
        # as the span stack and a plain attribute as the running count of
        # rows the current operator's inputs produced; concurrent child
        # appends on the shared parent span are trace-lock protected.
        span = self.record.span
        self._span_stack = [span] if span is not None else None
        self._child_rows: Optional[int] = None
        # Installed by execute_above: (subtree root, stand-in leaf) and
        # the seconds computing the subtree took.
        self._computed: Optional[Tuple[PlanNode, Materialized]] = None
        self._computed_seconds = 0.0
        # The catalog entry each unrestricted Scan of the current run
        # read: a join step probes that entry's key index, whose row
        # numbers are the rows the scan returned.
        self._scanned: Dict[Scan, TableEntry] = {}

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> Table:
        """Run the plan; the root is the final pipeline breaker."""
        self._scanned = {}
        return self._run(plan).materialize()

    def execute_above(self, plan: PlanNode, subtree: PlanNode,
                      computed: Table, seconds: float) -> Table:
        """Run ``plan`` with its ``subtree`` already computed.

        The morsel driver's serial tail: the operators above ``subtree``
        run as themselves — same record keys, compiled-program caches
        and spans as a whole-plan run — and reaching ``subtree`` reads
        ``computed`` through a :class:`Materialized` leaf. ``seconds``
        is what computing the subtree took; profiled operator times are
        inclusive of their inputs, so it is charged to every operator
        this call runs. That is right only while each of them is an
        ancestor of ``subtree`` — the tail is a chain of unary operators
        (:func:`repro.relational.morsel.split_serial_tail`); an operator
        beside the subtree would be overcharged.
        """
        self._computed = (subtree, Materialized(computed))
        self._computed_seconds = seconds
        return self.execute(plan)

    def _run(self, plan: PlanNode) -> TableView:
        """Run one operator — and observe it: this is the only place an
        operator's rows in/out and time are measured, for the record's
        profile and for its span alike."""
        if self._computed is not None and plan is self._computed[0]:
            plan = self._computed[1]
        name = type(plan).__name__
        method = getattr(self, f"_exec_{name.lower()}", None)
        if method is None:
            raise ExecutionError(f"no executor for operator {name}")
        spans = self._span_stack
        span = None
        if spans is not None:
            span = spans[-1].child(name, category="operator")
            spans.append(span)
        inputs_before, self._child_rows = self._child_rows, None
        started = time.perf_counter()
        try:
            # Deadline checks bracket the operator: the entry check fires
            # during plan descent, the exit check fires right after this
            # operator's own work — so a query overruns its deadline by at
            # most one operator (one pipeline-breaker interval).
            if self.deadline is not None:
                self.deadline.check(f"operator {name} start")
            if self.faults is not None:
                self.faults.fire("executor.operator", detail=name)
            result = method(plan)
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        finally:
            if span is not None:
                spans.pop()
        if isinstance(result, Table):
            result = TableView(result)
        rows = result.num_rows
        # A leaf reads what it emits; everything else reads what its
        # inputs (the _run calls its method made) produced.
        rows_in = rows if self._child_rows is None else self._child_rows
        self._child_rows = rows if inputs_before is None \
            else inputs_before + rows
        # The Materialized stand-in is in no plan tree: nothing to profile.
        if self.record.profile and not isinstance(plan, Materialized):
            self.record.record_operator(
                plan, rows,
                time.perf_counter() - started + self._computed_seconds,
                rows_in=rows_in)
        if span is not None:
            span.finish(rows_in=rows_in, rows=rows)
        if self.deadline is not None:
            self.deadline.check(f"operator {name}")
        return result

    # ------------------------------------------------------------------
    # Compiled programs, at two levels. (1) The node stash: a program is
    # stored on the plan node itself, so plans kept warm by the serving
    # PlanCache find it by identity and skip every lookup. (2) The
    # session's structural ProgramTable: on a stash miss — a freshly
    # optimized plan — the node's expressions and input schema are looked
    # up structurally, so a cold query whose literal changed only its
    # WHERE clause reuses the CASE program an earlier plan compiled; only
    # a miss there compiles. A structural hit counts as reused. Both
    # levels key on the child schema: a plan run against a catalog whose
    # columns changed type compiles afresh instead of running a program
    # lowered for the old schema. Races between concurrent first
    # executions are benign: programs are immutable and either winner is
    # correct.
    # ------------------------------------------------------------------
    def _program_for(self, node: Union[Filter, Project],
                     schema) -> CompiledProgram:
        if self.faults is not None:
            self.faults.fire("executor.compile",
                             detail=type(node).__name__)
        fingerprint = tuple(schema)
        cached = node.__dict__.get("_compiled_program")
        if cached is not None and cached[0] == fingerprint:
            self.record.record_program(compiled=False)
            return cached[1]
        if isinstance(node, Filter):
            program, compiled = self._predicate_program(
                node.predicate, schema, fingerprint)
        else:
            program, compiled = self.programs.lookup(
                ("project", tuple(node.outputs), fingerprint),
                lambda: compile_outputs(node.outputs, schema))
        node._compiled_program = (fingerprint, program)
        self.record.record_program(compiled=compiled)
        return program

    def _predicate_program(self, predicate, schema, fingerprint
                           ) -> Tuple[CompiledProgram, bool]:
        return self.programs.lookup(
            ("filter", predicate, fingerprint),
            lambda: compile_predicate(predicate, schema))

    def _fall_back(self, error: BaseException) -> None:
        """A compiled-engine failure: count a fallback to the interpreted
        oracle on the record, or re-raise when the oracle cannot help.

        :class:`CompileError` (the engine could not lower the expression;
        injected compile faults use it too) and internal defects (non-
        Raven exceptions escaping the compiled path) fall back — the
        interpreted oracle computes the identical result. Other
        :class:`RavenError`\\ s are *data* errors the oracle would raise
        identically (plus deadline expiry), so they propagate.
        """
        internal_defect = (isinstance(error, Exception)
                           and not isinstance(error, RavenError))
        if not (isinstance(error, CompileError) or internal_defect):
            raise error
        self.record.record_fallback()

    # ------------------------------------------------------------------
    # Leaf
    # ------------------------------------------------------------------
    def _exec_scan(self, node: Scan) -> Table:
        entry = self.catalog.table(node.table_name)
        restriction = self.scan_restrictions.get(node)
        if isinstance(restriction, Morsel):
            table = entry.data.partitions[restriction.partition].table \
                .slice(restriction.start, restriction.stop)
        elif restriction is not None:
            # Partition skipping: read only the listed partitions.
            if not restriction:
                table = entry.data.partitions[0].table.slice(0, 0)
            else:
                table = concat_tables([entry.data.partitions[i].table
                                       for i in restriction])
        else:
            table = entry.data.to_table()
            self._scanned[node] = entry
        if node.columns is not None:
            table = table.select(node.columns)
        return table.prefix(node.alias)

    def _exec_materialized(self, node: Materialized) -> Table:
        return node.table

    # ------------------------------------------------------------------
    # Row-preserving operators (selection-vector composition, no copies)
    # ------------------------------------------------------------------
    def _exec_filter(self, node: Filter) -> TableView:
        view = self._run(node.child)
        if self.record.profile:
            parts = node.__dict__.get("_adaptive_conjuncts")
            if parts is None:
                parts = conjuncts(node.predicate)
                node._adaptive_conjuncts = parts
            if len(parts) > 1:
                return self._exec_filter_cascade(node, view, parts)
        if self.compile_expressions:
            try:
                keep = self._program_for(node, view.schema).run_single(view)
            except BaseException as error:
                # Degraded mode: the compiled engine failed, the
                # interpreted oracle computes the identical mask.
                self._fall_back(error)
                keep = node.predicate.evaluate(view)
        else:
            keep = node.predicate.evaluate(view)
        if keep.dtype != np.bool_:
            raise ExecutionError("filter predicate did not evaluate to booleans")
        return view.refine(keep)

    def _exec_filter_cascade(self, node: Filter, view: TableView,
                             parts) -> TableView:
        """Profiled conjunctive filter: one refine per conjunct.

        Semantically identical to evaluating the whole conjunction (AND of
        the masks); later conjuncts only see earlier survivors, exactly
        like the compiled engine's short-circuit AND — so guarded
        expressions stay guarded and the kept rows are bit-for-bit the
        same. The per-conjunct selectivities and costs feed the
        FeedbackStore's conjunct-ordering decisions.
        """
        programs = None
        if self.compile_expressions:
            try:
                programs = self._conjunct_programs(node, parts, view.schema)
            except BaseException as error:
                self._fall_back(error)
        for index, part in enumerate(parts):
            rows_in = view.num_rows
            started = time.perf_counter()
            if programs is not None:
                try:
                    keep = programs[index].run_single(view)
                except BaseException as error:
                    self._fall_back(error)
                    keep = part.evaluate(view)
            else:
                keep = part.evaluate(view)
            if keep.dtype != np.bool_:
                raise ExecutionError(
                    "filter predicate did not evaluate to booleans")
            view = view.refine(keep)
            self.record.record_conjunct(node, index, part, rows_in,
                                        view.num_rows,
                                        time.perf_counter() - started)
        return view

    def _conjunct_programs(self, node: Filter, parts,
                           schema) -> List[CompiledProgram]:
        """Per-conjunct compiled programs, stashed on the node and shared
        through the session's table like :meth:`_program_for` (a conjunct
        keys like a Filter with that predicate; counted once per filter
        on the record, as compiled when any conjunct was)."""
        if self.faults is not None:
            self.faults.fire("executor.compile", detail="FilterCascade")
        fingerprint = tuple(schema)
        cached = node.__dict__.get("_conjunct_programs")
        if cached is not None and cached[0] == fingerprint:
            self.record.record_program(compiled=False)
            return cached[1]
        looked_up = [self._predicate_program(part, schema, fingerprint)
                     for part in parts]
        programs = [program for program, _ in looked_up]
        node._conjunct_programs = (fingerprint, programs)
        self.record.record_program(
            compiled=any(compiled for _, compiled in looked_up))
        return programs

    def _exec_project(self, node: Project) -> Table:
        view = self._run(node.child)
        if self.compile_expressions:
            try:
                program = self._program_for(node, view.schema)
                return Table(program.run_columns(view))
            except BaseException as error:
                self._fall_back(error)
        schema = view.schema
        return Table([(name, Column(expr.evaluate(view),
                                    expr.output_dtype(schema)))
                      for name, expr in node.outputs])

    def _exec_limit(self, node: Limit) -> TableView:
        return self._run(node.child).head(node.count)

    def _exec_sort(self, node: Sort) -> Table:
        table = self._run(node.child).materialize()
        if table.num_rows == 0:
            return table
        # np.lexsort sorts by the *last* key first, ascending; encode
        # descending order by negating factorized codes (a coded string
        # column's own codes are in string order already).
        sort_keys = []
        for name, ascending in reversed(node.keys):
            data = _key(table.column(name))[0]
            if data.dtype.kind == "U":
                _, codes = np.unique(data, return_inverse=True)
                data = codes
            else:
                data = data.astype(np.float64, copy=False)
            sort_keys.append(data if ascending else -data)
        order = np.lexsort(sort_keys)
        return table.take(order)

    # ------------------------------------------------------------------
    # Joins are selection-vector-aware: key codes factorize through each
    # side's selection vector, and every column is gathered exactly once,
    # at emit, composing the join indices with the selection — a
    # Filter -> Join pipeline never materializes its full input.
    #
    # Binary Join: what only it can do (left outer joins, regions whose
    # keys cannot be attributed to one input) and the written join tree
    # an unoptimized session runs step by step — the reference the
    # MultiJoin is tested against. Both sides' columns are gathered at
    # every step, and every step takes the sorted probe, never a key
    # index: the reference stays independent of the index path.
    # ------------------------------------------------------------------
    def _exec_join(self, node: Join) -> Table:
        left = self._run(node.left)
        right = self._run(node.right)
        codes = _composite_codes(left, right, node.left_keys, node.right_keys)
        left_idx, right_idx, unmatched = _join_indices(*codes, how=node.how)
        if node.how == "inner":
            columns = _gather_columns(left, left_idx)
            columns += _gather_columns(right, right_idx)
        else:  # left outer: append unmatched left rows with fill values
            columns = _gather_columns(
                left, np.concatenate([left_idx, unmatched]))
            fill = _fill_table(right.schema, len(unmatched))
            for name, matched in _gather_columns(right, right_idx):
                columns.append((name, matched.concat(fill.column(name))))
        return Table(columns)

    # ------------------------------------------------------------------
    # MultiJoin: how every inner-join region of an optimized plan runs.
    # Steps only shuffle per-input int64 row-index vectors (plus the key
    # columns of the step); each column is gathered once, at the end. The
    # output is emitted in the canonical order — rows sorted
    # lexicographically by per-input row position, original input order
    # major — which is exactly what the written tree of binary joins
    # produces, so every execution `order` is bit-for-bit identical.
    #
    # A step joining a Scan (or a Filter chain over one) on a single
    # integer key probes the scanned table's cached key index; any other
    # step sorts and binary-searches one side (_sorted_step). Both emit
    # probe-major pairs in ascending target row, so which one ran never
    # shows in the output.
    # ------------------------------------------------------------------
    def _exec_multijoin(self, node: MultiJoin) -> Table:
        views = [self._run(child) for child in node.inputs]
        sequence = node.sequence()
        # A step that keeps its held rows in order extends a canonically
        # ordered prefix canonically (index tuples are unique; ties on the
        # held rows break on ascending target row), so the text-order
        # sequence needs no output sort. Any other sequence is sorted into
        # canonical order at the end, and its steps may emit whatever
        # order is cheapest — as may every step when the feedback pass
        # proved the consumer permutation-invariant (order_insensitive).
        in_order = sequence == sorted(sequence)
        ordered_steps = in_order and not node.order_insensitive
        sort_output = not in_order and not node.order_insensitive
        first = sequence[0]
        matched: Dict[int, np.ndarray] = {
            first: np.arange(views[first].num_rows, dtype=np.int64)
        }
        for position in range(1, len(sequence)):
            target = sequence[position]
            edges = node.step_edges(position)
            if not edges:
                raise ExecutionError(
                    f"MultiJoin step {position} has no connecting edge "
                    f"(input {target}); the region violates the "
                    f"connected-prefix property"
                )
            rows_current = len(matched[first])
            started = time.perf_counter()
            indexed = None
            if len(edges) == 1:
                indexed = self._probe_through_index(
                    node.inputs[target], views, matched, target, edges[0])
            if indexed is not None:
                probe, step_left, step_right = indexed
            else:
                probe = "probe"
                step_left, step_right = _sorted_step(
                    views, matched, rows_current, target, edges,
                    ordered_steps)
            matched = {index: rows[step_left]
                       for index, rows in matched.items()}
            matched[target] = step_right
            if self.record.profile:
                keys = ", ".join(f"{e.left_key}={e.right_key}" for e in edges)
                self.record.record_join(node, position - 1, keys,
                                        rows_current, views[target].num_rows,
                                        len(step_left),
                                        time.perf_counter() - started, probe)
        if sort_output and len(matched[first]):
            # Original input 0 is the primary sort key.
            order = np.lexsort([matched[index]
                                for index in reversed(range(len(views)))])
            matched = {index: rows[order] for index, rows in matched.items()}
        columns: List[Tuple[str, Column]] = []
        for index, view in enumerate(views):
            columns += _gather_columns(view, matched[index])
        return Table(columns)

    def _probe_through_index(self, target_node: PlanNode,
                             views: List[TableView],
                             matched: Dict[int, np.ndarray], target: int,
                             edge: JoinEdge
                             ) -> Optional[Tuple[str, np.ndarray, np.ndarray]]:
        """Probe a single-edge step's target through its table's key index.

        Applies when the target is a Scan this run read unrestricted, or
        a Filter chain over one, and both keys are integers. Returns the
        index kind and the step's (held-prefix rows, target view rows),
        or None for the sorted probe.
        """
        scan = target_node
        while isinstance(scan, Filter):
            scan = scan.child
        entry = self._scanned.get(scan) if isinstance(scan, Scan) else None
        if entry is None:
            return None
        held, held_key, target_key = _orient(edge, target)
        held_column = views[held].column(held_key)
        prefix = scan.alias + "."
        if not (target_key.startswith(prefix) and indexable(held_column)):
            return None
        index = self.catalog.key_index(entry, target_key[len(prefix):])
        if index is None:
            return None
        step_left, rows = index.probe(held_column.data[matched[held]])
        selection = views[target].selection
        if selection is not None:
            # A filtered target: table rows become view rows through the
            # inverse of its (ascending) selection, filtered-out rows -1.
            inverse = np.full(views[target].table.num_rows, -1,
                              dtype=np.int64)
            inverse[selection] = np.arange(len(selection), dtype=np.int64)
            rows = inverse[rows]
            kept = np.flatnonzero(rows >= 0)
            step_left, rows = step_left[kept], rows[kept]
        return index.kind, step_left, rows

    # ------------------------------------------------------------------
    # Aggregate
    # ------------------------------------------------------------------
    def _exec_aggregate(self, node: Aggregate) -> Table:
        table = self._run(node.child).materialize()
        if not node.group_by:
            return _global_aggregate(table, node)
        return _grouped_aggregate(table, node)

    # ------------------------------------------------------------------
    # Predict (gathers only model inputs + kept columns; everything else
    # in the child view is never copied)
    # ------------------------------------------------------------------
    def _exec_predict(self, node: Predict) -> Table:
        if self.predict_executor is None:
            raise ExecutionError(
                "plan contains a Predict operator but no predict executor "
                "was supplied (use repro.core.session.RavenSession)"
            )
        view = self._run(node.child)
        kept_names = (node.keep_columns if node.keep_columns is not None
                      else view.column_names)
        needed = set(kept_names) | set(node.input_mapping.values())
        table = view.materialize([n for n in view.column_names if n in needed])
        partition = None
        if node.per_partition_graphs:
            # Partition-specialized models: the morsel names the partition.
            partition = next(
                (restriction.partition
                 for restriction in self.scan_restrictions.values()
                 if isinstance(restriction, Morsel)), None)
        outputs = self.predict_executor(node, table, partition)
        columns = [(n, table.column(n)) for n in kept_names]
        for name, _, _ in node.output_columns:
            columns.append((name, outputs.column(name)))
        return Table(columns)


# ---------------------------------------------------------------------------
# Join internals
# ---------------------------------------------------------------------------

def _gather_columns(view: TableView,
                    indices: np.ndarray) -> List[Tuple[str, Column]]:
    """Gather every column of ``view`` at the given view-relative rows.

    Composes the join indices with the view's selection vector so each
    column of a filtered input is copied exactly once (at emit), never at
    the join boundary.
    """
    if view.selection is not None:
        indices = view.selection[indices]
    return [(name, view.table.column(name).take(indices))
            for name in view.column_names]


def _key(column: Column) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """What sorting, grouping and joining read of a column: a coded
    string column's codes and dictionary (the codes order and compare
    like the strings), else its data and None."""
    if column.codes is None:
        return column.data, None
    return column.codes, column.dictionary


def _factorize_pair(left: Tuple[np.ndarray, Optional[np.ndarray]],
                    right: Tuple[np.ndarray, Optional[np.ndarray]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Map two :func:`_key` s onto shared integer codes: equal codes
    exactly where the values are equal."""
    (left, left_dictionary), (right, right_dictionary) = left, right
    if left_dictionary is not None and right_dictionary is not None:
        if same_dictionary(left_dictionary, right_dictionary):
            return left, right
        # Two dictionaries: code both sides against their union.
        union = np.union1d(left_dictionary, right_dictionary)
        return (np.searchsorted(union, left_dictionary)[left],
                np.searchsorted(union, right_dictionary)[right])
    if left_dictionary is not None:
        left = left_dictionary[left]
    if right_dictionary is not None:
        right = right_dictionary[right]
    if left.dtype.kind == "U" or right.dtype.kind == "U":
        left = left.astype(np.str_)
        right = right.astype(np.str_)
    combined = np.concatenate([left, right])
    _, codes = np.unique(combined, return_inverse=True)
    return codes[: len(left)], codes[len(left):]


def _orient(edge: JoinEdge, target: int) -> Tuple[int, str, str]:
    """(held input, held key, target key) of a step edge into ``target``."""
    if edge.right_input == target:
        return edge.left_input, edge.left_key, edge.right_key
    return edge.right_input, edge.right_key, edge.left_key


def _sorted_step(views: List[TableView], matched: Dict[int, np.ndarray],
                 rows_current: int, target: int, edges: List[JoinEdge],
                 ordered_steps: bool
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """A MultiJoin step by sorted probe: the keys of every edge radix-
    combined into one code per held-prefix and per target row, then
    :func:`_join_indices` (held-prefix major when ``ordered_steps``)."""
    current_codes = np.zeros(rows_current, dtype=np.int64)
    target_codes = np.zeros(views[target].num_rows, dtype=np.int64)
    for edge in edges:
        held, held_key, target_key = _orient(edge, target)
        held_values, dictionary = _key(views[held].column(held_key))
        held_codes, new_codes = _factorize_pair(
            (held_values[matched[held]], dictionary),
            _key(views[target].column(target_key)))
        radix = int(max(held_codes.max(initial=0),
                        new_codes.max(initial=0))) + 1
        current_codes = current_codes * radix + held_codes
        target_codes = target_codes * radix + new_codes
    step_left, step_right, _ = _join_indices(
        current_codes, target_codes, how="inner", left_major=ordered_steps)
    return step_left, step_right


def _composite_codes(left: Union[Table, TableView], right: Union[Table, TableView],
                     left_keys: List[str], right_keys: List[str]):
    """Collapse (possibly multi-column) join keys to single int code arrays.

    Works on tables and views alike: ``array`` on a view gathers just the
    key columns through the selection vector (memoized), so computing join
    codes never materializes the payload columns.
    """
    left_codes = np.zeros(left.num_rows, dtype=np.int64)
    right_codes = np.zeros(right.num_rows, dtype=np.int64)
    for lkey, rkey in zip(left_keys, right_keys):
        lcol, rcol = _factorize_pair(_key(left.column(lkey)),
                                     _key(right.column(rkey)))
        radix = int(max(lcol.max(initial=0), rcol.max(initial=0))) + 1
        left_codes = left_codes * radix + lcol
        right_codes = right_codes * radix + rcol
    return left_codes, right_codes


#: Sorting the left side of a join means re-sorting the matches back to
#: left-major order; that pays once the left side is this many times
#: smaller than the right.
_SORT_LEFT_GAP = 4


def _sorted_probe(probe_codes: np.ndarray, build_codes: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``build_codes`` and probe it with ``probe_codes``.

    Returns (probe_idx, build_idx); pairs come out probe-major — per
    probe row, its matches in ascending build row — like a streaming
    hash probe.
    """
    order = np.argsort(build_codes, kind="stable")
    sorted_build = build_codes[order]
    starts = np.searchsorted(sorted_build, probe_codes, side="left")
    counts = np.searchsorted(sorted_build, probe_codes, side="right") - starts
    probe_idx = np.repeat(np.arange(len(probe_codes)), counts)
    first_pair = np.cumsum(counts) - counts
    intra = np.arange(len(probe_idx)) - np.repeat(first_pair, counts)
    build_idx = order[np.repeat(starts, counts) + intra]
    return probe_idx, build_idx


def _join_indices(left_codes: np.ndarray, right_codes: np.ndarray,
                  how: str, left_major: bool = True
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sorted-probe equi-join: every binary ``Join``, and each
    MultiJoin step that cannot probe a key index (:func:`_sorted_step`).

    Returns (left_idx, right_idx, unmatched_left_idx). One side is sorted
    (the analogue of a hash join's build side) and probed with the other:
    the right side, unless the left is much smaller
    (:data:`_SORT_LEFT_GAP`) — decided from the two inputs as they arrive,
    so there is nothing to plan or cache. Matched pairs keep the left
    relation's row order either way (bit-for-bit the same result); a
    caller that re-sorts the pairs itself passes ``left_major=False`` to
    skip restoring it, and then simply the smaller side is sorted.
    """
    gap = _SORT_LEFT_GAP if left_major else 1
    if len(left_codes) * gap < len(right_codes):
        right_idx, left_idx = _sorted_probe(right_codes, left_codes)
        if left_major:
            # Pairs were generated right-major; for a fixed left row the
            # stable re-sort keeps them in generation order — ascending
            # right row — which is what probing with the left emits.
            restore = np.argsort(left_idx, kind="stable")
            left_idx, right_idx = left_idx[restore], right_idx[restore]
    else:
        left_idx, right_idx = _sorted_probe(left_codes, right_codes)
    if how == "left":
        found = np.zeros(len(left_codes), dtype=np.bool_)
        found[left_idx] = True
        unmatched = np.nonzero(~found)[0]
    else:
        unmatched = np.asarray([], dtype=np.int64)
    return left_idx, right_idx, unmatched


def _fill_table(schema, n: int) -> Table:
    """Fill values for unmatched rows of a left join (engine has no NULLs)."""
    columns = []
    for name, dtype in schema:
        if dtype is DataType.FLOAT:
            data = np.full(n, np.nan)
        elif dtype is DataType.INT:
            data = np.zeros(n, dtype=np.int64)
        elif dtype is DataType.BOOL:
            data = np.zeros(n, dtype=np.bool_)
        else:
            data = np.full(n, "", dtype=np.str_)
        columns.append((name, Column(data, dtype)))
    return Table(columns)


# ---------------------------------------------------------------------------
# Aggregation internals
# ---------------------------------------------------------------------------

def _agg_values(table: Table, column: Optional[str]) -> Optional[np.ndarray]:
    if column is None:
        return None
    return table.array(column)


def _global_aggregate(table: Table, node: Aggregate) -> Table:
    columns: List[Tuple[str, Column]] = []
    n = table.num_rows
    for spec in node.aggregates:
        values = _agg_values(table, spec.column)
        if spec.func == "count":
            result: object = n
            columns.append((spec.name, Column.ints([result])))
            continue
        if values is None:
            raise PlanError(f"{spec.func} requires a column")
        if n == 0:
            columns.append((spec.name, Column.floats([np.nan])))
            continue
        if spec.func == "sum":
            columns.append((spec.name, Column.floats([values.sum()])))
        elif spec.func == "avg":
            columns.append((spec.name, Column.floats([values.mean()])))
        elif spec.func == "min":
            columns.append((spec.name, Column([values.min()])))
        else:
            columns.append((spec.name, Column([values.max()])))
    return Table(columns)


def _grouped_aggregate(table: Table, node: Aggregate) -> Table:
    # Factorize composite group keys into dense codes 0..G-1 (string keys
    # factorize their codes: the same ranks as the strings').
    codes = np.zeros(table.num_rows, dtype=np.int64)
    for key in node.group_by:
        uniques, key_codes = np.unique(_key(table.column(key))[0],
                                       return_inverse=True)
        codes = codes * len(uniques) + key_codes
    group_codes, codes = np.unique(codes, return_inverse=True)
    n_groups = len(group_codes)
    # Representative row per group, to recover key values.
    representatives = np.zeros(n_groups, dtype=np.int64)
    representatives[codes[::-1]] = np.arange(table.num_rows - 1, -1, -1)

    columns: List[Tuple[str, Column]] = []
    for key in node.group_by:
        columns.append((key, table.column(key).take(representatives)))

    counts = np.bincount(codes, minlength=n_groups)
    for spec in node.aggregates:
        if spec.func == "count":
            columns.append((spec.name, Column.ints(counts)))
            continue
        values = table.array(spec.column)  # type: ignore[arg-type]
        if spec.func in ("sum", "avg"):
            sums = np.bincount(codes, weights=values.astype(np.float64),
                               minlength=n_groups)
            if spec.func == "sum":
                columns.append((spec.name, Column.floats(sums)))
            else:
                columns.append((spec.name, Column.floats(sums / np.maximum(counts, 1))))
            continue
        # min/max via sort-reduceat (supports numeric; strings via codes).
        if values.dtype.kind == "U":
            raise PlanError("min/max over string columns is not supported")
        order = np.argsort(codes, kind="stable")
        sorted_values = values[order]
        boundaries = np.searchsorted(codes[order], np.arange(n_groups), side="left")
        if spec.func == "min":
            reduced = np.minimum.reduceat(sorted_values, boundaries)
        else:
            reduced = np.maximum.reduceat(sorted_values, boundaries)
        columns.append((spec.name, Column(reduced)))
    return Table(columns)


def execute(plan: PlanNode, catalog: Catalog,
            predict_executor: Optional[PredictExecutor] = None,
            compile_expressions: bool = True) -> Table:
    """Convenience one-shot execution."""
    return Executor(catalog, predict_executor,
                    compile_expressions=compile_expressions).execute(plan)
