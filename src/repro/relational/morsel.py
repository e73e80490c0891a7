"""Morsel-driven scan fan-out: the one way a plan runs over row ranges.

The paper runs one prediction query at DOP 1 and DOP 16 (Fig. 8), one
task per partition with a partition-specialized model (§4.2, §6), and
over zone-map-pruned partitions. All three are the same idea — run the
plan *body* over disjoint row ranges of the fact table, merge, run the
serial *tail* once — and this module is the only place that knows it.
The unit of work is the **morsel**, a partition-aligned row range
(:class:`~repro.relational.executor.Morsel`); an unpartitioned table is
a single partition.

Properties the rest of the system relies on:

* **Zone-map skipping at runtime.** Each partition's statistics are
  checked against the body's filter constraints
  (:mod:`repro.relational.skipping`); partitions proven empty produce no
  morsels. Skipped partitions are counted in the ``partitions_skipped``
  metric, executed morsels in ``morsels_executed``.
* **Bit-for-bit determinism.** Morsel results merge in ``(partition,
  start)`` order — exactly the row order of one scan over
  ``PartitionedTable.to_table()`` — before the serial tail runs, so the
  output is identical to a whole-plan run no matter which worker ran
  what when.
* **Skew-aware scheduling.** Morsels are pulled from one shared queue by
  ``min(dop, #morsels)`` workers (an idle worker steals the next morsel,
  so a skewed partition never strands the pool). With per-partition
  feedback (seconds-per-row under the scan's partition fingerprint) the
  queue is ordered longest-estimated-first (LPT); cold, by row count.
  Each finished morsel of a profiled run records its observation on the
  run's record.
* **One execution context.** Every morsel and the serial tail run on
  executors built from the same record, deadline and fault injector,
  so the tail is observed and bounded like the body.
* **Nothing to fan out, nothing added.** When the morsel plan is a
  single morsel spanning the whole driven table (``dop=1`` over an
  unpartitioned table), or the plan cannot fan out (the driven table is
  scanned twice, is not the leftmost scan, or sits in a body with a
  subquery's aggregate, sort or limit), the plan runs as one whole-plan
  ``Executor`` call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.relational.executor import Executor, Morsel, PredictExecutor, \
    unobserved_record
from repro.relational.logical import (
    Aggregate,
    Limit,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
    walk,
)
from repro.relational.skipping import plan_partition_restrictions
from repro.storage.catalog import Catalog
from repro.storage.table import Table, concat_tables

#: Floor on morsel size: below this, per-morsel dispatch overhead (an
#: Executor walk + numpy call fixed costs) dominates the vectorized work.
MIN_MORSEL_ROWS = 8_192

#: Target number of morsels per worker. One: every morsel repeats the
#: body's numpy calls, and each call hands the interpreter lock to
#: another worker and waits to get it back, so finer morsels cost more
#: than the rebalancing they buy (measured at 4 per worker, dop=4, 2
#: cores: a 100k-row tree-as-CASE scan 2.2x slower, an 800k-row
#: filter+project 1.4-1.6x slower than at 1 per worker). Partition
#: boundaries still cut finer — a partitioned table yields at least one
#: morsel per partition, and partition skew is what LPT scheduling
#: balances.
MORSELS_PER_WORKER = 1


def split_serial_tail(plan: PlanNode) -> Tuple[List[PlanNode], PlanNode]:
    """Peel root operators that must run once, returning (tail-ops, body).

    Tail ops are returned outermost-first; the body is morsel-safe (its
    output rows are a disjoint union over morsels).

    A root ``Project`` peels too: it is row-wise (safe either side of the
    split), but leaving it in the body would hide an ``Aggregate`` sitting
    right below it — ``SELECT AVG(x) AS m ...`` plans root at
    ``Project(Aggregate(...))``, and a per-morsel aggregate under a
    morsel-blind tail would emit one row per morsel.
    """
    tail: List[PlanNode] = []
    current = plan
    while isinstance(current, (Project, Aggregate, Sort, Limit)):
        tail.append(current)
        current = current.children()[0]
    # Row-wise Projects peeled below the last genuine breaker can stay in
    # the body (cheaper: they run inside the parallel section).
    while tail and isinstance(tail[-1], Project):
        current = tail.pop()
    return tail, current


def chunk_ranges(num_rows: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_rows)`` into up to ``chunks`` contiguous ranges.

    Shared by morsel planning and the batched inference path in
    :mod:`repro.core.executor`.
    """
    chunks = max(1, min(chunks, num_rows)) if num_rows else 1
    size = -(-num_rows // chunks) if num_rows else 0
    out = []
    start = 0
    while start < num_rows:
        out.append((start, min(start + size, num_rows)))
        start += size
    return out or [(0, 0)]


def plan_morsels(partition_rows: List[Tuple[int, int]],
                 dop: int) -> List[Morsel]:
    """Cut surviving partitions into partition-aligned morsels.

    ``partition_rows`` is ``[(partition_index, num_rows), ...]``. The
    morsel size targets :data:`MORSELS_PER_WORKER` morsels per worker
    over the total surviving rows, floored at :data:`MIN_MORSEL_ROWS`;
    partitions smaller than that stay whole, larger ones are cut into
    balanced ranges (a single worker has nobody to share with, so
    ``dop=1`` keeps every partition one morsel). Morsels never span
    partitions (a morsel must have one zone map, one feedback
    fingerprint and one specialized model).
    """
    total = sum(rows for _, rows in partition_rows)
    morsel_rows = max(MIN_MORSEL_ROWS,
                      -(-total // (dop * MORSELS_PER_WORKER)))
    morsels: List[Morsel] = []
    for index, rows in partition_rows:
        if rows == 0:
            continue
        for start, stop in chunk_ranges(rows, -(-rows // morsel_rows)):
            morsels.append(Morsel(index, start, stop))
    return morsels


class MorselExecutor:
    """Executes a plan by fanning its body out over morsels of one table.

    The *driven* table is the source of a partition-specialized
    ``Predict`` (data-induced optimization: each morsel runs its
    partition's model) or else the largest scanned table; it must be
    scanned exactly once in the body (star/snowflake queries re-read
    dimension tables per morsel, a broadcast join).
    """

    def __init__(self, catalog: Catalog, dop: int = 1,
                 predict_executor: Optional[PredictExecutor] = None,
                 compile_expressions: bool = True,
                 record=None, deadline=None, faults=None,
                 feedback=None, metrics=None):
        if dop < 1:
            raise ValueError("dop must be >= 1")
        self.catalog = catalog
        self.dop = dop
        self.predict_executor = predict_executor
        self.compile_expressions = compile_expressions
        # Shared by every executor the query fans out to (the record
        # locks its writes; a Deadline reads a fixed expiry; span child
        # appends are trace-lock protected).
        self.record = record if record is not None else unobserved_record()
        self.deadline = deadline
        self.faults = faults
        # Optional repro.adaptive.feedback.FeedbackStore: read for
        # skew-aware morsel ordering (per-morsel observations go on the
        # record, like every other observation).
        self.feedback = feedback
        # Optional telemetry MetricsRegistry for the partition counters.
        self.metrics = metrics

    # ------------------------------------------------------------------
    def _make_executor(self, scan_restrictions=None) -> Executor:
        return Executor(self.catalog, self.predict_executor,
                        scan_restrictions=scan_restrictions,
                        compile_expressions=self.compile_expressions,
                        record=self.record,
                        deadline=self.deadline,
                        faults=self.faults)

    def execute(self, plan: PlanNode) -> Table:
        tail, body = split_serial_tail(plan)
        driven = self._driven_scan(body)
        # Zone-map skipping: partitions whose statistics prove the
        # body's filters empty are never read (all Filters sit in the
        # body — the tail is Project/Aggregate/Sort/Limit only).
        pruned = plan_partition_restrictions(body, self.catalog)
        if pruned:
            skipped = sum(
                self.catalog.table(scan.table_name).data.num_partitions
                - len(kept) for scan, kept in pruned.items())
            if self.metrics is not None:
                self.metrics.counter("partitions_skipped").inc(skipped)
            if self.record.span is not None:
                self.record.span.set(partitions_skipped=skipped)
        if driven is None:
            return self._make_executor(pruned).execute(plan)

        partitions = self.catalog.table(driven.table_name).data.partitions
        surviving = pruned.pop(driven, range(len(partitions)))
        morsels = plan_morsels(
            [(i, partitions[i].num_rows) for i in surviving], self.dop)
        if len(partitions) == 1 and len(morsels) <= 1:
            # One morsel spanning the whole table: nothing to schedule,
            # merge or split a tail for.
            return self._make_executor(pruned).execute(plan)
        body_seconds = 0.0
        if morsels:
            pieces = self._run_morsels(morsels, body, driven, pruned)
            merged = concat_tables([pieces[m][0] for m in sorted(pieces)])
            body_seconds = sum(seconds for _, seconds in pieces.values())
        else:
            # Every partition pruned (or empty): a zero-row morsel
            # yields the correctly-typed empty body output.
            first = surviving[0] if surviving else 0
            merged = self._make_executor(
                {**pruned, driven: Morsel(first, 0, 0)}
            ).execute(body)
        if not tail:
            return merged
        return self._make_executor().execute_above(plan, body, merged,
                                                   body_seconds)

    # ------------------------------------------------------------------
    def _driven_scan(self, body: PlanNode) -> Optional[Scan]:
        """The scan to fan out over, or None when the body cannot fan out
        (no scan, or the driven table is scanned more than once).

        Without a per-partition ``Predict`` the body also runs whole when
        concatenated morsel outputs would not be its output: the driven
        scan is not the leftmost scan (a join's rows follow its leftmost
        input), or an ``Aggregate``/``Sort``/``Limit`` sits in the body
        (a subquery's; those at the plan root are the serial tail)."""
        scans: List[Scan] = []
        predict: Optional[Predict] = None
        row_wise = True
        for node in walk(body):
            if isinstance(node, Scan):
                scans.append(node)
            elif isinstance(node, Predict) and node.per_partition_graphs:
                predict = node
            elif isinstance(node, (Aggregate, Sort, Limit)):
                row_wise = False
        if predict is not None:
            driven = self._specialized_source(predict)
        else:
            # The table with the most rows: the 'fact' side.
            driven = max(
                scans, default=None, key=lambda scan:
                self.catalog.table(scan.table_name).stats.row_count)
            if driven is not None and (driven is not scans[0]
                                       or not row_wise):
                return None
        if driven is None or sum(scan.table_name == driven.table_name
                                 for scan in scans) != 1:
            return None
        return driven

    def _specialized_source(self, predict: Predict) -> Scan:
        """The partitioned scan a per-partition ``Predict`` specializes on."""
        partitioned = [
            node for node in walk(predict.child) if isinstance(node, Scan)
            and self.catalog.table(node.table_name).data.num_partitions > 1]
        if len(partitioned) != 1:
            raise ExecutionError(
                "per-partition prediction requires exactly one partitioned table"
            )
        (source,) = partitioned
        if len(predict.per_partition_graphs) != \
                self.catalog.table(source.table_name).data.num_partitions:
            raise ExecutionError(
                "per-partition graphs do not match the table's partitioning"
            )
        return source

    # ------------------------------------------------------------------
    def _run_morsels(self, morsels: List[Morsel], body: PlanNode,
                     driven: Scan, pruned: Dict[Scan, List[int]]
                     ) -> Dict[Morsel, Tuple[Table, float]]:
        """Run every morsel; returns ``{morsel: (output, seconds)}``."""
        workers = min(self.dop, len(morsels))
        # Order only matters to a pool; results merge canonically anyway.
        queue = deque(self._schedule(morsels, driven) if workers > 1
                      else morsels)
        results: Dict[Morsel, Tuple[Table, float]] = {}
        lock = threading.Lock()
        errors: List[BaseException] = []

        def worker() -> None:
            while True:
                with lock:
                    if errors or not queue:
                        return
                    morsel = queue.popleft()
                try:
                    outcome = self._run_one(morsel, body, driven, pruned)
                except BaseException as exc:  # propagate after drain
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results[morsel] = outcome

        if workers == 1:
            worker()
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(worker) for _ in range(workers)]
                for future in futures:
                    future.result()
        if errors:
            raise errors[0]
        return results

    def _run_one(self, morsel: Morsel, body: PlanNode, driven: Scan,
                 pruned: Dict[Scan, List[int]]) -> Tuple[Table, float]:
        span = None
        if self.record.span is not None:
            span = self.record.span.child(
                "scan.morsel", category="scan",
                table=driven.table_name, partition=morsel.partition,
                label=self.catalog.table(driven.table_name)
                .data.partitions[morsel.partition].label,
                start=morsel.start, rows=morsel.num_rows)
        started = time.perf_counter()
        try:
            piece = self._make_executor(
                {**pruned, driven: morsel}).execute(body)
        except BaseException:
            if span is not None:
                span.finish(status="error")
            raise
        elapsed = time.perf_counter() - started
        if span is not None:
            span.finish(rows_out=piece.num_rows)
        if self.metrics is not None:
            self.metrics.counter("morsels_executed").inc()
        if self.record.profile:
            # Reaches the feedback store (and from there the next run's
            # schedule) when the session folds the record.
            self.record.record_partition(
                driven, morsel.partition, morsel.num_rows,
                piece.num_rows, elapsed)
        return piece, elapsed

    # ------------------------------------------------------------------
    def _schedule(self, morsels: List[Morsel], driven: Scan) -> List[Morsel]:
        """LPT order: longest estimated morsel first.

        With per-partition feedback the estimate is observed
        seconds-per-row × morsel rows; cold it degrades to row count
        (every partition assumed equally expensive per row). Ties break
        on canonical order, keeping the schedule deterministic.
        """
        costs = {m: float(m.num_rows) for m in morsels}
        if self.feedback is not None:
            fingerprint = self._scan_fingerprint(driven)
            for morsel in morsels:
                per_row = self.feedback.partition_seconds_per_row(
                    fingerprint, morsel.partition)
                if per_row is not None:
                    costs[morsel] = per_row * morsel.num_rows
        return sorted(morsels, key=lambda m: (-costs[m], m))

    def _scan_fingerprint(self, driven: Scan) -> str:
        # Lazy import: repro.adaptive imports the relational layer.
        from repro.adaptive.profile import plan_fingerprint

        return plan_fingerprint(driven)
