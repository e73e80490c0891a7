"""Horizontal table partitioning.

Big-data systems store data in partitions, typically directory-partitioned
by one column (paper §4.2). Raven exploits per-partition statistics to
compile a specialized model for each partition.

:class:`PartitionedTable` holds a list of row-disjoint fragments of a single
logical table; each fragment carries its own :class:`TableStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.column import DataType, encode_columns
from repro.storage.statistics import TableStats
from repro.storage.table import Table, concat_tables


@dataclass
class Partition:
    """One fragment of a partitioned table."""

    table: Table
    stats: TableStats
    key: object = None  # partition value (or range label) for display

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def label(self) -> str:
        """Stable display form of ``key`` for traces and EXPLAIN output.

        Deterministic across runs and partition layouts: floats render
        via ``repr`` (round-trippable), ``None`` (the single unkeyed
        partition) as ``*``, everything else via ``str``.
        """
        if self.key is None:
            return "*"
        if isinstance(self.key, float):
            return repr(self.key)
        return str(self.key)

    def __repr__(self) -> str:
        return f"Partition(key={self.label}, rows={self.num_rows})"


class PartitionedTable:
    """A logical table stored as row-disjoint partitions.

    The unpartitioned view (``to_table``) concatenates all fragments in
    partition order; global statistics are the merge of fragment statistics.
    """

    def __init__(self, partitions: Sequence[Partition], partition_column: Optional[str] = None):
        if not partitions:
            raise SchemaError("a partitioned table needs at least one partition")
        names = partitions[0].table.column_names
        for part in partitions[1:]:
            if part.table.column_names != names:
                raise SchemaError("all partitions must share one schema")
        self.partitions: List[Partition] = list(partitions)
        self.partition_column = partition_column

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Table, partition_column: Optional[str] = None,
                   num_partitions: Optional[int] = None) -> "PartitionedTable":
        """Partition ``table`` by the distinct values of ``partition_column``.

        With no partition column the table becomes a single partition, or
        ``num_partitions`` equal-sized row chunks when given (the layout of a
        table that was written in parallel without a partitioning key).
        """
        if partition_column is None:
            if num_partitions is None or num_partitions <= 1:
                return cls([_make_partition(table, None)])
            chunks = []
            n = table.num_rows
            size = max(1, -(-n // num_partitions))  # ceil division
            for start in range(0, n, size):
                chunk = table.slice(start, min(start + size, n))
                chunks.append(_make_partition(chunk, f"chunk{len(chunks)}"))
            return cls(chunks)

        if partition_column not in table.columns:
            raise SchemaError(
                f"partition column {partition_column!r} is not in the "
                f"schema; available columns: {table.column_names}")
        column = table.column(partition_column)
        if column.codes is not None:
            # One fragment per code present; the dictionary is sorted, so
            # fragments come in the order of the distinct strings.
            values = column.codes
            uniques = np.flatnonzero(np.bincount(values))
            keys = column.dictionary[uniques]
        else:
            values = column.data
            uniques = keys = np.unique(values)
        partitions = [_make_partition(table.mask(values == value), key.item())
                      for value, key in zip(uniques, keys)]
        return cls(partitions, partition_column=partition_column)

    def encoded(self) -> "PartitionedTable":
        """A twin whose string columns carry dictionary codes, with one
        dictionary per column across all partitions (so fragments
        concatenate as codes); arrays, statistics and keys are shared."""
        names = self.partitions[0].table.column_names
        coded = {}
        for name in names:
            pieces = [part.table.column(name) for part in self.partitions]
            coded[name] = encode_columns(pieces) \
                if pieces[0].dtype is DataType.STRING else pieces
        return PartitionedTable(
            [Partition(Table([(name, coded[name][index]) for name in names]),
                       part.stats, part.key)
             for index, part in enumerate(self.partitions)],
            self.partition_column)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return sum(p.num_rows for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def to_table(self) -> Table:
        if len(self.partitions) == 1:
            return self.partitions[0].table
        return concat_tables([p.table for p in self.partitions])

    # ------------------------------------------------------------------
    # Spill-to-disk policy
    # ------------------------------------------------------------------
    def spill(self, directory, budget_bytes: Optional[int] = None,
              faults=None) -> int:
        """Spill partitions to memory-mapped files under ``directory``.

        The policy spills **largest partitions first** (they buy the most
        headroom per file) until resident bytes fit ``budget_bytes``;
        with no budget every partition spills. Each spilled fragment's
        columns become read-only ``np.memmap`` views, its statistics and
        key are unchanged, and row order is preserved — queries produce
        bit-for-bit the same results. Returns the number of bytes moved
        out of memory by this call.
        """
        from repro.storage.mmap_column import spill_table, spilled_bytes

        resident = [(index, part) for index, part in
                    enumerate(self.partitions)
                    if part.table.nbytes() > spilled_bytes(part.table)]
        resident.sort(key=lambda pair: pair[1].table.nbytes(), reverse=True)
        resident_bytes = sum(part.table.nbytes() for _, part in resident)
        moved = 0
        for index, part in resident:
            if budget_bytes is not None and resident_bytes <= budget_bytes:
                break
            subdir = f"part-{index:04d}"
            spilled = spill_table(part.table, f"{directory}/{subdir}",
                                  faults=faults)
            self.partitions[index] = Partition(
                table=spilled, stats=part.stats, key=part.key)
            resident_bytes -= part.table.nbytes()
            moved += part.table.nbytes()
        return moved

    def resident_bytes(self) -> int:
        """Bytes held in ordinary in-memory (non-spilled) columns."""
        from repro.storage.mmap_column import spilled_bytes

        return sum(p.table.nbytes() - spilled_bytes(p.table)
                   for p in self.partitions)

    def global_stats(self) -> TableStats:
        stats = self.partitions[0].stats
        for part in self.partitions[1:]:
            stats = stats.merge(part.stats)
        return stats

    def __repr__(self) -> str:
        keys = [p.key for p in self.partitions]
        return (
            f"PartitionedTable({self.num_rows} rows, "
            f"{self.num_partitions} partitions on {self.partition_column!r}: {keys})"
        )


def _make_partition(table: Table, key: object) -> Partition:
    return Partition(table=table, stats=TableStats.collect(table), key=key)
