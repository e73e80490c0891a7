"""Column- and table-level data statistics.

RDBMSs and big-data engines keep min/max and cardinality statistics per
column (paper §4.2). Raven's data-induced optimizations consume exactly
these: min/max intervals induce range predicates that prune tree models,
and per-partition statistics drive partition-specialized models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.storage.column import Column, DataType
from repro.storage.table import Table


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column (the per-partition *zone map* entry).

    ``min_value``/``max_value`` are None for string columns, where instead a
    bounded sample of distinct values (``categories``) may be recorded; the
    optimizer uses categories to bound OneHotEncoder outputs.

    Float min/max ignore NaN rows (the engine's NULL representation):
    numeric predicates are never satisfied by NaN, so NaN-free bounds stay
    sound for partition skipping — and an all-NaN column simply has no
    interval, which makes skipping decisions fall back to "keep".
    ``null_count`` records how many rows were NaN.
    """

    name: str
    dtype: DataType
    row_count: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    distinct_count: Optional[int] = None
    categories: Optional[Tuple[str, ...]] = None
    null_count: Optional[int] = None

    MAX_TRACKED_CATEGORIES = 256

    @classmethod
    def collect(cls, name: str, column: Column) -> "ColumnStats":
        n = len(column)
        if column.dtype.is_numeric or column.dtype is DataType.BOOL:
            data = column.data
            if n == 0:
                return cls(name, column.dtype, 0, null_count=0)
            nulls = int(np.isnan(data).sum()) \
                if column.dtype is DataType.FLOAT else 0
            if nulls == n:
                # All-null: no interval, NDV 0 — a zone map that can
                # never prove anything, which is the sound default.
                return cls(name, column.dtype, n, distinct_count=0,
                           null_count=nulls)
            numeric = data.astype(np.float64, copy=False)
            distinct = int(len(np.unique(data))) if n <= 2_000_000 else None
            return cls(
                name,
                column.dtype,
                n,
                min_value=float(np.nanmin(numeric)),
                max_value=float(np.nanmax(numeric)),
                distinct_count=distinct,
                null_count=nulls,
            )
        # String column: record distinct values when the domain is small.
        if column.codes is not None:
            # The dictionary is sorted: the codes present pick out exactly
            # np.unique's answer without sorting a single string.
            present = np.bincount(column.codes,
                                  minlength=len(column.dictionary))
            uniques = column.dictionary[np.flatnonzero(present)]
        else:
            uniques = np.unique(column.data) if n \
                else np.asarray([], dtype=np.str_)
        categories = None
        if len(uniques) <= cls.MAX_TRACKED_CATEGORIES:
            categories = tuple(str(u) for u in uniques)
        return cls(
            name,
            column.dtype,
            n,
            distinct_count=int(len(uniques)),
            categories=categories,
            null_count=0,
        )

    def interval(self) -> Optional[Tuple[float, float]]:
        """The [min, max] interval for numeric columns, else None."""
        if self.min_value is None or self.max_value is None:
            return None
        return (self.min_value, self.max_value)

    def to_dict(self) -> dict:
        """JSON-compatible form (for :mod:`repro.persist` snapshots)."""
        return {
            "name": self.name,
            "dtype": self.dtype.value,
            "row_count": self.row_count,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "distinct_count": self.distinct_count,
            "categories": None if self.categories is None
            else list(self.categories),
            "null_count": self.null_count,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ColumnStats":
        return cls(
            name=payload["name"],
            dtype=DataType(payload["dtype"]),
            row_count=int(payload["row_count"]),
            min_value=payload["min_value"],
            max_value=payload["max_value"],
            distinct_count=payload["distinct_count"],
            categories=None if payload["categories"] is None
            else tuple(payload["categories"]),
            # Snapshots written before zone maps carry no null counts.
            null_count=payload.get("null_count"),
        )

    def fill_missing(self, other: "ColumnStats") -> "ColumnStats":
        """Fill this column's unknown fields from ``other`` (same dtype).

        Used by warm start: live collection skips expensive statistics
        (distinct counts above the size cutoff), while a snapshot from a
        previous session may carry them. Known live values always win —
        persisted statistics only stand in where collection left None.
        """
        if other.dtype is not self.dtype:
            return self
        return ColumnStats(
            name=self.name,
            dtype=self.dtype,
            row_count=self.row_count,
            min_value=self.min_value if self.min_value is not None
            else other.min_value,
            max_value=self.max_value if self.max_value is not None
            else other.max_value,
            distinct_count=self.distinct_count
            if self.distinct_count is not None else other.distinct_count,
            categories=self.categories if self.categories is not None
            else other.categories,
            null_count=self.null_count if self.null_count is not None
            else other.null_count,
        )


@dataclass
class TableStats:
    """Statistics for a whole table (one entry per column)."""

    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def collect(cls, table: Table) -> "TableStats":
        stats = cls(row_count=table.num_rows)
        for name, column in table.columns.items():
            stats.columns[name] = ColumnStats.collect(name, column)
        return stats

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def interval(self, name: str) -> Optional[Tuple[float, float]]:
        stats = self.columns.get(name)
        return stats.interval() if stats else None

    def to_dict(self) -> dict:
        """JSON-compatible form (for :mod:`repro.persist` snapshots)."""
        return {
            "row_count": self.row_count,
            "columns": {name: stats.to_dict()
                        for name, stats in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TableStats":
        stats = cls(row_count=int(payload["row_count"]))
        for name, column in dict(payload["columns"]).items():
            stats.columns[name] = ColumnStats.from_dict(column)
        return stats

    def fill_missing(self, other: "TableStats") -> "TableStats":
        """Fill unknown per-column fields from ``other``; live values win.

        Columns only present in ``other`` are ignored — statistics must
        never describe columns the live table does not have.
        """
        merged = TableStats(row_count=self.row_count)
        for name, stats in self.columns.items():
            persisted = other.columns.get(name)
            merged.columns[name] = stats if persisted is None \
                else stats.fill_missing(persisted)
        return merged

    def merge(self, other: "TableStats") -> "TableStats":
        """Combine statistics from two fragments of the same table."""
        merged = TableStats(row_count=self.row_count + other.row_count)
        for name in set(self.columns) | set(other.columns):
            left, right = self.columns.get(name), other.columns.get(name)
            if left is None or right is None:
                merged.columns[name] = left or right  # type: ignore[assignment]
                continue
            merged.columns[name] = _merge_column_stats(left, right)
        return merged


def _merge_column_stats(left: ColumnStats, right: ColumnStats) -> ColumnStats:
    def _combine(a, b, fn):
        if a is None or b is None:
            return None
        return fn(a, b)

    categories = None
    if left.categories is not None and right.categories is not None:
        union = tuple(sorted(set(left.categories) | set(right.categories)))
        if len(union) <= ColumnStats.MAX_TRACKED_CATEGORIES:
            categories = union
    return ColumnStats(
        name=left.name,
        dtype=left.dtype,
        row_count=left.row_count + right.row_count,
        min_value=_combine(left.min_value, right.min_value, min),
        max_value=_combine(left.max_value, right.max_value, max),
        distinct_count=None,  # not mergeable without sketches
        categories=categories,
        null_count=_combine(left.null_count, right.null_count,
                            lambda a, b: a + b),
    )
