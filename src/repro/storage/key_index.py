"""Key indexes: a registered table's integer join key, indexed once.

A star join probes the same small dimension with every query, and the
dimension's key column only changes when the table is re-registered. The
catalog therefore builds one index per (table entry, key column) on the
first join that needs it (:meth:`repro.storage.catalog.Catalog.key_index`)
and every later join probes through it. Which index a column gets is
decided from the column's own data, never from a declaration
(``primary_key`` is not validated at registration):

* a **position index** for unique, non-negative keys whose maximum is
  below :data:`POSITION_DENSITY` times the row count: ``positions[key]``
  is the row holding ``key`` (−1 where absent), so a probe is one gather;
* a **sorted index** for any other integer key, duplicates allowed: the
  keys in ascending order plus the stable permutation that sorts them,
  so a probe is one binary search (two when keys repeat).

An empty table gets a position index of the sentinel alone.

Rows are positions in the table's partition-concatenated order — the
order an unrestricted scan returns. Both probes emit their matches
probe-major, each probe's matches in ascending row, which is the order a
streaming hash probe (and the executor's sorted probe) emits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.storage.column import Column, DataType

#: A unique non-negative key column gets a position array when its maximum
#: is below this many times its row count — the array then costs at most
#: this many int64 slots per row.
POSITION_DENSITY = 4


class PositionIndex:
    """``positions[key]`` = the row holding ``key``, −1 where none does.

    A trailing −1 sentinel absorbs every out-of-range probe key.
    """

    kind = "position"
    __slots__ = ("positions",)

    def __init__(self, positions: np.ndarray):
        self.positions = positions

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe_idx, rows)``: the probe keys that hit and their rows."""
        # Negative keys wrap to huge unsigned values, so one clamp sends
        # every key outside [0, max] to the sentinel.
        slots = np.minimum(keys.astype(np.int64, copy=False).view(np.uint64),
                           len(self.positions) - 1)
        rows = self.positions[slots]
        hits = np.flatnonzero(rows >= 0)
        return hits, rows[hits]


class SortedIndex:
    """The keys in ascending order and the stable permutation sorting them."""

    kind = "sorted"
    __slots__ = ("keys", "order", "unique")

    def __init__(self, keys: np.ndarray):
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.unique = bool(np.all(self.keys[1:] != self.keys[:-1]))

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe_idx, rows)``: every (probe key, matching row) pair."""
        starts = np.searchsorted(self.keys, keys, side="left")
        if self.unique:
            last = len(self.keys) - 1
            hits = np.flatnonzero(self.keys[np.minimum(starts, last)] == keys)
            return hits, self.order[starts[hits]]
        counts = np.searchsorted(self.keys, keys, side="right") - starts
        probe_idx = np.repeat(np.arange(len(keys)), counts)
        first_pair = np.cumsum(counts) - counts
        intra = np.arange(len(probe_idx)) - np.repeat(first_pair, counts)
        return probe_idx, self.order[np.repeat(starts, counts) + intra]


KeyIndex = Union[PositionIndex, SortedIndex]


def indexable(column: Column) -> bool:
    """Integer columns get an index; float keys (NaN never equals itself)
    and coded strings keep the executor's general probe."""
    return column.dtype is DataType.INT and column.codes is None


def build_key_index(partitions: Sequence[Column]) -> Optional[KeyIndex]:
    """The index of a key column given as its partitions' columns in
    order, or None when the column is not :func:`indexable`."""
    if not indexable(partitions[0]):
        return None
    keys = np.concatenate([np.asarray(part.data, dtype=np.int64)
                           for part in partitions])
    rows = len(keys)
    if not rows:
        return PositionIndex(np.full(1, -1, dtype=np.int64))
    if keys.min() >= 0 and keys.max() < POSITION_DENSITY * rows:
        positions = np.full(int(keys.max()) + 2, -1, dtype=np.int64)
        positions[keys] = np.arange(rows, dtype=np.int64)
        # A repeated key keeps only its last row: fewer filled slots
        # than rows means the keys are not unique.
        if np.count_nonzero(positions >= 0) == rows:
            return PositionIndex(positions)
    return SortedIndex(keys)
