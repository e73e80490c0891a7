"""The catalog: named tables, statistics, constraints and models.

The catalog plays the role of the database metadata layer. It stores:

* tables (plain or partitioned) with collected :class:`TableStats`;
* primary-key declarations, which enable PK-FK join elimination in the
  relational optimizer;
* trained models (onnxlite graphs), which the ``PREDICT`` statement
  references by name — mirroring ``PREDICT(MODEL = covid_risk.onnx, ...)``
  in the paper's Fig. 2;
* join key indexes (:mod:`repro.storage.key_index`), built from a table's
  key column on the first join that probes it and cached on its entry.

Models are stored as opaque objects to keep the storage layer independent of
the model format.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import CatalogError
from repro.storage.key_index import KeyIndex, build_key_index
from repro.storage.partition import PartitionedTable
from repro.storage.statistics import TableStats
from repro.storage.table import Schema, Table


@dataclass
class TableEntry:
    """Catalog metadata for one registered table.

    ``key_indexes`` caches :meth:`Catalog.key_index` per column. It needs
    no invalidation: re-registering a table makes a new entry and
    dropping it removes the entry, and spilling keeps every value and
    row in place.
    """

    name: str
    data: PartitionedTable
    stats: TableStats
    primary_key: Optional[List[str]] = None
    version: int = 0
    key_indexes: Dict[str, Optional[KeyIndex]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def schema(self) -> Schema:
        return self.data.partitions[0].table.schema

    @property
    def num_rows(self) -> int:
        return self.data.num_rows


@dataclass
class ModelEntry:
    """Catalog metadata for one registered trained pipeline."""

    name: str
    graph: object  # repro.onnxlite.graph.Graph (opaque here)
    metadata: Dict[str, object] = field(default_factory=dict)
    version: int = 0


# change_listener(kind, name) with kind in {"table", "model"}; fired on
# register, replace and drop — the plan cache's invalidation hook.
ChangeListener = Callable[[str, str], None]


class Catalog:
    """Mutable registry of tables and models for a session.

    Mutations are serialized by an internal lock and bump a monotonically
    increasing catalog version; each entry records the version at which it
    was (re)registered. Listeners subscribed via :meth:`subscribe` are
    notified after every mutation — this is what keeps a
    :class:`repro.serving.PlanCache` consistent with DDL.
    """

    def __init__(self):
        self._tables: Dict[str, TableEntry] = {}
        self._models: Dict[str, ModelEntry] = {}
        self._lock = threading.RLock()
        self._version = 0
        self._listeners: List[ChangeListener] = []

    # ------------------------------------------------------------------
    # Versioning + change notification
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every catalog mutation."""
        return self._version

    def subscribe(self, listener: ChangeListener) -> None:
        """Register a callback fired as ``listener(kind, name)`` after
        every table/model registration, replacement, or drop."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def unsubscribe(self, listener: ChangeListener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _bump(self) -> int:
        self._version += 1
        return self._version

    def _notify(self, kind: str, name: str) -> None:
        for listener in list(self._listeners):
            listener(kind, name)

    def entry_version(self, kind: str, name: str) -> Optional[int]:
        """Current version of a table/model entry; None if not registered."""
        registry = self._tables if kind == "table" else self._models
        entry = registry.get(name)
        return None if entry is None else entry.version

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def add_table(self, name: str, table: Table | PartitionedTable,
                  primary_key: Optional[Sequence[str]] = None,
                  partition_column: Optional[str] = None,
                  replace: bool = False) -> TableEntry:
        """Register a table and collect its statistics.

        ``partition_column`` re-partitions a plain table by that column's
        distinct values (what a user-specified partitioning scheme does in
        Spark/Parquet, paper §4.2).

        String columns are registered dictionary-coded, one dictionary
        per column across partitions (:meth:`Table.encoded`); the
        caller's table is not modified and its arrays are shared.
        """
        if isinstance(table, Table):
            data = PartitionedTable.from_table(table.encoded(),
                                               partition_column)
        else:
            data = table.encoded()
        schema = data.partitions[0].table.schema
        if primary_key:
            for key in primary_key:
                if key not in schema:
                    raise CatalogError(
                        f"primary key column {key!r} not in table {name!r}"
                    )
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already registered")
            entry = TableEntry(
                name=name,
                data=data,
                stats=data.global_stats(),
                primary_key=list(primary_key) if primary_key else None,
                version=self._bump(),
            )
            self._tables[name] = entry
            self._notify("table", name)
        return entry

    def augment_stats(self, name: str, stats: TableStats) -> bool:
        """Fill missing fields of a table's statistics from ``stats``.

        Used by snapshot warm start: persisted statistics stand in where
        live collection left gaps (e.g. distinct counts skipped above the
        size cutoff), so cold-start join ordering sees real NDVs. Live
        values always win and no catalog version is bumped — refined
        *estimates* change optimization quality, not plan validity, so
        cached plans must not be invalidated by them.

        Returns False when the table is not registered.
        """
        with self._lock:
            entry = self._tables.get(name)
            if entry is None:
                return False
            entry.stats = entry.stats.fill_missing(stats)
            return True

    def augment_partition_stats(self, name: str,
                                partition_stats: Sequence[TableStats]) -> bool:
        """Fill missing fields of each partition's zone-map statistics.

        The snapshot counterpart of :meth:`augment_stats` for partitioned
        tables: persisted per-partition statistics (NDVs skipped above
        the live-collection size cutoff, say) fill the gaps so warm
        zone-map skipping and per-partition costing start informed. The
        stats list must cover every partition in order — a layout
        mismatch (table re-partitioned since the snapshot) applies
        nothing. Live values win and no version is bumped, exactly as
        for global statistics.

        Returns False when the table is absent or the layout mismatches.
        """
        with self._lock:
            entry = self._tables.get(name)
            if entry is None \
                    or len(partition_stats) != entry.data.num_partitions:
                return False
            for part, stats in zip(entry.data.partitions, partition_stats):
                part.stats = part.stats.fill_missing(stats)
            return True

    def table(self, name: str) -> TableEntry:
        if name not in self._tables:
            raise CatalogError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def key_index(self, entry: TableEntry,
                  column: str) -> Optional[KeyIndex]:
        """The key index of ``entry``'s ``column``, or None when the column
        gets none (see :mod:`repro.storage.key_index`).

        Built on first use from the column's rows in partition order and
        cached on the entry. Concurrent first joins may each build one,
        but publication is idempotent under the catalog lock, so every
        caller gets the one stored copy.
        """
        cached = entry.key_indexes
        if column in cached:
            return cached[column]
        index = build_key_index([part.table.column(column)
                                 for part in entry.data.partitions])
        with self._lock:
            return cached.setdefault(column, index)

    def drop_table(self, name: str) -> None:
        with self._lock:
            if self._tables.pop(name, None) is not None:
                self._bump()
                self._notify("table", name)

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def add_model(self, name: str, graph: object, replace: bool = False,
                  **metadata: object) -> ModelEntry:
        with self._lock:
            if name in self._models and not replace:
                raise CatalogError(f"model {name!r} already registered")
            entry = ModelEntry(name=name, graph=graph,
                               metadata=dict(metadata), version=self._bump())
            self._models[name] = entry
            self._notify("model", name)
        return entry

    def drop_model(self, name: str) -> None:
        with self._lock:
            if self._models.pop(name, None) is not None:
                self._bump()
                self._notify("model", name)

    def model(self, name: str) -> ModelEntry:
        if name not in self._models:
            raise CatalogError(
                f"unknown model {name!r}; registered: {sorted(self._models)}"
            )
        return self._models[name]

    def has_model(self, name: str) -> bool:
        return name in self._models

    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    def __repr__(self) -> str:
        return f"Catalog(tables={self.table_names}, models={self.model_names})"
