"""In-memory columnar tables.

A :class:`Table` is an ordered mapping from column name to :class:`Column`,
with all columns sharing the same length. Tables are the unit of data the
relational executor produces and consumes. A :class:`Schema` describes the
(name, type) pairs without the data and is what the planner binds against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.storage.column import Column, DataType, concat_columns


class Schema:
    """Ordered (column name, logical type) pairs, looked up by name."""

    __slots__ = ("_fields", "_dtypes")

    def __init__(self, fields: Sequence[Tuple[str, DataType]]):
        self._fields: Tuple[Tuple[str, DataType], ...] = tuple(fields)
        self._dtypes: Dict[str, DataType] = dict(self._fields)
        if len(self._dtypes) != len(self._fields):
            names = [name for name, _ in self._fields]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self._fields]

    @property
    def types(self) -> List[DataType]:
        return [dtype for _, dtype in self._fields]

    def dtype_of(self, name: str) -> DataType:
        dtype = self._dtypes.get(name)
        if dtype is None:
            raise SchemaError(f"unknown column: {name!r}")
        return dtype

    def __contains__(self, name: str) -> bool:
        return name in self._dtypes

    def __iter__(self) -> Iterator[Tuple[str, DataType]]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {t.value}" for n, t in self._fields)
        return f"Schema({inner})"

    def select(self, names: Sequence[str]) -> "Schema":
        return Schema([(n, self.dtype_of(n)) for n in names])

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        return Schema([(mapping.get(n, n), t) for n, t in self._fields])


class Table:
    """A named collection of equal-length columns.

    Its :attr:`schema` is built on first read and kept: a table's columns
    are fixed once it is constructed.
    """

    __slots__ = ("columns", "_schema")

    def __init__(self, columns: Mapping[str, Column] | Sequence[Tuple[str, Column]]):
        if isinstance(columns, Mapping):
            items = list(columns.items())
        else:
            items = list(columns)
        self.columns: Dict[str, Column] = {}
        self._schema: Schema | None = None
        length = None
        for name, column in items:
            if not isinstance(column, Column):
                column = Column(column)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise SchemaError(
                    f"column {name!r} has {len(column)} rows, expected {length}"
                )
            if name in self.columns:
                raise SchemaError(f"duplicate column name: {name!r}")
            self.columns[name] = column

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, **arrays: Iterable) -> "Table":
        """Build a table from keyword numpy arrays / sequences."""
        return cls([(name, Column(np.asarray(values))) for name, values in arrays.items()])

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        cols = []
        for name, dtype in schema:
            cols.append((name, Column(np.asarray([], dtype=np.float64), dtype)
                         if dtype is not DataType.STRING
                         else Column(np.asarray([], dtype=np.str_), DataType.STRING)))
        return cls(cols)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            self._schema = Schema([(name, col.dtype)
                                   for name, col in self.columns.items()])
        return self._schema

    @property
    def column_names(self) -> List[str]:
        return list(self.columns.keys())

    def column(self, name: str) -> Column:
        if name not in self.columns:
            raise SchemaError(
                f"unknown column {name!r}; available: {self.column_names}"
            )
        return self.columns[name]

    def array(self, name: str) -> np.ndarray:
        return self.column(name).data

    def nbytes(self) -> int:
        return sum(col.nbytes() for col in self.columns.values())

    def spill_to(self, directory, faults=None) -> "Table":
        """Spill every column to memory-mapped files under ``directory``.

        Returns a new table whose columns are read-only ``np.memmap``
        views over crash-safely written ``.npy`` files (see
        :mod:`repro.storage.mmap_column`); this table is untouched.
        """
        from repro.storage.mmap_column import spill_table

        return spill_table(self, directory, faults=faults)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"Table({self.num_rows} rows x {self.num_columns} cols: {self.column_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self.columns[n] == other.columns[n] for n in self.columns)

    # ------------------------------------------------------------------
    # Row-level access (tests / display only; execution is columnar)
    # ------------------------------------------------------------------
    def row(self, index: int) -> Dict[str, object]:
        return {name: col.data[index].item() if col.data.dtype.kind != "U"
                else str(col.data[index])
                for name, col in self.columns.items()}

    def to_rows(self) -> List[Dict[str, object]]:
        return [self.row(i) for i in range(self.num_rows)]

    def head(self, n: int = 5) -> "Table":
        return self.slice(0, min(n, self.num_rows))

    # ------------------------------------------------------------------
    # Columnar operations
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        return Table([(name, self.column(name)) for name in names])

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        return Table([(mapping.get(n, n), c) for n, c in self.columns.items()])

    def with_column(self, name: str, column: Column) -> "Table":
        if self.columns and len(column) != self.num_rows:
            raise SchemaError(
                f"new column {name!r} has {len(column)} rows, expected {self.num_rows}"
            )
        items = [(n, c) for n, c in self.columns.items() if n != name]
        items.append((name, column))
        return Table(items)

    def drop(self, names: Sequence[str]) -> "Table":
        doomed = set(names)
        return Table([(n, c) for n, c in self.columns.items() if n not in doomed])

    def take(self, indices: np.ndarray) -> "Table":
        return Table([(n, c.take(indices)) for n, c in self.columns.items()])

    def mask(self, predicate: np.ndarray) -> "Table":
        return Table([(n, c.mask(predicate)) for n, c in self.columns.items()])

    def slice(self, start: int, stop: int) -> "Table":
        return Table([(n, c.slice(start, stop)) for n, c in self.columns.items()])

    def prefix(self, prefix: str) -> "Table":
        """Qualify all column names, e.g. ``pi.id`` for joins."""
        return Table([(f"{prefix}.{n}", c) for n, c in self.columns.items()])

    def encoded(self) -> "Table":
        """A twin whose string columns carry dictionary codes (see
        :meth:`Column.encoded`); every array of this table is shared."""
        return Table([(n, c.encoded()) for n, c in self.columns.items()])


class TableView:
    """A zero-copy, row-subset view over a :class:`Table`.

    Late materialization for the relational executor: a ``Filter``
    produces a selection vector (int64 row indices) carried alongside the
    shared underlying columns instead of copying every column. Downstream
    operators compose selections (:meth:`refine`) or evaluate expressions
    against the view (it exposes the same ``array``/``num_rows``/
    ``schema`` surface :meth:`Expression.evaluate` needs); the gather
    happens once per referenced column, at a pipeline breaker
    (:meth:`materialize`) or on first access (memoized). A coded string
    column is gathered as codes (:meth:`Column.take`).
    """

    __slots__ = ("table", "selection", "_gathered")

    def __init__(self, table: Table, selection: np.ndarray | None = None):
        self.table = table
        # None = all rows; else absolute int64 row indices into `table`.
        self.selection = selection
        self._gathered: Dict[str, Column] = {}

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if self.selection is None:
            return self.table.num_rows
        return len(self.selection)

    @property
    def schema(self) -> Schema:
        return self.table.schema

    @property
    def column_names(self) -> List[str]:
        return self.table.column_names

    def __repr__(self) -> str:
        kind = "all rows" if self.selection is None else "selected"
        return (f"TableView({self.num_rows}/{self.table.num_rows} rows "
                f"[{kind}] x {self.table.num_columns} cols)")

    # ------------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """The column restricted to this view's rows (gather memoized)."""
        return self.column(name).data

    def column(self, name: str) -> Column:
        if self.selection is None:
            return self.table.column(name)
        cached = self._gathered.get(name)
        if cached is None:
            cached = self.table.column(name).take(self.selection)
            self._gathered[name] = cached
        return cached

    # ------------------------------------------------------------------
    def refine(self, keep: np.ndarray) -> "TableView":
        """Compose a boolean mask over *this view's* rows (zero-copy)."""
        if keep.dtype != np.bool_:
            raise SchemaError("refine requires a boolean array")
        if self.selection is None:
            return TableView(self.table, np.nonzero(keep)[0])
        return TableView(self.table, self.selection[keep])

    def head(self, n: int) -> "TableView":
        """First ``n`` view rows; selection slicing stays zero-copy."""
        if self.selection is None:
            return TableView(self.table.slice(0, min(n, self.num_rows)))
        return TableView(self.table, self.selection[:n])

    def materialize(self, names: Sequence[str] | None = None) -> Table:
        """Gather into a contiguous Table (pipeline breakers only).

        With ``selection is None`` and no column subset this is the
        underlying table itself — no copies at all.
        """
        if names is None:
            if self.selection is None:
                return self.table
            names = self.table.column_names
        elif self.selection is None:
            return self.table.select(names)
        return Table([(name, self.column(name)) for name in names])


def concat_tables(tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables with identical schemas."""
    if not tables:
        raise SchemaError("cannot concatenate an empty list of tables")
    first = tables[0]
    for table in tables[1:]:
        if table.column_names != first.column_names:
            raise SchemaError("concat_tables requires identical column names")
    if len(tables) == 1:
        return first
    return Table([(name, concat_columns([t.column(name) for t in tables]))
                  for name in first.column_names])
