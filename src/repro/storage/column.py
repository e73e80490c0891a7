"""Typed columnar data.

A :class:`Column` owns a one-dimensional numpy array together with a logical
:class:`DataType`. The logical type is what the relational layer reasons
about; the physical dtype is a numpy representation chosen for vectorized
execution:

==========  ==============================================================
logical     physical numpy dtype
==========  ==============================================================
FLOAT       ``float64``
INT         ``int64``
BOOL        ``bool_``
STRING      unicode (``<U``) array, or dictionary codes: a sorted ``<U``
            ``dictionary`` plus the narrowest signed integer ``codes``
            that index it (``int8`` up to 128 distinct values)
==========  ==============================================================

Strings use numpy unicode arrays rather than object arrays so that equality
comparisons and ``np.isin`` stay vectorized. A registered string column
(:meth:`Column.encoded`, called by the catalog) also carries dictionary
codes: the dictionary is sorted, so code order is string order, and
gathers, masks, slices and same-dictionary concatenations move the codes
instead of the ``<U`` bytes. Such a column decodes (``dictionary[codes]``,
memoized) only when something reads :attr:`Column.data`.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Logical column types understood by the engine."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.FLOAT, DataType.INT)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Parse a SQL-ish type name (``float``, ``int``, ``bigint``...)."""
        normalized = name.strip().lower()
        aliases = {
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "decimal": cls.FLOAT,
            "numeric": cls.FLOAT,
            "int": cls.INT,
            "integer": cls.INT,
            "bigint": cls.INT,
            "smallint": cls.INT,
            "tinyint": cls.INT,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
            "bit": cls.BOOL,
            "string": cls.STRING,
            "varchar": cls.STRING,
            "nvarchar": cls.STRING,
            "char": cls.STRING,
            "text": cls.STRING,
        }
        if normalized not in aliases:
            raise SchemaError(f"unknown type name: {name!r}")
        return aliases[normalized]


_NUMPY_KIND_TO_TYPE = {
    "f": DataType.FLOAT,
    "i": DataType.INT,
    "u": DataType.INT,
    "b": DataType.BOOL,
    "U": DataType.STRING,
}


def infer_dtype(values: np.ndarray) -> DataType:
    """Infer the logical type of a numpy array from its dtype kind."""
    kind = values.dtype.kind
    if kind == "O":
        # Object arrays of Python strings are coerced by Column.__init__.
        return DataType.STRING
    if kind not in _NUMPY_KIND_TO_TYPE:
        raise SchemaError(f"unsupported numpy dtype: {values.dtype}")
    return _NUMPY_KIND_TO_TYPE[kind]


def _physical_cast(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Coerce ``values`` to the canonical physical dtype for ``dtype``."""
    if dtype is DataType.FLOAT:
        return np.asarray(values, dtype=np.float64)
    if dtype is DataType.INT:
        return np.asarray(values, dtype=np.int64)
    if dtype is DataType.BOOL:
        return np.asarray(values, dtype=np.bool_)
    if dtype is DataType.STRING:
        if values.dtype.kind == "U":
            return values
        return np.asarray(values, dtype=np.str_)
    raise SchemaError(f"unsupported logical type: {dtype}")


#: An encoding chunk holds about this many bytes of ``<U`` data, so that
#: registration never sorts a copy of a whole string column.
ENCODE_CHUNK_BYTES = 1 << 20


def _code_dtype(size: int) -> np.dtype:
    """The narrowest signed integer dtype whose values index ``size`` entries."""
    for dtype in (np.int8, np.int16, np.int32):
        if size <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def same_dictionary(left: Optional[np.ndarray],
                    right: Optional[np.ndarray]) -> bool:
    """True when two code dictionaries give every code the same string."""
    if left is right:
        return left is not None
    return (left is not None and right is not None
            and len(left) == len(right) and bool(np.array_equal(left, right)))


class Column:
    """An immutable-by-convention 1-D typed array.

    The engine never mutates a column in place; operators build new columns.
    A coded STRING column (``codes`` is not None) keeps its strings as
    ``dictionary[codes]``; ``data`` is then decoded on first read unless
    the column was built with it (a registered column shares the caller's
    array).
    """

    __slots__ = ("_data", "dtype", "codes", "dictionary")

    def __init__(self, values: Iterable | np.ndarray, dtype: DataType | None = None):
        array = np.asarray(values)
        if array.ndim != 1:
            raise SchemaError(f"columns must be 1-D, got shape {array.shape}")
        if dtype is None:
            dtype = infer_dtype(array)
        self._data: Optional[np.ndarray] = _physical_cast(array, dtype)
        self.dtype: DataType = dtype
        self.codes: Optional[np.ndarray] = None
        self.dictionary: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def floats(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.float64), DataType.FLOAT)

    @classmethod
    def ints(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.int64), DataType.INT)

    @classmethod
    def bools(cls, values: Iterable) -> "Column":
        return cls(np.asarray(values, dtype=np.bool_), DataType.BOOL)

    @classmethod
    def strings(cls, values: Sequence) -> "Column":
        return cls(np.asarray(values, dtype=np.str_), DataType.STRING)

    @staticmethod
    def from_codes(codes: np.ndarray, dictionary: np.ndarray,
                   data: Optional[np.ndarray] = None) -> "Column":
        """A STRING column ``dictionary[codes]``; ``data``, when given, is
        that decoded array already (kept as it is, not copied)."""
        column = Column.__new__(Column)
        column._data = data
        column.dtype = DataType.STRING
        column.codes = codes
        column.dictionary = dictionary
        return column

    def encoded(self) -> "Column":
        """This column with dictionary codes added; its ``<U`` array is
        shared. Columns that are not strings, or already coded, are
        returned as they are."""
        if self.dtype is not DataType.STRING or self.codes is not None:
            return self
        return encode_columns([self])[0]

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        data = self._data
        if data is None:
            data = self._data = self._decode()
        return data

    def _decode(self) -> np.ndarray:
        return self.dictionary[self.codes]

    def __len__(self) -> int:
        return len(self.codes if self._data is None else self._data)

    def __repr__(self) -> str:
        head = self._data[:4] if self._data is not None \
            else self.dictionary[self.codes[:4]]
        preview = ", ".join(repr(v) for v in head)
        suffix = ", ..." if len(self) > 4 else ""
        return f"Column<{self.dtype.value}>[{preview}{suffix}] (n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.dtype is not other.dtype:
            return False
        if self.codes is not None and other.codes is not None \
                and same_dictionary(self.dictionary, other.dictionary):
            return bool(np.array_equal(self.codes, other.codes))
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self):  # pragma: no cover - columns are not hashable
        raise TypeError("Column is not hashable")

    # ------------------------------------------------------------------
    # Operations used by the executor (coded columns move codes)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer indices."""
        if self.codes is not None:
            return Column.from_codes(self.codes[indices], self.dictionary)
        return Column(self.data[indices], self.dtype)

    def mask(self, predicate: np.ndarray) -> "Column":
        """Keep rows where the boolean ``predicate`` array is True."""
        if predicate.dtype != np.bool_:
            raise SchemaError("mask requires a boolean array")
        if self.codes is not None:
            return Column.from_codes(self.codes[predicate], self.dictionary)
        return Column(self.data[predicate], self.dtype)

    def slice(self, start: int, stop: int) -> "Column":
        if self.codes is not None:
            data = None if self._data is None else self._data[start:stop]
            return Column.from_codes(self.codes[start:stop], self.dictionary,
                                     data)
        return Column(self.data[start:stop], self.dtype)

    def cast(self, dtype: DataType) -> "Column":
        """Cast to another logical type (numeric<->numeric, ->string, bool->int)."""
        if dtype is self.dtype:
            return self
        if dtype is DataType.STRING:
            return Column(self.data.astype(np.str_), DataType.STRING)
        if self.dtype is DataType.STRING:
            if dtype is DataType.FLOAT:
                return Column(self.data.astype(np.float64), DataType.FLOAT)
            if dtype is DataType.INT:
                return Column(self.data.astype(np.float64).astype(np.int64), DataType.INT)
            raise SchemaError(f"cannot cast string column to {dtype}")
        return Column(self.data, dtype)

    def concat(self, other: "Column") -> "Column":
        if other.dtype is not self.dtype:
            raise SchemaError(
                f"cannot concatenate {self.dtype.value} with {other.dtype.value}"
            )
        return concat_columns([self, other])

    def nbytes(self) -> int:
        return sum(int(array.nbytes)
                   for array in (self._data, self.codes, self.dictionary)
                   if array is not None)

    def shares_data_with(self, other: "Column | np.ndarray") -> bool:
        """True when both columns alias the same buffer (zero-copy view).

        ``slice`` and table-level ``select``/``rename``/``prefix`` keep
        sharing; ``take``/``mask``/``concat`` allocate. The late-
        materialization tests assert sharing through Filter pipelines.
        """
        theirs = [other] if isinstance(other, np.ndarray) else \
            [a for a in (other._data, other.codes) if a is not None]
        return any(np.shares_memory(mine, buffer)
                   for mine in (self._data, self.codes) if mine is not None
                   for buffer in theirs)


def encode_columns(columns: Sequence[Column]) -> List[Column]:
    """Coded twins of string columns, all sharing one dictionary.

    Each twin keeps its column's ``<U`` array as its decoded ``data``
    (shared, not copied). Encoding works in chunks of about
    :data:`ENCODE_CHUNK_BYTES`: the dictionary is the union of per-chunk
    uniques, then each chunk is coded by one ``searchsorted`` into it.
    Columns that already share one dictionary are returned unchanged, and
    so are the columns of a subclass (a spilled
    :class:`~repro.storage.mmap_column.MmapColumn` stays strings).
    """
    first = columns[0]
    if any(type(column) is not Column for column in columns) or all(
            column.codes is not None
            and same_dictionary(column.dictionary, first.dictionary)
            for column in columns):
        return list(columns)
    arrays = [column.data for column in columns]
    rows = max(1, ENCODE_CHUNK_BYTES
               // max(1, max(array.dtype.itemsize for array in arrays)))
    pieces = [array[:0] for array in arrays]
    for array in arrays:
        for start in range(0, len(array), rows):
            pieces.append(np.unique(array[start:start + rows]))
    dictionary = np.unique(np.concatenate(pieces))
    coded = []
    for array in arrays:
        codes = np.empty(len(array), dtype=_code_dtype(len(dictionary)))
        for start in range(0, len(array), rows):
            codes[start:start + rows] = np.searchsorted(
                dictionary, array[start:start + rows])
        coded.append(Column.from_codes(codes, dictionary, array))
    return coded


def concat_columns(columns: Sequence[Column]) -> Column:
    """Concatenate several same-typed columns into one."""
    if not columns:
        raise SchemaError("cannot concatenate an empty list of columns")
    first = columns[0]
    for col in columns[1:]:
        if col.dtype is not first.dtype:
            raise SchemaError("concat_columns requires homogeneous types")
    if len(columns) == 1:
        return first
    if all(col.codes is not None
           and same_dictionary(col.dictionary, first.dictionary)
           for col in columns):
        return Column.from_codes(np.concatenate([c.codes for c in columns]),
                                 first.dictionary)
    data = np.concatenate([c.data for c in columns])
    return Column(data, first.dtype)
