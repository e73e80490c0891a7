"""String columns as dictionary codes, held to the string path bit for bit.

A registered STRING column carries a sorted dictionary plus narrow integer
codes (:mod:`repro.storage.column`). The compiled expression engine
compares codes, operators move codes, and sorting, grouping and join keys
read codes; the interpreted engine (``compile_expressions=False``) and a
spilled table (whose columns are decoded ``<U`` arrays) are the string
paths every result here is compared with.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RavenSession, Table
from repro.datasets import DATASET_GENERATORS
from repro.datasets.synth import categorical_column
from repro.learn import DecisionTreeClassifier, RandomForestClassifier
from repro.relational.logical import Predict, PredictMode, walk
from repro.storage.column import Column, concat_columns, encode_columns
from repro.storage.statistics import ColumnStats

#: Sorts as "" < "Z" < "a" < "b" < "é" < "中": upper case, ASCII, Latin-1
#: and CJK code points, so codes must order like code points.
ALPHABET = "Zabé中"
TEXT = st.text(alphabet=ALPHABET, max_size=3)
VALUES = st.lists(TEXT, min_size=1, max_size=40)
OPERATORS = ["=", "<>", "<", "<=", ">", ">="]
PYTHON_OPS = {
    "=": lambda a, b: a == b, "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}
FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _literals(values):
    """Literals present in the column, absent from it, below its minimum
    and above its maximum."""
    return st.one_of(st.sampled_from(values), TEXT,
                     st.just(""), st.just("\U0010ffff"),
                     st.just(min(values) + "\x01"), st.just("Y"))


@st.composite
def predicates(draw, values):
    """(SQL text over column ``{c}``, the same test on one Python str)."""
    literals = _literals(values)
    shape = draw(st.sampled_from(["col_op", "op_col", "in", "between"]))
    if shape == "col_op":
        op, lit = draw(st.sampled_from(OPERATORS)), draw(literals)
        return f"{{c}} {op} '{lit}'", lambda s: PYTHON_OPS[op](s, lit)
    if shape == "op_col":
        op, lit = draw(st.sampled_from(OPERATORS)), draw(literals)
        return (f"'{lit}' {op} {{c}}",
                lambda s: PYTHON_OPS[FLIPPED[op]](s, lit))
    if shape == "in":
        members = draw(st.lists(literals, min_size=1, max_size=3))
        text = ", ".join(f"'{m}'" for m in members)
        return f"{{c}} IN ({text})", lambda s: s in members
    low, high = draw(literals), draw(literals)
    return (f"{{c}} BETWEEN '{low}' AND '{high}'",
            lambda s: low <= s <= high)


def _table(values):
    n = len(values)
    return Table.from_arrays(id=np.arange(n),
                             s=np.asarray(values, dtype=np.str_),
                             x=np.linspace(-1.0, 1.0, n),
                             k=np.arange(n) % 3)


def _dimension():
    return Table.from_arrays(k=np.arange(3),
                             ds=np.asarray(["b", "中", ""], dtype=np.str_))


def assert_same_tables(got: Table, want: Table, context=""):
    assert got.column_names == want.column_names, context
    for name in want.column_names:
        a, b = got.array(name), want.array(name)
        assert a.dtype == b.dtype, (context, name, a.dtype, b.dtype)
        assert np.array_equal(a, b), (context, name, a, b)


# ---------------------------------------------------------------------------
# Sources: each registers the drawn table and returns (from clause, column)
# ---------------------------------------------------------------------------

def _registered(session, table, tmp_path):
    session.register_table("t", table)
    return "t AS t", "t.s", None


def _filtered_view(session, table, tmp_path):
    session.register_table("t", table)
    return "t AS t", "t.s", "t.x > 0.0"


def _multijoin_output(session, table, tmp_path):
    session.register_table("t", table)
    session.register_table("d", _dimension())
    return "t AS t JOIN d AS d ON t.k = d.k", "d.ds", None


def _partitioned(session, table, tmp_path):
    session.register_table("t", table, partition_column="s")
    return "t AS t", "t.s", None


def _spilled(session, table, tmp_path):
    session.register_table("t", table)
    session.spill_table("t", tmp_path / f"spill-{id(session)}")
    return "t AS t", "t.s", None


def _uncoded_case(session, table, tmp_path):
    session.register_table("t", table)
    inner = ("SELECT t.id AS id, CASE WHEN t.x > 0.0 THEN t.s "
             "ELSE 'b' END AS u FROM t AS t")
    return f"({inner}) AS t", "t.u", None


SOURCES = {
    "registered": (_registered, 1),
    "filtered_view": (_filtered_view, 1),
    "multijoin": (_multijoin_output, 1),
    "partitioned_dop1": (_partitioned, 1),
    "partitioned_dop4": (_partitioned, 4),
    "spilled": (_spilled, 1),
    "uncoded_case": (_uncoded_case, 1),
}


def _queries(source, column, where, predicate):
    condition = predicate.format(c=column)
    extra = f" AND {where}" if where else ""
    base = f" WHERE {where}" if where else ""
    return [
        f"SELECT t.id FROM {source} WHERE {condition}{extra}",
        f"SELECT t.id, CASE WHEN {condition} THEN 1 ELSE 0 END AS hit "
        f"FROM {source}{base}",
    ]


class TestCompiledEqualsInterpreted:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_string_predicates(self, source, data, tmp_path_factory):
        values = data.draw(VALUES)
        sql, python_test = data.draw(predicates(values))
        register, dop = SOURCES[source]
        tmp_path = tmp_path_factory.mktemp(source)
        table = _table(values)
        results = []
        for compile_expressions in (True, False):
            session = RavenSession(compile_expressions=compile_expressions,
                                   dop=dop)
            from_clause, column, where = register(session, table, tmp_path)
            results.append([session.sql(q) for q in
                            _queries(from_clause, column, where, sql)])
        for query, got, want in zip(_queries(from_clause, column, where, sql),
                                    *results):
            assert_same_tables(got, want, query)
        if source == "registered":
            expected = [i for i, s in enumerate(values) if python_test(s)]
            assert results[0][0].array("id").tolist() == expected

    def test_single_distinct_value_and_empty_string(self):
        for values in (["r_0"] * 5, [""] * 3, ["", "a", ""]):
            table = _table(values)
            for literal in ("", "r_0", "a", "zz"):
                for op in OPERATORS:
                    query = f"SELECT t.id FROM t AS t WHERE t.s {op} '{literal}'"
                    got, want = [], []
                    for out, compile_expressions in ((got, True),
                                                     (want, False)):
                        session = RavenSession(
                            compile_expressions=compile_expressions)
                        session.register_table("t", table)
                        out.append(session.sql(query))
                    assert_same_tables(got[0], want[0], query)


# ---------------------------------------------------------------------------
# Sort, group-by and join keys read codes
# ---------------------------------------------------------------------------

KEY_QUERIES = [
    "SELECT t.s, t.id FROM t AS t ORDER BY s, id",
    "SELECT t.s, t.id FROM t AS t ORDER BY s DESC, id",
    "SELECT t.s, COUNT(*) AS n, SUM(t.x) AS total FROM t AS t GROUP BY t.s",
    "SELECT t.s, t.k, COUNT(*) AS n FROM t AS t GROUP BY t.s, t.k "
    "ORDER BY s, k",
    # Join keys with two dictionaries (t.s and d.s are registered apart)
    # and with one (a self-join).
    "SELECT t.id, d.v FROM t AS t JOIN d AS d ON t.s = d.s",
    "SELECT a.id, b.id AS other FROM t AS a JOIN t AS b ON a.s = b.s "
    "WHERE a.x > 0.0",
    "SELECT t.id, d.v FROM t AS t JOIN d AS d ON t.s = d.s AND t.k = d.k",
]


class TestKeysReadCodes:
    """Coded keys against the string path: the same data spilled (its
    columns decoded to ``<U`` arrays), row order included."""

    def _session(self, values, spill, tmp_path):
        rng = np.random.default_rng(len(values))
        session = RavenSession()
        session.register_table("t", _table(values))
        dimension_keys = sorted(set(values) | {"q", ""})
        session.register_table("d", Table.from_arrays(
            s=np.asarray(dimension_keys, dtype=np.str_),
            k=np.arange(len(dimension_keys)) % 3,
            v=rng.normal(0, 1, len(dimension_keys))))
        for name in spill:
            session.spill_table(name, tmp_path / f"{name}-{len(values)}")
        return session

    @settings(max_examples=20, deadline=None)
    @given(values=VALUES)
    def test_sort_group_join_match_string_path(self, values,
                                               tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("keys")
        coded = self._session(values, (), tmp_path)
        strings = self._session(values, ("t", "d"), tmp_path)
        mixed = self._session(values, ("d",), tmp_path)
        for query in KEY_QUERIES:
            want = strings.sql(query)
            assert_same_tables(coded.sql(query), want, query)
            assert_same_tables(mixed.sql(query), want, query)

    def test_group_key_output_stays_coded(self):
        session = RavenSession()
        session.register_table("t", _table(["b", "a", "b", "中"]))
        result = session.sql(
            "SELECT t.s, COUNT(*) AS n FROM t AS t GROUP BY t.s")
        column = result.column("s")
        assert column.codes is not None
        assert column.data.tolist() == ["a", "b", "中"]
        assert result.array("n").tolist() == [1, 2, 1]


# ---------------------------------------------------------------------------
# Storage: statistics and column operations on codes
# ---------------------------------------------------------------------------

class TestStorageOnCodes:
    @settings(max_examples=60, deadline=None)
    @given(values=VALUES, data=st.data())
    def test_stats_equal_string_unique(self, values, data):
        raw = Column.strings(values)
        coded = raw.encoded()
        assert coded.codes is not None
        assert ColumnStats.collect("s", coded) == \
            ColumnStats.collect("s", raw)
        # A subset keeps the whole dictionary: stats count only codes
        # present.
        rows = np.asarray(data.draw(st.lists(
            st.integers(0, len(values) - 1), max_size=10)), dtype=np.int64)
        assert ColumnStats.collect("s", coded.take(rows)) == \
            ColumnStats.collect("s", raw.take(rows))

    def test_stats_over_the_category_limit(self):
        values = [f"v{i:04d}" for i in range(300)] * 2
        raw = Column.strings(values)
        stats = ColumnStats.collect("s", raw.encoded())
        assert stats == ColumnStats.collect("s", raw)
        assert stats.categories is None and stats.distinct_count == 300

    @settings(max_examples=60, deadline=None)
    @given(values=VALUES, other=VALUES, data=st.data())
    def test_operations_return_the_same_values(self, values, other, data):
        raw, raw_other = Column.strings(values), Column.strings(other)
        coded = raw.encoded()
        n = len(values)
        rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1),
                                             max_size=12)), dtype=np.int64)
        keep = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)), dtype=np.bool_)
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        pairs = [(coded.take(rows), raw.take(rows)),
                 (coded.mask(keep), raw.mask(keep)),
                 (coded.slice(start, stop), raw.slice(start, stop))]
        shared = encode_columns([raw, raw_other])
        pairs += [
            # One dictionary: codes concatenate; two: strings do.
            (shared[0].concat(shared[1]), raw.concat(raw_other)),
            (coded.concat(raw_other.encoded()), raw.concat(raw_other)),
            (concat_columns(shared + [coded]),
             concat_columns([raw, raw_other, raw])),
            (coded.concat(raw_other), raw.concat(raw_other)),
        ]
        for got, want in pairs:
            assert len(got) == len(want)
            assert got.data.dtype == want.data.dtype or len(want) == 0
            assert got.data.tolist() == want.data.tolist()
            assert got == want
        assert shared[0].concat(shared[1]).codes is not None

    def test_registration_shares_the_callers_array(self):
        table = _table(["x", "y", "x"])
        before = table.column("s")
        session = RavenSession()
        session.register_table("t", table)
        registered = session.catalog.table("t").data.partitions[0].table
        column = registered.column("s")
        assert table.column("s") is before and before.codes is None
        assert column.codes is not None and column.codes.dtype == np.int8
        assert column.data is before.data        # shared, not copied

    def test_partitions_share_one_dictionary(self):
        session = RavenSession()
        session.register_table("t", _table(["b", "a", "c", "a", "b"]),
                               partition_column="k")
        parts = session.catalog.table("t").data.partitions
        dictionaries = {id(p.table.column("s").dictionary) for p in parts}
        assert len(parts) == 3 and len(dictionaries) == 1


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------

def _spy_decodes(monkeypatch):
    decoded = []
    original = Column._decode

    def spy(self):
        decoded.append(len(self.codes))
        return original(self)

    monkeypatch.setattr(Column, "_decode", spy)
    return decoded


def _benchmark_shaped(dataset_name, rows, **kwargs):
    generate = DATASET_GENERATORS[dataset_name]
    dataset = generate(rows, seed=0, **kwargs)
    pipeline = generate(600, seed=0, **kwargs).train_pipeline(
        DecisionTreeClassifier(max_depth=6, random_state=0))
    session = RavenSession(strategy="sql")
    dataset.register(session)
    session.register_model("m", pipeline)
    return session, dataset.prediction_query("m")


def _ml_runtime_shaped(shape, rows):
    """A forest kept in the ML runtime (strategy ``none``) over hospital
    (a scan) or expedia (a star join), in one plan shape."""
    name, kwargs = (("expedia", {"cardinality_scale": 0.08})
                    if shape == "join_fed" else ("hospital", {}))
    generate = DATASET_GENERATORS[name]
    if shape == "dop2":
        rows = 20_000        # a scan fans out over 8192-row morsels
    dataset = generate(rows, seed=0, **kwargs)
    pipeline = generate(600, seed=0, **kwargs).train_pipeline(
        RandomForestClassifier(n_estimators=3, max_depth=6, random_state=0))
    session = RavenSession(strategy="none", dop=2 if shape in (
        "dop2", "per_partition_graphs") else 1)
    dataset.register(session, partition_column=(
        "gender" if shape == "per_partition_graphs" else None))
    session.register_model("m", pipeline)
    # Filtered rows reach the predict as gathered codes (no <U array).
    where = "d.gender = 'F'" if shape in ("filtered", "dop2") else None
    return session, dataset.prediction_query("m", where=where)


class TestStringCodePins:
    @pytest.mark.parametrize("dataset_name, kwargs", [
        ("hospital", {}), ("expedia", {"cardinality_scale": 0.08})])
    def test_tree_plans_decode_no_string_column(self, monkeypatch,
                                                dataset_name, kwargs):
        # scan_tree (hospital) and join_tree (expedia) shaped: MLtoSQL'd
        # tree over a scan / a star join; warm, then spy on the decode.
        session, query = _benchmark_shaped(dataset_name, 2_000, **kwargs)
        plan, _ = session.optimize(query)
        assert not [n for n in walk(plan) if isinstance(n, Predict)]
        for _ in range(3):
            session.sql(query)
        decoded = _spy_decodes(monkeypatch)
        result = session.sql(query)
        assert result.num_rows == 2_000
        assert decoded == []

    @pytest.mark.parametrize("shape", ["filtered", "join_fed", "dop2",
                                       "per_partition_graphs"])
    def test_ml_runtime_predicts_decode_no_input(self, monkeypatch, shape):
        # The ML runtime reads a coded column's codes and dictionary.
        session, query = _ml_runtime_shaped(shape, 2_000)
        plan, _ = session.optimize(query)
        (predict,) = [n for n in walk(plan) if isinstance(n, Predict)]
        assert predict.mode is PredictMode.ML_RUNTIME
        assert bool(predict.per_partition_graphs) == (
            shape == "per_partition_graphs")
        want = session.sql(query)
        decoded = _spy_decodes(monkeypatch)
        got = session.sql(query)
        assert decoded == []
        assert_same_tables(got, want, shape)

    def test_forest_scores_coded_equal_spilled(self, tmp_path):
        # The same forest over the registered (coded) tables and over
        # their spilled copies (plain <U strings): bit-identical scores.
        results = []
        for spill in (False, True):
            session, query = _ml_runtime_shaped("scan", 3_000)
            if spill:
                for name in session.catalog.table_names:
                    session.spill_table(name, tmp_path / name)
            results.append(session.sql(query))
        assert_same_tables(results[0], results[1])

    def test_len_never_decodes(self, monkeypatch):
        column = Column.strings(["a", "b", "c"] * 10).encoded()
        derived = column.take(np.arange(0, 30, 2))
        decoded = _spy_decodes(monkeypatch)
        assert len(derived) == 15
        assert Table({"s": derived, "n": np.arange(15)}).num_rows == 15
        assert len(column.mask(np.arange(30) < 7).slice(1, 5)) == 4
        assert "(n=15)" in repr(derived)
        assert decoded == []
        assert derived.data.tolist() == ["a", "c", "b"] * 5
        assert decoded == [15]

    def test_encoding_memory_stays_bounded(self):
        rng = np.random.default_rng(0)
        values = categorical_column(rng, 200_000, 100, "r")
        assert values.dtype == np.dtype("<U23")
        column = Column(values)
        tracemalloc.start()
        try:
            coded = column.encoded()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert coded.codes.dtype == np.int8
        assert peak < values.nbytes / 4, (peak, values.nbytes)


# ---------------------------------------------------------------------------
# Boundaries: spill, SQL text
# ---------------------------------------------------------------------------

class TestBoundaries:
    def test_spilled_coded_table_reads_back_bit_for_bit(self, tmp_path):
        table = _table(["r_1", "r_0", "中", "", "r_1"] * 40)
        session = RavenSession()
        session.register_table("t", table, partition_column="k")
        query = "SELECT t.id, t.s FROM t AS t WHERE t.s >= 'r_0'"
        before = session.sql(query)
        assert session.spill_table("t", tmp_path / "spill") > 0
        entry = session.catalog.table("t")
        for part in entry.data.partitions:
            column = part.table.column("s")
            assert column.codes is None          # spilled columns decode
            assert isinstance(column.data.base, np.memmap)
        restored = entry.data.to_table()
        order = np.argsort(restored.array("id"), kind="stable")
        for name in table.column_names:
            got = restored.array(name)[order]
            want = table.array(name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert_same_tables(session.sql(query), before)

    def test_sql_text_carries_the_original_strings(self):
        session, query = _benchmark_shaped("hospital", 500)
        text = session.to_sql_server(query + " WHERE d.gender = 'F'")
        assert "'F'" in text
        assert "'r_0'" in text         # one-hot split on rcount, as a string
