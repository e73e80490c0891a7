"""The ML runtime's featurizers against an independent formula.

``OneHotEncoder`` and ``LabelEncoder`` are one lookup-table gather over a
raw column and over dictionary codes alike (``repro.onnxlite.ops``). The
benchmark's oracle (``RavenSession(enable_optimizations=False)``) runs
these same kernels, so it cannot catch a featurizer bug: the reference
here is the broadcast-compare formula the kernels replaced, written out
in this file. Every comparison is bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.onnxlite import ops
from repro.onnxlite.graph import FLOAT, STRING, Graph, Node, TensorInfo
from repro.onnxlite.runtime import InferenceSession

# ---------------------------------------------------------------------------
# The reference: the string-compare formulas, copied from the old kernels
# ---------------------------------------------------------------------------


def reference_one_hot(column: np.ndarray, categories) -> np.ndarray:
    categories = np.asarray(categories)
    if categories.dtype.kind == "U" or column.dtype.kind == "U":
        column = column.astype(np.str_, copy=False)
        categories = categories.astype(np.str_, copy=False)
    return (column[:, None] == categories[None, :]).astype(np.float64)


def reference_label_encoder(column: np.ndarray, keys, values,
                            default: float) -> np.ndarray:
    keys = np.asarray(keys)
    values = np.asarray(values, dtype=np.float64)
    if keys.dtype.kind == "U":
        column = column.astype(np.str_)
    order = np.argsort(keys, kind="stable")
    sorted_keys, sorted_values = keys[order], values[order]
    positions = np.searchsorted(sorted_keys, column)
    positions = np.clip(positions, 0, len(sorted_keys) - 1)
    matched = sorted_keys[positions] == column
    return np.where(matched, sorted_values[positions], default).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Generated dictionaries, codes and categories
# ---------------------------------------------------------------------------

TEXT = st.text(alphabet="Zab1.é中", max_size=3)
NUMBERS = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e20, np.nan])


@st.composite
def coded_columns(draw):
    """(codes, sorted distinct dictionary): the registration layout, with
    numbers rendered as strings in the pool ("1.0", "nan")."""
    pool = TEXT | NUMBERS.map(str)
    dictionary = np.unique(np.asarray(
        draw(st.lists(pool, min_size=1, max_size=8)), dtype=np.str_))
    rows = draw(st.sampled_from([0, 1, 2, 17]))
    codes = np.asarray(draw(st.lists(
        st.integers(0, len(dictionary) - 1), min_size=rows, max_size=rows)),
        dtype=np.int8)
    return codes, dictionary


def string_categories(dictionary):
    """Some of the dictionary's values, values it lacks, duplicates."""
    return st.lists(st.sampled_from(list(dictionary)) | TEXT,
                    max_size=6).map(lambda v: np.asarray(v, dtype=np.str_))


NUMERIC_CATEGORIES = st.lists(NUMBERS, min_size=1, max_size=5).map(np.asarray)


def _graph(op_type: str, attrs, dtype=STRING, extra_outputs=()) -> Graph:
    return Graph("featurizer", [TensorInfo("s", dtype)],
                 ["out", *extra_outputs],
                 [Node(op_type, ["s"], ["out"], attrs)])


def _run_coded(graph: Graph, codes, dictionary, outputs=None):
    return InferenceSession(graph).run({"s": codes}, outputs,
                                       dictionaries={"s": dictionary})


def _assert_identical(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# OneHotEncoder
# ---------------------------------------------------------------------------

class TestOneHot:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_coded_string_categories(self, data):
        codes, dictionary = data.draw(coded_columns())
        categories = data.draw(string_categories(dictionary))
        graph = _graph("OneHotEncoder", {"categories": categories})
        want = reference_one_hot(dictionary[codes], categories)
        _assert_identical(_run_coded(graph, codes, dictionary)["out"], want)
        _assert_identical(
            InferenceSession(graph).run({"s": dictionary[codes]})["out"], want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_numeric_categories_with_string_input(self, data):
        # The str-cast rule: 1.0 matches "1.0", NaN matches "nan".
        codes, dictionary = data.draw(coded_columns())
        categories = data.draw(NUMERIC_CATEGORIES)
        graph = _graph("OneHotEncoder", {"categories": categories})
        want = reference_one_hot(dictionary[codes], categories)
        _assert_identical(_run_coded(graph, codes, dictionary)["out"], want)
        _assert_identical(
            InferenceSession(graph).run({"s": dictionary[codes]})["out"], want)

    @settings(max_examples=60, deadline=None)
    @given(categories=NUMERIC_CATEGORIES | st.lists(TEXT, max_size=4).map(
        lambda v: np.asarray(v, dtype=np.str_)),
        column=st.lists(NUMBERS, max_size=12))
    def test_raw_numeric_input(self, categories, column):
        # NaN never equals a category (not even a NaN one), unless both
        # sides are cast to str.
        column = np.asarray(column, dtype=np.float64)
        graph = _graph("OneHotEncoder", {"categories": categories}, FLOAT)
        _assert_identical(InferenceSession(graph).run({"s": column})["out"],
                          reference_one_hot(column, categories))

    def test_edge_cases_by_hand(self):
        dictionary = np.asarray(["F", "M", "nan"])
        codes = np.asarray([1, 0, 2, 0], dtype=np.int8)
        cases = [np.asarray(["M", "F", "M"]),        # duplicate category
                 np.asarray(["X"]),                  # absent from dictionary
                 np.asarray([np.nan, 1.0]),          # NaN -> "nan"
                 np.asarray([], dtype=np.str_)]      # no categories
        for categories in cases:
            graph = _graph("OneHotEncoder", {"categories": categories})
            for n in (0, 1, 4):
                want = reference_one_hot(dictionary[codes[:n]], categories)
                got = _run_coded(graph, codes[:n], dictionary)["out"]
                _assert_identical(got, want)

    def test_coded_input_reaches_the_kernel_as_codes(self, monkeypatch):
        seen = []
        kernel = ops.kernel_for("OneHotEncoder")

        def spy(node, inputs, ctx):
            seen.append(type(inputs[0]))
            return kernel(node, inputs, ctx)

        monkeypatch.setitem(ops._KERNELS, "OneHotEncoder", spy)
        graph = _graph("OneHotEncoder", {"categories": np.asarray(["a"])})
        _run_coded(graph, np.asarray([0, 1], dtype=np.int8),
                   np.asarray(["a", "b"]))
        InferenceSession(graph).run({"s": np.asarray(["a", "b"])})
        assert seen == [ops.Coded, np.ndarray]


# ---------------------------------------------------------------------------
# LabelEncoder
# ---------------------------------------------------------------------------

class TestLabelEncoder:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_coded_string_keys(self, data):
        codes, dictionary = data.draw(coded_columns())
        keys = data.draw(string_categories(dictionary).filter(len))
        values = np.arange(len(keys), dtype=np.float64) * 1.5 - 2.0
        attrs = {"keys": keys, "values": values, "default": -7.25}
        graph = _graph("LabelEncoder", attrs)
        want = reference_label_encoder(dictionary[codes], keys, values, -7.25)
        _assert_identical(_run_coded(graph, codes, dictionary)["out"], want)
        _assert_identical(
            InferenceSession(graph).run({"s": dictionary[codes]})["out"], want)

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(NUMBERS, min_size=1, max_size=5),
           column=st.lists(NUMBERS, max_size=12))
    def test_raw_numeric_keys(self, keys, column):
        # Duplicate keys take the first occurrence's value; NaN never
        # matches.
        keys = np.asarray(keys)
        values = np.arange(len(keys), dtype=np.float64) + 0.5
        column = np.asarray(column, dtype=np.float64)
        graph = _graph("LabelEncoder",
                       {"keys": keys, "values": values}, FLOAT)
        _assert_identical(
            InferenceSession(graph).run({"s": column})["out"],
            reference_label_encoder(column, keys, values, -1.0))

    def test_batches_do_not_sort_keys(self, monkeypatch):
        # The key sort happens once, when the session is built.
        graph = _graph("LabelEncoder", {"keys": np.asarray(["b", "a", "b"]),
                                        "values": np.asarray([1., 2., 3.])})
        session = InferenceSession(graph)
        calls = []
        for name in ("argsort", "unique", "sort"):
            monkeypatch.setattr(np, name, _counting(getattr(np, name), calls))
        out = session.run({"s": np.asarray(["a", "b", "c"])})["out"]
        assert calls == []
        assert out[:, 0].tolist() == [2.0, 1.0, -1.0]


def _counting(function, calls):
    def wrapper(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------------
# A coded input that something other than a featurizer reads is decoded
# ---------------------------------------------------------------------------

class TestPassThrough:
    @pytest.mark.parametrize("shape", ["identity", "graph_output"])
    def test_passed_through_input_comes_back_as_strings(self, shape):
        dictionary = np.asarray(["", "b", "中"])
        codes = np.asarray([2, 0, 1, 2], dtype=np.int8)
        categories = np.asarray(["b", "中"])
        if shape == "identity":
            graph = _graph("OneHotEncoder", {"categories": categories},
                           extra_outputs=["copy"])
            graph.add_node(Node("Identity", ["s"], ["copy"]))
            passed = "copy"
        else:
            graph = _graph("OneHotEncoder", {"categories": categories},
                           extra_outputs=["s"])
            passed = "s"
        out = _run_coded(graph, codes, dictionary)
        assert out[passed].dtype.kind == "U"
        assert out[passed][:, 0].tolist() == ["中", "", "b", "中"]
        _assert_identical(out["out"],
                          reference_one_hot(dictionary[codes], categories))
