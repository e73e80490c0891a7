"""A translated tree is one ``TreeCase`` node.

MLtoSQL writes each tree as a :class:`TreeCase` — node arrays plus one
condition per split — whose ``expand()`` is the nested CASE WHEN the
tree used to be written as. Held here:

* on Hypothesis-generated trees, features (folded, unfolded and string
  splits) and rows (NaN, empty): the compiled ``TreeCase``, its
  interpreted ``expand()`` and the recursive builder in
  ``tree_reference`` agree bit for bit, and the compiled program is the
  one the expanded nest compiles to, instruction for instruction;
* the plan codec round-trips it, and a CASE nest written before it
  existed still decodes to the same program;
* a TreeCase whose conditions all fold is a constant;
* ``to_sql_server`` prints exactly the text it printed when trees were
  CASE nests (sha256 pinned from that code, with today's printer) for
  DT, RF and GBT.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from repro import RavenSession
from repro.core.rules.ml_to_sql import tree_to_expression
from repro.datasets import DATASET_GENERATORS
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.persist.plan_codec import expression_from_dict, expression_to_dict
from repro.relational.compile import compile_outputs
from repro.relational.expressions import (
    CaseWhen,
    Literal,
    TreeCase,
    col,
    fold_constants,
    lit,
    substitute_columns,
)
from repro.storage.column import Column
from repro.storage.table import Table

#: Split features: a scaled column (folds to a ``colcmp``), a product of
#: two columns (stays unfolded), an unscaled column, a one-hot indicator
#: over a coded string column (a ``strcmp``) and a binarized column.
FEATURES = [
    (col("x") - lit(0.5)) * lit(2.0),
    col("x") * col("y"),
    col("y"),
    CaseWhen([(col("c").eq(lit("b")), lit(1.0))], lit(0.0)),
    CaseWhen([(col("y").gt(lit(0.25)), lit(1.0))], lit(0.0)),
]
THRESHOLDS = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5)
FLOATS = st.one_of(st.sampled_from((math.nan, -0.0, 0.0, 0.25, 0.75, 1.0)),
                   st.floats(-3.0, 3.0))


def trees():
    leaves = st.tuples(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.0)),
                       st.just(1))
    return st.recursive(leaves, lambda children: st.tuples(
        st.integers(0, len(FEATURES) - 1), st.sampled_from(THRESHOLDS),
        children, children, st.just(2)), max_leaves=20)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 40))
    x = draw(st.lists(FLOATS, min_size=n, max_size=n))
    y = draw(st.lists(FLOATS, min_size=n, max_size=n))
    c = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return Table([("x", Column(np.asarray(x, dtype=np.float64))),
                  ("y", Column(np.asarray(y, dtype=np.float64))),
                  ("c", Column(np.asarray(c, dtype=np.str_)).encoded())])


def _bits(array: np.ndarray) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


class TestTreeCaseMatchesTheNest:
    @settings(max_examples=60, deadline=None)
    @given(trees(), tables(), st.sampled_from([0, 1]))
    def test_compiled_expanded_and_reference_agree(self, nested, table,
                                                   value_index):
        expr = tree_to_expression(ref.to_tree(nested), FEATURES, value_index)
        nest = ref.translate(nested, FEATURES, value_index)
        assert ref.nest(expr) == nest
        want = _bits(nest.evaluate(table))
        assert _bits(expr.evaluate(table)) == want
        program = compile_outputs([("s", expr)], table.schema)
        assert _bits(program.run(table)["s"]) == want
        assert program.pretty() == compile_outputs(
            [("s", nest)], table.schema).pretty()

    def test_a_tree_inside_a_case_is_one_route(self):
        tree = ref.to_tree((0, 0.5, ((0.0, 0.1), 1), ((0.0, 0.9), 1), 2))
        inner = tree_to_expression(tree, FEATURES, 1)
        outer = CaseWhen([(col("y").gt(lit(0.0)), inner)], lit(-1.0))
        nest = CaseWhen([(col("y").gt(lit(0.0)), inner.expand())], lit(-1.0))
        schema = Table.from_arrays(x=[0.0], y=[1.0]).schema
        program = compile_outputs([("s", outer)], schema)
        assert [i.kind for i in program.instructions].count("route") == 1
        assert program.pretty() == compile_outputs([("s", nest)],
                                                   schema).pretty()


class TestTreeCaseNode:
    def _tree(self):
        nested = (0, 0.5, (3, 0.5, ((0.0, 0.1), 1), ((0.0, 0.2), 1), 2),
                  (1, -0.5, ((0.0, 0.3), 1), ((0.0, 0.4), 1), 2), 4)
        return tree_to_expression(ref.to_tree(nested), FEATURES, 1)

    def test_children_are_the_distinct_split_operands(self):
        expr = self._tree()
        assert isinstance(expr, TreeCase)
        # The indicator is <= 0.5 exactly where c <> 'b'.
        assert expr.children() == (col("x"), col("c").ne(lit("b")),
                                   FEATURES[1])
        assert expr.referenced_columns() == {"x", "y", "c"}
        assert repr(expr) == repr(expr.expand())

    def test_equal_trees_compare_by_their_arrays(self):
        a, b = self._tree(), self._tree()
        assert a is not b and a == b and hash(a) == hash(b)
        other = TreeCase(a.operands, a.split_operand, a.split_op,
                         a.split_constant, a.then, a.otherwise,
                         a.values + 1.0)
        assert other != a

    def test_codec_round_trip(self):
        expr = self._tree()
        payload = json.loads(json.dumps(expression_to_dict(expr)))
        assert payload["t"] == "tree"
        back = expression_from_dict(payload)
        assert isinstance(back, TreeCase) and back == expr

    def test_a_written_case_nest_still_decodes_to_the_same_program(self):
        expr = self._tree()
        nest = expression_from_dict(expression_to_dict(expr.expand()))
        assert isinstance(nest, CaseWhen)
        schema = Table.from_arrays(x=[0.0], y=[1.0], c=["a"]).schema
        assert compile_outputs([("s", nest)], schema).pretty() == \
            compile_outputs([("s", expr)], schema).pretty()

    def test_all_conditions_folded_is_a_constant(self):
        expr = self._tree()
        # x = 0.25: the root's x <= 0.75 holds; c = 'b': the indicator
        # split (c <> 'b') sends it right.
        folded = fold_constants(substitute_columns(
            expr, {"x": lit(0.25), "c": lit("b"), "y": lit(1.0)}))
        assert folded == Literal(0.2)
        # Only the root folded: still one tree, its condition constant.
        partial = fold_constants(substitute_columns(expr, {"x": lit(0.25)}))
        assert isinstance(partial, TreeCase)
        assert partial.operands[0] == Literal(0.25)

    def test_a_tree_with_no_split_left_is_its_leaf(self):
        # The indicator's values are 0 and 1: both are <= 1.5.
        nested = (3, 1.5, ((0.0, 0.7), 1), ((0.0, 0.2), 1), 2)
        assert tree_to_expression(ref.to_tree(nested), FEATURES, 1) == \
            Literal(0.7)


#: sha256 of ``to_sql_server`` when each tree was written as a CASE nest,
#: re-taken when the printer began naming a qualified column as one
#: identifier (``[d.c]``): the rewrite printed is the same, the printer
#: is not.
SQL_SHA256 = {
    ("dt", None):
        "9c8ae124e48b497e82df463cc8e1595317f5bdde3942f1a4f61c9d315b35faa4",
    ("dt", "d.pulse > 72.500123"):
        "5bdce2b74f607cf3fa573f5adca9cba7dd0bc8de2bc8909fac0b3e5f476964cd",
    ("rf", None):
        "6a6e94e3b18b46069bee066b112d53f5b728d5922e6d37cae64389ed2d287b49",
    ("rf", "d.pulse > 72.500123"):
        "220e4010b86ee858dd8f82cb514fa246ac9578109adc17b0578019ea850adba9",
    ("gbt", None):
        "d4d2a1b5352928b42faace496b4eca1c2a7c178426576ce1e116f82624302ce5",
    ("gbt", "d.pulse > 72.500123"):
        "1d9690d51af35e91ea015b8642671424b979424a4c76e39d4482a62e36d528af",
}
SQL_MODELS = {
    "dt": lambda: DecisionTreeClassifier(max_depth=8, random_state=0),
    "rf": lambda: RandomForestClassifier(n_estimators=10, max_depth=12,
                                         random_state=0),
    "gbt": lambda: GradientBoostingClassifier(n_estimators=12, max_depth=3,
                                              random_state=0),
}


@pytest.mark.parametrize("model", sorted(SQL_MODELS))
def test_sql_text_is_unchanged(model):
    data = DATASET_GENERATORS["hospital"](1_500, seed=0)
    training = DATASET_GENERATORS["hospital"](400, seed=0)
    session = RavenSession(strategy="sql")
    data.register(session)
    session.register_model("m", training.train_pipeline(SQL_MODELS[model]()))
    for where in (None, "d.pulse > 72.500123"):
        text = session.to_sql_server(data.prediction_query("m", where=where))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            SQL_SHA256[model, where], where
