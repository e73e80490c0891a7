"""Tests for MLtoSQL, MLtoDNN, and the data-induced optimization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref

from repro import RavenSession
from repro.core.rules import (
    MLtoDNN,
    MLtoSQL,
    graph_to_expressions,
    sql_compilable_operators,
    tree_to_expression,
)
from repro.errors import UnsupportedOperatorError
from repro.learn import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
    make_standard_pipeline,
)
from repro.onnxlite import convert_model, convert_pipeline, run_graph
from repro.persist.plan_codec import plan_from_dict, plan_to_dict
from repro.relational import PredictMode, find_predict_nodes
from repro.relational.compile import compile_outputs
from repro.relational.expressions import CaseWhen, col, lit
from repro.relational.logical import Project, Scan
from repro.relational.sqlgen import expression_to_sql
from repro.storage import Table


@pytest.fixture(scope="module")
def training_frame():
    rng = np.random.default_rng(13)
    n = 2_000
    table = Table.from_arrays(
        a=rng.normal(size=n), b=rng.normal(size=n),
        c=rng.choice(["u", "v", "w"], n))
    y = ((table.array("a") > 0) | (table.array("c") == "u")).astype(int)
    return table, y


def _graph_and_inputs(training_frame, model):
    table, y = training_frame
    pipeline = make_standard_pipeline(model, ["a", "b"], ["c"])
    pipeline.fit(table, y)
    graph = convert_pipeline(pipeline)
    return graph, {k: table.array(k) for k in ("a", "b", "c")}, table


class TestGraphToExpressions:
    @pytest.mark.parametrize("model_factory", [
        lambda: LogisticRegression(penalty="l2"),
        lambda: DecisionTreeClassifier(max_depth=5, random_state=0),
        lambda: RandomForestClassifier(n_estimators=5, max_depth=3,
                                       random_state=0),
        lambda: GradientBoostingClassifier(n_estimators=8, max_depth=3,
                                           random_state=0),
    ])
    def test_score_and_label_match_runtime(self, training_frame, model_factory):
        graph, inputs, table = _graph_and_inputs(training_frame,
                                                 model_factory())
        reference = run_graph(graph, inputs)
        expressions = graph_to_expressions(graph, {n: n for n in inputs})
        score = expressions["score"].evaluate(table)
        labels = expressions["label"].evaluate(table)
        assert np.allclose(score, reference["score"][:, 0], atol=1e-9)
        if reference["label"].dtype.kind in "fiu":
            assert np.allclose(labels.astype(np.float64),
                               reference["label"].astype(np.float64))
        else:
            assert np.array_equal(labels.astype(np.str_),
                                  reference["label"].astype(np.str_))

    def test_zero_coefficients_skipped(self, training_frame):
        graph, inputs, table = _graph_and_inputs(
            training_frame, LogisticRegression(penalty="l1", C=0.02,
                                               max_iter=600))
        expressions = graph_to_expressions(graph, {n: n for n in inputs})
        sql = expression_to_sql(expressions["score"])
        # Heavily regularized model: far fewer terms than features.
        assert sql.count("*") <= 6

    def test_multiclass_unsupported(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        y = rng.integers(0, 3, 200)
        model = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        graph = convert_model(model, 2)
        with pytest.raises(UnsupportedOperatorError):
            graph_to_expressions(graph, {"features": "features"})

    def test_wide_input_unsupported(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        model = LogisticRegression().fit(X, (X[:, 0] > 0).astype(int))
        graph = convert_model(model, 3)  # single 3-wide input tensor
        with pytest.raises(UnsupportedOperatorError):
            graph_to_expressions(graph, {"features": "features"})

    def test_tree_to_expression_shape(self):
        tree = ref.to_tree((0, 1.0, ((0.0, 1.0), 1), ((1.0, 0.0), 1), 2))
        expr = tree_to_expression(tree, [col("f0")], value_index=1)
        assert isinstance(expr, CaseWhen)
        sql = expression_to_sql(expr)
        assert sql == "CASE WHEN ([f0] <= 1.0) THEN 1.0 ELSE 0.0 END"

    def test_compilable_operator_list(self):
        ops = sql_compilable_operators()
        assert "TreeEnsembleClassifier" in ops
        assert "OneHotEncoder" in ops


class TestMLtoSQLRule:
    def test_replaces_predict_with_project(self, session, covid_query):
        sql_session = RavenSession(strategy="sql", enable_cross=False,
                                   enable_data_induced=False)
        sql_session.catalog = session.catalog
        plan, report = sql_session.optimize(covid_query)
        assert not find_predict_nodes(plan)
        assert "ml_to_sql" in report.rules_applied

    def test_results_match_ml_runtime(self, session, noopt_session,
                                      covid_query):
        sql_session = RavenSession(strategy="sql")
        sql_session.catalog = session.catalog
        reference = noopt_session.sql(covid_query)
        converted = sql_session.sql(covid_query)
        assert converted.num_rows == reference.num_rows
        assert np.allclose(np.sort(converted.array("score")),
                           np.sort(reference.array("score")), atol=1e-9)

    def test_to_sql_server_text(self, session, covid_query):
        sql_session = RavenSession(strategy="sql")
        sql_session.catalog = session.catalog
        text = sql_session.to_sql_server(covid_query)
        assert "CASE WHEN" in text
        assert "PREDICT" not in text  # fully compiled away


class TestMLtoDNNRule:
    def test_annotates_mode(self, session, covid_query):
        dnn_session = RavenSession(strategy="dnn", gpu_available=True)
        dnn_session.catalog = session.catalog
        plan, report = dnn_session.optimize(covid_query)
        predict = find_predict_nodes(plan)[0]
        assert predict.mode is PredictMode.DNN_GPU
        assert "ml_to_dnn" in report.rules_applied

    def test_cpu_mode_without_gpu(self, session, covid_query):
        dnn_session = RavenSession(strategy="dnn", gpu_available=False)
        dnn_session.catalog = session.catalog
        plan, _ = dnn_session.optimize(covid_query)
        assert find_predict_nodes(plan)[0].mode is PredictMode.DNN_CPU

    def test_execution_matches_ml_runtime(self, session, noopt_session,
                                          covid_query):
        dnn_session = RavenSession(strategy="dnn", gpu_available=True)
        dnn_session.catalog = session.catalog
        reference = noopt_session.sql(covid_query)
        result = dnn_session.sql(covid_query)
        assert result.num_rows == reference.num_rows
        assert dnn_session.last_run.gpu_adjustment_seconds != 0.0


class TestDataInduced:
    @pytest.fixture()
    def hospital_session(self):
        from repro.datasets import hospital
        dataset = hospital.generate(12_000, seed=1)
        pipeline = dataset.train_pipeline(
            DecisionTreeClassifier(max_depth=10, random_state=0),
            train_rows=3_000)
        session = RavenSession(strategy="none")
        dataset.register(session, partition_column="rcount")
        session.register_model("los", pipeline)
        return session, dataset, pipeline

    def test_partition_graphs_installed(self, hospital_session):
        session, dataset, pipeline = hospital_session
        query = dataset.prediction_query("los")
        plan, report = session.optimize(query)
        predict = find_predict_nodes(plan)[0]
        assert predict.per_partition_graphs is not None
        assert len(predict.per_partition_graphs) == 6  # rcount has 6 values
        info = report.rule_info["data_induced_optimization"]
        assert info["partitions"] == 6
        assert info["avg_pruned_columns"] >= 0

    def test_partitioned_execution_matches_unpartitioned(self,
                                                         hospital_session):
        session, dataset, pipeline = hospital_session
        query = dataset.prediction_query("los")
        optimized = session.sql(query)

        flat = RavenSession(enable_optimizations=False)
        dataset.register(flat)
        flat.register_model("los", pipeline)
        reference = flat.sql(query)
        assert optimized.num_rows == reference.num_rows
        assert np.allclose(np.sort(optimized.array("score")),
                           np.sort(reference.array("score")), atol=1e-9)

    def test_partition_models_are_smaller(self, hospital_session):
        session, dataset, pipeline = hospital_session
        query = dataset.prediction_query("los")
        plan, _ = session.optimize(query)
        predict = find_predict_nodes(plan)[0]
        original_nodes = sum(
            len(t)
            for n in session.catalog.model("los").graph.nodes
            if n.op_type.startswith("TreeEnsemble") for t in n.attrs["trees"])
        for graph in predict.per_partition_graphs:
            partition_nodes = sum(
                len(t) for n in graph.nodes
                if n.op_type.startswith("TreeEnsemble")
                for t in n.attrs["trees"])
            assert partition_nodes <= original_nodes

    def test_global_stats_prune_out_of_range_splits(self):
        # Model split thresholds outside the data's min/max get pruned.
        rng = np.random.default_rng(0)
        n = 2_000
        table = Table.from_arrays(x=rng.uniform(0, 1, n),
                                  z=rng.uniform(0, 1, n))
        y = ((table.array("x") > 0.5) | (table.array("z") > 0.9)).astype(int)
        pipeline = make_standard_pipeline(
            DecisionTreeClassifier(max_depth=4, random_state=0), ["x", "z"], [])
        pipeline.fit(table, y)

        session = RavenSession(strategy="none")
        # Register data restricted to x > 0.6: the x<=~0.5 branch is dead.
        mask = table.array("x") > 0.6
        session.register_table("t", table.mask(mask), primary_key=None)
        session.register_model("m", pipeline)
        query = ("SELECT p.score FROM PREDICT(MODEL = m, DATA = t AS d) "
                 "WITH (score FLOAT) AS p")
        plan, report = session.optimize(query)
        info = report.rule_info.get("data_induced_optimization", {})
        assert info.get("induced_tree_nodes_after", 99) < \
            info.get("induced_tree_nodes_before", 0)


@given(st.integers(0, 3000))
@settings(max_examples=20, deadline=None)
def test_mltosql_equivalence_random_pipelines(seed):
    """Property: MLtoSQL expressions == runtime on random small pipelines."""
    rng = np.random.default_rng(seed)
    n = 300
    table = Table.from_arrays(
        x0=rng.normal(size=n), x1=rng.normal(size=n),
        c0=rng.choice(["a", "b"], n))
    y = (table.array("x0") > 0).astype(int)
    kind = seed % 3
    if kind == 0:
        model = LogisticRegression(penalty="l2")
    elif kind == 1:
        model = DecisionTreeClassifier(max_depth=int(rng.integers(1, 6)),
                                       random_state=seed)
    else:
        model = GradientBoostingClassifier(
            n_estimators=int(rng.integers(2, 10)), max_depth=2,
            random_state=seed)
    pipeline = make_standard_pipeline(model, ["x0", "x1"], ["c0"])
    pipeline.fit(table, y)
    graph = convert_pipeline(pipeline)
    inputs = {k: table.array(k) for k in ("x0", "x1", "c0")}
    reference = run_graph(graph, inputs)
    expressions = graph_to_expressions(graph, {k: k for k in inputs})
    assert np.allclose(expressions["score"].evaluate(table),
                       reference["score"][:, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# Indicator splits fold: CASE WHEN p THEN a ELSE b END <= t is p's truth
# table, held bit for bit to the plain CASE form
# ---------------------------------------------------------------------------

def _unfolded(tree, features, value_index, node=0):
    """Every split as ``feature <= t``: the plain, unfolded CASE form."""
    if tree.left[node] < 0:
        return lit(float(tree.value[node, value_index]))
    return CaseWhen(
        [(features[tree.feature[node]].le(lit(float(tree.threshold[node]))),
          _unfolded(tree, features, value_index, tree.left[node]))],
        _unfolded(tree, features, value_index, tree.right[node]))


def _indicator_features():
    return [
        CaseWhen([(col("c").eq(lit("u")), lit(1.0))], lit(0.0)),   # one-hot
        CaseWhen([(col("x").gt(lit(0.25)), lit(1.0))], lit(0.0)),  # binarizer
        CaseWhen([(col("x").eq(lit(0.5)), lit(0.0))], lit(2.0)),
        CaseWhen([(col("c").eq(lit("w")), lit(float("nan")))], lit(0.0)),
        col("x"),
    ]


def _random_tree(rng, depth, n_features):
    def build(depth):
        if depth == 0:
            return (0.0, float(rng.random())), 0
        return (int(rng.integers(0, n_features)),
                float(rng.choice([-0.5, 0.5, 1.0, 2.5])),
                build(depth - 1), build(depth - 1), 0)
    return ref.to_tree(build(depth))


class TestIndicatorSplitFold:
    def _split(self, feature, threshold):
        tree = ref.to_tree((0, threshold, ((0.0, 1.0), 0), ((0.0, 2.0), 0), 0))
        return expression_to_sql(tree_to_expression(tree, [feature], 1))

    def test_truth_table(self):
        one_hot, binarizer, inverted, nan_case, _ = _indicator_features()
        # b <= t < a with p = (col = v): col <> v.
        assert self._split(one_hot, 0.5) == \
            "CASE WHEN ([c] <> 'u') THEN 1.0 ELSE 2.0 END"
        # Both sides agree: the split is gone, one subtree remains.
        assert self._split(one_hot, 1.5) == "1.0"
        assert self._split(one_hot, -0.5) == "2.0"
        # a <= t < b: p itself.
        assert self._split(inverted, 1.0) == \
            "CASE WHEN ([x] = 0.5) THEN 1.0 ELSE 2.0 END"
        # Any other p is NOT p — never x <= t, which differs on NaN.
        assert self._split(binarizer, 0.5) == \
            "CASE WHEN (NOT ([x] > 0.25)) THEN 1.0 ELSE 2.0 END"
        # A NaN leaf value is never <= t.
        assert self._split(nan_case, 0.5) == \
            "CASE WHEN ([c] <> 'w') THEN 1.0 ELSE 2.0 END"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_folded_equals_case_form(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.choice([0.0, 0.25, 0.5, 1.0, np.nan], n)
        table = Table.from_arrays(x=x, c=rng.choice(["u", "v", "w"], n))
        features = _indicator_features()
        tree = _random_tree(rng, int(rng.integers(1, 6)), len(features))
        folded = tree_to_expression(tree, features, 1)
        want = _unfolded(tree, features, 1).evaluate(table)
        coded = table.encoded()
        for got in (folded.evaluate(table),
                    compile_outputs([("s", folded)],
                                    coded.schema).run(coded)["s"]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)

    def test_case_form_plan_payload_still_loads(self, training_frame):
        # A repro-plan-v1 payload holding the unfolded CASE form (what
        # snapshots from before the fold carry) loads and returns what the
        # folded plan returns.
        table, _ = training_frame
        rng = np.random.default_rng(3)
        features = [CaseWhen([(col("t.c").eq(lit("u")), lit(1.0))],
                             lit(0.0)), col("t.a")]
        tree = _random_tree(rng, 5, len(features))
        session = RavenSession()
        session.register_table("t", table)
        results = []
        for expr in (tree_to_expression(tree, features, 1),
                     _unfolded(tree, features, 1)):
            plan = Project(Scan("t", alias="t"), [("score", expr)])
            loaded = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
            results.append(session.execute_plan(loaded).array("score"))
        assert np.array_equal(results[0], results[1])

