"""Tests for predicate-based model pruning and model-projection pushdown."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.binder import Binder
from repro.core.parser import parse
from repro.core.rules import (
    PredicateBasedModelPruning,
    extract_input_constraints,
    parse_constraint,
    pushdown_graph,
    used_feature_indices,
)
from repro.core.rules.intervals import StringConstraint
import tree_reference as ref
from repro.learn import (
    Binarizer,
    ColumnTransformer,
    DecisionTreeClassifier,
    LogisticRegression,
    MinMaxScaler,
    Normalizer,
    OneHotEncoder,
    Pipeline,
    RandomForestClassifier,
    SimpleImputer,
    StandardScaler,
    make_standard_pipeline,
)
from repro.onnxlite import (
    Graph,
    Node,
    TensorInfo,
    convert_model,
    convert_pipeline,
    run_graph,
)
from repro.relational import find_predict_nodes, walk
from repro.relational.expressions import Between, InList, col, lit
from repro.relational.logical import Scan
from repro.relational.optimizer import RelationalOptimizer
from repro.storage import Table


class TestParseConstraint:
    def test_comparisons(self):
        column, constraint = parse_constraint(col("t.x").eq(5))
        assert column == "t.x" and constraint.is_point
        _, lt = parse_constraint(col("x").lt(3.0))
        assert lt.high == 3.0 and lt.high_open
        _, ge = parse_constraint(col("x").ge(1.0))
        assert ge.low == 1.0 and not ge.low_open

    def test_flipped_comparison(self):
        column, constraint = parse_constraint(lit(5.0).gt(col("x")))
        assert column == "x"
        assert constraint.high == 5.0 and constraint.high_open

    def test_string_equality(self):
        column, constraint = parse_constraint(col("s").eq("yes"))
        assert isinstance(constraint, StringConstraint)
        assert constraint.values == ("yes",)

    def test_between(self):
        column, constraint = parse_constraint(
            Between(col("x"), lit(1.0), lit(2.0)))
        assert (constraint.low, constraint.high) == (1.0, 2.0)

    def test_in_list_strings(self):
        column, constraint = parse_constraint(InList(col("s"), ["a", "b"]))
        assert constraint.values == ("a", "b")

    def test_in_list_numeric_becomes_range(self):
        _, constraint = parse_constraint(InList(col("x"), [3, 7, 5]))
        assert (constraint.low, constraint.high) == (3.0, 7.0)

    def test_unsupported_shapes_return_none(self):
        assert parse_constraint(col("a").gt(col("b"))) is None
        assert parse_constraint(col("s").ne("x")) is None


class TestPredicatePruning:
    def _session_plan(self, session, query):
        plan = Binder(session.catalog).bind(parse(query))
        return RelationalOptimizer(session.catalog).optimize(plan)

    def test_equality_constantizes_input(self, session, covid_query):
        plan = self._session_plan(session, covid_query)
        result = PredicateBasedModelPruning().apply(plan, session.catalog)
        assert result.applied
        predict = find_predict_nodes(result.plan)[0]
        assert "asthma" not in predict.graph.input_names
        assert "asthma" not in predict.input_mapping
        constants = [n for n in predict.graph.nodes if n.op_type == "Constant"]
        assert len(constants) == 1
        assert result.info["inputs_constantized"] == ["asthma"]

    def test_pruned_graph_still_correct(self, session, covid_query,
                                        noopt_session):
        reference = noopt_session.sql(covid_query)
        optimized = session.sql(covid_query)
        assert optimized.num_rows == reference.num_rows
        assert np.allclose(np.sort(optimized.array("score")),
                           np.sort(reference.array("score")), atol=1e-9)

    def test_no_predicates_no_change(self, session):
        query = ("SELECT d.id, p.score FROM PREDICT(MODEL = covid_risk, "
                 "DATA = patient_info AS d) WITH (score FLOAT) AS p")
        # patient_info alone lacks bpm/fev -> use full join without WHERE
        query = """
        WITH data AS (SELECT * FROM patient_info AS pi
                      JOIN pulmonary_test AS pt ON pi.id = pt.id)
        SELECT d.id, p.score
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
        WITH (score FLOAT) AS p
        """
        plan = self._session_plan(session, query)
        result = PredicateBasedModelPruning().apply(plan, session.catalog)
        assert not result.applied

    def test_range_predicate_prunes_tree(self, session):
        query = """
        WITH data AS (SELECT * FROM patient_info AS pi
                      JOIN pulmonary_test AS pt ON pi.id = pt.id)
        SELECT d.id, p.score
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
        WITH (score FLOAT) AS p
        WHERE d.age > 75
        """
        plan = self._session_plan(session, query)
        result = PredicateBasedModelPruning().apply(plan, session.catalog)
        if result.applied:  # pruning depends on trained splits
            assert result.info["tree_nodes_after"] <= \
                result.info["tree_nodes_before"]

    def test_constraint_extraction_through_renames(self, session, covid_query):
        plan = self._session_plan(session, covid_query)
        predict = find_predict_nodes(plan)[0]
        constraints = extract_input_constraints(predict, session.catalog)
        assert "asthma" in constraints.numeric
        assert constraints.numeric["asthma"].is_point

    def test_string_equality_predicate(self, patients_table, pulmonary_table,
                                       dt_pipeline):
        from repro import RavenSession
        session = RavenSession(strategy="none", enable_data_induced=False)
        session.register_table("patient_info", patients_table,
                               primary_key=["id"])
        session.register_table("pulmonary_test", pulmonary_table,
                               primary_key=["id"])
        session.register_model("covid_risk", dt_pipeline)
        query = """
        WITH data AS (SELECT * FROM patient_info AS pi
                      JOIN pulmonary_test AS pt ON pi.id = pt.id)
        SELECT d.id, p.score
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
        WITH (score FLOAT) AS p
        WHERE d.smoker = 'yes'
        """
        plan = session.plan(query)
        plan = RelationalOptimizer(session.catalog).optimize(plan)
        result = PredicateBasedModelPruning().apply(plan, session.catalog)
        assert result.applied
        predict = find_predict_nodes(result.plan)[0]
        assert "smoker" not in predict.graph.input_names

    def test_output_predicate_on_label(self, patients_table, pulmonary_table,
                                       joined_frame, risk_labels):
        from repro import RavenSession
        from repro.learn import make_standard_pipeline

        labels = np.where(risk_labels == 1, "high", "low")
        pipeline = make_standard_pipeline(
            DecisionTreeClassifier(max_depth=6, random_state=0),
            ["age", "bmi", "bpm", "fev", "asthma"], ["smoker", "hypertension"])
        pipeline.fit(joined_frame, labels)
        session = RavenSession(strategy="none", enable_data_induced=False)
        session.register_table("patient_info", patients_table,
                               primary_key=["id"])
        session.register_table("pulmonary_test", pulmonary_table,
                               primary_key=["id"])
        session.register_model("covid_risk", pipeline)
        query = """
        WITH data AS (SELECT * FROM patient_info AS pi
                      JOIN pulmonary_test AS pt ON pi.id = pt.id)
        SELECT d.id, p.risk
        FROM PREDICT(MODEL = covid_risk, DATA = data AS d)
        WITH (risk STRING) AS p
        WHERE p.risk = 'high'
        """
        noopt = RavenSession(enable_optimizations=False)
        noopt.catalog = session.catalog
        reference = noopt.sql(query)
        optimized = session.sql(query)
        assert optimized.num_rows == reference.num_rows
        assert sorted(optimized.array("id").tolist()) == \
            sorted(reference.array("id").tolist())


class TestModelProjectionPushdown:
    def _sparse_pipeline(self, rng):
        n = 1_200
        table = Table.from_arrays(
            a=rng.normal(size=n), b=rng.normal(size=n),
            unused_num=rng.normal(size=n),
            c=rng.choice(["x", "y"], n),
            unused_cat=rng.choice(["p", "q", "r"], n))
        y = ((table.array("a") > 0) & (table.array("c") == "x")).astype(int)
        pipeline = make_standard_pipeline(
            DecisionTreeClassifier(max_depth=3, random_state=0),
            ["a", "b", "unused_num"], ["c", "unused_cat"])
        pipeline.fit(table, y)
        return table, pipeline

    def test_unused_inputs_removed_from_graph(self, rng):
        table, pipeline = self._sparse_pipeline(rng)
        graph = convert_pipeline(pipeline)
        removed, info = pushdown_graph(graph)
        assert info["applied"]
        assert "unused_num" in removed or "unused_cat" in removed
        graph.validate()

    def test_densified_graph_equivalent(self, rng):
        table, pipeline = self._sparse_pipeline(rng)
        graph = convert_pipeline(pipeline)
        original = graph.copy()
        pushdown_graph(graph)
        inputs_all = {c: table.array(c) for c in
                      ("a", "b", "unused_num", "c", "unused_cat")}
        reference = run_graph(original, inputs_all)
        narrowed = {name: inputs_all[name] for name in graph.input_names}
        optimized = run_graph(graph, narrowed)
        assert np.allclose(optimized["score"], reference["score"], atol=1e-12)
        assert np.array_equal(optimized["label"], reference["label"])

    def test_used_feature_indices_linear(self, rng):
        X = rng.normal(size=(500, 5))
        y = (X[:, 1] > 0).astype(int)
        model = LogisticRegression(penalty="l1", C=0.05, max_iter=600).fit(X, y)
        from repro.onnxlite import convert_model
        graph = convert_model(model, 5)
        node = next(n for n in graph.nodes if n.op_type == "LinearClassifier")
        used = used_feature_indices(node)
        assert 1 in used
        assert len(used) < 5

    def test_dense_model_untouched(self, rng):
        X = rng.normal(size=(500, 2))
        y = ((X[:, 0] + X[:, 1]) > 0).astype(int)
        model = LogisticRegression(penalty="l2").fit(X, y)
        from repro.onnxlite import convert_model
        graph = convert_model(model, 2)
        removed, info = pushdown_graph(graph)
        assert not removed

    def test_plan_level_rule_narrows_scans(self, session, covid_query):
        plan, report = session.optimize(covid_query)
        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        read = {f"{s.table_name}.{c}" for s in scans for c in (s.columns or [])}
        # bmi/fev are unused by the trained model; they must not be read.
        assert "patient_info.bmi" not in read
        assert "pulmonary_test.fev" not in read

    def test_normalizer_blocks_pushdown(self, rng):
        from repro.learn import Normalizer, ColumnTransformer, Pipeline
        n = 400
        table = Table.from_arrays(a=rng.normal(size=n), b=rng.normal(size=n))
        y = (table.array("a") > 0).astype(int)
        pipeline = Pipeline([
            ("features", ColumnTransformer([
                ("norm", Normalizer(), ["a", "b"])])),
            ("model", DecisionTreeClassifier(max_depth=2, random_state=0)),
        ])
        pipeline.fit(table, y)
        graph = convert_pipeline(pipeline)
        removed, _info = pushdown_graph(graph)
        # The Normalizer needs every input, so none may be removed.
        assert removed == []


#: Numeric feature groups a random pipeline draws from; the imputing ones
#: get NaN inputs.
NUMERIC_GROUPS = {
    "scale": (StandardScaler, False),
    "minmax": (MinMaxScaler, False),
    "normalize": (Normalizer, False),
    "impute": (lambda: Pipeline([("impute", SimpleImputer()),
                                 ("scale", StandardScaler())]), True),
    "binarize": (lambda: Pipeline([("impute", SimpleImputer()),
                                   ("binarize", Binarizer())]), True),
}


def _random_model(rng, seed):
    """``(model, is_tree)``: a tree, a small forest or a sparse linear model."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return DecisionTreeClassifier(max_depth=int(rng.integers(1, 5)),
                                      random_state=seed), True
    if kind == 1:
        return RandomForestClassifier(n_estimators=3, max_depth=3,
                                      random_state=seed), True
    return LogisticRegression(penalty="l1", C=0.05, max_iter=300), False


def _random_graph(seed):
    """``(graph, inputs, is_tree)``: a random pipeline of numeric groups and
    one-hot encoders, or a bare model over one wide input."""
    rng = np.random.default_rng(seed)
    n = 400
    model, is_tree = _random_model(rng, seed)
    if rng.random() < 0.2:
        X = rng.normal(size=(n, int(rng.integers(3, 7))))
        model.fit(X, (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int))
        graph = convert_model(model, X.shape[1])
        return graph, {graph.input_names[0]: X}, is_tree
    columns, transformers = {}, []
    for group in range(int(rng.integers(1, 4))):
        name = list(NUMERIC_GROUPS)[int(rng.integers(0, len(NUMERIC_GROUPS)))]
        make, with_nans = NUMERIC_GROUPS[name]
        names = [f"x{len(columns) + i}" for i in range(int(rng.integers(1, 4)))]
        for column in names:
            values = rng.normal(size=n)
            if with_nans:
                values[rng.random(n) < 0.1] = np.nan
            columns[column] = values
        transformers.append((f"{name}{group}", make(), names))
    categorical = [f"c{i}" for i in range(int(rng.integers(0, 3)))]
    for column in categorical:
        columns[column] = rng.choice(["a", "b", "c"], n)
    if categorical:
        transformers.append(("cat", OneHotEncoder(), categorical))
    table = Table.from_arrays(**columns)
    signal = np.nan_to_num(columns["x0"]) + 0.5 * np.nan_to_num(
        columns[f"x{len(columns) - len(categorical) - 1}"])
    pipeline = Pipeline([("features", ColumnTransformer(transformers)),
                         ("model", model)])
    pipeline.fit(table, (signal > 0).astype(int))
    return convert_pipeline(pipeline), columns, is_tree


@given(st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_pushdown_preserves_semantics_random_pipelines(seed):
    """Property: projection pushdown never changes model output — tree
    outputs bit for bit — and pushing a pushed graph changes nothing."""
    graph, inputs, is_tree = _random_graph(seed)
    original = graph.copy()
    pushdown_graph(graph)
    reference = run_graph(original, inputs)
    optimized = run_graph(graph, {name: inputs[name]
                                  for name in graph.input_names})
    if is_tree:
        # A narrowed tree compares the very same feature values.
        assert np.array_equal(optimized["score"], reference["score"])
        assert np.array_equal(optimized["label"], reference["label"])
    else:
        # A dense dot over fewer terms may round differently.
        assert np.allclose(optimized["score"], reference["score"], atol=1e-12)
    again = graph.copy()
    _removed, info = pushdown_graph(again)
    assert not info["applied"]
    assert again.input_names == graph.input_names


def test_pushdown_narrows_an_edge_two_models_read():
    """A scaled edge read by two trees carries the union of their features;
    each tree gets an extractor for its own."""
    graph = Graph("g", [TensorInfo("x", width=4)], ["a", "b"])
    graph.add_node(Node("Scaler", ["x"], ["scaled"], {
        "offset": np.asarray([0.5, -1.0, 2.0, 0.0]),
        "scale": np.asarray([2.0, 0.5, 1.5, 3.0])}))
    for output, (first, second) in (("a", (0, 2)), ("b", (1, 2))):
        tree = ref.to_tree((first, 0.3, ((0.1,), 1),
                            (second, -0.2, ((0.4,), 1), ((0.8,), 1), 2), 3))
        graph.add_node(Node("TreeEnsembleRegressor", ["scaled"], [output], {
            "trees": [tree], "aggregate": "SUM",
            "base_values": np.asarray([0.0])}))
    original = graph.copy()
    removed, info = pushdown_graph(graph)
    assert removed == [] and info["models_densified"] == 2
    scaler = next(node for node in graph.nodes if node.op_type == "Scaler")
    assert scaler.attrs["offset"].tolist() == [0.5, -1.0, 2.0]
    extracted = sorted(node.attrs["indices"] for node in graph.nodes
                       if node.op_type == "FeatureExtractor")
    assert extracted == [[0, 1, 2], [0, 2], [1, 2]]
    x = np.random.default_rng(5).normal(size=(300, 4))
    reference = run_graph(original, {"x": x})
    optimized = run_graph(graph, {"x": x})
    for output in ("a", "b"):
        assert np.array_equal(optimized[output], reference[output])
