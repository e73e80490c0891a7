"""Tests for the unified IR views, dataset generators, and the paper
baselines of ``benchmarks/bench_paper.py``."""

import numpy as np
import pytest

from benchmarks import bench_paper
from repro import RavenSession
from repro.datasets import (
    creditcard,
    expedia,
    flights,
    generate_corpus,
    hospital,
)
from repro.ir import (
    FIG1_METRICS,
    UnifiedIR,
    corpus_fig1_summary,
    graph_fig1_metrics,
    ir_to_dot,
    ir_to_text,
)
from repro.onnxlite import convert_pipeline


class TestUnifiedIR:
    def test_combines_relational_and_ml_nodes(self, session, covid_query):
        plan = session.plan(covid_query)
        ir = UnifiedIR(plan, session.catalog)
        relational_ops = {n.op for n in ir.relational_nodes()}
        ml_ops = {n.op for n in ir.ml_nodes()}
        assert {"Scan", "Join", "Predict", "Filter"} <= relational_ops
        assert {"Scaler", "OneHotEncoder", "Concat",
                "TreeEnsembleClassifier"} <= ml_ops

    def test_ml_inputs_link_to_relational_children(self, session, covid_query):
        plan = session.plan(covid_query)
        ir = UnifiedIR(plan, session.catalog)
        input_nodes = [n for n in ir.ml_nodes() if n.op == "Input"]
        assert input_nodes
        assert all(node.children for node in input_nodes)

    def test_operator_counts(self, session, covid_query):
        ir = UnifiedIR(session.plan(covid_query), session.catalog)
        counts = ir.operator_counts()
        assert counts["Scan"] == 2
        assert counts["TreeEnsembleClassifier"] == 1

    def test_printers(self, session, covid_query):
        ir = UnifiedIR(session.plan(covid_query), session.catalog)
        text = ir_to_text(ir)
        assert "TreeEnsembleClassifier" in text
        dot = ir_to_dot(ir)
        assert dot.startswith("digraph") and "->" in dot

    def test_fig1_metrics(self, dt_pipeline):
        graph = convert_pipeline(dt_pipeline)
        metrics = graph_fig1_metrics(graph)
        assert set(metrics) == set(FIG1_METRICS)
        assert metrics["n_trees"] == 1

    @pytest.mark.slow
    def test_corpus_summary_shape(self):
        corpus = generate_corpus(n_pipelines=6, seed=3, eval_rows=50,
                                 train_rows=300)
        summaries = corpus_fig1_summary([e.graph for e in corpus])
        assert [s.metric for s in summaries] == FIG1_METRICS
        for summary in summaries:
            assert summary.minimum <= summary.median <= summary.maximum


class TestDatasetGenerators:
    def test_creditcard_schema(self):
        dataset = creditcard.generate(2_000, seed=0)
        assert len(dataset.tables) == 1
        assert dataset.n_inputs == 28
        numeric, categorical = dataset.encoded_feature_count()
        assert (numeric, categorical) == (28, 0)

    def test_hospital_schema_and_partitions(self):
        dataset = hospital.generate(5_000, seed=0)
        numeric, categorical = dataset.encoded_feature_count()
        assert numeric == 9 and categorical == 50
        assert dataset.partition_columns == ["num_issues", "rcount"]
        table = dataset.tables["hospital_stays"]
        assert len(np.unique(table.array("rcount"))) == 6
        assert len(np.unique(table.array("num_issues"))) == 2

    def test_expedia_star_join(self):
        dataset = expedia.generate(5_000, seed=0, cardinality_scale=0.05)
        assert len(dataset.tables) == 3
        assert len(dataset.join_spec) == 2
        joined = dataset.joined()
        assert joined.num_rows == 5_000
        assert "prop_country" in joined.column_names

    def test_flights_four_tables(self):
        dataset = flights.generate(4_000, seed=0, cardinality_scale=0.02)
        assert len(dataset.tables) == 4
        assert dataset.n_inputs == 37

    def test_labels_are_learnable(self):
        from repro.learn import DecisionTreeClassifier, roc_auc_score
        dataset = hospital.generate(8_000, seed=0)
        pipeline = dataset.train_pipeline(
            DecisionTreeClassifier(max_depth=6, random_state=0),
            train_rows=3_000)
        proba = pipeline.predict_proba(dataset.joined())[:, 1]
        assert roc_auc_score(dataset.label, proba) > 0.7

    def test_prediction_query_is_parseable(self, dt_pipeline):
        dataset = expedia.generate(1_000, seed=0, cardinality_scale=0.02)
        query = dataset.prediction_query("m")
        from repro.core.parser import parse
        statement = parse(query)
        assert statement.ctes  # join CTE present

    def test_register_into_session(self):
        dataset = hospital.generate(2_000, seed=0)
        session = RavenSession()
        dataset.register(session, partition_column="rcount")
        entry = session.catalog.table("hospital_stays")
        assert entry.data.num_partitions == 6

    def test_corpus_determinism(self):
        a = generate_corpus(n_pipelines=3, seed=5, eval_rows=100,
                            train_rows=200)
        b = generate_corpus(n_pipelines=3, seed=5, eval_rows=100,
                            train_rows=200)
        for x, y in zip(a, b):
            assert x.kind == y.kind
            assert x.graph.operator_counts() == y.graph.operator_counts()


class TestBaselines:
    """Each baseline must score what the pipeline scores: its time in
    Fig. 6 / Fig. 8 means nothing otherwise."""

    def test_rowwise_matches_pipeline(self, dt_pipeline, joined_frame):
        sample = joined_frame.head(200)
        scores = bench_paper._sparkml_scores(dt_pipeline, sample)
        expected = dt_pipeline.predict_proba(sample)[:, 1]
        assert np.allclose(scores, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["lr", "gb", "rf"])
    def test_rowwise_all_model_kinds(self, kind, request, joined_frame):
        pipeline = request.getfixturevalue(f"{kind}_pipeline")
        sample = joined_frame.head(100)
        scores = bench_paper._sparkml_scores(pipeline, sample)
        expected = pipeline.predict_proba(sample)[:, 1]
        assert np.allclose(scores, expected, atol=1e-9)

    def test_sklearn_udf_matches_pipeline(self, gb_pipeline, joined_frame):
        scores = bench_paper._spark_skl_scores(gb_pipeline, joined_frame,
                                               batch_rows=500)
        expected = gb_pipeline.predict_proba(joined_frame)[:, 1]
        assert np.allclose(scores, expected, atol=1e-12)

    def test_madlib_matches_pipeline(self, rf_pipeline, joined_frame):
        sample = joined_frame.head(1_500)
        scores = bench_paper._madlib_scorer(rf_pipeline)(sample)
        expected = rf_pipeline.predict_proba(sample)[:, 1]
        assert np.allclose(scores, expected, atol=1e-9)

    def test_madlib_column_limit(self):
        # Both wide datasets exceed PostgreSQL's column cap at the paper's
        # cardinalities, so Fig. 8 reports the skip instead of a time.
        for name in ("expedia", "flights"):
            assert bench_paper._madlib_seconds(name, "dt") == \
                bench_paper.MADLIB_SKIP

    def test_oracle_rejects_wrong_scores(self, lr_pipeline, joined_frame):
        sample = joined_frame.head(100)
        scores = lr_pipeline.predict_proba(sample)[:, 1]
        bench_paper._assert_scores_like_pipeline(scores, lr_pipeline, sample,
                                                 "exact")
        with pytest.raises(AssertionError, match="shifted"):
            bench_paper._assert_scores_like_pipeline(
                scores + 1e-6, lr_pipeline, sample, "shifted")
