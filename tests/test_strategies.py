"""Tests for pipeline statistics and the three optimization strategies."""

import numpy as np
import pytest

from repro.core.strategies import (
    CHOICES,
    ClassificationStrategy,
    DefaultPaperRule,
    FEATURE_NAMES,
    FixedStrategy,
    MLInformedRuleStrategy,
    RegressionStrategy,
    best_choice_labels,
    class_balance,
    evaluate_strategy,
    feature_matrix,
    feature_vector,
    measure_corpus_runtimes,
    pipeline_statistics,
    tree_feature_importances,
)
from repro.datasets import generate_corpus
from repro.learn import DecisionTreeClassifier
from repro.onnxlite import convert_pipeline


class TestPipelineStatistics:
    def test_feature_names_count(self):
        assert len(FEATURE_NAMES) == 22  # the paper's 22 statistics

    def test_statistics_for_dt_pipeline(self, dt_pipeline):
        graph = convert_pipeline(dt_pipeline)
        stats = pipeline_statistics(graph)
        assert stats["n_inputs"] == 7
        assert stats["n_numeric_inputs"] == 5
        assert stats["n_categorical_inputs"] == 2
        assert stats["n_features"] == 10
        assert stats["is_tree_model"] == 1.0
        assert stats["n_trees"] == 1
        assert stats["n_one_hot_encoders"] == 2
        assert stats["max_ohe_outputs"] == 3
        assert 0.0 <= stats["frac_unused_features"] <= 1.0

    def test_statistics_for_lr_pipeline(self, lr_pipeline):
        graph = convert_pipeline(lr_pipeline)
        stats = pipeline_statistics(graph)
        assert stats["is_linear_model"] == 1.0
        assert stats["mean_tree_depth"] == 0.0  # paper footnote 6
        assert stats["n_model_parameters"] == 10

    def test_feature_vector_order(self, dt_pipeline):
        graph = convert_pipeline(dt_pipeline)
        vector = feature_vector(graph)
        assert vector.shape == (22,)
        stats = pipeline_statistics(graph)
        assert vector[FEATURE_NAMES.index("n_trees")] == stats["n_trees"]

    def test_feature_matrix(self, dt_pipeline, lr_pipeline):
        graphs = [convert_pipeline(dt_pipeline), convert_pipeline(lr_pipeline)]
        assert feature_matrix(graphs).shape == (2, 22)


def _synthetic_training_set(n=80, seed=0):
    """Strategy training set with a learnable structure: pipelines with
    many features win with dnn, shallow small ones with sql, rest none."""
    rng = np.random.default_rng(seed)
    features = np.zeros((n, len(FEATURE_NAMES)))
    runtimes = np.zeros((n, 3))
    idx_features = FEATURE_NAMES.index("n_features")
    idx_inputs = FEATURE_NAMES.index("n_inputs")
    idx_depth = FEATURE_NAMES.index("mean_tree_depth")
    for i in range(n):
        n_features = rng.integers(5, 300)
        depth = rng.integers(0, 15)
        features[i, idx_features] = n_features
        features[i, idx_inputs] = rng.integers(2, 40)
        features[i, idx_depth] = depth
        base = 1.0 + n_features / 100.0
        runtimes[i] = [base, base * (0.4 if depth <= 6 else 3.0),
                       base * (0.3 if n_features > 150 else 2.0)]
        runtimes[i] += rng.normal(0, 0.01, 3)
    return features, np.abs(runtimes)


class TestStrategies:
    def test_best_choice_labels(self):
        runtimes = np.asarray([[1.0, 0.5, 2.0], [0.1, 0.5, 0.2]])
        assert best_choice_labels(runtimes).tolist() == [1, 0]

    def test_fixed_strategy(self):
        assert FixedStrategy("sql").choose(None) == "sql"
        with pytest.raises(ValueError):
            FixedStrategy("nope")

    def test_rule_based_learns_structure(self):
        features, runtimes = _synthetic_training_set()
        strategy = MLInformedRuleStrategy(top_k=3).fit(features, runtimes)
        assert len(strategy.selected_features_) == 3
        rule_text = strategy.describe_rule()
        assert "if " in rule_text and "apply" in rule_text
        labels = best_choice_labels(runtimes)
        predicted = [CHOICES.index(strategy.choose_from_vector(features[i]))
                     for i in range(len(features))]
        assert np.mean(np.asarray(predicted) == labels) > 0.7

    def test_classification_strategy_accuracy(self):
        features, runtimes = _synthetic_training_set()
        strategy = ClassificationStrategy(n_estimators=30).fit(features, runtimes)
        labels = best_choice_labels(runtimes)
        predicted = [CHOICES.index(strategy.choose_from_vector(features[i]))
                     for i in range(len(features))]
        assert np.mean(np.asarray(predicted) == labels) > 0.8

    def test_regression_strategy_triples_training_set(self):
        features, runtimes = _synthetic_training_set(n=40)
        strategy = RegressionStrategy().fit(features, runtimes)
        choice = strategy.choose_from_vector(features[0])
        assert choice in CHOICES

    def test_unfitted_strategies_raise(self):
        for strategy in (MLInformedRuleStrategy(), ClassificationStrategy(),
                         RegressionStrategy()):
            with pytest.raises(RuntimeError):
                strategy.choose_from_vector(np.zeros(22))

    def test_default_paper_rule(self, dt_pipeline):
        graph = convert_pipeline(dt_pipeline)
        rule = DefaultPaperRule(gpu_available=True)
        assert rule.choose(graph) in CHOICES
        vector = np.zeros(22)
        vector[FEATURE_NAMES.index("n_features")] = 500
        assert rule.choose_from_vector(vector) == "dnn"
        assert DefaultPaperRule(gpu_available=False) \
            .choose_from_vector(vector) != "dnn"

    def test_tree_feature_importances_normalized(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 2] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        importances = tree_feature_importances(model.tree_, 4)
        assert np.isclose(importances.sum(), 1.0)
        assert np.argmax(importances) == 2


class TestEvaluationProtocol:
    def test_evaluate_strategy_protocol(self):
        features, runtimes = _synthetic_training_set(n=60)
        evaluation = evaluate_strategy(
            lambda: ClassificationStrategy(n_estimators=15),
            features, runtimes, repeats=2, n_splits=5, name="clf")
        assert len(evaluation.accuracies) == 10  # 5 folds x 2 repeats
        assert 0.0 <= evaluation.mean_accuracy <= 1.0
        percentiles = evaluation.speedup_percentiles()
        assert percentiles["min"] <= percentiles["median"] <= percentiles["max"]
        assert percentiles["max"] <= 1.0 + 1e-9  # optimal is an upper bound

    def test_measure_corpus_runtimes(self):
        corpus = generate_corpus(n_pipelines=3, seed=3, train_rows=200,
                                 eval_rows=300)
        features, gpu = measure_corpus_runtimes(corpus, repeats=1, gpu=True)
        _, cpu = measure_corpus_runtimes(corpus, repeats=1, gpu=False)
        assert features.shape == (3, len(FEATURE_NAMES))
        for runtimes in (gpu, cpu):
            assert runtimes.shape == (3, len(CHOICES))
            # Every choice is measurable for LR and RF pipelines.
            assert np.all(np.isfinite(runtimes)) and np.all(runtimes > 0)

    def test_class_balance(self):
        runtimes = np.asarray([[1.0, 0.5, 2.0], [1.0, 2.0, 0.1],
                               [0.1, 1.0, 1.0]])
        balance = class_balance(runtimes)
        assert balance == {"none": 1, "sql": 1, "dnn": 1}
