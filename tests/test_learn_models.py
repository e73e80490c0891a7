"""Tests for linear models, trees, and ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref

from repro.errors import NotFittedError
from repro.learn import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    Lasso,
    LinearRegression,
    LogisticRegression,
    RandomForestClassifier,
    Ridge,
    roc_auc_score,
)
from repro.learn.tree import (
    Tree,
    _best_split_all_features,
    _classification_split,
    _regression_split,
)


@pytest.fixture(scope="module")
def binary_data():
    rng = np.random.default_rng(5)
    n = 2_500
    X = rng.normal(size=(n, 6))
    y = ((1.2 * X[:, 0] - 1.8 * X[:, 2] + 0.6 * X[:, 4]
          + rng.normal(0, 0.4, n)) > 0).astype(int)
    return X, y


class TestLinearRegression:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 3.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, [2.0, -1.0, 0.0], atol=1e-8)
        assert np.isclose(model.intercept_, 3.0)
        assert model.score(X, y) > 0.999

    def test_no_intercept(self):
        X = np.asarray([[1.0], [2.0]])
        model = LinearRegression(fit_intercept=False).fit(X, [2.0, 4.0])
        assert np.isclose(model.intercept_, 0.0)
        assert np.isclose(model.coef_[0], 2.0)

    def test_unfitted(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((1, 1)))


class TestRidgeLasso:
    def test_ridge_shrinks(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = X[:, 0] * 5.0 + rng.normal(0, 0.1, 200)
        small = Ridge(alpha=0.01).fit(X, y).coef_[0]
        large = Ridge(alpha=1000.0).fit(X, y).coef_[0]
        assert abs(large) < abs(small)

    def test_lasso_produces_exact_zeros(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 6))
        y = 3.0 * X[:, 0] + 1.0 * X[:, 1] + rng.normal(0, 0.05, 400)
        model = Lasso(alpha=0.4).fit(X, y)
        assert np.sum(model.coef_ == 0.0) >= 3
        assert model.coef_[0] != 0.0

    def test_lasso_alpha_zero_like_ols(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 3))
        y = X @ np.asarray([1.0, -2.0, 0.5])
        model = Lasso(alpha=1e-8, max_iter=4000).fit(X, y)
        assert np.allclose(model.coef_, [1.0, -2.0, 0.5], atol=1e-3)


class TestLogisticRegression:
    def test_l2_accuracy(self, binary_data):
        X, y = binary_data
        model = LogisticRegression(penalty="l2").fit(X, y)
        assert model.score(X, y) > 0.9

    def test_l1_sparsity_increases_with_regularization(self, binary_data):
        X, y = binary_data
        weak = LogisticRegression(penalty="l1", C=10.0, max_iter=800).fit(X, y)
        strong = LogisticRegression(penalty="l1", C=0.005, max_iter=800).fit(X, y)
        assert np.sum(strong.coef_ == 0.0) > np.sum(weak.coef_ == 0.0)
        assert strong.sparsity() >= weak.sparsity()

    def test_predict_proba_sums_to_one(self, binary_data):
        X, y = binary_data
        proba = LogisticRegression().fit(X, y).predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_classes(self):
        X = np.asarray([[0.0], [1.0], [0.1], [0.9]])
        y = np.asarray(["no", "yes", "no", "yes"])
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {"no", "yes"}

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(0)
        centers = np.asarray([[0, 0], [4, 0], [0, 4]])
        X = np.vstack([rng.normal(c, 0.5, (100, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 100)
        model = LogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.95
        assert model.predict_proba(X).shape == (300, 3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 1)), np.zeros(5))

    def test_bad_penalty(self):
        with pytest.raises(ValueError):
            LogisticRegression(penalty="elastic")


class TestDecisionTree:
    def test_classification_accuracy(self, binary_data):
        X, y = binary_data
        model = DecisionTreeClassifier(max_depth=7, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_max_depth_respected(self, binary_data):
        X, y = binary_data
        for depth in (1, 3, 5):
            model = DecisionTreeClassifier(max_depth=depth,
                                           random_state=0).fit(X, y)
            assert model.get_depth() <= depth

    def test_min_samples_leaf(self, binary_data):
        X, y = binary_data
        model = DecisionTreeClassifier(max_depth=12, min_samples_leaf=50,
                                       random_state=0).fit(X, y)
        tree = model.tree_
        assert tree.n_samples[tree.left < 0].min() >= 50

    def test_pure_node_stops(self):
        X = np.asarray([[0.0], [1.0]])
        model = DecisionTreeClassifier().fit(X, [0, 1])
        assert model.get_depth() == 1

    def test_apply_assigns_leaves(self, binary_data):
        X, y = binary_data
        model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        leaves = model.apply(X)
        assert len(np.unique(leaves)) == model.tree_.leaf_count()

    def test_regressor_fits_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert model.score(X, y) > 0.99

    def test_entropy_criterion(self, binary_data):
        X, y = binary_data
        model = DecisionTreeClassifier(criterion="entropy", max_depth=5,
                                       random_state=0).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="chisq")


def _small_tree() -> Tree:
    """Root split on feature 0; its right child splits on feature 1."""
    return ref.to_tree((0, 0.5, ((1.0, 0.0), 5),
                        (1, 0.0, ((0.0, 1.0), 2), ((0.5, 0.5), 3), 5), 10))


class TestTree:
    def test_pre_order_arrays(self):
        tree = _small_tree()
        assert tree.feature.tolist() == [0, -1, 1, -1, -1]
        assert tree.threshold.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0]
        assert tree.left.tolist() == [1, -1, 3, -1, -1]
        assert tree.right.tolist() == [2, -1, 4, -1, -1]
        assert tree.value.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                                       [0.0, 1.0], [0.5, 0.5]]
        assert tree.n_samples.tolist() == [10, 5, 5, 2, 3]

    def test_counts(self):
        tree = _small_tree()
        assert len(tree) == 5
        assert tree.leaf_count() == 3
        assert tree.depth() == 2
        assert tree.features_used() == {0, 1}

    def test_arrays_are_read_only_and_owned(self):
        value = np.asarray([[1.0]])
        tree = Tree([-1], [0.0], [-1], [-1], value, [4])
        value[0, 0] = 99.0  # the caller's array was copied
        assert tree.value[0, 0] == 1.0
        with pytest.raises(ValueError):
            tree.value[0, 0] = 2.0
        with pytest.raises(AttributeError):
            tree.value = value

    def test_remap_features(self):
        tree = _small_tree()
        remapped = tree.remap_features({0: 5, 1: 6})
        assert remapped.features_used() == {5, 6}
        assert remapped.feature.tolist() == [5, -1, 6, -1, -1]
        assert remapped.threshold is tree.threshold  # read-only: shared
        with pytest.raises(KeyError):
            tree.remap_features({0: 5})  # feature 1 would be left unmapped

    def test_predict_value_matches_manual_walk(self):
        tree = _small_tree()
        X = np.asarray([[0.0, 0.0], [1.0, -1.0], [1.0, 1.0]])
        out = tree.predict_value(X)
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        assert tree.apply(X).tolist() == [0, 1, 2]

    def test_single_leaf(self):
        tree = Tree([-1], [0.0], [-1], [-1], [[0.25, 0.75]], [3])
        assert (len(tree), tree.depth(), tree.leaf_count()) == (1, 0, 1)
        assert tree.features_used() == set()
        assert tree.predict_value(np.zeros((2, 1))).tolist() == \
            [[0.25, 0.75]] * 2


class TestEnsembles:
    def test_random_forest_beats_stump(self, binary_data):
        X, y = binary_data
        model = RandomForestClassifier(n_estimators=15, max_depth=6,
                                       random_state=0).fit(X, y)
        assert model.score(X, y) > 0.9
        assert len(model.trees()) == 15

    def test_rf_handles_missing_class_in_bootstrap(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = np.asarray([0] * 38 + [1, 1])
        model = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert model.predict_proba(X).shape == (40, 2)

    def test_gradient_boosting_improves_with_estimators(self, binary_data):
        X, y = binary_data
        few = GradientBoostingClassifier(n_estimators=3, random_state=0).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        auc_few = roc_auc_score(y, few.predict_proba(X)[:, 1])
        auc_many = roc_auc_score(y, many.predict_proba(X)[:, 1])
        assert auc_many > auc_few

    def test_gb_requires_binary(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(np.zeros((6, 1)), [0, 1, 2, 0, 1, 2])

    def test_gb_subsample(self, binary_data):
        X, y = binary_data
        model = GradientBoostingClassifier(n_estimators=10, subsample=0.5,
                                           random_state=0).fit(X, y)
        assert model.score(X, y) > 0.8

    def test_gb_regressor(self):
        X = np.linspace(0, 1, 300).reshape(-1, 1)
        y = np.sin(X[:, 0] * 6.0)
        model = GradientBoostingRegressor(n_estimators=80, max_depth=3,
                                          random_state=0).fit(X, y)
        assert model.score(X, y) > 0.95


# ---------------------------------------------------------------------------
# Property: vectorized split search == per-feature reference
# ---------------------------------------------------------------------------

@given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_vectorized_split_matches_reference(n, n_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features)).round(1)  # ties likely
    y = rng.integers(0, 2, n)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    gain, feature, threshold = _best_split_all_features(X, y, 2, "gini", 1)
    reference = max(
        (_classification_split(X[:, j], y, 2, "gini", 1) + (j,)
         for j in range(n_features)),
        key=lambda r: r[0])
    if reference[0] == -np.inf:
        assert gain == -np.inf
    else:
        assert np.isclose(gain, reference[0], atol=1e-9)


@given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_vectorized_regression_split_matches_reference(n, n_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features)).round(1)
    y = rng.normal(size=n)
    gain, feature, threshold = _best_split_all_features(X, y, 0, "mse", 1)
    reference = max(
        (_regression_split(X[:, j], y, 1) + (j,) for j in range(n_features)),
        key=lambda r: r[0])
    if reference[0] == -np.inf:
        assert gain == -np.inf
    else:
        assert np.isclose(gain, reference[0], atol=1e-8)
