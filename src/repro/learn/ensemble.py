"""Tree ensembles: random forests and gradient boosting.

Gradient boosting follows the classic binomial-deviance formulation (as in
scikit-learn): regression trees are fitted to the gradient of the log loss
and leaf values are replaced by a single Newton step. The paper's Fig. 10 /
Fig. 12 sweep ensemble size and depth; this module produces the model
shapes those benchmarks require (20–500 estimators, depth 3–8).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.learn.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    as_1d,
    as_2d_float,
    check_fitted,
    sigmoid,
)
from repro.learn.tree import DecisionTreeClassifier, DecisionTreeRegressor, Tree


class _TreeEnsemble(BaseEstimator):
    """An ensemble of fitted decision-tree estimators (``estimators_``)."""

    def trees(self) -> List[Tree]:
        check_fitted(self, "estimators_")
        return [estimator.tree_ for estimator in self.estimators_]


class RandomForestClassifier(_TreeEnsemble, ClassifierMixin):
    """Bagged CART trees with per-split feature subsampling."""

    def __init__(self, n_estimators: int = 100, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", bootstrap: bool = True,
                 random_state: Optional[int] = None):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeClassifier]] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = as_2d_float(X)
        y = as_1d(y)
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        self.estimators_ = []
        for index in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n, n)
                X_fit, y_fit = X[sample], y[sample]
            else:
                X_fit, y_fit = X, y
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31)),
            )
            tree.fit(X_fit, y_fit)
            # Bootstrap samples can miss classes; re-expand leaf vectors.
            if len(tree.classes_) != len(self.classes_):
                _expand_tree_classes(tree, self.classes_)
            self.estimators_.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = as_2d_float(X)
        total = np.zeros((len(X), len(self.classes_)))
        for tree in self.estimators_:
            total += tree.tree_.predict_value(X)
        return total / len(self.estimators_)


def _expand_tree_classes(tree: DecisionTreeClassifier,
                         all_classes: np.ndarray) -> None:
    """Remap a tree trained on a class subset onto the full class vector."""
    positions = np.searchsorted(all_classes, tree.classes_)
    expanded = np.zeros((len(tree.tree_), len(all_classes)))
    expanded[:, positions] = tree.tree_.value
    tree.tree_ = replace(tree.tree_, value=expanded)
    tree.classes_ = all_classes


class RandomForestRegressor(_TreeEnsemble, RegressorMixin):
    """Bagged CART regression trees (mean-aggregated)."""

    def __init__(self, n_estimators: int = 100, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features="sqrt", bootstrap: bool = True,
                 random_state: Optional[int] = None):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None

    def fit(self, X, y) -> "RandomForestRegressor":
        X = as_2d_float(X)
        y = as_1d(y).astype(np.float64)
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n, n)
                X_fit, y_fit = X[sample], y[sample]
            else:
                X_fit, y_fit = X, y
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31)),
            )
            tree.fit(X_fit, y_fit)
            self.estimators_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = as_2d_float(X)
        total = np.zeros(len(X))
        for tree in self.estimators_:
            total += tree.predict(X)
        return total / len(self.estimators_)


class AdaBoostRegressor(_TreeEnsemble, RegressorMixin):
    """AdaBoost.R2-style boosting with weighted-*mean* aggregation.

    The original AdaBoost.R2 predicts with the weighted *median* of the
    estimators, which has no additive-ensemble form (and hence no
    TreeEnsembleRegressor / MLtoSQL encoding). This implementation keeps
    the AdaBoost.R2 reweighting scheme but aggregates with the weighted
    mean — a documented deviation that preserves the boosting behaviour
    while staying expressible in every Raven runtime.
    """

    def __init__(self, n_estimators: int = 50, learning_rate: float = 1.0,
                 max_depth: int = 3, random_state: Optional[int] = None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None
        self.estimator_weights_: Optional[np.ndarray] = None

    def fit(self, X, y) -> "AdaBoostRegressor":
        X = as_2d_float(X)
        y = as_1d(y).astype(np.float64)
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        sample_weights = np.full(n, 1.0 / n)
        self.estimators_ = []
        weights: List[float] = []
        for _ in range(self.n_estimators):
            # Weighted bootstrap: resample proportionally to the weights.
            sample = rng.choice(n, n, replace=True, p=sample_weights)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2 ** 31)))
            tree.fit(X[sample], y[sample])
            predictions = tree.predict(X)
            errors = np.abs(predictions - y)
            max_error = errors.max()
            if max_error <= 0:
                self.estimators_.append(tree)
                weights.append(1.0)
                break
            relative = errors / max_error
            weighted_error = float(np.sum(sample_weights * relative))
            if weighted_error >= 0.5:
                if not self.estimators_:  # keep at least one estimator
                    self.estimators_.append(tree)
                    weights.append(1.0)
                break
            beta = weighted_error / (1.0 - weighted_error)
            weight = self.learning_rate * np.log(1.0 / max(beta, 1e-12))
            self.estimators_.append(tree)
            weights.append(float(weight))
            sample_weights *= beta ** (self.learning_rate * (1.0 - relative))
            sample_weights /= sample_weights.sum()
        self.estimator_weights_ = np.asarray(weights)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = as_2d_float(X)
        total = np.zeros(len(X))
        normalizer = self.estimator_weights_.sum()
        for weight, tree in zip(self.estimator_weights_, self.estimators_):
            total += weight * tree.predict(X)
        return total / max(normalizer, 1e-12)


class GradientBoostingClassifier(_TreeEnsemble, ClassifierMixin):
    """Binary gradient boosting with binomial deviance.

    Leaves store raw margin contributions; the ensemble score is
    ``sigmoid(F0 + lr * sum_m tree_m(x))``. This additive-margin form is
    exactly what ONNX ``TreeEnsembleClassifier`` (and Hummingbird's GEMM
    compilation) represent, so conversion is lossless.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, subsample: float = 1.0,
                 random_state: Optional[int] = None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None
        self.init_score_: float = 0.0
        self.classes_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X = as_2d_float(X)
        y_raw = as_1d(y)
        self.classes_ = np.unique(y_raw)
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier supports binary tasks")
        y01 = (y_raw == self.classes_[1]).astype(np.float64)
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)

        positive_rate = np.clip(y01.mean(), 1e-6, 1 - 1e-6)
        self.init_score_ = float(np.log(positive_rate / (1 - positive_rate)))
        margins = np.full(len(X), self.init_score_)

        self.estimators_ = []
        n = len(X)
        for _ in range(self.n_estimators):
            probabilities = sigmoid(margins)
            residuals = y01 - probabilities
            if self.subsample < 1.0:
                sample = rng.random(n) < self.subsample
            else:
                sample = np.ones(n, dtype=bool)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2 ** 31)),
            )
            tree.fit(X[sample], residuals[sample])
            _newton_leaf_update(tree, X[sample], residuals[sample],
                                probabilities[sample])
            margins += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = as_2d_float(X)
        margins = np.full(len(X), self.init_score_)
        for tree in self.estimators_:
            margins += self.learning_rate * tree.predict(X)
        return margins

    def predict_proba(self, X) -> np.ndarray:
        positive = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])


def _newton_leaf_update(tree: DecisionTreeRegressor, X: np.ndarray,
                        residuals: np.ndarray, probabilities: np.ndarray) -> None:
    """Replace mean-residual leaf values with one Newton-Raphson step:
    ``gamma = sum(residual) / sum(p * (1 - p))`` per leaf."""
    leaf_ids = tree.tree_.apply(X)
    leaves = np.flatnonzero(tree.tree_.left < 0)
    numerator = np.bincount(leaf_ids, weights=residuals, minlength=len(leaves))
    hessian = np.bincount(leaf_ids, weights=probabilities * (1 - probabilities),
                          minlength=len(leaves))
    # Leaves with no sample keep their fitted mean value.
    stepped = hessian > 1e-12
    value = tree.tree_.value.copy()
    value[leaves[stepped], 0] = numerator[stepped] / hessian[stepped]
    tree.tree_ = replace(tree.tree_, value=value)


class GradientBoostingRegressor(_TreeEnsemble, RegressorMixin):
    """Least-squares gradient boosting (plain residual fitting)."""

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, random_state: Optional[int] = None):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None
        self.init_score_: float = 0.0

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X = as_2d_float(X)
        y = as_1d(y).astype(np.float64)
        rng = np.random.default_rng(self.random_state)
        self.init_score_ = float(y.mean())
        predictions = np.full(len(X), self.init_score_)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            residuals = y - predictions
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2 ** 31)),
            )
            tree.fit(X, residuals)
            predictions += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "estimators_")
        X = as_2d_float(X)
        predictions = np.full(len(X), self.init_score_)
        for tree in self.estimators_:
            predictions += self.learning_rate * tree.predict(X)
        return predictions
