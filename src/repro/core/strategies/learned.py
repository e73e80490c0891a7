"""Classification-based and regression-based strategies (paper §5.2).

* :class:`ClassificationStrategy` — a random-forest classifier predicts the
  winning transformation directly (the paper's pick: best accuracy, lowest
  variance of the three).
* :class:`RegressionStrategy` — a decision-tree regressor predicts the
  runtime of each (pipeline, transformation) pair; the transformation
  becomes an input feature, tripling the effective training set; at
  optimization time the strategy predicts all three runtimes and picks the
  minimum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.strategies.base import (
    CHOICES,
    OptimizationStrategy,
    best_choice_labels,
)
from repro.learn.ensemble import RandomForestClassifier
from repro.learn.tree import DecisionTreeRegressor


class ClassificationStrategy(OptimizationStrategy):
    """Random forest over pipeline statistics -> transformation class."""

    name = "classification_based"

    def __init__(self, n_estimators: int = 100, max_depth: Optional[int] = None,
                 random_state: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.random_state = random_state
        self.model_: Optional[RandomForestClassifier] = None
        self.choices_: List[str] = list(CHOICES)

    def fit(self, features: np.ndarray, runtimes: np.ndarray,
            choices: Sequence[str] = CHOICES) -> "ClassificationStrategy":
        self.choices_ = list(choices)
        labels = best_choice_labels(runtimes, choices)
        self.model_ = RandomForestClassifier(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            random_state=self.random_state)
        self.model_.fit(features, labels)
        return self

    def choose_from_vector(self, vector: np.ndarray) -> str:
        if self.model_ is None:
            raise RuntimeError("strategy must be fitted first")
        label = int(self.model_.predict(vector.reshape(1, -1))[0])
        return self.choices_[label]


class RegressionStrategy(OptimizationStrategy):
    """Decision-tree regressor over (statistics + transformation one-hot)
    -> log-runtime; picks the transformation with the lowest prediction."""

    name = "regression_based"

    def __init__(self, max_depth: Optional[int] = None, random_state: int = 0):
        self.max_depth = max_depth
        self.random_state = random_state
        self.model_: Optional[DecisionTreeRegressor] = None
        self.choices_: List[str] = list(CHOICES)

    def fit(self, features: np.ndarray, runtimes: np.ndarray,
            choices: Sequence[str] = CHOICES) -> "RegressionStrategy":
        self.choices_ = list(choices)
        runtimes = np.asarray(runtimes, dtype=np.float64)
        n_pipelines, n_choices = runtimes.shape
        # One row per (pipeline, transformation): the 3-fold training set.
        rows, targets = [], []
        for pipeline in range(n_pipelines):
            for choice in range(n_choices):
                rows.append(np.concatenate([
                    features[pipeline], _one_hot(choice, n_choices)]))
                targets.append(np.log1p(runtimes[pipeline, choice]))
        self.model_ = DecisionTreeRegressor(max_depth=self.max_depth,
                                            random_state=self.random_state)
        self.model_.fit(np.vstack(rows), np.asarray(targets))
        return self

    def choose_from_vector(self, vector: np.ndarray) -> str:
        if self.model_ is None:
            raise RuntimeError("strategy must be fitted first")
        n_choices = len(self.choices_)
        candidates = np.vstack([
            np.concatenate([vector, _one_hot(i, n_choices)])
            for i in range(n_choices)
        ])
        predictions = self.model_.predict(candidates)
        return self.choices_[int(np.argmin(predictions))]


def _one_hot(index: int, size: int) -> np.ndarray:
    vector = np.zeros(size)
    vector[index] = 1.0
    return vector
