"""Row-oriented pipeline execution — the SparkML-like baseline.

SparkML evaluates ML pipelines tuple-at-a-time inside the JVM row pipeline.
This baseline reproduces that execution model: the relational part still
runs on the columnar engine (as Spark's data ops would), but featurization
and model scoring proceed one row at a time through Python-level operator
dispatch — the per-row interpretation overhead that makes SparkML the
slowest system on the paper's single-table workloads (Fig. 6).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.learn.base import sigmoid
from repro.learn.ensemble import GradientBoostingClassifier, RandomForestClassifier
from repro.learn.linear import LogisticRegression
from repro.learn.pipeline import ColumnTransformer, Pipeline
from repro.learn.preprocessing import OneHotEncoder, StandardScaler
from repro.learn.tree import DecisionTreeClassifier, Tree
from repro.storage.table import Table


class RowwisePipelineExecutor:
    """Scores a trained pipeline one row at a time."""

    def __init__(self, pipeline: Pipeline):
        transformer = pipeline.steps[0][1]
        if not isinstance(transformer, ColumnTransformer):
            raise ValueError("expected a (ColumnTransformer, model) pipeline")
        self.transformer = transformer
        self.model = pipeline.final_estimator

    # ------------------------------------------------------------------
    def score(self, table: Table) -> np.ndarray:
        """Positive-class probability per row, computed row-at-a-time."""
        # Pre-fetch the raw columns once (Spark's row pipeline hands the
        # operator a row object; the per-row work below is the point).
        raw: Dict[str, np.ndarray] = {
            name: table.array(name)
            for _, _, cols in self.transformer.transformers for name in cols
        }
        n = table.num_rows
        out = np.empty(n)
        for i in range(n):
            features = self._featurize_row(raw, i)
            out[i] = self._score_row(features)
        return out

    # ------------------------------------------------------------------
    def _featurize_row(self, raw: Dict[str, np.ndarray], i: int) -> List[float]:
        features: List[float] = []
        for _name, transformer, cols in self.transformer.transformers:
            if isinstance(transformer, StandardScaler):
                for j, column in enumerate(cols):
                    value = float(raw[column][i])
                    features.append((value - transformer.mean_[j])
                                    / transformer.scale_[j])
            elif isinstance(transformer, OneHotEncoder):
                for j, column in enumerate(cols):
                    value = raw[column][i]
                    for category in transformer.categories_[j]:
                        features.append(1.0 if value == category else 0.0)
            else:
                raise ValueError(
                    f"row-wise baseline lacks {type(transformer).__name__}"
                )
        return features

    def _score_row(self, features: List[float]) -> float:
        model = self.model
        if isinstance(model, LogisticRegression):
            margin = model.intercept_[0]
            coefficients = model.coef_[0]
            for j, value in enumerate(features):
                margin += coefficients[j] * value
            return float(sigmoid(np.asarray([margin]))[0])
        if isinstance(model, DecisionTreeClassifier):
            return _walk_tree(model.tree_, features)[1]
        if isinstance(model, RandomForestClassifier):
            total = 0.0
            for tree in model.trees():
                total += _walk_tree(tree, features)[1]
            return total / len(model.estimators_)
        if isinstance(model, GradientBoostingClassifier):
            margin = model.init_score_
            for tree in model.trees():
                margin += model.learning_rate * _walk_tree(tree, features)[0]
            return float(sigmoid(np.asarray([margin]))[0])
        raise ValueError(f"row-wise baseline lacks {type(model).__name__}")


def _walk_tree(tree: Tree, features: Sequence[float]):
    node = 0
    while tree.left[node] >= 0:
        node = tree.left[node] if features[tree.feature[node]] \
            <= tree.threshold[node] else tree.right[node]
    value = tree.value[node]
    if len(value) == 1:
        return float(value[0]), float(value[0])
    return float(value[0]), float(value[1])
