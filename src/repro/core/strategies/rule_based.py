"""ML-informed rule-based strategy (paper §5.2).

Instead of hand-written magic numbers, the strategy (i) trains a full
decision tree on the corpus, (ii) keeps the ``k`` most important features,
and (iii) retrains a much shallower tree on just those — the shallow tree
*is* the rule, and it can be rendered as readable if/else text. No ML model
needs to be invoked at optimization time beyond a 3-level tree walk, which
is what made this variant attractive for production in the paper.

:class:`DefaultPaperRule` hard-codes the example rule the paper reports
(#features > 100 -> MLtoDNN; #inputs > 12 and mean depth <= 10 -> MLtoSQL),
used as the out-of-the-box strategy when no corpus has been measured.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.strategies.base import (
    CHOICES,
    OptimizationStrategy,
    best_choice_labels,
)
from repro.core.strategies.features import FEATURE_NAMES
from repro.learn.tree import DecisionTreeClassifier, Tree


def tree_feature_importances(tree: Tree, n_features: int) -> np.ndarray:
    """Sample-weighted split-frequency importances.

    Each internal node credits its split feature with the number of samples
    it routed; normalized to sum to one.
    """
    internal = tree.left >= 0
    importances = np.bincount(tree.feature[internal],
                              weights=tree.n_samples[internal],
                              minlength=n_features)
    total = importances.sum()
    return importances / total if total > 0 else importances


class MLInformedRuleStrategy(OptimizationStrategy):
    """Deep tree -> top-k features -> shallow tree -> rule."""

    name = "rule_based"

    def __init__(self, top_k: int = 3, rule_depth: int = 3,
                 random_state: int = 0):
        self.top_k = top_k
        self.rule_depth = rule_depth
        self.random_state = random_state
        self.selected_features_: Optional[List[int]] = None
        self.rule_tree_: Optional[DecisionTreeClassifier] = None
        self.choices_: List[str] = list(CHOICES)

    def fit(self, features: np.ndarray, runtimes: np.ndarray,
            choices: Sequence[str] = CHOICES) -> "MLInformedRuleStrategy":
        self.choices_ = list(choices)
        labels = best_choice_labels(runtimes, choices)
        full_tree = DecisionTreeClassifier(max_depth=None,
                                           random_state=self.random_state)
        full_tree.fit(features, labels)
        importances = tree_feature_importances(full_tree.tree_,
                                               features.shape[1])
        self.selected_features_ = list(
            np.argsort(importances)[::-1][: self.top_k])
        shallow = DecisionTreeClassifier(max_depth=self.rule_depth,
                                         random_state=self.random_state)
        shallow.fit(features[:, self.selected_features_], labels)
        self.rule_tree_ = shallow
        return self

    def choose_from_vector(self, vector: np.ndarray) -> str:
        if self.rule_tree_ is None:
            raise RuntimeError("strategy must be fitted first")
        selected = vector[self.selected_features_].reshape(1, -1)
        label = int(self.rule_tree_.predict(selected)[0])
        return self.choices_[label]

    def describe_rule(self) -> str:
        """Render the shallow tree as readable nested if/else text."""
        if self.rule_tree_ is None:
            return "<unfitted rule>"
        names = [FEATURE_NAMES[i] for i in self.selected_features_]
        tree = self.rule_tree_.tree_

        def render(node: int, indent: int) -> List[str]:
            pad = "  " * indent
            if tree.left[node] < 0:
                label = self.choices_[int(np.argmax(tree.value[node]))]
                return [f"{pad}apply {_render_choice(label)}"]
            lines = [f"{pad}if {names[tree.feature[node]]} <= "
                     f"{tree.threshold[node]:g}:"]
            lines += render(tree.left[node], indent + 1)
            lines.append(f"{pad}else:")
            lines += render(tree.right[node], indent + 1)
            return lines

        return "\n".join(render(0, 0))


def _render_choice(choice: str) -> str:
    return {"none": "no transformation", "sql": "MLtoSQL",
            "dnn": "MLtoDNN"}.get(choice, choice)


class DefaultPaperRule(OptimizationStrategy):
    """The example rule the paper's strategy generated (k=3):

    *if #features > 100, apply MLtoDNN; else if #inputs > 12 and mean tree
    depth <= 10, apply MLtoSQL; else no transformation.*

    ``gpu_available=False`` redirects the MLtoDNN branch to "none", since
    the paper excludes MLtoDNN-on-CPU for simple models.
    """

    name = "default_paper_rule"

    def __init__(self, gpu_available: bool = True):
        self.gpu_available = gpu_available

    def choose_from_vector(self, vector: np.ndarray) -> str:
        stats = dict(zip(FEATURE_NAMES, vector))
        if stats["n_features"] > 100 and self.gpu_available:
            return "dnn"
        if stats["n_inputs"] > 12 and stats["mean_tree_depth"] <= 10:
            return "sql"
        # Small-input pipelines: SQL still wins for shallow models.
        if stats["mean_tree_depth"] <= 10 and stats["n_features"] <= 100:
            return "sql"
        return "none"
