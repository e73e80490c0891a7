"""Data-driven optimization strategies (paper §5.2)."""

from repro.core.strategies.base import (
    CHOICES,
    FixedStrategy,
    OptimizationStrategy,
    best_choice_labels,
)
from repro.core.strategies.evaluate import (
    StrategyEvaluation,
    class_balance,
    evaluate_strategy,
    measure_corpus_runtimes,
)
from repro.core.strategies.features import (
    FEATURE_NAMES,
    feature_matrix,
    feature_vector,
    pipeline_statistics,
)
from repro.core.strategies.learned import ClassificationStrategy, RegressionStrategy
from repro.core.strategies.rule_based import (
    DefaultPaperRule,
    MLInformedRuleStrategy,
    tree_feature_importances,
)

__all__ = [
    "CHOICES", "ClassificationStrategy", "DefaultPaperRule", "FEATURE_NAMES",
    "FixedStrategy", "MLInformedRuleStrategy", "OptimizationStrategy",
    "RegressionStrategy", "StrategyEvaluation", "best_choice_labels",
    "class_balance", "evaluate_strategy", "feature_matrix", "feature_vector",
    "measure_corpus_runtimes", "pipeline_statistics", "tree_feature_importances",
]
