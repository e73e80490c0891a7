"""Strategy training data and evaluation protocol (paper §5.2, Fig. 4).

:func:`measure_corpus_runtimes` times every corpus pipeline under each
choice, which is what the strategies are trained on. Evaluation is
stratified 5-fold cross validation repeated R times (the paper: 40 repeats
for 200 total runs). Each run reports:

* **accuracy** — fraction of test pipelines whose predicted transformation
  matches the true fastest one;
* **speedup optimality** — (total runtime under the oracle) / (total
  runtime under the strategy's choices) over the test fold; 1.0 means the
  strategy matched the optimum everywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.rules.ml_to_sql import graph_to_expressions
from repro.core.strategies.base import (
    CHOICES,
    OptimizationStrategy,
    best_choice_labels,
)
from repro.core.strategies.features import feature_vector
from repro.errors import UnsupportedOperatorError
from repro.learn.model_selection import StratifiedKFold
from repro.onnxlite.runtime import InferenceSession
from repro.tensor.runtime import cpu_runtime, gpu_runtime


def measure_corpus_runtimes(entries: Sequence, repeats: int = 2,
                            gpu: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """(feature matrix, runtimes[pipeline, choice]) over {none, sql, dnn}
    for ``repro.datasets.corpus`` entries.

    ``none`` and ``sql`` are measured on this host, as the mean of
    ``repeats`` runs. ``dnn`` depends on the hardware the strategy is
    being trained for (paper §5.2: "adapt to the specific hardware in
    hand"): with ``gpu=True`` it uses the simulated-GPU device model (the
    paper measured on P100 instances); with ``gpu=False`` it measures
    MLtoDNN on the CPU tensor runtime, matching the paper's CPU-cluster
    experiments where "MLtoDNN is never picked". Untranslatable pipelines
    get +inf for that choice, as the paper's protocol excludes them from
    that option.
    """
    features = np.vstack([feature_vector(entry.graph) for entry in entries])
    runtimes = np.full((len(entries), len(CHOICES)), np.inf)
    dnn_runtime = gpu_runtime() if gpu else cpu_runtime()
    for index, entry in enumerate(entries):
        inputs = {name: entry.eval_table.array(name)
                  for name in entry.input_columns}
        session = InferenceSession(entry.graph)
        runtimes[index, CHOICES.index("none")] = _mean_seconds(
            lambda: session.run(inputs, ["score"]), repeats)
        try:
            score = graph_to_expressions(
                entry.graph, {name: name for name in entry.input_columns})["score"]
            runtimes[index, CHOICES.index("sql")] = _mean_seconds(
                lambda: score.evaluate(entry.eval_table), repeats)
        except UnsupportedOperatorError:
            pass
        try:
            if gpu:
                seconds = dnn_runtime.run(entry.graph, inputs).seconds
            else:
                seconds = _mean_seconds(
                    lambda: dnn_runtime.run(entry.graph, inputs), repeats)
            runtimes[index, CHOICES.index("dnn")] = seconds
        except UnsupportedOperatorError:
            pass
    return features, runtimes


def _mean_seconds(fn: Callable[[], object], repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(max(repeats, 1)):
        fn()
    return (time.perf_counter() - started) / max(repeats, 1)


@dataclass
class StrategyEvaluation:
    """Per-run metrics plus distribution summaries."""

    name: str
    accuracies: List[float] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else 0.0

    def accuracy_std(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else 0.0

    def speedup_percentiles(self) -> Dict[str, float]:
        if not self.speedups:
            return {}
        values = np.asarray(self.speedups)
        return {
            "min": float(values.min()),
            "p25": float(np.percentile(values, 25)),
            "median": float(np.percentile(values, 50)),
            "p75": float(np.percentile(values, 75)),
            "max": float(values.max()),
        }


def evaluate_strategy(factory, features: np.ndarray, runtimes: np.ndarray,
                      choices: Sequence[str] = CHOICES, n_splits: int = 5,
                      repeats: int = 40, random_state: int = 0,
                      name: str = "strategy") -> StrategyEvaluation:
    """Run the paper's repeated stratified-fold protocol.

    ``factory`` builds a fresh unfitted strategy per fold. With the default
    5 splits x 40 repeats this yields the paper's 200 runs.
    """
    features = np.asarray(features, dtype=np.float64)
    runtimes = np.asarray(runtimes, dtype=np.float64)
    labels = best_choice_labels(runtimes, choices)
    evaluation = StrategyEvaluation(name=name)

    for repeat in range(repeats):
        splitter = StratifiedKFold(n_splits=n_splits, shuffle=True,
                                   random_state=random_state + repeat)
        for train_index, test_index in splitter.split(features, labels):
            strategy: OptimizationStrategy = factory()
            strategy.fit(features[train_index], runtimes[train_index], choices)
            predicted = [strategy.choose_from_vector(features[i])
                         for i in test_index]
            predicted_index = np.asarray([list(choices).index(p)
                                          for p in predicted])
            true_index = labels[test_index]
            evaluation.accuracies.append(
                float(np.mean(predicted_index == true_index)))
            chosen_runtime = runtimes[test_index, predicted_index].sum()
            optimal_runtime = runtimes[test_index, true_index].sum()
            evaluation.speedups.append(
                float(optimal_runtime / chosen_runtime) if chosen_runtime else 0.0)
    return evaluation


def class_balance(runtimes: np.ndarray,
                  choices: Sequence[str] = CHOICES) -> Dict[str, int]:
    """How many pipelines each transformation wins (paper: 25/72/41)."""
    labels = best_choice_labels(runtimes, choices)
    return {choice: int(np.sum(labels == i))
            for i, choice in enumerate(choices)}
