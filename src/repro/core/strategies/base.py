"""Strategy interface: pick {none, sql, dnn} for a trained pipeline."""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.strategies.features import feature_vector
from repro.onnxlite.graph import Graph

CHOICES: List[str] = ["none", "sql", "dnn"]


class OptimizationStrategy:
    """Decides which logical-to-physical transformation to apply (§5.2).

    ``choose`` receives the (already logically-optimized) pipeline graph and
    returns one of :data:`CHOICES`. Trained strategies implement ``fit``
    over a corpus of (statistics, measured runtimes per choice).
    """

    name: str = "strategy"

    def choose(self, graph: Graph,
               features: Callable[[Graph], np.ndarray] = feature_vector) -> str:
        """The choice for ``graph``; ``features(graph)`` is its statistics
        vector (the optimizer passes a memoized one)."""
        return self.choose_from_vector(features(graph))

    def fit(self, features: np.ndarray, runtimes: np.ndarray,
            choices: Sequence[str] = CHOICES) -> "OptimizationStrategy":
        """Train from per-pipeline statistics and measured runtimes.

        ``features``: [n_pipelines, n_stats]; ``runtimes``:
        [n_pipelines, len(choices)] seconds per physical option.
        """
        raise NotImplementedError

    def choose_from_vector(self, vector: np.ndarray) -> str:
        raise NotImplementedError


class FixedStrategy(OptimizationStrategy):
    """Always the same choice — used to force a specific transformation
    (the micro-benchmarks sweep each rule in isolation this way)."""

    def __init__(self, choice: str):
        if choice not in CHOICES:
            raise ValueError(f"unknown choice: {choice!r}")
        self.choice = choice
        self.name = f"fixed:{choice}"

    def choose(self, graph: Graph,
               features: Callable[[Graph], np.ndarray] = feature_vector) -> str:
        return self.choice

    def choose_from_vector(self, vector: np.ndarray) -> str:
        return self.choice


def best_choice_labels(runtimes: np.ndarray,
                       choices: Sequence[str] = CHOICES) -> np.ndarray:
    """Index of the fastest option per pipeline (training labels)."""
    return np.argmin(np.asarray(runtimes, dtype=np.float64), axis=1)
