"""The bench harness: scaling, timing, report tables and paper workloads.

Every benchmark runs its report generator under ``benchmark.pedantic`` (so
``pytest benchmarks/ --benchmark-only`` times it) and writes the
paper-style table to ``benchmarks/results/<name>.txt`` for inspection.
Nothing under ``results/`` is committed.

``RAVEN_SCALE`` (default 1.0) multiplies every benchmark's sizes, so the
suite runs paper-shaped on a big machine or quickly in CI (0.02). The
paper reports the trimmed mean of five runs, dropping min and max;
:func:`timed` implements that protocol.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.session import RavenSession
from repro.datasets import DATASET_GENERATORS
from repro.datasets.synth import Dataset
from repro.learn.ensemble import GradientBoostingClassifier, RandomForestClassifier
from repro.learn.linear import LogisticRegression
from repro.learn.pipeline import Pipeline
from repro.learn.tree import DecisionTreeClassifier

RESULTS_DIR = Path(__file__).parent / "results"


# ---------------------------------------------------------------------------
# Scale and timing
# ---------------------------------------------------------------------------

def env_scale() -> float:
    """The global size multiplier (``RAVEN_SCALE``, default 1.0)."""
    return float(os.environ.get("RAVEN_SCALE", "1.0"))


def scaled(rows: int, minimum: int = 1_000) -> int:
    """Apply the global scale to a base size, never below ``minimum``."""
    return max(minimum, int(rows * env_scale()))


def timed(fn: Callable[[], object], repeats: int = 5,
          trimmed: bool = True) -> float:
    """Trimmed-mean wall time of ``fn`` (paper §7, 'Reported metrics')."""
    times: List[float] = []
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    if trimmed and len(times) >= 3:
        times = sorted(times)[1:-1]
    return sum(times) / len(times)


def timed_session_query(session, query: str, repeats: int = 3) -> float:
    """Trimmed-mean *adjusted* seconds of a session query.

    Adjusted seconds replace measured simulated-GPU time with the device
    model's time (see ``repro.core.executor``); for CPU-only runs this is
    identical to wall time.
    """
    times: List[float] = []
    for _ in range(max(repeats, 1)):
        session.sql(query)
        times.append(session.last_run.adjusted_seconds)
    if len(times) >= 3:
        times = sorted(times)[1:-1]
    return sum(times) / len(times)


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------

@dataclass
class ReportTable:
    """A paper-style results table that renders as aligned text."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **values: object) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 100:
                    return f"{value:.0f}"
                if abs(value) >= 1:
                    return f"{value:.2f}"
                return f"{value:.4f}"
            return str(value)

        grid = [[fmt(row.get(col, "")) for col in self.columns]
                for row in self.rows]
        widths = [max(len(self.columns[i]),
                      *(len(r[i]) for r in grid)) if grid else len(self.columns[i])
                  for i in range(len(self.columns))]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in grid:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def save_report(table: ReportTable, name: str) -> None:
    """Print the report and write it to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = table.render()
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_report(benchmark, fn, name: str):
    """Time one report generation and save its output table(s)."""
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    if isinstance(result, tuple):
        for index, table in enumerate(result):
            save_report(table, f"{name}_{index}")
    else:
        save_report(result, name)
    return result


# ---------------------------------------------------------------------------
# Paper workloads: datasets + models + queries
# ---------------------------------------------------------------------------

# Base row counts per dataset (paper scales: 1.6B/2B/500M/200M; this
# substrate uses laptop-scale defaults; RAVEN_SCALE multiplies them).
BASE_ROWS = {
    "creditcard": 400_000,
    "hospital": 400_000,
    "expedia": 120_000,
    "flights": 80_000,
}
# High-cardinality datasets train at reduced cardinality so CART split
# search stays tractable in pure Python.
CARDINALITY_SCALE = {"expedia": 0.08, "flights": 0.05}
TRAIN_ROWS = 4_000


def make_model(kind: str, **overrides):
    """Models with the paper's §7.1 hyperparameters (overridable)."""
    if kind == "lr":
        params = {"penalty": "l1", "C": 0.05, "max_iter": 500}
        params.update(overrides)
        return LogisticRegression(**params)
    if kind == "dt":
        params = {"max_depth": 8, "random_state": 0}
        params.update(overrides)
        return DecisionTreeClassifier(**params)
    if kind == "gb":
        params = {"n_estimators": 20, "max_depth": 3, "random_state": 0}
        params.update(overrides)
        return GradientBoostingClassifier(**params)
    if kind == "rf":
        params = {"n_estimators": 20, "max_depth": 8, "random_state": 0}
        params.update(overrides)
        return RandomForestClassifier(**params)
    raise ValueError(f"unknown model kind: {kind!r}")


@lru_cache(maxsize=None)
def load_dataset(name: str, rows: Optional[int] = None, seed: int = 0) -> Dataset:
    """Generate (and cache) a benchmark dataset at harness scale."""
    generator = DATASET_GENERATORS[name]
    n_rows = rows if rows is not None else scaled(BASE_ROWS[name])
    kwargs = {}
    if name in CARDINALITY_SCALE:
        kwargs["cardinality_scale"] = CARDINALITY_SCALE[name]
    return generator(n_rows, seed=seed, **kwargs)


@dataclass
class Workload:
    """A ready-to-run prediction-query workload."""

    dataset: Dataset
    pipeline: Pipeline
    model_name: str
    query: str

    def make_session(self, **session_kwargs) -> RavenSession:
        session = RavenSession(**session_kwargs)
        self.dataset.register(session)
        session.register_model(self.model_name, self.pipeline, replace=True)
        return session


@lru_cache(maxsize=None)
def _trained_pipeline(dataset_name: str, model_kind: str,
                      overrides: Tuple[Tuple[str, object], ...] = ()) -> Pipeline:
    dataset = load_dataset(dataset_name)
    model = make_model(model_kind, **dict(overrides))
    return dataset.train_pipeline(model, train_rows=TRAIN_ROWS)


def build_workload(dataset_name: str, model_kind: str,
                   where: Optional[str] = None, aggregate: bool = False,
                   **model_overrides) -> Workload:
    """Dataset + trained pipeline + the paper-shaped prediction query."""
    dataset = load_dataset(dataset_name)
    pipeline = _trained_pipeline(dataset_name, model_kind,
                                 tuple(sorted(model_overrides.items())))
    model_name = f"{dataset_name}_{model_kind}"
    query = dataset.prediction_query(model_name, where=where,
                                     aggregate=aggregate)
    return Workload(dataset=dataset, pipeline=pipeline,
                    model_name=model_name, query=query)
