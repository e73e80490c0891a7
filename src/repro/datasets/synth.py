"""Shared synthetic-data machinery for the benchmark datasets.

The paper evaluates on four real datasets (Credit Card, Hospital LoS,
Expedia, Flights — Table 1). Values are not public here, so each dataset
module generates synthetic data matching the *published schema statistics*:
number of tables, numeric/categorical input split, post-encoding feature
counts, join arity, and the partitionable columns. Raven's gains depend on
those shape properties, not on the actual values.

Labels are generated from hierarchical signal functions: a few strong
feature dependencies, several medium, many weak — so that shallow trees use
few columns and deep trees progressively use more (the unused-column counts
Fig. 10 sweeps depend on this structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.learn.base import sigmoid
from repro.learn.pipeline import Pipeline, make_standard_pipeline
from repro.storage.table import Table


def categorical_column(rng: np.random.Generator, n_rows: int, cardinality: int,
                       prefix: str, skew: float = 1.2) -> np.ndarray:
    """A skewed (zipf-ish) categorical column with guaranteed full coverage.

    The first ``cardinality`` rows enumerate every category once so that
    schema statistics (feature counts after encoding) are exact even for
    small row counts.
    """
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = 1.0 / ranks ** skew
    weights /= weights.sum()
    codes = rng.choice(cardinality, size=n_rows, p=weights)
    coverage = min(cardinality, n_rows)
    codes[:coverage] = np.arange(coverage)
    return np.char.add(f"{prefix}_", codes.astype(np.str_))


def category_codes(values: np.ndarray) -> np.ndarray:
    """Back out integer codes from ``prefix_<code>`` category strings."""
    return np.asarray([v.rsplit("_", 1)[-1] for v in values], dtype=np.int64)


@dataclass
class SignalSpec:
    """One additive term of a label's latent score."""

    column: str
    weight: float
    kind: str = "linear"       # linear | threshold | category
    threshold: float = 0.0
    categories: Tuple[str, ...] = ()


def latent_score(columns: Dict[str, np.ndarray],
                 signals: Sequence[SignalSpec]) -> np.ndarray:
    """Combine signal terms into a latent real-valued score."""
    n = len(next(iter(columns.values())))
    score = np.zeros(n)
    for signal in signals:
        values = columns[signal.column]
        if signal.kind == "linear":
            standardized = (values - values.mean()) / (values.std() + 1e-9)
            score += signal.weight * standardized
        elif signal.kind == "threshold":
            score += signal.weight * (values > signal.threshold)
        elif signal.kind == "category":
            score += signal.weight * np.isin(values, np.asarray(signal.categories))
        else:
            raise ValueError(f"unknown signal kind: {signal.kind!r}")
    return score


def binary_label(rng: np.random.Generator, score: np.ndarray,
                 noise: float = 0.5, positive_rate: float = 0.5) -> np.ndarray:
    """Label = 1 with probability sigmoid(score + noise), centered so that
    roughly ``positive_rate`` of rows are positive."""
    noisy = score + rng.normal(0.0, noise, len(score))
    shift = np.quantile(noisy, 1.0 - positive_rate)
    return (rng.random(len(score)) < sigmoid(2.0 * (noisy - shift))).astype(np.int64)


@dataclass
class Dataset:
    """A benchmark dataset: tables, join topology, inputs, labels.

    ``join_spec`` lists star joins from the fact table:
    ``(fact_column, dimension_table, dimension_alias, dimension_column)``.
    ``numeric_inputs``/``categorical_inputs`` are unqualified column names
    as seen in the denormalized (joined) view — these are the model inputs.
    """

    name: str
    tables: Dict[str, Table]
    fact_table: str
    primary_keys: Dict[str, List[str]]
    join_spec: List[Tuple[str, str, str, str]]
    numeric_inputs: List[str]
    categorical_inputs: List[str]
    label: np.ndarray
    partition_columns: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return len(self.numeric_inputs) + len(self.categorical_inputs)

    def joined(self) -> Table:
        """The denormalized training frame (fact x dimensions, row-aligned)."""
        fact = self.tables[self.fact_table]
        columns = dict(fact.columns)
        for fact_column, dim_table, _alias, dim_column in self.join_spec:
            dimension = self.tables[dim_table]
            keys = dimension.array(dim_column)
            order = np.argsort(keys)
            positions = order[np.searchsorted(keys[order],
                                              fact.array(fact_column))]
            for name, column in dimension.columns.items():
                if name == dim_column:
                    continue
                columns.setdefault(name, column.take(positions))
        return Table(columns)

    def encoded_feature_count(self) -> Tuple[int, int]:
        """(numeric features, categorical features after one-hot encoding)."""
        joined = self.joined()
        categorical = sum(len(np.unique(joined.array(c)))
                          for c in self.categorical_inputs)
        return len(self.numeric_inputs), categorical

    # ------------------------------------------------------------------
    def train_pipeline(self, model, train_rows: Optional[int] = None,
                       seed: int = 0) -> Pipeline:
        """Fit the paper's canonical pipeline shape on (a sample of) the data."""
        frame = self.joined()
        labels = self.label
        if train_rows is not None and train_rows < frame.num_rows:
            rng = np.random.default_rng(seed)
            sample = rng.choice(frame.num_rows, train_rows, replace=False)
            frame = frame.take(sample)
            labels = labels[sample]
        pipeline = make_standard_pipeline(model, self.numeric_inputs,
                                          self.categorical_inputs)
        pipeline.fit(frame, labels)
        return pipeline

    # ------------------------------------------------------------------
    def register(self, session, partition_column: Optional[str] = None) -> None:
        """Register all tables into a RavenSession."""
        for name, table in self.tables.items():
            session.register_table(
                name, table,
                primary_key=self.primary_keys.get(name),
                partition_column=(partition_column
                                  if name == self.fact_table else None),
                replace=True,
            )

    def data_cte(self) -> str:
        """The ``WITH data AS (...)`` join producing the denormalized view."""
        fact_alias = "f"
        parts = [f"SELECT * FROM {self.fact_table} AS {fact_alias}"]
        for index, (fact_column, dim_table, alias, dim_column) in \
                enumerate(self.join_spec):
            parts.append(
                f"JOIN {dim_table} AS {alias} "
                f"ON {fact_alias}.{fact_column} = {alias}.{dim_column}"
            )
        return " ".join(parts)

    def prediction_query(self, model_name: str, score_column: str = "score",
                         where: Optional[str] = None,
                         aggregate: bool = False) -> str:
        """The paper-shaped prediction query over this dataset."""
        predicates = [where] if where else []
        where_sql = f" WHERE {' AND '.join(predicates)}" if predicates else ""
        if aggregate:
            select = f"SELECT AVG(p.{score_column}) AS avg_score, COUNT(*) AS n"
        else:
            select = f"SELECT d.{self._id_column()}, p.{score_column}"
        if self.join_spec:
            return (
                f"WITH data AS ({self.data_cte()}) "
                f"{select} FROM PREDICT(MODEL = {model_name}, DATA = data AS d) "
                f"WITH ({score_column} FLOAT) AS p{where_sql}"
            )
        return (
            f"{select} FROM PREDICT(MODEL = {model_name}, "
            f"DATA = {self.fact_table} AS d) "
            f"WITH ({score_column} FLOAT) AS p{where_sql}"
        )

    def _id_column(self) -> str:
        return self.primary_keys[self.fact_table][0]
