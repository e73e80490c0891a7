"""Synthetic datasets matching the paper's Table 1 schemas + the OpenML
CC-18 pipeline-corpus stand-in (substitutions: benchmarks/SCORECARD.md)."""

from repro.datasets import creditcard, expedia, flights, hospital
from repro.datasets.corpus import CorpusEntry, generate_corpus, generate_entry
from repro.datasets.synth import (
    Dataset,
    SignalSpec,
    binary_label,
    categorical_column,
    category_codes,
    latent_score,
)

DATASET_GENERATORS = {
    "creditcard": creditcard.generate,
    "hospital": hospital.generate,
    "expedia": expedia.generate,
    "flights": flights.generate,
}

__all__ = [
    "CorpusEntry", "DATASET_GENERATORS", "Dataset", "SignalSpec",
    "binary_label", "categorical_column", "category_codes", "creditcard",
    "expedia", "flights", "generate_corpus", "generate_entry", "hospital",
    "latent_score",
]
