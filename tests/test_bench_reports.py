"""Fast tests for the paper-figure reports in ``benchmarks/bench_paper.py``
(tiny sizes through ``RAVEN_SCALE``).

Full-scale report generation is ``benchmarks/bench_paper.py`` itself; these
tests cover the reporting machinery: row structure, note emission, and the
corpus measurement protocol.
"""

import numpy as np
import pytest

from benchmarks import bench_paper
from repro.core.strategies import CHOICES, measure_corpus_runtimes
from repro.datasets import generate_corpus

# Corpus generation + measurement dominates the suite's runtime; the PR CI
# job skips these and the full set runs on pushes to main.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def tiny_corpus():
    # LR and RF pipelines only: training a GB pipeline costs seconds. At
    # 2,000 rows CPU dnn costs more than the simulated GPU's fixed launch cost.
    return generate_corpus(n_pipelines=3, seed=3, train_rows=200,
                           eval_rows=2_000)


@pytest.fixture
def tiny_scale(monkeypatch, tiny_corpus):
    """Small datasets, and every report's corpus is ``tiny_corpus``."""
    monkeypatch.setenv("RAVEN_SCALE", "0.01")
    monkeypatch.setattr(bench_paper, "generate_corpus",
                        lambda **_: tiny_corpus)


class TestCorpusMeasurement:
    def test_cpu_vs_gpu_dnn_measurement(self, tiny_corpus):
        _, gpu_runtimes = measure_corpus_runtimes(tiny_corpus, repeats=1,
                                                  gpu=True)
        _, cpu_runtimes = measure_corpus_runtimes(tiny_corpus, repeats=1,
                                                  gpu=False)
        dnn = CHOICES.index("dnn")
        # The simulated GPU prices dnn far below CPU execution.
        assert gpu_runtimes[:, dnn].sum() < cpu_runtimes[:, dnn].sum()

    def test_label_mismatch_rate_numeric_aware(self):
        rate = bench_paper._label_mismatch_rate(
            np.asarray([1.0, 0.0, 1.0]), np.asarray([1, 0, 0]))
        assert rate == pytest.approx(1 / 3)
        rate = bench_paper._label_mismatch_rate(
            np.asarray(["a", "b"]), np.asarray(["a", "a"]))
        assert rate == 0.5


class TestReportStructure:
    def test_fig1_rows(self, tiny_scale):
        table = bench_paper.fig1_report()
        assert len(table.rows) == 7  # the seven Fig. 1 metrics
        assert table.notes

    def test_table1_rows(self, tiny_scale):
        table = bench_paper.table1_report()
        assert {r["dataset"] for r in table.rows} == \
            {"creditcard", "hospital", "expedia", "flights"}

    def test_coverage_report(self, tiny_scale, tiny_corpus, monkeypatch):
        monkeypatch.setattr(bench_paper, "CORPUS_PIPELINES", len(tiny_corpus))
        table = bench_paper.coverage_report()
        rows = {r["capability"]: r for r in table.rows}
        assert rows["unified IR"]["pct"] == 100.0
        assert rows["unified IR"]["total"] == len(tiny_corpus)

    def test_accuracy_report_tiny(self, tiny_scale):
        table = bench_paper.accuracy_report()
        assert len(table.rows) == 2
        assert {r["models"] for r in table.rows} == {3}
        for row in table.rows:
            assert row["max_mismatch_pct"] <= 0.8

    def test_full_scale_width_lookup(self):
        assert bench_paper._full_scale_width("expedia") == 3965
        assert bench_paper._full_scale_width("flights") == 6475
