"""Micro-benchmarks: the individual execution paths Raven chooses between.

Ablation-style timings: the same trained
pipeline scored through the ML runtime, the compiled SQL expressions, and
the two tensor strategies — plus the relational primitives (scan, join)
underneath every prediction query. The four scoring paths must agree:
each asserts its ``score`` equals the ML runtime's within 1e-9, and the
ML runtime fed dictionary codes equals it bit for bit.
"""

import numpy as np
import pytest

from benchmarks._util import build_workload, load_dataset
from repro.core.rules.ml_to_sql import graph_to_expressions
from repro.onnxlite import InferenceSession, convert_pipeline
from repro.relational import Executor, Join, Scan
from repro.storage import Catalog
from repro.tensor import CpuDevice, compile_graph


@pytest.fixture(scope="module")
def hospital_workload():
    return build_workload("hospital", "dt")


@pytest.fixture(scope="module")
def scoring_setup(hospital_workload):
    dataset = hospital_workload.dataset
    frame = dataset.joined()
    graph = convert_pipeline(hospital_workload.pipeline)
    inputs = {name: frame.array(name)
              for name in dataset.numeric_inputs + dataset.categorical_inputs}
    return frame, graph, inputs


@pytest.fixture(scope="module")
def reference_score(scoring_setup):
    _frame, graph, inputs = scoring_setup
    return InferenceSession(graph).run(inputs, ["score"])["score"]


def assert_agrees(score, reference_score):
    assert np.allclose(np.ravel(score), np.ravel(reference_score),
                       rtol=0.0, atol=1e-9)


def test_scan_throughput(benchmark, hospital_workload):
    session = hospital_workload.make_session(enable_optimizations=False)
    executor = Executor(session.catalog)
    benchmark(lambda: executor.execute(Scan("hospital_stays")))


def test_hash_join_throughput(benchmark):
    dataset = load_dataset("expedia")
    catalog = Catalog()
    for name, table in dataset.tables.items():
        catalog.add_table(name, table,
                          primary_key=dataset.primary_keys.get(name))
    plan = Join(Scan("searches", "s"), Scan("hotels", "h"),
                ["s.prop_id"], ["h.prop_id"])
    executor = Executor(catalog)
    benchmark(lambda: executor.execute(plan))


def test_score_ml_runtime(benchmark, scoring_setup, reference_score):
    _frame, graph, inputs = scoring_setup
    session = InferenceSession(graph)
    outputs = benchmark(lambda: session.run(inputs, ["score"]))
    assert_agrees(outputs["score"], reference_score)


def test_score_ml_runtime_coded(benchmark, hospital_workload, scoring_setup,
                                reference_score):
    """The ML runtime fed dictionary codes, as a registered table feeds it:
    bit for bit the scores of the string-fed run."""
    frame, graph, inputs = scoring_setup
    coded, dictionaries = dict(inputs), {}
    for name in hospital_workload.dataset.categorical_inputs:
        column = frame.column(name).encoded()
        coded[name], dictionaries[name] = column.codes, column.dictionary
    session = InferenceSession(graph)
    outputs = benchmark(lambda: session.run(coded, ["score"], dictionaries))
    assert np.array_equal(outputs["score"], reference_score)


def test_score_sql_expressions(benchmark, scoring_setup, reference_score):
    frame, graph, inputs = scoring_setup
    expressions = graph_to_expressions(graph, {n: n for n in inputs})
    score = expressions["score"]
    assert_agrees(benchmark(lambda: score.evaluate(frame)), reference_score)


@pytest.mark.parametrize("strategy", ["gemm", "traversal"])
def test_score_tensor_strategies(benchmark, scoring_setup, reference_score,
                                 strategy):
    _frame, graph, inputs = scoring_setup
    program = compile_graph(graph, tree_strategy=strategy)
    device = CpuDevice()
    result = benchmark(lambda: device.run(program, inputs))
    assert_agrees(result.outputs["score"], reference_score)


def test_optimizer_pass_latency(benchmark, hospital_workload):
    """The co-optimizer itself (paper §7.4: 1-5s warm)."""
    session = hospital_workload.make_session()
    benchmark(lambda: session.optimize(hospital_workload.query))
