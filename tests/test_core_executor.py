"""Tests for PredictRuntime (UDF-style batching, modes, partition dispatch)."""

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.core.executor import PredictRuntime, QueryExecutor
from repro.errors import ExecutionError
from repro.learn import DecisionTreeClassifier, make_standard_pipeline
from repro.onnxlite import convert_pipeline
from repro.relational.logical import Predict, PredictMode, Scan
from repro.storage import Catalog, DataType


@pytest.fixture()
def setup(rng):
    n = 25_000
    table = Table.from_arrays(
        id=np.arange(n), x=rng.normal(size=n), z=rng.normal(size=n),
        c=rng.choice(["a", "b"], n))
    y = ((table.array("x") > 0) | (table.array("c") == "a")).astype(int)
    pipeline = make_standard_pipeline(
        DecisionTreeClassifier(max_depth=5, random_state=0), ["x", "z"], ["c"])
    pipeline.fit(table.head(3_000), y[:3_000])
    graph = convert_pipeline(pipeline)
    catalog = Catalog()
    catalog.add_table("t", table, primary_key=["id"])
    catalog.add_model("m", graph)
    predict = Predict(
        Scan("t", "d"), "m", graph,
        input_mapping={"x": "d.x", "z": "d.z", "c": "d.c"},
        output_columns=[("p.score", "score", DataType.FLOAT)],
    )
    return catalog, predict, pipeline, table


class TestBatching:
    def test_small_input_single_batch(self, setup):
        catalog, predict, pipeline, table = setup
        runtime = PredictRuntime(batch_size=100_000)
        out = QueryExecutor(catalog, runtime).execute(predict)
        assert out.num_rows == table.num_rows

    def test_batched_equals_unbatched(self, setup):
        catalog, predict, pipeline, table = setup
        big = QueryExecutor(catalog, PredictRuntime(batch_size=10 ** 9)) \
            .execute(predict)
        small = QueryExecutor(catalog, PredictRuntime(batch_size=1_000)) \
            .execute(predict)
        assert np.allclose(big.array("p.score"), small.array("p.score"))

    def test_batch_boundary_not_multiple(self, setup):
        catalog, predict, pipeline, table = setup
        # 25_000 rows with batch 7_000 -> last partial batch of 4_000.
        out = QueryExecutor(catalog, PredictRuntime(batch_size=7_000)) \
            .execute(predict)
        expected = pipeline.predict_proba(table)[:, 1]
        assert np.allclose(np.sort(out.array("p.score")), np.sort(expected))

    def test_scores_match_pipeline(self, setup):
        catalog, predict, pipeline, table = setup
        out = QueryExecutor(catalog, PredictRuntime()).execute(predict)
        ordered = out.take(np.argsort(out.array("d.id")))
        expected = pipeline.predict_proba(table)[:, 1]
        assert np.allclose(ordered.array("p.score"), expected, atol=1e-12)


class TestModes:
    def test_dnn_cpu_mode(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(mode=PredictMode.DNN_CPU)
        runtime = PredictRuntime()
        out = QueryExecutor(catalog, runtime).execute(node)
        assert out.num_rows == table.num_rows
        assert runtime.gpu_time_adjustment == 0.0

    def test_dnn_gpu_mode_accumulates_adjustment(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(mode=PredictMode.DNN_GPU)
        runtime = PredictRuntime()
        QueryExecutor(catalog, runtime).execute(node)
        assert runtime.gpu_time_adjustment != 0.0

    def test_all_modes_agree(self, setup):
        catalog, predict, pipeline, table = setup
        results = {}
        for mode in PredictMode:
            node = predict.replace(mode=mode)
            out = QueryExecutor(catalog, PredictRuntime()).execute(node)
            results[mode] = np.sort(out.array("p.score"))
        base = results[PredictMode.ML_RUNTIME]
        for mode, scores in results.items():
            assert np.allclose(scores, base, atol=1e-9), mode

    def test_session_caching_across_calls(self, setup):
        catalog, predict, pipeline, table = setup
        runtime = PredictRuntime()
        executor = QueryExecutor(catalog, runtime)
        executor.execute(predict)
        sessions_after_first = dict(runtime._sessions)
        executor.execute(predict)
        assert dict(runtime._sessions) == sessions_after_first


class TestErrors:
    def test_wide_output_rejected(self, setup):
        catalog, predict, pipeline, table = setup
        # Bind the 2-wide probabilities edge to a scalar column: must fail.
        bad = predict.replace(output_columns=[
            ("p.probs", "probabilities", DataType.FLOAT)])
        bad.graph = bad.graph.copy()
        bad.graph.outputs = ["label", "probabilities"]
        with pytest.raises(ExecutionError):
            QueryExecutor(catalog, PredictRuntime()).execute(bad)

    def test_per_partition_mismatch_rejected(self, setup):
        catalog, predict, pipeline, table = setup
        node = predict.replace(per_partition_graphs=[predict.graph])
        with pytest.raises(ExecutionError):
            QueryExecutor(catalog, PredictRuntime()).execute(node)


class TestGpuAdjustmentUnderFanOut:
    def test_dop4_adjustment_is_sum_of_batch_differences(self, setup,
                                                         monkeypatch):
        # One runtime serves every morsel worker. The four workers leave
        # their tensor run together (barrier) and reading the accumulator
        # yields the GIL, so an unlocked `+=` would lose all but one
        # update; measured time is pinned to 0 so each batch's
        # modeled-minus-measured difference is exactly its modeled time.
        import threading
        import time
        import types

        class YieldingRuntime(PredictRuntime):
            @property
            def gpu_time_adjustment(self):
                value = self._adjustment
                time.sleep(0.005)
                return value

            @gpu_time_adjustment.setter
            def gpu_time_adjustment(self, value):
                self._adjustment = value

        catalog, predict, pipeline, table = setup
        session = RavenSession(strategy="dnn", gpu_available=True, dop=4)
        session.catalog = catalog
        session.runtime.__class__ = YieldingRuntime
        session.runtime.gpu_time_adjustment = 0.0
        modeled = []
        run = session.runtime._tensor_gpu.run
        together = threading.Barrier(4)

        def recording_run(graph, inputs, **kwargs):
            result = run(graph, inputs, **kwargs)
            modeled.append(result.seconds)
            together.wait(timeout=10)
            return result

        monkeypatch.setattr(session.runtime._tensor_gpu, "run", recording_run)
        # Four workers whatever the host: the pool is capped at the usable
        # cores, and the race needs all four in flight at once.
        monkeypatch.setattr("repro.relational.morsel.usable_cores", lambda: 4)
        monkeypatch.setattr("repro.core.executor.time", types.SimpleNamespace(
            perf_counter=lambda: 0.0))
        _, stats = session.sql_with_stats(
            "SELECT d.id, p.score FROM PREDICT(MODEL = m, "
            "DATA = t AS d) WITH (score FLOAT) AS p")
        assert len(modeled) == 4  # 25k rows -> four morsels, one batch each
        assert stats.gpu_adjustment_seconds == pytest.approx(sum(modeled),
                                                             rel=1e-12)


class TestRunStats:
    def test_adjusted_seconds_includes_gpu_model(self, setup):
        catalog, predict, pipeline, table = setup
        session = RavenSession(strategy="dnn", gpu_available=True)
        session.catalog = catalog
        session.sql("SELECT d.id, p.score FROM PREDICT(MODEL = m, "
                    "DATA = t AS d) WITH (score FLOAT) AS p")
        stats = session.last_run
        assert stats.adjusted_seconds == pytest.approx(
            stats.wall_seconds + stats.gpu_adjustment_seconds)
