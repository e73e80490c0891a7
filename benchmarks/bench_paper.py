"""The paper's figures and tables (§7), one test each.

Each test builds the table behind one figure, prints it, writes it to
``results/<name>.txt`` and asserts the trend the paper reports. The
paper's claim, our number and a verdict per figure are in
``SCORECARD.md``, taken from one full-scale run::

    PYTHONPATH=src python -m pytest -q -s --benchmark-disable \\
        --durations=0 benchmarks/bench_paper.py

``RAVEN_SCALE`` scales every size below (rows, corpus pipelines, corpus
evaluation rows), each with a floor, and leaves them as they are at 1.0.
Assertions that only hold at full scale are gated on ``FULL_SCALE``. GPU
rows are always flagged *simulated*: they come from the tensor runtime's
roofline device model.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np

from benchmarks._util import (
    BASE_ROWS,
    ReportTable,
    Workload,
    build_workload,
    env_scale,
    load_dataset,
    run_report,
    scaled,
    timed,
    timed_session_query,
)
from repro.core.rules.ml_to_dnn import is_dnn_compilable
from repro.core.rules.ml_to_sql import graph_to_expressions
from repro.core.rules.projection_pushdown import pushdown_graph
from repro.core.session import RavenSession
from repro.core.strategies import (
    ClassificationStrategy,
    DefaultPaperRule,
    MLInformedRuleStrategy,
    RegressionStrategy,
    class_balance,
    evaluate_strategy,
    measure_corpus_runtimes,
)
from repro.datasets import DATASET_GENERATORS, expedia, flights, generate_corpus
from repro.errors import UnsupportedOperatorError
from repro.ir.stats import corpus_fig1_summary
from repro.learn.base import sigmoid
from repro.learn.ensemble import GradientBoostingClassifier, RandomForestClassifier
from repro.learn.linear import LogisticRegression
from repro.learn.pipeline import Pipeline
from repro.learn.preprocessing import OneHotEncoder, StandardScaler
from repro.learn.tree import DecisionTreeClassifier, Tree
from repro.onnxlite.convert import convert_model
from repro.onnxlite.runtime import InferenceSession
from repro.relational.logical import find_predict_nodes
from repro.storage.table import Table
from repro.tensor.runtime import gpu_runtime

FULL_SCALE = env_scale() >= 1.0
MEASURE_REPEATS = 3

# The strategy-training corpus (paper §5.2), shared by Fig. 4 and the
# strategy the end-to-end figures run with.
CORPUS_SEED = 7
CORPUS_PIPELINES = scaled(60, minimum=15)
CORPUS_EVAL_ROWS = scaled(20_000, minimum=500)

# Fig. 6 / Fig. 8 models (paper §7.1.1): LR with L1; DT depth 8; GB 20x3.
FIG6_MODELS = ("lr", "dt", "gb")

# Baselines check their scores against the pipeline on this many rows
# before they are timed: a baseline's time means nothing unless it scores
# what the pipeline scores.
ORACLE_ROWS = 2_000


@lru_cache(maxsize=None)
def trained_strategy() -> ClassificationStrategy:
    """The strategy the end-to-end figures use (paper §7.1).

    Trained for the hardware at hand: these CPU-only experiments (Fig.
    6-8) measure the dnn option as MLtoDNN on the CPU tensor runtime.
    """
    corpus = generate_corpus(n_pipelines=CORPUS_PIPELINES, seed=CORPUS_SEED,
                             eval_rows=CORPUS_EVAL_ROWS)
    features, runtimes = measure_corpus_runtimes(corpus, gpu=False)
    strategy = ClassificationStrategy(n_estimators=60, random_state=0)
    strategy.fit(features, runtimes)
    return strategy


def _engine_join(workload: Workload):
    """Seconds of the data-processing part alone (what baselines also
    pay), and its output table."""
    session = RavenSession(enable_optimizations=False)
    workload.dataset.register(session)
    if workload.dataset.join_spec:
        query = (f"WITH data AS ({workload.dataset.data_cte()}) "
                 f"SELECT * FROM data AS d")
    else:
        query = f"SELECT * FROM {workload.dataset.fact_table} AS d"
    seconds = timed_session_query(session, query, repeats=MEASURE_REPEATS)
    return seconds, session.sql(query)


def _assert_scores_like_pipeline(scores: np.ndarray, pipeline: Pipeline,
                                 table: Table, system: str) -> None:
    expected = pipeline.predict_proba(table)[:, 1]
    assert np.allclose(scores, expected, atol=1e-9), system


# ---------------------------------------------------------------------------
# Fig. 1 — pipeline-corpus statistics
# ---------------------------------------------------------------------------

def fig1_report() -> ReportTable:
    """Boxplot statistics over the synthetic pipeline corpus."""
    n_pipelines = scaled(120, minimum=15)
    corpus = generate_corpus(n_pipelines=n_pipelines, seed=CORPUS_SEED,
                             eval_rows=scaled(200, minimum=50))
    table = ReportTable(
        title=f"Fig. 1 — statistics over {n_pipelines} trained pipelines",
        columns=["metric", "min", "p25", "median", "p75", "max"],
    )
    for summary in corpus_fig1_summary([entry.graph for entry in corpus]):
        table.add(**summary.row())
    table.note("paper: 508 OpenML CC-18 pipelines; here: a synthetic corpus "
               "with matched marginals (repro.datasets.corpus)")
    return table


def test_fig01_pipeline_statistics(benchmark):
    table = run_report(benchmark, fig1_report, "fig01")
    rows = {r["metric"]: r for r in table.rows}
    # Shape checks mirroring the paper's headline observations:
    # large unused-feature fractions and wide tree-size spreads.
    assert rows["pct_unused_features"]["median"] > 20.0
    assert rows["n_trees"]["max"] > rows["n_trees"]["median"]
    assert rows["n_features"]["max"] > rows["n_inputs"]["max"]


# ---------------------------------------------------------------------------
# Table 1 — dataset statistics
# ---------------------------------------------------------------------------

TABLE1_PAPER = {
    "creditcard": (1, 28, 28),
    "hospital": (1, 24, 59),
    "expedia": (3, 28, 3965),
    "flights": (4, 37, 6475),
}


def table1_report() -> ReportTable:
    """Dataset statistics at full cardinality scale."""
    table = ReportTable(
        title="Table 1 — dataset statistics",
        columns=["dataset", "tables", "inputs", "numeric", "categorical",
                 "features_after_encoding"],
    )
    for name, generator in DATASET_GENERATORS.items():
        kwargs = {"cardinality_scale": 1.0} if name in ("expedia", "flights") \
            else {}
        dataset = generator(scaled(30_000), seed=0, **kwargs)
        numeric, categorical = dataset.encoded_feature_count()
        table.add(dataset=name, tables=len(dataset.tables),
                  inputs=dataset.n_inputs,
                  numeric=len(dataset.numeric_inputs),
                  categorical=len(dataset.categorical_inputs),
                  features_after_encoding=numeric + categorical)
    table.note("paper reference: 28 / 59 / 3965 / 6475 features")
    return table


def test_table1_dataset_statistics(benchmark):
    table = run_report(benchmark, table1_report, "table1")
    for row in table.rows:
        tables, inputs, features = TABLE1_PAPER[row["dataset"]]
        assert row["tables"] == tables
        assert row["inputs"] == inputs
        if FULL_SCALE:  # fewer rows draw fewer of the categories
            assert row["features_after_encoding"] == features


# ---------------------------------------------------------------------------
# Fig. 4 — strategy speedup optimality
# ---------------------------------------------------------------------------

def fig4_report() -> ReportTable:
    """Strategy evaluation under the stratified-fold protocol.

    The paper runs 5 folds x 40 repeats = 200 runs over 138 pipelines;
    here it is 5 x 10 = 50 runs over the strategy-training corpus, with
    dnn priced by the simulated GPU (the paper measured on P100s).
    """
    corpus = generate_corpus(n_pipelines=CORPUS_PIPELINES, seed=CORPUS_SEED,
                             eval_rows=CORPUS_EVAL_ROWS)
    features, runtimes = measure_corpus_runtimes(corpus, gpu=True)
    repeats = 10
    factories = {
        "ML-informed rule-based": lambda: MLInformedRuleStrategy(),
        "Classification-based": lambda: ClassificationStrategy(
            n_estimators=40, random_state=0),
        "Regression-based": lambda: RegressionStrategy(),
    }
    table = ReportTable(
        title=f"Fig. 4 — speedup optimality ({5 * repeats} runs, "
              f"{CORPUS_PIPELINES} pipelines)",
        columns=["strategy", "mean_accuracy", "speedup_min", "speedup_p25",
                 "speedup_median", "speedup_p75", "speedup_max"],
    )
    for name, factory in factories.items():
        evaluation = evaluate_strategy(factory, features, runtimes,
                                       repeats=repeats, name=name)
        pct = evaluation.speedup_percentiles()
        table.add(strategy=name, mean_accuracy=evaluation.mean_accuracy,
                  speedup_min=pct["min"], speedup_p25=pct["p25"],
                  speedup_median=pct["median"], speedup_p75=pct["p75"],
                  speedup_max=pct["max"])
    table.note(f"class balance (best choice): {class_balance(runtimes)} "
               "(paper: sql=25, dnn=72, none=41)")
    table.note("paper accuracies: rule 0.76, classification 0.79, "
               "regression 0.79; classification has lowest variance")
    return table


def test_fig04_strategy_evaluation(benchmark):
    table = run_report(benchmark, fig4_report, "fig04")
    rows = {r["strategy"]: r for r in table.rows}
    for row in rows.values():
        assert row["mean_accuracy"] > 0.5       # better than chance
        assert row["speedup_median"] > 0.6      # close to the oracle
        assert row["speedup_max"] <= 1.0 + 1e-9
    # The paper's headline: the classification strategy is the most robust
    # (highest or near-highest lower-quartile speedup).
    clf = rows["Classification-based"]
    assert clf["speedup_p25"] >= min(r["speedup_p25"] for r in rows.values())


# ---------------------------------------------------------------------------
# Fig. 6 — end-to-end comparison on the Spark-like engine
# ---------------------------------------------------------------------------

# SparkML-like scoring runs on this many rows and is extrapolated linearly.
ROWWISE_CAP = 20_000
UDF_BATCH_ROWS = 10_000


def _sparkml_scores(pipeline: Pipeline, table: Table) -> np.ndarray:
    """SparkML's execution model: the relational part ran columnar, but
    featurization and scoring go one row at a time through Python-level
    dispatch — the per-row interpretation that makes SparkML the slowest
    system on the paper's single-table workloads."""
    transformer, model = pipeline.steps[0][1], pipeline.final_estimator
    raw = {name: table.array(name)
           for _, _, columns in transformer.transformers for name in columns}
    out = np.empty(table.num_rows)
    for i in range(table.num_rows):
        features: List[float] = []
        for _, step, columns in transformer.transformers:
            for j, column in enumerate(columns):
                value = raw[column][i]
                if isinstance(step, StandardScaler):
                    features.append((float(value) - step.mean_[j]) / step.scale_[j])
                elif isinstance(step, OneHotEncoder):
                    features.extend(1.0 if value == category else 0.0
                                    for category in step.categories_[j])
                else:
                    raise ValueError(f"row-wise scoring lacks {type(step).__name__}")
        out[i] = _score_row(model, features)
    return out


def _score_row(model, features: Sequence[float]) -> float:
    if isinstance(model, LogisticRegression):
        margin = model.intercept_[0]
        for weight, value in zip(model.coef_[0], features):
            margin += weight * value
        return float(sigmoid(np.asarray([margin]))[0])
    if isinstance(model, DecisionTreeClassifier):
        return _walk_tree(model.tree_, features)[1]
    if isinstance(model, RandomForestClassifier):
        return sum(_walk_tree(tree, features)[1]
                   for tree in model.trees()) / len(model.estimators_)
    if isinstance(model, GradientBoostingClassifier):
        margin = model.init_score_
        for tree in model.trees():
            margin += model.learning_rate * _walk_tree(tree, features)[0]
        return float(sigmoid(np.asarray([margin]))[0])
    raise ValueError(f"row-wise scoring lacks {type(model).__name__}")


def _walk_tree(tree: Tree, features: Sequence[float]):
    node = 0
    while tree.left[node] >= 0:
        node = tree.left[node] if features[tree.feature[node]] \
            <= tree.threshold[node] else tree.right[node]
    value = tree.value[node]
    return float(value[0]), float(value[-1])


def _spark_skl_scores(pipeline: Pipeline, table: Table,
                      batch_rows: int = UDF_BATCH_ROWS) -> np.ndarray:
    """Spark + scikit-learn: a vectorized Python UDF calls the pipeline on
    batches. Each batch crosses the row -> Arrow -> Pandas hop as boxed
    Python objects that are rebuilt into numpy columns."""
    raw = {name: table.array(name)
           for name in pipeline.steps[0][1].input_columns}
    chunks = [np.empty(0)]
    for start in range(0, table.num_rows, batch_rows):
        frame = {name: np.asarray(values[start:start + batch_rows].tolist())
                 for name, values in raw.items()}
        chunks.append(pipeline.predict_proba(frame)[:, 1])
    return np.concatenate(chunks)


def fig6_report() -> ReportTable:
    """Raven vs SparkML-like vs Spark+SKL-like vs Raven(no-opt)."""
    strategy = trained_strategy()
    table = ReportTable(
        title="Fig. 6 — prediction query runtime (seconds)",
        columns=["dataset", "model", "sparkml", "spark_skl", "raven_noopt",
                 "raven", "speedup_vs_noopt"],
    )
    for dataset_name in BASE_ROWS:
        for model_kind in FIG6_MODELS:
            workload = build_workload(dataset_name, model_kind)
            pipeline = workload.pipeline
            join_seconds, joined = _engine_join(workload)
            head = joined.slice(0, min(ORACLE_ROWS, joined.num_rows))
            _assert_scores_like_pipeline(_sparkml_scores(pipeline, head),
                                         pipeline, head, "sparkml")
            _assert_scores_like_pipeline(
                _spark_skl_scores(pipeline, head, batch_rows=500),
                pipeline, head, "spark_skl")

            cap = min(ROWWISE_CAP, joined.num_rows)
            sample = joined.slice(0, cap)
            row_seconds = timed(lambda: _sparkml_scores(pipeline, sample),
                                repeats=max(2, MEASURE_REPEATS - 1), trimmed=False)
            sparkml = join_seconds + row_seconds * (joined.num_rows / max(cap, 1))
            skl = join_seconds + timed(lambda: _spark_skl_scores(pipeline, joined),
                                       repeats=MEASURE_REPEATS, trimmed=False)

            noopt = timed_session_query(
                workload.make_session(enable_optimizations=False),
                workload.query, repeats=MEASURE_REPEATS)
            raven = timed_session_query(
                workload.make_session(strategy=strategy),
                workload.query, repeats=MEASURE_REPEATS)
            table.add(dataset=dataset_name, model=model_kind, sparkml=sparkml,
                      spark_skl=skl, raven_noopt=noopt, raven=raven,
                      speedup_vs_noopt=noopt / raven if raven else float("inf"))
    table.note(f"SparkML-like scored on {ROWWISE_CAP} rows and extrapolated "
               "linearly (row-at-a-time execution is linear in rows)")
    table.note("paper: Raven 1.4-13.1x vs no-opt; up to 48x vs SparkML, "
               "2.15-25.3x vs Spark+SKL")
    return table


def test_fig06_system_comparison(benchmark):
    table = run_report(benchmark, fig6_report, "fig06")
    speedups = [r["speedup_vs_noopt"] for r in table.rows]
    # Shape: Raven never loses badly (strategy mispredictions bound the
    # downside — Fig. 4's point) and wins clearly somewhere.
    assert min(speedups) > 0.45
    assert max(speedups) > 1.5
    for row in table.rows:
        # Row-at-a-time SparkML-like execution is the slowest system.
        assert row["sparkml"] > row["raven"]


# ---------------------------------------------------------------------------
# Fig. 7 — data scalability
# ---------------------------------------------------------------------------

def fig7_report() -> ReportTable:
    """Raven vs no-opt on Hospital for growing row counts."""
    sizes = [scaled(base) for base in (25_000, 75_000, 200_000, 600_000)]
    strategy = trained_strategy()
    table = ReportTable(
        title="Fig. 7 — Hospital scalability (seconds)",
        columns=["rows", "model", "raven_noopt", "raven", "speedup"],
    )
    for model_kind in ("lr", "gb"):
        base = build_workload("hospital", model_kind)
        for n_rows in sizes:
            dataset = load_dataset("hospital", rows=n_rows)
            workload = Workload(dataset=dataset, pipeline=base.pipeline,
                                model_name=base.model_name,
                                query=dataset.prediction_query(base.model_name))
            noopt = timed_session_query(
                workload.make_session(enable_optimizations=False),
                workload.query, repeats=MEASURE_REPEATS)
            raven = timed_session_query(
                workload.make_session(strategy=strategy),
                workload.query, repeats=MEASURE_REPEATS)
            table.add(rows=n_rows, model=model_kind, raven_noopt=noopt,
                      raven=raven, speedup=noopt / raven if raven else 0.0)
    table.note("paper: 1.96-4.36x (LR), 1.37-1.67x (GB), consistent across sizes")
    return table


def test_fig07_scalability(benchmark):
    table = run_report(benchmark, fig7_report, "fig07")
    by_model = {}
    for row in table.rows:
        by_model.setdefault(row["model"], []).append(row)
    for model, rows in by_model.items():
        # Shape check: no collapse at any size, and a clear win somewhere
        # (magnitudes are substrate-dependent; GB hovers near 1x here
        # because its hospital model uses most columns).
        for row in rows:
            assert row["speedup"] > 0.45, (model, row)
        assert max(r["speedup"] for r in rows) > 1.0
    lr_rows = by_model.get("lr", [])
    assert max(r["speedup"] for r in lr_rows) > 1.5


# ---------------------------------------------------------------------------
# Fig. 8 — SQL Server-style DOP comparison + MADlib
# ---------------------------------------------------------------------------

POSTGRES_MAX_COLUMNS = 1_600
MADLIB_SKIP = "skip(>1600 cols)"
UDA_BATCH_ROWS = 1_000


def _madlib_scorer(pipeline: Pipeline):
    """MADlib on PostgreSQL cannot pipeline featurization into scoring:
    the featurized rows are materialized as a column-per-feature table,
    then a single-threaded UDA scores it in small batches."""
    transformer = pipeline.steps[0][1]
    session = InferenceSession(convert_model(
        pipeline.final_estimator, transformer.n_output_features_,
        name="madlib_model"))

    def score(table: Table) -> np.ndarray:
        matrix = transformer.transform(table)
        # One real column per feature: the copy *is* the materialization.
        columns = [np.ascontiguousarray(matrix[:, j])
                   for j in range(matrix.shape[1])]
        chunks = [np.empty(0)]
        for start in range(0, table.num_rows, UDA_BATCH_ROWS):
            # Row-group assembly per UDA invocation (tuple-store read).
            block = np.column_stack([c[start:start + UDA_BATCH_ROWS]
                                     for c in columns])
            chunks.append(session.run({"features": block}, ["score"])["score"][:, 0])
        return np.concatenate(chunks)

    return score


def _full_scale_width(dataset_name: str) -> int:
    """Features after one-hot encoding at the paper's cardinalities."""
    if dataset_name == "expedia":
        return 8 + sum(expedia.scaled_cardinalities(1.0).values())
    if dataset_name == "flights":
        return 4 + sum(card for _, _, card, _ in flights._CATEGORICAL_SPEC)
    numeric, categorical = load_dataset(dataset_name).encoded_feature_count()
    return numeric + categorical


def _madlib_seconds(dataset_name: str, model_kind: str) -> object:
    if _full_scale_width(dataset_name) > POSTGRES_MAX_COLUMNS:
        return MADLIB_SKIP
    kind = "rf" if model_kind == "gb" else model_kind  # paper's substitution
    workload = build_workload(dataset_name, kind)
    join_seconds, joined = _engine_join(workload)
    score = _madlib_scorer(workload.pipeline)
    head = joined.slice(0, min(ORACLE_ROWS, joined.num_rows))
    _assert_scores_like_pipeline(score(head), workload.pipeline, head, "madlib")
    return join_seconds + timed(lambda: score(joined), repeats=MEASURE_REPEATS,
                                trimmed=False)


def fig8_report() -> ReportTable:
    """Unoptimized vs Raven plans at DOP 1/16, plus MADlib."""
    strategy = trained_strategy()
    table = ReportTable(
        title="Fig. 8 — SQL Server-style execution (seconds, aggregate query)",
        columns=["dataset", "model", "unopt_dop1", "unopt_dop16",
                 "raven_dop1", "raven_dop16", "madlib"],
    )
    for dataset_name in BASE_ROWS:
        for model_kind in FIG6_MODELS:
            workload = build_workload(dataset_name, model_kind, aggregate=True)
            row: Dict[str, object] = {"dataset": dataset_name,
                                      "model": model_kind}
            for dop in (1, 16):
                unopt = workload.make_session(enable_optimizations=False,
                                              dop=dop)
                row[f"unopt_dop{dop}"] = timed_session_query(
                    unopt, workload.query, repeats=MEASURE_REPEATS)
                raven = workload.make_session(strategy=strategy, dop=dop)
                row[f"raven_dop{dop}"] = timed_session_query(
                    raven, workload.query, repeats=MEASURE_REPEATS)
            row["madlib"] = _madlib_seconds(dataset_name, model_kind)
            table.add(**row)
    table.note("MADlib substitutes RF for GB (only supported ensemble) and "
               "skips Expedia/Flights (PostgreSQL 1600-column limit at full "
               "encoding width), as in the paper")
    table.note("paper: Raven 1.4-330x vs unoptimized; 3.9-108x vs MADlib "
               "single-threaded")
    return table


def test_fig08_dop_and_madlib(benchmark):
    table = run_report(benchmark, fig8_report, "fig08")
    for row in table.rows:
        if row["dataset"] in ("expedia", "flights"):
            assert row["madlib"] == MADLIB_SKIP
        elif isinstance(row["madlib"], float):
            # MADlib (materialized featurization) loses to optimized Raven.
            assert row["madlib"] > row["raven_dop1"] * 0.8
    wins = [r for r in table.rows
            if r["raven_dop1"] < r["unopt_dop1"]]
    assert len(wins) >= len(table.rows) // 2


# ---------------------------------------------------------------------------
# Fig. 9 and Fig. 10 — rule combinations
# ---------------------------------------------------------------------------

# Session settings per plotted series (paper §7.3).
RULE_COMBOS = {
    "raven_noopt": dict(enable_optimizations=False),
    "modelproj": dict(enable_cross=True, enable_data_induced=False,
                      strategy="none"),
    "mltosql": dict(enable_cross=False, enable_data_induced=False,
                    strategy="sql"),
    "modelproj_mltosql": dict(enable_cross=True, enable_data_induced=False,
                              strategy="sql"),
    "modelproj_mltodnn": dict(enable_cross=True, enable_data_induced=False,
                              strategy="dnn", gpu_available=False),
}


def _time_rule_combos(workload: Workload,
                      row: Dict[str, object]) -> Dict[str, object]:
    for name, kwargs in RULE_COMBOS.items():
        row[name] = timed_session_query(workload.make_session(**kwargs),
                                        workload.query, repeats=MEASURE_REPEATS)
    return row


def fig9_report() -> ReportTable:
    """Rule combinations on Credit Card LR as L1 strength varies."""
    table = ReportTable(
        title="Fig. 9 — Credit Card LR, varying L1 regularization (seconds)",
        columns=["alpha", "zero_weights", *RULE_COMBOS],
    )
    for alpha in (2.0, 0.5, 0.1, 0.02, 0.005):
        workload = build_workload("creditcard", "lr", C=alpha)
        zero_weights = int(np.sum(workload.pipeline.final_estimator.coef_ == 0.0))
        table.add(**_time_rule_combos(
            workload, {"alpha": alpha, "zero_weights": zero_weights}))
    table.note("paper: ModelProj+MLtoSQL best everywhere; ModelProj alone "
               "20%-105% of baseline as sparsity varies; MLtoSQL alone ~60%")
    return table


def test_fig09_linear_models(benchmark):
    table = run_report(benchmark, fig9_report, "fig09")
    # Sparsity grows as alpha (inverse regularization) shrinks.
    zeros = [r["zero_weights"] for r in table.rows]
    assert zeros == sorted(zeros)
    sparsest = table.rows[-1]
    densest = table.rows[0]
    assert sparsest["zero_weights"] > densest["zero_weights"]
    # The paper's headline: the combined rule wins on sparse models.
    assert sparsest["modelproj_mltosql"] < sparsest["raven_noopt"]


def _unused_input_columns(workload: Workload) -> int:
    """Input columns the model never uses (Fig. 10's parenthesized counts)."""
    graph = workload.make_session().catalog.model(workload.model_name).graph
    removed, _info = pushdown_graph(graph.copy())
    return len(removed)


def fig10_report() -> ReportTable:
    """Rule combinations on Hospital DT as depth varies."""
    table = ReportTable(
        title="Fig. 10 — Hospital DT, varying depth (seconds)",
        columns=["depth", "unused_columns", *RULE_COMBOS],
    )
    for depth in (3, 5, 10, 15, 20):
        workload = build_workload("hospital", "dt", max_depth=depth)
        table.add(**_time_rule_combos(
            workload, {"depth": depth,
                       "unused_columns": _unused_input_columns(workload)}))
    table.note("paper: MLtoSQL 21.7x speedup at depth 3, 2.3x slowdown at "
               "depth 20; ModelProj fades as depth grows")
    return table


def test_fig10_tree_depth(benchmark):
    table = run_report(benchmark, fig10_report, "fig10")
    rows = {r["depth"]: r for r in table.rows}
    # Unused columns shrink as depth grows (paper's parenthesized counts).
    unused = [rows[d]["unused_columns"] for d in sorted(rows)]
    assert unused == sorted(unused, reverse=True)
    # The MLtoSQL crossover: a win for shallow trees ...
    shallow = rows[min(rows)]
    assert shallow["mltosql"] < shallow["raven_noopt"]
    # ... and NOT a win for the deepest tree (paper: 2.3x slowdown).
    deep = rows[max(rows)]
    assert deep["mltosql"] > deep["raven_noopt"] * 0.8


# ---------------------------------------------------------------------------
# Fig. 11 + Table 2 — data-induced optimizations
# ---------------------------------------------------------------------------

def _pruned_columns(session: RavenSession, workload: Workload) -> float:
    """Average input columns removed by optimization (Table 2's metric)."""
    plan, report = session.optimize(workload.query)
    info = report.rule_info.get("data_induced_optimization", {})
    if "avg_pruned_columns" in info:
        return float(info["avg_pruned_columns"])
    predicts = find_predict_nodes(plan)
    if predicts:
        original = session.catalog.model(workload.model_name).graph.inputs
        return float(len(original) - len(predicts[0].graph.inputs))
    # MLtoSQL removed the Predict; count via a fresh pushdown instead.
    return float(_unused_input_columns(workload))


def fig11_table2_report():
    """Data-induced optimization with two partitioning schemes (Fig. 11),
    plus the pruned-column counts (Table 2)."""
    timing = ReportTable(
        title="Fig. 11 — Hospital DT with data-induced optimizations (seconds)",
        columns=["depth", "raven_noopt", "raven_no_partition",
                 "raven_part_num_issues", "raven_part_rcount"],
    )
    pruned = ReportTable(
        title="Table 2 — columns pruned by the data-induced optimization",
        columns=["depth", "no_partitioning", "partition_num_issues",
                 "partition_rcount"],
    )
    # The deterministic paper rule keeps the physical choice fixed across
    # depths (sql for shallow, none for deep), isolating the data-induced
    # effect the figure is about.
    strategy = DefaultPaperRule(gpu_available=False)
    for depth in (10, 15, 20):
        workload = build_workload("hospital", "dt", max_depth=depth)
        timing_row: Dict[str, object] = {"depth": depth}
        pruned_row: Dict[str, object] = {"depth": depth}

        noopt = workload.make_session(enable_optimizations=False)
        timing_row["raven_noopt"] = timed_session_query(
            noopt, workload.query, repeats=MEASURE_REPEATS)

        flat = workload.make_session(strategy=strategy)
        timing_row["raven_no_partition"] = timed_session_query(
            flat, workload.query, repeats=MEASURE_REPEATS)
        pruned_row["no_partitioning"] = _pruned_columns(flat, workload)

        for column in ("num_issues", "rcount"):
            session = RavenSession(strategy=strategy)
            workload.dataset.register(session, partition_column=column)
            session.register_model(workload.model_name, workload.pipeline,
                                   replace=True)
            timing_row[f"raven_part_{column}"] = timed_session_query(
                session, workload.query, repeats=MEASURE_REPEATS)
            pruned_row[f"partition_{column}"] = _pruned_columns(
                session, workload)
        timing.add(**timing_row)
        pruned.add(**pruned_row)
    timing.note("paper: ~20% gain at depth 15/20; 2.1-3.2x at depth 10 "
                "vs no-opt")
    pruned.note("paper Table 2: depth 10 -> 4/8/11; depth 15 -> 0/6/5; "
                "depth 20 -> 0/6/5 pruned columns")
    return timing, pruned


def test_fig11_table2_data_induced(benchmark):
    timing, pruned = run_report(benchmark, fig11_table2_report, "fig11_table2")
    for row in timing.rows:
        best_partitioned = min(row["raven_part_num_issues"],
                               row["raven_part_rcount"])
        # Partition-specialized models beat the unpartitioned plan (at
        # smoke scale a query is ~4 ms of fixed per-partition costs).
        if FULL_SCALE:
            assert best_partitioned < row["raven_no_partition"] * 1.1
    for row in pruned.rows:
        assert row["partition_rcount"] >= row["no_partitioning"]


# ---------------------------------------------------------------------------
# Fig. 12 — GPU acceleration of complex models
# ---------------------------------------------------------------------------

def fig12_report() -> ReportTable:
    """MLtoDNN on CPU and simulated GPU for complex GB models."""
    table = ReportTable(
        title="Fig. 12 — complex GB models on Hospital (seconds)",
        columns=["estimators", "depth", "raven_noopt", "mltodnn_cpu",
                 "mltodnn_gpu_simulated", "gpu_speedup"],
    )
    for estimators, depth in ((60, 5), (100, 4), (100, 8), (500, 8)):
        workload = build_workload("hospital", "gb", n_estimators=estimators,
                                  max_depth=depth)
        noopt, cpu, gpu = (
            timed_session_query(workload.make_session(**kwargs),
                                workload.query, repeats=MEASURE_REPEATS)
            for kwargs in (
                dict(enable_optimizations=False),
                dict(enable_cross=False, enable_data_induced=False,
                     strategy="dnn", gpu_available=False),
                dict(enable_cross=False, enable_data_induced=False,
                     strategy="dnn", gpu_available=True)))
        table.add(estimators=estimators, depth=depth, raven_noopt=noopt,
                  mltodnn_cpu=cpu, mltodnn_gpu_simulated=gpu,
                  gpu_speedup=noopt / gpu if gpu else 0.0)
    table.note("GPU column is SIMULATED (the tensor runtime's roofline "
               "device model)")
    table.note("paper: 1.56-7.96x GPU speedups, growing with model "
               "complexity; MLtoDNN-CPU 1.08-1.33x for the largest models")
    return table


def test_fig12_gpu_complex_models(benchmark):
    table = run_report(benchmark, fig12_report, "fig12")
    rows = sorted(table.rows, key=lambda r: r["estimators"] * 2 ** r["depth"])
    # GPU wins for every complex model and the win grows with complexity.
    for row in rows:
        assert row["gpu_speedup"] > 1.0
    assert rows[-1]["gpu_speedup"] >= rows[0]["gpu_speedup"]
    # MLtoDNN-CPU's *relative* cost shrinks as ensembles grow (the paper's
    # trend), even though it does not win outright on this substrate — the
    # numpy tensor kernels and the ML runtime's kernels are the same
    # technology class here (see SCORECARD.md).
    ratios = [r["mltodnn_cpu"] / r["raven_noopt"] for r in rows]
    assert ratios[-1] <= max(ratios[:-1]) * 1.25


# ---------------------------------------------------------------------------
# §7.4 — accuracy, coverage, optimization overheads
# ---------------------------------------------------------------------------

def _label_mismatch_rate(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of differing labels, numeric-aware (1.0 == 1)."""
    predicted = np.asarray(predicted).ravel()
    reference = np.asarray(reference).ravel()
    if reference.dtype.kind in "fiub" and predicted.dtype.kind in "fiub":
        return float(np.mean(predicted.astype(np.float64)
                             != reference.astype(np.float64)))
    return float(np.mean(predicted.astype(np.str_) != reference.astype(np.str_)))


def accuracy_report() -> ReportTable:
    """Prediction agreement of MLtoSQL / MLtoDNN vs the ML runtime."""
    n_pipelines = scaled(30, minimum=6)
    corpus = generate_corpus(n_pipelines=n_pipelines, seed=11,
                             eval_rows=scaled(20_000, minimum=500))
    gpu = gpu_runtime()
    mismatches: Dict[str, List[float]] = {"MLtoSQL": [], "MLtoDNN": []}
    for entry in corpus:
        inputs = {name: entry.eval_table.array(name)
                  for name in entry.input_columns}
        reference = InferenceSession(entry.graph).run(inputs, ["label"])["label"]
        try:
            expressions = graph_to_expressions(
                entry.graph, {name: name for name in entry.input_columns})
            mismatches["MLtoSQL"].append(_label_mismatch_rate(
                expressions["label"].evaluate(entry.eval_table), reference))
        except UnsupportedOperatorError:
            pass
        mismatches["MLtoDNN"].append(_label_mismatch_rate(
            gpu.run(entry.graph, inputs).outputs["label"], reference))
    table = ReportTable(
        title=f"§7.4 — prediction agreement over {n_pipelines} models",
        columns=["transformation", "models", "mean_mismatch_pct",
                 "max_mismatch_pct"],
    )
    for name, rates in mismatches.items():
        table.add(transformation=name, models=len(rates),
                  mean_mismatch_pct=100 * float(np.mean(rates)),
                  max_mismatch_pct=100 * float(np.max(rates)))
    table.note("paper: MLtoSQL 0.006-0.3% rounding mismatches, MLtoDNN "
               "<0.8%; this reproduction is float64 end-to-end, so "
               "mismatch rates are lower")
    return table


def test_74_prediction_accuracy(benchmark):
    table = run_report(benchmark, accuracy_report, "sec74_accuracy")
    for row in table.rows:
        # float64 end-to-end: mismatch rates must be at or below the paper's.
        assert row["max_mismatch_pct"] <= 0.8


def coverage_report() -> ReportTable:
    """Operator coverage of the IR and the two transformations."""
    n_pipelines = CORPUS_PIPELINES
    corpus = generate_corpus(n_pipelines=n_pipelines, seed=CORPUS_SEED,
                             eval_rows=scaled(100, minimum=50))
    sql_ok = 0
    for entry in corpus:
        try:
            graph_to_expressions(entry.graph,
                                 {n: n for n in entry.input_columns})
            sql_ok += 1
        except UnsupportedOperatorError:
            pass
    dnn_ok = sum(is_dnn_compilable(entry.graph) for entry in corpus)
    table = ReportTable(
        title=f"§7.4 — optimization coverage over {n_pipelines} pipelines",
        columns=["capability", "covered", "total", "pct"],
    )
    for capability, covered in (("unified IR", n_pipelines),
                                ("MLtoSQL", sql_ok), ("MLtoDNN", dnn_ok)):
        table.add(capability=capability, covered=covered, total=n_pipelines,
                  pct=100.0 * covered / n_pipelines)
    table.note("paper: IR 100%, MLtoSQL missing 4 operators, MLtoDNN 88%; "
               "the synthetic corpus only emits supported operators, so "
               "coverage here is an upper bound")
    return table


def test_74_coverage(benchmark):
    table = run_report(benchmark, coverage_report, "sec74_coverage")
    rows = {r["capability"]: r for r in table.rows}
    assert rows["unified IR"]["pct"] == 100.0
    assert rows["MLtoDNN"]["pct"] >= 88.0   # paper's floor


def overheads_report() -> ReportTable:
    """Optimization-time overheads per workload."""
    table = ReportTable(
        title="§7.4 — optimization overheads (seconds per optimize() call)",
        columns=["dataset", "model", "optimize_seconds"],
    )
    for dataset_name, model_kind in (("creditcard", "lr"), ("hospital", "dt"),
                                     ("hospital", "gb"), ("expedia", "dt")):
        workload = build_workload(dataset_name, model_kind)
        session = workload.make_session(strategy=trained_strategy())
        seconds = timed(lambda: session.optimize(workload.query),
                        repeats=MEASURE_REPEATS, trimmed=False)
        table.add(dataset=dataset_name, model=model_kind,
                  optimize_seconds=seconds)
    table.note("paper: ModelProj 1-5s, MLtoSQL 3-5s, MLtoDNN 0.1-0.5s on "
               "warm runs; ~1M rows amortize the overhead")
    return table


def test_74_optimization_overheads(benchmark):
    table = run_report(benchmark, overheads_report, "sec74_overheads")
    for row in table.rows:
        # Optimization stays within the paper's "a few seconds" envelope.
        assert row["optimize_seconds"] < 10.0
