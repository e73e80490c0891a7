"""Expression engine benchmarks: interpreted vs compiled evaluation.

Measures the two workloads the compiled engine (CSE + masked CASE routing
+ zero-copy late materialization) exists for:

* **deep-tree CASE** — an MLtoSQL-translated decision tree of depth 8
  (255 internal nodes / 256 leaves) over 100k rows. Interpreted
  ``np.select`` evaluates every branch on every row (O(rows x leaves));
  masked routing restores tree-traversal cost (O(rows x depth)).
* **wide CSE-heavy projection** — 32 projection outputs all built from
  the same handful of scaled features; one shared instruction DAG
  evaluates each distinct subexpression once.

Acceptance gate (also run by the CI bench-smoke job): compiled must never
be slower than interpreted on the deep-tree workload, and at full scale
(>= 50k rows) must be >= 3x faster.
"""

import numpy as np

from benchmarks._util import run_report
from repro.bench.harness import ReportTable, scaled, timed
from repro.core.rules.ml_to_sql import tree_to_expression
from repro.learn.tree import Tree
from repro.relational.executor import Executor
from repro.relational.expressions import FunctionCall, col, lit
from repro.relational.logical import Project, Scan
from repro.storage.catalog import Catalog
from repro.storage.table import Table

ROWS = scaled(100_000)
TREE_DEPTH = 8
WIDE_OUTPUTS = 32

# Full-scale acceptance: compiled >= 3x on the deep tree; at smoke scale
# (RAVEN_SCALE << 1) only "never slower" is required.
FULL_SCALE_ROWS = 50_000
FULL_SCALE_SPEEDUP = 3.0


def _make_tree(depth: int, rng: np.random.Generator, n_features: int) -> Tree:
    """A complete random tree of ``depth``, its nodes appended in pre-order."""
    columns = {"feature": [], "threshold": [], "left": [], "right": [],
               "value": []}

    def grow(level: int) -> int:
        node = len(columns["feature"])
        if level == 0:
            p = float(rng.random())
            entries = (-1, 0.0, -1, -1, [1.0 - p, p])
        else:
            entries = (int(rng.integers(0, n_features)),
                       float(rng.normal(0.0, 1.0)), -1, -1, [0.0, 0.0])
        for column, entry in zip(columns.values(), entries):
            column.append(entry)
        if level:
            columns["left"][node] = grow(level - 1)
            columns["right"][node] = grow(level - 1)
        return node

    grow(depth)
    return Tree(n_samples=[0] * len(columns["feature"]), **columns)


def _feature_table(n_features: int, rows: int) -> Table:
    rng = np.random.default_rng(3)
    return Table.from_arrays(
        **{f"x{k}": rng.normal(0.0, 1.0, rows) for k in range(n_features)}
    )


def _deep_tree_workload():
    """Project(one depth-8 MLtoSQL tree) over the feature table."""
    n_features = 6
    table = _feature_table(n_features, ROWS)
    rng = np.random.default_rng(5)
    features = [col(f"t.x{k}") for k in range(n_features)]
    expr = tree_to_expression(_make_tree(TREE_DEPTH, rng, n_features),
                              features, value_index=1)
    plan = Project(Scan("t"), [("score", expr)])
    return table, plan


def _wide_cse_workload():
    """32 outputs sharing scaled-feature subexpressions (one-hot style)."""
    n_features = 4
    table = _feature_table(n_features, ROWS)
    rng = np.random.default_rng(9)
    scaled_features = [(col(f"t.x{k}") - lit(float(rng.normal())))
                       * lit(float(abs(rng.normal()) + 0.1))
                       for k in range(n_features)]
    outputs = []
    for j in range(WIDE_OUTPUTS):
        margin = lit(float(rng.normal()))
        for feature in scaled_features:
            margin = margin + lit(float(rng.normal())) * feature
        outputs.append((f"o{j}", FunctionCall("sigmoid", [margin])))
    plan = Project(Scan("t"), outputs)
    return table, plan


def _measure(table: Table, plan) -> dict:
    catalog = Catalog()
    catalog.add_table("t", table)
    interpreted = Executor(catalog, compile_expressions=False)
    compiled = Executor(catalog, compile_expressions=True)
    compiled.execute(plan)  # compile once up front (cached on the node)
    baseline = interpreted.execute(plan)
    fast = compiled.execute(plan)
    for name in baseline.column_names:  # bit-for-bit before timing
        a, b = fast.array(name), baseline.array(name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    interpreted_s = timed(lambda: interpreted.execute(plan), repeats=5)
    compiled_s = timed(lambda: compiled.execute(plan), repeats=5)
    return {
        "rows": table.num_rows,
        "interpreted_seconds": interpreted_s,
        "compiled_seconds": compiled_s,
        "speedup": interpreted_s / max(compiled_s, 1e-12),
    }


def _expression_report() -> ReportTable:
    report = ReportTable(
        title="Expression engine: interpreted vs compiled (trimmed mean of 5)",
        columns=["workload", "rows", "interpreted_ms", "compiled_ms",
                 "speedup"],
    )
    results = {}
    workloads = [
        ("deep_tree_case_depth8", _deep_tree_workload),
        (f"wide_cse_projection_x{WIDE_OUTPUTS}", _wide_cse_workload),
    ]
    for name, build in workloads:
        table, plan = build()
        measured = _measure(table, plan)
        results[name] = measured
        report.add(workload=name, rows=measured["rows"],
                   interpreted_ms=measured["interpreted_seconds"] * 1e3,
                   compiled_ms=measured["compiled_seconds"] * 1e3,
                   speedup=measured["speedup"])

    deep = results["deep_tree_case_depth8"]
    required = FULL_SCALE_SPEEDUP if deep["rows"] >= FULL_SCALE_ROWS else 1.0
    report.note(f"deep-tree acceptance: speedup >= {required:.1f}x "
                f"(measured {deep['speedup']:.1f}x at {deep['rows']} rows)")
    report.note("results verified bit-for-bit against the interpreted oracle")
    assert deep["speedup"] >= required, (
        f"compiled deep-tree evaluation only {deep['speedup']:.2f}x vs "
        f"interpreted (required >= {required:.1f}x at {deep['rows']} rows)"
    )
    return report


def test_interpreted_vs_compiled(benchmark):
    run_report(benchmark, _expression_report, "bench_expressions")
