"""Snapshot cross-version compatibility check (CI: write 3.10 → load 3.12).

``write <dir>`` builds a deterministic serving workload, warms an
adaptive session to its fixed point, and writes everything a *different*
python process/version needs to reproduce it exactly:

* ``snapshot.json``   — the session snapshot (plans + feedback + stats);
* ``tables.npz``      — the raw table data (bit-exact, no RNG replay);
* ``model.ronnx``, ``boosted.ronnx`` — the registered model graphs: a
  decision tree (``risk``) and a gradient-boosted ensemble (``boosted``,
  whose ``trees`` attribute holds learning-rate-scaled leaf values). The
  serialized form is the registration source on both sides, so content
  digests match without retraining;
* ``manifest.json``   — the queries, the models (name -> file) plus the
  writer's python version.

``check <dir>`` (run under a different interpreter) registers the same
tables and the manifest's models (``risk`` alone for a manifest that
names none, as written before the ensemble was added), warm-starts from
the snapshot, and asserts:

* every persisted plan installs (nothing dropped as stale);
* the first call of each query is a plan-cache hit with zero
  re-optimizations;
* results are bit-for-bit identical to a fresh
  ``RavenSession(adaptive=False)`` oracle built in the checking process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro import RavenSession, Table
from repro.onnxlite.serialize import load_graph, save_graph

ROWS = 4_000

QUERIES = [
    # Misestimated conjunct order: the adaptive loop reorders it, and the
    # reordered (annotated) plan must survive the version hop.
    "SELECT t.a, t.b FROM readings AS t "
    "WHERE t.a * t.a + t.a < 10.0 AND t.b * t.b + t.b < 0.01",
    # Join + aggregate: exercises Join/Aggregate/Sort codecs.
    "SELECT r.grp, COUNT(*) AS n, AVG(r.a) AS mean_a "
    "FROM readings AS r JOIN groups AS g ON r.grp = g.grp "
    "WHERE g.active = 1 GROUP BY r.grp ORDER BY grp",
    # PREDICT: the optimized pipeline (MLtoSQL'd or not) rides in the plan.
    "SELECT d.a, p.score "
    "FROM PREDICT(MODEL = risk, DATA = readings AS d) "
    "WITH (score FLOAT) AS p WHERE p.score > 0.5",
    # PREDICT on a boosted ensemble: its scaled-leaf tree list rides in the
    # model file and in the plan.
    "SELECT d.a, p.score "
    "FROM PREDICT(MODEL = boosted, DATA = readings AS d) "
    "WITH (score FLOAT) AS p WHERE d.b > 0.25",
]

#: Model name -> file, as written; a manifest without ``models`` had risk.
MODELS = {"risk": "model.ronnx", "boosted": "boosted.ronnx"}
LEGACY_MODELS = {"risk": "model.ronnx"}


def _build_tables() -> dict:
    rng = np.random.default_rng(20260730)
    return {
        "readings": {
            "a": rng.uniform(0.0, 1.0, ROWS),
            "b": rng.uniform(0.0, 1.0, ROWS),
            "grp": rng.integers(0, 8, ROWS),
        },
        "groups": {
            "grp": np.arange(8),
            "active": (np.arange(8) % 2).astype(np.int64),
        },
    }


def _register(session: RavenSession, tables: dict, directory: Path,
              models: dict) -> None:
    for name, columns in tables.items():
        session.register_table(name, Table.from_arrays(**columns))
    for name, file_name in models.items():
        session.register_model(name, load_graph(directory / file_name))


def _train_models(tables: dict, directory: Path) -> None:
    from repro.learn import (
        DecisionTreeClassifier,
        GradientBoostingClassifier,
        make_standard_pipeline,
    )
    from repro.onnxlite.convert import convert_pipeline

    frame = Table.from_arrays(**tables["readings"])
    labels = (tables["readings"]["a"] > 0.6).astype(int)
    models = {
        "risk": DecisionTreeClassifier(max_depth=4, random_state=0),
        "boosted": GradientBoostingClassifier(n_estimators=12, max_depth=3,
                                              random_state=0),
    }
    for name, model in models.items():
        pipeline = make_standard_pipeline(model, ["a", "b"], [])
        pipeline.fit(frame, labels)
        save_graph(convert_pipeline(pipeline, name=name),
                   directory / MODELS[name])


def write(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    tables = _build_tables()
    np.savez(directory / "tables.npz",
             **{f"{table}.{column}": data
                for table, columns in tables.items()
                for column, data in columns.items()})
    _train_models(tables, directory)

    session = RavenSession()
    _register(session, tables, directory, MODELS)
    for query in QUERIES:
        # Converged = a cache-hit run that caused no new re-optimization:
        # the snapshot must capture fixed-point plans so the 3.12 loader
        # can assert zero re-optimizations.
        for _ in range(12):
            before = session.plan_cache.stats.reoptimizations
            _, stats = session.sql_with_stats(query)
            if stats.cache_hit \
                    and session.plan_cache.stats.reoptimizations == before:
                break
    assert session.plan_cache.stats.reoptimizations >= 1, (
        "the misestimated query never re-optimized; workload broken")
    session.save_snapshot(directory / "snapshot.json")
    (directory / "manifest.json").write_text(json.dumps({
        "python": sys.version,
        "queries": QUERIES,
        "models": MODELS,
        "plans": len(session.plan_cache),
    }, indent=2))
    print(f"wrote snapshot with {len(session.plan_cache)} plans "
          f"under {directory} (python {sys.version.split()[0]})")


def _load_tables(directory: Path) -> dict:
    bundle = np.load(directory / "tables.npz")
    tables: dict = {}
    for key in bundle.files:
        table, _, column = key.partition(".")
        tables.setdefault(table, {})[column] = bundle[key]
    return tables


def check(directory: Path) -> None:
    manifest = json.loads((directory / "manifest.json").read_text())
    tables = _load_tables(directory)
    models = manifest.get("models", LEGACY_MODELS)

    warm = RavenSession(warm_start=directory / "snapshot.json")
    _register(warm, tables, directory, models)
    assert warm.plan_cache.stats.restored == manifest["plans"], (
        f"only {warm.plan_cache.stats.restored}/{manifest['plans']} "
        f"persisted plans installed — snapshot went stale across versions")

    oracle = RavenSession(adaptive=False)
    _register(oracle, tables, directory, models)

    for query in manifest["queries"]:
        result, stats = warm.sql_with_stats(query)
        assert stats.cache_hit, f"warm first call missed the cache: {query!r}"
        expected = oracle.sql(query)
        assert result.column_names == expected.column_names
        for name in expected.column_names:
            a, b = result.array(name), expected.array(name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                f"{query!r}: column {name} diverged from the oracle")
    assert warm.plan_cache.stats.reoptimizations == 0, (
        "warm-started session re-optimized a fixed-point plan")
    print(f"checked {len(manifest['queries'])} queries on models "
          f"{sorted(models)} bit-for-bit "
          f"(snapshot written on python {manifest['python'].split()[0]}, "
          f"loaded on {sys.version.split()[0]})")


def main() -> None:
    if len(sys.argv) != 3 or sys.argv[1] not in ("write", "check"):
        raise SystemExit(f"usage: {sys.argv[0]} write|check <directory>")
    directory = Path(sys.argv[2])
    if sys.argv[1] == "write":
        write(directory)
    else:
        check(directory)


if __name__ == "__main__":
    main()
