"""Data-induced optimizations with partition-specialized models (paper §4.2).

Partitions the Hospital table on ``rcount`` (six readmission-count values),
lets Raven compile one pruned model per partition from per-partition
min/max statistics, and compares against the unpartitioned plan.

Run with: ``python examples/partitioned_inference.py``
"""

from repro import RavenSession
from repro.datasets import hospital
from repro.learn import DecisionTreeClassifier
from repro.relational import find_predict_nodes


def main() -> None:
    dataset = hospital.generate(120_000, seed=0)
    pipeline = dataset.train_pipeline(
        DecisionTreeClassifier(max_depth=12, random_state=0),
        train_rows=5_000)
    query = dataset.prediction_query("los_model")

    # --- Baseline: optimizations on, table unpartitioned -------------------
    flat = RavenSession(strategy="none")
    dataset.register(flat)
    flat.register_model("los_model", pipeline)
    flat_result = flat.sql(query)
    flat_seconds = flat.last_run.wall_seconds

    # --- Partitioned: same data, partitioned on rcount ---------------------
    partitioned = RavenSession(strategy="none")
    dataset.register(partitioned, partition_column="rcount")
    partitioned.register_model("los_model", pipeline)

    plan, report = partitioned.optimize(query)
    predict = find_predict_nodes(plan)[0]
    info = report.rule_info["data_induced_optimization"]
    print(f"partitions: {info['partitions']} on "
          f"{info['partition_column']!r}")
    print(f"avg input columns pruned per partition model: "
          f"{info['avg_pruned_columns']:.1f} (paper Table 2's metric)")

    original_nodes = sum(
        len(t) for n in partitioned.catalog.model("los_model")
        .graph.nodes if n.op_type.startswith("TreeEnsemble")
        for t in n.attrs["trees"])
    print(f"\noriginal model: {original_nodes} tree nodes; per-partition:")
    for index, graph in enumerate(predict.per_partition_graphs):
        nodes = sum(len(t) for n in graph.nodes
                    if n.op_type.startswith("TreeEnsemble")
                    for t in n.attrs["trees"])
        key = partitioned.catalog.table(dataset.fact_table) \
            .data.partitions[index].key
        print(f"  partition {key!r}: {nodes} nodes, "
              f"{len(graph.inputs)} inputs")

    part_result = partitioned.sql(query)
    part_seconds = partitioned.last_run.wall_seconds
    assert part_result.num_rows == flat_result.num_rows
    print(f"\nscored {part_result.num_rows} rows")
    print(f"unpartitioned: {flat_seconds * 1e3:.0f} ms, "
          f"partition-specialized: {part_seconds * 1e3:.0f} ms "
          f"({flat_seconds / max(part_seconds, 1e-9):.2f}x)")


if __name__ == "__main__":
    main()
