"""Data-driven runtime selection (paper §5.2).

Trains the three optimization strategies — ML-informed rule-based,
classification-based, regression-based — on a corpus of measured pipelines
and shows how each routes different pipelines to {none, MLtoSQL, MLtoDNN}.

Run with: ``python examples/runtime_selection.py``
"""

from repro.core.strategies import (
    CHOICES,
    ClassificationStrategy,
    MLInformedRuleStrategy,
    RegressionStrategy,
    best_choice_labels,
    class_balance,
    evaluate_strategy,
    measure_corpus_runtimes,
)
from repro.datasets import generate_corpus


def main() -> None:
    print("measuring a 40-pipeline corpus under {none, sql, dnn}...")
    corpus = generate_corpus(n_pipelines=40, seed=11, eval_rows=20_000)
    features, runtimes = measure_corpus_runtimes(corpus)
    print("class balance (fastest choice per pipeline):",
          class_balance(runtimes))

    # --- ML-informed rule-based strategy ---------------------------------
    rule = MLInformedRuleStrategy(top_k=3, rule_depth=3)
    rule.fit(features, runtimes)
    print("\n=== generated rule (paper §5.2's readable if/else) ===")
    print(rule.describe_rule())

    # --- Evaluate all three under the stratified-fold protocol ------------
    print("\n=== 5-fold x 6 repeats evaluation (Fig. 4 protocol) ===")
    factories = {
        "rule-based": lambda: MLInformedRuleStrategy(),
        "classification": lambda: ClassificationStrategy(n_estimators=40,
                                                         random_state=0),
        "regression": lambda: RegressionStrategy(),
    }
    for name, factory in factories.items():
        evaluation = evaluate_strategy(factory, features, runtimes,
                                       repeats=6, name=name)
        pct = evaluation.speedup_percentiles()
        print(f"{name:>16}: accuracy={evaluation.mean_accuracy:.2f}  "
              f"speedup median={pct['median']:.2f} "
              f"p25={pct['p25']:.2f} min={pct['min']:.2f}")

    # --- Show individual routing decisions --------------------------------
    strategy = ClassificationStrategy(n_estimators=60, random_state=0)
    strategy.fit(features, runtimes)
    labels = best_choice_labels(runtimes)
    print("\n=== per-pipeline decisions (first 10) ===")
    print(f"{'pipeline':>9} {'chosen':>8} {'optimal':>8} "
          f"{'t_none':>9} {'t_sql':>9} {'t_dnn':>9}")
    for i in range(min(10, len(features))):
        chosen = strategy.choose_from_vector(features[i])
        optimal = CHOICES[labels[i]]
        row = runtimes[i]
        print(f"{i:>9} {chosen:>8} {optimal:>8} "
              f"{row[0]:>9.4f} {row[1]:>9.4f} {row[2]:>9.4f}")
    print("\n(t_dnn uses the simulated-GPU device model of repro.tensor)")


if __name__ == "__main__":
    main()
