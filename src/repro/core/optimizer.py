"""The Raven optimizer: orchestrates logical rules + runtime selection.

Pipeline (paper §5.2, final paragraph): the logical optimizations run
first, because they are always beneficial. Statistics pruning (the
data-induced rule) runs first, on the registered graph: its result is a
pure function of the model, its inputs' provenance and the catalog's
statistics, so the model's catalog entry caches it and a cold plan gets
it back without a tree walk. Predicate-based pruning then runs on that
graph and model-projection pushdown last (both prunings expose unused
features). Where the two prunings would not commute, a plan keeps the
paper's order — predicates, pushdown, then statistics — see
:meth:`RavenOptimizer._statistics_first`. Then the data-driven strategy
picks {none, MLtoSQL, MLtoDNN} per trained pipeline; MLtoSQL writes each
tree as one :class:`~repro.relational.expressions.TreeCase`. Host-engine
relational passes run before (to position filters) and after (to harvest
the columns the rules freed). The static pipeline ends by lowering every
inner equi-join region to one row-index ``MultiJoin`` — the only way an
optimized plan runs an inner join — and the feedback-driven passes, when
a store is given, tune that final shape.

The model rewrites are memoized per (graph, snapped box) on the model's
catalog entry (``ModelEntry.rewrites``, see
:func:`repro.core.rules.base.memoized`): statistics pruning keyed by the
graph and its inputs' provenance (checked against the statistics
objects), predicate pruning by the graph, the box's
:func:`~repro.core.rules.predicate_pruning.box_key` and the output
predicates, projection pushdown and the strategy's feature vector by the
graph, MLtoSQL by the graph and the input mapping. ``box_key`` is exact
for what enters the graph as a value (constantized points, string sets,
intervals that reach a linear model) and snaps tree inputs to their
threshold cell: per split, whether the box lies at or below the
threshold, above it, may be NaN or has a NaN bound. So a cold literal
that lands in a seen cell gets every rewrite back as the same objects —
the pruned and pushed-down graphs, the feature vector, the TreeCase
expressions — and what keys on them downstream (constant folding, the
adaptive fingerprint, the session's compiled programs) hits by identity.

:class:`OptimizationReport` records each step's seconds, so ``EXPLAIN``
shows where a cold plan's time went.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adaptive.reopt import apply_feedback
from repro.core.rules import (
    DataInducedOptimization,
    MLtoDNN,
    MLtoSQL,
    ModelProjectionPushdown,
    PredicateBasedModelPruning,
)
from repro.core.rules.base import Rule, memoized
from repro.core.rules.intervals import Interval, StringConstraint
from repro.core.rules.predicate_pruning import (
    extract_input_constraints,
    extract_output_predicates,
)
from repro.core.strategies import (
    DefaultPaperRule,
    FixedStrategy,
    OptimizationStrategy,
    feature_vector,
)
from repro.errors import UnsupportedOperatorError
from repro.relational.logical import PlanNode, Predict, find_predict_nodes
from repro.relational.optimizer import RelationalOptimizer, lower_joins
from repro.storage.catalog import Catalog


@dataclass
class OptimizationReport:
    """What the optimizer did to one query."""

    rules_applied: List[str] = field(default_factory=list)
    rule_info: Dict[str, Dict[str, object]] = field(default_factory=dict)
    strategy_choices: List[str] = field(default_factory=list)
    #: Seconds of each optimizer step, in the order they ran.
    step_seconds: Dict[str, float] = field(default_factory=dict)

    def record(self, name: str, applied: bool, info: Dict[str, object]) -> None:
        if applied:
            self.rules_applied.append(name)
            self.rule_info[name] = info

    def summary(self) -> str:
        lines = [f"rules applied: {', '.join(self.rules_applied) or '(none)'}"]
        if self.strategy_choices:
            lines.append(f"runtime choices: {', '.join(self.strategy_choices)}")
        for name, info in self.rule_info.items():
            details = ", ".join(f"{k}={v}" for k, v in info.items())
            lines.append(f"  {name}: {details}")
        if self.step_seconds:
            lines.append("optimizer ms: " + ", ".join(
                f"{name}={1e3 * seconds:.3f}"
                for name, seconds in self.step_seconds.items()))
        return "\n".join(lines)


class RavenOptimizer:
    """Co-optimizer invoked on prediction queries (Fig. 5's RavenRule).

    Parameters mirror the knobs the evaluation sweeps:

    * ``enable_cross`` / ``enable_data_induced`` — the logical rules;
    * ``strategy`` — an :class:`OptimizationStrategy`, or one of the
      strings ``"none"`` / ``"sql"`` / ``"dnn"`` to force a choice;
      default is the paper's generated rule;
    * ``gpu_available`` — routes MLtoDNN to the (simulated) GPU when True,
      to the CPU tensor runtime otherwise;
    * ``feedback`` — a :class:`repro.adaptive.feedback.FeedbackStore`;
      when given, the feedback-driven passes run last (conjunct
      reordering, join ordering), tuning the plan to observed
      selectivities and costs.
    """

    def __init__(self, catalog: Catalog,
                 enable_cross: bool = True,
                 enable_predicate_pruning: Optional[bool] = None,
                 enable_projection_pushdown: Optional[bool] = None,
                 enable_data_induced: bool = True,
                 strategy: Optional[OptimizationStrategy | str] = None,
                 gpu_available: bool = False,
                 feedback=None):
        self.catalog = catalog
        self.feedback = feedback
        self.enable_predicate_pruning = (
            enable_cross if enable_predicate_pruning is None
            else enable_predicate_pruning)
        self.enable_projection_pushdown = (
            enable_cross if enable_projection_pushdown is None
            else enable_projection_pushdown)
        self.enable_data_induced = enable_data_induced
        self.gpu_available = gpu_available
        if strategy is None:
            strategy = DefaultPaperRule(gpu_available=gpu_available)
        elif isinstance(strategy, str):
            strategy = FixedStrategy(strategy)
        self.strategy = strategy
        self._relational = RelationalOptimizer(catalog)

    # ------------------------------------------------------------------
    def optimize(self, plan: PlanNode) -> tuple[PlanNode, OptimizationReport]:
        report = OptimizationReport()

        def step(name: str, function: Callable, *args):
            started = time.perf_counter()
            try:
                return function(*args)
            finally:
                report.step_seconds[name] = time.perf_counter() - started

        # Position filters next to scans so predicate extraction sees them.
        plan = step("relational", self._relational.optimize, plan)

        rules: List[Rule] = []
        if self.enable_predicate_pruning:
            rules.append(PredicateBasedModelPruning())
        if self.enable_projection_pushdown:
            rules.append(ModelProjectionPushdown())
        if self.enable_data_induced:
            induced = DataInducedOptimization()
            if self._statistics_first(plan, induced):
                rules.insert(0, induced)
            else:
                rules.append(induced)
        for rule in rules:
            result = step(rule.name, rule.apply, plan, self.catalog)
            plan = result.plan
            report.record(rule.name, result.applied, result.info)

        plan = step("strategy", self._apply_strategy, plan, report)
        # Harvest columns freed by the rules (pushdown below joins, scans).
        plan = step("relational_post", self._relational.optimize, plan)
        plan = step("lower_joins", lower_joins, plan)
        if self.feedback is not None:
            # Feedback-driven tuning runs last, over the final operator
            # shapes, so the fingerprints it consults match what the
            # executor will profile. The catalog supplies base-table
            # statistics for cold join-ordering estimates.
            plan, changed, info = step("adaptive_feedback", apply_feedback,
                                       plan, self.feedback, self.catalog)
            report.record("adaptive_feedback", changed, info)
        return plan, report

    def _statistics_first(self, plan: PlanNode,
                          induced: DataInducedOptimization) -> bool:
        """Whether statistics pruning may run before the predicate rules.

        Pruning a tree by two boxes gives the same split decisions in
        either order when a row can satisfy both (a row in both boxes
        reaches every node either order keeps). The orders can differ,
        and the plan keeps the paper's order, when a Predict has:

        * a linear model (folding point features into the intercept
          adds them in a different order);
        * a predicate on its output (merging failing leaves before or
          after statistics pruning keeps different leaves);
        * per-partition statistics (each partition's graph is built
          from the predicate-pruned graph);
        * a leaf value that is ``-0.0`` (merging equal leaves keeps the
          left one's sign, a decided split the taken one's);
        * an input whose predicate and statistics admit no common value,
          or whose statistics are NaN (a column of NaN only);
        * an input a predicate compares whose statistics may be NaN (a
          column with nulls): a split the predicate decides is gone
          before statistics pruning runs, and with it the refinement
          that told statistics pruning the value is not NaN below it.
        """
        for predict in find_predict_nodes(plan):
            graph = predict.graph
            for node in graph.nodes:
                if node.op_type.startswith("Linear"):
                    return False
                if node.op_type.startswith("TreeEnsemble") and any(
                        np.any((tree.value == 0.0) & np.signbit(tree.value))
                        for tree in node.attrs["trees"]):
                    return False
            if extract_output_predicates(plan, predict):
                return False
            if not self._boxes_meet(predict, induced):
                return False
        return True

    def _boxes_meet(self, predict: Predict,
                    induced: DataInducedOptimization) -> bool:
        provenance, stats = induced.statistics_box(predict, self.catalog)
        if any(self.catalog.table(table).data.num_partitions > 1
               for table in {table for table, _ in provenance.values()}):
            return False
        if any(math.isnan(interval.low) or math.isnan(interval.high)
               for interval in stats.numeric.values()):
            return False
        predicates = extract_input_constraints(predict, self.catalog)
        for name, interval in predicates.numeric.items():
            known = stats.numeric.get(name)
            if name in stats.strings or known is not None and (
                    known.may_be_nan or interval.intersect(known).is_empty):
                return False
        for name, allowed in predicates.strings.items():
            known: Optional[StringConstraint] = stats.strings.get(name)
            if name in stats.numeric or (known is not None and not set(
                    allowed.values) & set(known.values)):
                return False
        return True

    # ------------------------------------------------------------------
    def _apply_strategy(self, plan: PlanNode,
                        report: OptimizationReport) -> PlanNode:
        for predict in find_predict_nodes(plan):
            def features(graph, predict=predict):
                return memoized(self.catalog, predict, ("feature_vector", graph),
                                lambda: feature_vector(graph))

            choice = self.strategy.choose(predict.graph, features)
            report.strategy_choices.append(choice)
            if choice == "sql":
                try:
                    result = MLtoSQL(target=predict).apply(plan, self.catalog)
                except UnsupportedOperatorError:
                    # All-or-nothing: fall back to the ML runtime.
                    report.strategy_choices[-1] = "none (sql unsupported)"
                    continue
                plan = result.plan
                report.record("ml_to_sql", result.applied, result.info)
            elif choice == "dnn":
                # With no GPU available, MLtoDNN targets the CPU tensor
                # runtime — beneficial only for complex models (paper §7.3).
                device = "gpu" if self.gpu_available else "cpu"
                try:
                    result = MLtoDNN(device=device,
                                     target=predict).apply(plan, self.catalog)
                except UnsupportedOperatorError:
                    report.strategy_choices[-1] = "none (dnn unsupported)"
                    continue
                plan = result.plan
                report.record("ml_to_dnn", result.applied, result.info)
        return plan

