"""The Raven optimizer: orchestrates logical rules + runtime selection.

Pipeline (paper §5.2, final paragraph): the logical optimizations run
first, in a strict order — predicate-based model pruning before
model-projection pushdown (pruning exposes more unused features), then the
data-induced optimizations — because they are always beneficial. Then the
data-driven strategy picks {none, MLtoSQL, MLtoDNN} per trained pipeline.
Host-engine relational passes run before (to position filters) and after
(to harvest the columns the rules freed). The static pipeline ends by
lowering every inner equi-join region to one row-index ``MultiJoin`` — the
only way an optimized plan runs an inner join — and the feedback-driven
passes, when a store is given, tune that final shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.adaptive.reopt import apply_feedback
from repro.core.rules import (
    DataInducedOptimization,
    MLtoDNN,
    MLtoSQL,
    ModelProjectionPushdown,
    PredicateBasedModelPruning,
)
from repro.core.strategies import DefaultPaperRule, FixedStrategy, OptimizationStrategy
from repro.errors import UnsupportedOperatorError
from repro.relational.logical import PlanNode, find_predict_nodes
from repro.relational.optimizer import RelationalOptimizer, lower_joins
from repro.storage.catalog import Catalog


@dataclass
class OptimizationReport:
    """What the optimizer did to one query."""

    rules_applied: List[str] = field(default_factory=list)
    rule_info: Dict[str, Dict[str, object]] = field(default_factory=dict)
    strategy_choices: List[str] = field(default_factory=list)

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
        # Position filters next to scans so predicate extraction sees them.
        plan = self._relational.optimize(plan)

        if self.enable_predicate_pruning:
            result = PredicateBasedModelPruning().apply(plan, self.catalog)
            plan = result.plan
            report.record("predicate_based_model_pruning", result.applied,
                          result.info)
        if self.enable_projection_pushdown:
            result = ModelProjectionPushdown().apply(plan, self.catalog)
            plan = result.plan
            report.record("model_projection_pushdown", result.applied,
                          result.info)
        if self.enable_data_induced:
            result = DataInducedOptimization().apply(plan, self.catalog)
            plan = result.plan
            report.record("data_induced_optimization", result.applied,
                          result.info)

        plan = self._apply_strategy(plan, report)
        # Harvest columns freed by the rules (pushdown below joins, scans).
        plan = lower_joins(self._relational.optimize(plan))
        if self.feedback is not None:
            # Feedback-driven tuning runs last, over the final operator
            # shapes, so the fingerprints it consults match what the
            # executor will profile. The catalog supplies base-table
            # statistics for cold join-ordering estimates.
            plan, changed, info = apply_feedback(plan, self.feedback,
                                                 self.catalog)
            report.record("adaptive_feedback", changed, info)
        return plan, report

    # ------------------------------------------------------------------
    def _apply_strategy(self, plan: PlanNode,
                        report: OptimizationReport) -> PlanNode:
        for predict in find_predict_nodes(plan):
            choice = self.strategy.choose(predict.graph)
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
