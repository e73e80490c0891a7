"""Rule infrastructure for the Raven optimizer.

Every optimization is a :class:`Rule` over the unified IR (a logical plan
whose Predict operators embed onnxlite graphs). Rules are pure: they return
a new plan plus a :class:`RuleResult` describing what changed — the reports
feed the experiment harness (e.g. "columns pruned" in Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TypeVar

from repro.relational.logical import PlanNode, Predict, find_predict_nodes
from repro.storage.catalog import Catalog, RewriteMemo

T = TypeVar("T")


@dataclass
class RuleResult:
    """Outcome of applying one rule."""

    plan: PlanNode
    applied: bool = False
    info: Dict[str, object] = field(default_factory=dict)

    def merge_info(self, other: Dict[str, object]) -> None:
        for key, value in other.items():
            if key in self.info and isinstance(value, (int, float)):
                self.info[key] = self.info[key] + value  # type: ignore[operator]
            else:
                self.info[key] = value


class Rule:
    """Base class; subclasses implement :meth:`apply`."""

    name: str = "rule"

    def apply(self, plan: PlanNode, catalog: Catalog) -> RuleResult:
        raise NotImplementedError

    def __repr__(self):
        return f"<Rule {self.name}>"


def replace_predict(plan: PlanNode, old: Predict, new: PlanNode) -> PlanNode:
    """Return a plan with one Predict node substituted (identity-matched)."""

    def substitute(node: PlanNode) -> Optional[PlanNode]:
        return new if node is old else None

    from repro.relational.logical import transform_plan
    return transform_plan(plan, substitute)


def predict_nodes(plan: PlanNode) -> List[Predict]:
    """All Predict operators in the plan (rules iterate over these)."""
    return find_predict_nodes(plan)


def rewrite_memo(catalog: Catalog, predict: Predict) -> Optional[RewriteMemo]:
    """The rewrite memo of the Predict's model, or None when the model is
    not registered."""
    if not catalog.has_model(predict.model_name):
        return None
    return catalog.model(predict.model_name).rewrites


def memoized(catalog: Catalog, predict: Predict, key: tuple,
             compute: Callable[[], T]) -> T:
    """``compute()``, memoized in the Predict's model's rewrite memo.

    ``key`` must decide the result: its first item names the rule, its
    second is the graph the rule rewrites — hashed by identity (graphs
    in a plan are never mutated, and the memo keeps the key's graph
    alive, so its id is not reused) — and the rest is whatever else
    the rule reads. A hit returns the very objects the miss built, so
    every later key built from them (the next rule's graph, MLtoSQL's
    expressions) hits too.
    """
    memo = rewrite_memo(catalog, predict)
    if memo is None:
        return compute()
    found = memo.get(key)
    if found is None:
        found = memo.put(key, compute())
    return found  # type: ignore[return-value]
