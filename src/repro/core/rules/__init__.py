"""Raven's optimization rules (paper §4 and §5.1).

Logical rules (always beneficial, applied first): the statistics pruning of
``DataInducedOptimization``, then ``PredicateBasedModelPruning``, then
``ModelProjectionPushdown`` (one liveness pass over the pipeline graph).
Where the two prunings would not commute a plan keeps the paper's order,
with statistics last (``RavenOptimizer._statistics_first``).
Logical-to-physical rules (``MLtoSQL``, ``MLtoDNN``) are applied per the
data-driven strategy (§5.2).
"""

from repro.core.rules.base import Rule, RuleResult, predict_nodes, replace_predict
from repro.core.rules.data_induced import (
    DataInducedOptimization,
    constraints_from_stats,
    input_column_provenance,
)
from repro.core.rules.intervals import (
    InputConstraints,
    Interval,
    StringConstraint,
    collapse_uniform_subtrees,
    propagate,
    prune_tree,
)
from repro.core.rules.ml_to_dnn import MLtoDNN, is_dnn_compilable
from repro.core.rules.ml_to_sql import (
    MLtoSQL,
    graph_to_expressions,
    sql_compilable_operators,
    tree_to_expression,
)
from repro.core.rules.predicate_pruning import (
    PredicateBasedModelPruning,
    extract_input_constraints,
    parse_constraint,
    prune_graph_with_constraints,
)
from repro.core.rules.projection_pushdown import (
    ModelProjectionPushdown,
    pushdown_graph,
    used_feature_indices,
)

__all__ = [
    "DataInducedOptimization", "InputConstraints", "Interval", "MLtoDNN",
    "MLtoSQL", "ModelProjectionPushdown", "PredicateBasedModelPruning",
    "Rule", "RuleResult", "StringConstraint", "collapse_uniform_subtrees",
    "constraints_from_stats", "extract_input_constraints",
    "graph_to_expressions", "input_column_provenance", "is_dnn_compilable",
    "parse_constraint", "predict_nodes", "propagate", "prune_graph_with_constraints",
    "prune_tree", "pushdown_graph", "replace_predict",
    "sql_compilable_operators", "tree_to_expression", "used_feature_indices",
]
