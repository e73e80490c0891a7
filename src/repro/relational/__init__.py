"""Relational substrate: expressions, logical plans, optimizer, executor.

Stand-in for the data-engine half of the paper (SparkSQL / SQL Server):
a vectorized columnar query engine with the host-side optimizations Raven
depends on (predicate & projection pushdown, PK-FK join elimination).
"""

from repro.relational.compile import (
    CompiledProgram,
    compile_outputs,
    compile_predicate,
)
from repro.relational.executor import Executor, execute
from repro.relational.expressions import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
    col,
    conjunction,
    conjuncts,
    fold_constants,
    lit,
    substitute_columns,
    transform_expression,
)
from repro.relational.logical import (
    Aggregate,
    AggregateSpec,
    Filter,
    Join,
    JoinEdge,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    PredictMode,
    Project,
    Scan,
    Sort,
    find_predict_nodes,
    transform_plan,
    walk,
)
from repro.relational.optimizer import RelationalOptimizer
from repro.relational.sqlgen import expression_to_sql, plan_to_sql

__all__ = [
    "Aggregate", "AggregateSpec", "Between", "BinaryOp", "CaseWhen", "Cast",
    "ColumnRef", "CompiledProgram", "Executor", "Expression",
    "Filter", "FunctionCall", "InList",
    "Join", "JoinEdge", "Limit", "Literal", "MultiJoin",
    "PlanNode", "Predict",
    "PredictMode", "Project", "RelationalOptimizer", "Scan", "Sort", "UnaryOp",
    "col", "compile_outputs", "compile_predicate", "conjunction", "conjuncts",
    "execute", "expression_to_sql",
    "find_predict_nodes", "fold_constants", "lit", "plan_to_sql",
    "substitute_columns", "transform_expression", "transform_plan", "walk",
]
