"""SQL text generation (T-SQL flavoured).

Raven can emit the optimized prediction query as SQL for execution on SQL
Server (paper §6, "Transforming Raven plans to SQL Server queries"). This
module renders expression trees and logical plans to SQL text; its most
important client is the MLtoSQL rule, whose compiled models become nested
``CASE WHEN`` expressions exactly as in paper §5.1.
"""

from __future__ import annotations

from typing import List

from repro.errors import PlanError
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
    TreeCase,
    UnaryOp,
)
from repro.relational.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    MultiJoin,
    PlanNode,
    Predict,
    Project,
    Scan,
    Sort,
)
from repro.storage.column import DataType

_TYPE_NAMES = {
    DataType.FLOAT: "FLOAT",
    DataType.INT: "BIGINT",
    DataType.BOOL: "BIT",
    DataType.STRING: "VARCHAR(MAX)",
}


def quote_identifier(name: str) -> str:
    """Bracket-quote an identifier, preserving alias qualification."""
    if "." in name:
        qualifier, rest = name.split(".", 1)
        return f"[{qualifier}].[{rest}]"
    return f"[{name}]"


def _quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def expression_to_sql(expr: Expression) -> str:
    """Render an expression tree as SQL text."""
    if isinstance(expr, ColumnRef):
        return quote_identifier(expr.name)
    if isinstance(expr, Literal):
        if expr.dtype is DataType.STRING:
            return _quote_string(str(expr.value))
        if expr.dtype is DataType.BOOL:
            return "1" if expr.value else "0"
        if isinstance(expr.value, float):
            return repr(expr.value)
        return str(expr.value)
    if isinstance(expr, BinaryOp):
        op = expr.op.upper() if expr.op in ("and", "or") else expr.op
        return f"({expression_to_sql(expr.left)} {op} {expression_to_sql(expr.right)})"
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return f"(NOT {expression_to_sql(expr.operand)})"
        # Keep a space after the sign: "(--0.5)" would lex as a comment.
        return f"(- {expression_to_sql(expr.operand)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(expression_to_sql(a) for a in expr.args)
        if expr.name == "sigmoid":
            # T-SQL has no SIGMOID; expand to the logistic identity.
            inner = expression_to_sql(expr.args[0])
            return f"(1.0 / (1.0 + EXP(-({inner}))))"
        if expr.name == "isnan":
            # The engine models SQL NULL as NaN in float columns.
            return f"({expression_to_sql(expr.args[0])} IS NULL)"
        return f"{expr.name.upper()}({args})"
    if isinstance(expr, TreeCase):
        return expression_to_sql(expr.expand())
    if isinstance(expr, CaseWhen):
        parts = ["CASE"]
        for cond, value in expr.branches:
            parts.append(f"WHEN {expression_to_sql(cond)} THEN {expression_to_sql(value)}")
        parts.append(f"ELSE {expression_to_sql(expr.default)} END")
        return " ".join(parts)
    if isinstance(expr, InList):
        values = ", ".join(
            _quote_string(v) if isinstance(v, str) else str(v) for v in expr.values
        )
        return f"({expression_to_sql(expr.operand)} IN ({values}))"
    if isinstance(expr, Between):
        return (f"({expression_to_sql(expr.operand)} BETWEEN "
                f"{expression_to_sql(expr.low)} AND {expression_to_sql(expr.high)})")
    if isinstance(expr, Cast):
        return f"CAST({expression_to_sql(expr.operand)} AS {_TYPE_NAMES[expr.dtype]})"
    raise PlanError(f"cannot render expression of type {type(expr).__name__}")


def plan_to_sql(plan: PlanNode) -> str:
    """Render a logical plan as a SQL query.

    Non-SELECT-shaped plans are rendered as nested derived tables. Predict
    nodes render as the paper's ``PREDICT(MODEL = ..., DATA = ...)`` TVF so
    the output is a valid Raven-dialect query.
    """
    return _render(plan, top=True)


def _render(plan: PlanNode, top: bool = False) -> str:
    if isinstance(plan, Scan):
        cols = "*" if plan.columns is None else ", ".join(
            quote_identifier(c) for c in plan.columns
        )
        sql = f"SELECT {cols} FROM [{plan.table_name}] AS [{plan.alias}]"
        return sql if top else f"({sql})"

    if isinstance(plan, Filter):
        inner = _subquery(plan.child, "t")
        return f"SELECT * FROM {inner} WHERE {expression_to_sql(plan.predicate)}"

    if isinstance(plan, Project):
        inner = _subquery(plan.child, "t")
        items = ", ".join(
            f"{expression_to_sql(e)} AS {quote_identifier(n)}" for n, e in plan.outputs
        )
        return f"SELECT {items} FROM {inner}"

    if isinstance(plan, Join):
        left = _subquery(plan.left, "l")
        right = _subquery(plan.right, "r")
        conditions = " AND ".join(
            f"{quote_identifier(lk)} = {quote_identifier(rk)}"
            for lk, rk in zip(plan.left_keys, plan.right_keys)
        )
        join_kw = "INNER JOIN" if plan.how == "inner" else "LEFT JOIN"
        return f"SELECT * FROM {left} {join_kw} {right} ON {conditions}"

    if isinstance(plan, MultiJoin):
        # Render as a chain of INNER JOINs in the original input order
        # (the execution `order` is an engine-local annotation; the SQL
        # target's own optimizer picks its join order).
        sql = f"SELECT * FROM {_subquery(plan.inputs[0], 't0')}"
        for index in range(1, len(plan.inputs)):
            conditions = " AND ".join(
                f"{quote_identifier(e.left_key)} = {quote_identifier(e.right_key)}"
                for e in plan.edges
                if max(e.left_input, e.right_input) == index
            )
            sql += (f" INNER JOIN {_subquery(plan.inputs[index], f't{index}')}"
                    f" ON {conditions}")
        return sql

    if isinstance(plan, Aggregate):
        inner = _subquery(plan.child, "t")
        items: List[str] = [quote_identifier(k) for k in plan.group_by]
        for spec in plan.aggregates:
            arg = "*" if spec.column is None else quote_identifier(spec.column)
            items.append(f"{spec.func.upper()}({arg}) AS {quote_identifier(spec.name)}")
        sql = f"SELECT {', '.join(items)} FROM {inner}"
        if plan.group_by:
            sql += " GROUP BY " + ", ".join(quote_identifier(k) for k in plan.group_by)
        return sql

    if isinstance(plan, Sort):
        inner = _subquery(plan.child, "t")
        keys = ", ".join(
            f"{quote_identifier(c)} {'ASC' if asc else 'DESC'}" for c, asc in plan.keys
        )
        return f"SELECT * FROM {inner} ORDER BY {keys}"

    if isinstance(plan, Limit):
        inner = _subquery(plan.child, "t")
        return f"SELECT TOP {plan.count} * FROM {inner}"

    if isinstance(plan, Predict):
        inner = _subquery(plan.child, "d")
        with_clause = ", ".join(
            f"{name} {_TYPE_NAMES[dtype]}" for name, _, dtype in plan.output_columns
        )
        return (f"SELECT * FROM PREDICT(MODEL = {plan.model_name}, "
                f"DATA = {inner} AS d) WITH ({with_clause}) AS p")

    raise PlanError(f"cannot render plan node {type(plan).__name__}")


def _subquery(plan: PlanNode, alias: str) -> str:
    if isinstance(plan, Scan) and plan.columns is None:
        return f"[{plan.table_name}] AS [{plan.alias}]"
    return f"({_render(plan, top=True)}) AS [{alias}]"
