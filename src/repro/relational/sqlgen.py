"""SQL text generation (T-SQL flavoured; runs in stdlib ``sqlite3``).

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
from repro.storage.catalog import Catalog
from repro.storage.column import DataType

_TYPE_NAMES = {
    DataType.FLOAT: "FLOAT",
    DataType.INT: "BIGINT",
    DataType.BOOL: "BIT",
    DataType.STRING: "VARCHAR(8000)",  # the widest both dialects accept
}


def quote_identifier(name: str) -> str:
    """Bracket-quote a column name as one identifier: the plan's ``d.c``
    is the column ``[d.c]`` of the derived table below, which a Scan
    names so (``[c] AS [d.c]``)."""
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


def plan_to_sql(plan: PlanNode, catalog: Catalog) -> str:
    """Render a logical plan as a SQL query.

    Every operator is a derived table whose columns carry the plan's
    names: a Scan selects ``[c] AS [alias.c]`` (a Scan of every column
    lists the table's columns from ``catalog``), so the operators above
    refer to ``[alias.c]``. Predict nodes render as the paper's
    ``PREDICT(MODEL = ..., DATA = ...)`` TVF; a plan without one is a
    query stdlib ``sqlite3`` runs.
    """
    return _render(plan, catalog)


def _render(plan: PlanNode, catalog: Catalog) -> str:
    def sub(child: PlanNode, alias: str) -> str:
        return f"({_render(child, catalog)}) AS [{alias}]"

    if isinstance(plan, Scan):
        columns = plan.columns
        if columns is None:
            columns = catalog.table(plan.table_name).schema.names
        items = ", ".join(
            f"[{c}] AS {quote_identifier(f'{plan.alias}.{c}')}" for c in columns)
        return f"SELECT {items} FROM [{plan.table_name}] AS [{plan.alias}]"

    if isinstance(plan, Filter):
        inner = sub(plan.child, "t")
        return f"SELECT * FROM {inner} WHERE {expression_to_sql(plan.predicate)}"

    if isinstance(plan, Project):
        inner = sub(plan.child, "t")
        items = ", ".join(
            f"{expression_to_sql(e)} AS {quote_identifier(n)}" for n, e in plan.outputs
        )
        return f"SELECT {items} FROM {inner}"

    if isinstance(plan, Join):
        left = sub(plan.left, "l")
        right = sub(plan.right, "r")
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
        sql = f"SELECT * FROM {sub(plan.inputs[0], 't0')}"
        for index in range(1, len(plan.inputs)):
            conditions = " AND ".join(
                f"{quote_identifier(e.left_key)} = {quote_identifier(e.right_key)}"
                for e in plan.edges
                if max(e.left_input, e.right_input) == index
            )
            sql += (f" INNER JOIN {sub(plan.inputs[index], f't{index}')}"
                    f" ON {conditions}")
        return sql

    if isinstance(plan, Aggregate):
        inner = sub(plan.child, "t")
        items: List[str] = [quote_identifier(k) for k in plan.group_by]
        for spec in plan.aggregates:
            arg = "*" if spec.column is None else quote_identifier(spec.column)
            items.append(f"{spec.func.upper()}({arg}) AS {quote_identifier(spec.name)}")
        sql = f"SELECT {', '.join(items)} FROM {inner}"
        if plan.group_by:
            sql += " GROUP BY " + ", ".join(quote_identifier(k) for k in plan.group_by)
        return sql

    if isinstance(plan, Sort):
        inner = sub(plan.child, "t")
        keys = ", ".join(
            f"{quote_identifier(c)} {'ASC' if asc else 'DESC'}" for c, asc in plan.keys
        )
        return f"SELECT * FROM {inner} ORDER BY {keys}"

    if isinstance(plan, Limit):
        return f"SELECT * FROM {sub(plan.child, 't')} LIMIT {plan.count}"

    if isinstance(plan, Predict):
        inner = f"({_render(plan.child, catalog)})"
        with_clause = ", ".join(
            f"{name} {_TYPE_NAMES[dtype]}" for name, _, dtype in plan.output_columns
        )
        return (f"SELECT * FROM PREDICT(MODEL = {plan.model_name}, "
                f"DATA = {inner} AS d) WITH ({with_clause}) AS p")

    raise PlanError(f"cannot render plan node {type(plan).__name__}")
