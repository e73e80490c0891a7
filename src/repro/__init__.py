"""repro — a from-scratch reproduction of Raven (SIGMOD 2022).

*End-to-end Optimization of Machine Learning Prediction Queries*:
a unified IR over relational + ML operators, cross-optimizations
(predicate-based model pruning, model-projection pushdown), data-induced
optimizations, and data-driven runtime selection (MLtoSQL / MLtoDNN).

Quickstart::

    from repro import RavenSession
    session = RavenSession()
    session.register_table("patients", table, primary_key=["id"])
    session.register_model("risk", trained_pipeline)
    result = session.sql(
        "SELECT d.id, p.score "
        "FROM PREDICT(MODEL = risk, DATA = patients AS d) "
        "WITH (score FLOAT) AS p WHERE d.asthma = 1"
    )

See ROADMAP.md for the system inventory and open work, and
benchmarks/README.md for the end-to-end benchmark and acceptance checks.
"""

from repro.adaptive import FeedbackStore, OperatorProfile
from repro.core.optimizer import OptimizationReport, RavenOptimizer
from repro.core.session import RavenSession, RunStats, ServingStats
from repro.errors import DeadlineExceededError, RavenError
from repro.persist import Snapshot, SnapshotStore
from repro.resilience import (
    CircuitBreakerBoard,
    Deadline,
    FaultInjector,
    QueryOutcome,
    RetryPolicy,
)
from repro.serving import PlanCache
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
from repro.storage.table import Schema, Table
from repro.telemetry import MetricsRegistry, SlowQueryLog, Telemetry, Tracer

__version__ = "0.1.0"

__all__ = [
    "Catalog", "CircuitBreakerBoard", "Deadline", "DeadlineExceededError",
    "FaultInjector", "FeedbackStore", "MetricsRegistry", "OperatorProfile",
    "OptimizationReport", "PartitionedTable", "PlanCache", "QueryOutcome",
    "RavenError", "RavenOptimizer", "RavenSession", "RetryPolicy",
    "RunStats", "Schema", "ServingStats", "SlowQueryLog", "Snapshot",
    "SnapshotStore", "Table", "Telemetry", "Tracer", "__version__",
]
