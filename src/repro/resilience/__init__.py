"""Fault-tolerant serving substrate: deadlines, retries, breakers, faults.

The optimizer's wins only matter if prediction queries keep answering
when parts of the stack misbehave. This package holds the four policies
the serving layer (and the future multi-process fleet) builds on:

* :class:`Deadline` — cooperative per-query deadlines, checked at
  operator boundaries, predict batches and plan-cache waits
  (:class:`~repro.errors.DeadlineExceededError` on overrun);
* :class:`RetryPolicy` / :class:`QueryOutcome` — exponential-backoff
  retries with deterministic jitter, and the per-query outcome envelope
  ``RavenSession.serve`` returns so one failing query never aborts a
  batch;
* :class:`CircuitBreakerBoard` — per-fingerprint breakers that trip a
  repeatedly-failing adaptively-annotated plan to a safe static
  re-optimization and half-open later;
* :class:`FaultInjector` — the deterministic, seedable fault-injection
  harness wired into named sites across the executor, predict runtime,
  plan cache, snapshot, telemetry and spill IO.
"""

from repro.resilience.breaker import (
    CircuitBreakerBoard,
    EVENT_CLOSED,
    EVENT_REOPENED,
    EVENT_TRIPPED,
    ROUTE_ADAPTIVE,
    ROUTE_DEGRADED,
    ROUTE_TRIAL,
    STATE_CLOSED,
    STATE_OPEN,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import (
    SITE_EXECUTOR_COMPILE,
    SITE_EXECUTOR_OPERATOR,
    SITE_PLAN_OPTIMIZE,
    SITE_PREDICT_RUN,
    SITE_SNAPSHOT_WRITE,
    SITES,
    FaultInjector,
    FaultRule,
    FiredFault,
)
from repro.resilience.retry import (
    DEGRADED_INTERPRETED,
    DEGRADED_RETRIED,
    DEGRADED_STATIC_PLAN,
    QueryOutcome,
    RetryPolicy,
    raven_typed,
)

__all__ = [
    "CircuitBreakerBoard", "Deadline", "FaultInjector",
    "FaultRule", "FiredFault", "QueryOutcome", "RetryPolicy",
    "EVENT_CLOSED", "EVENT_REOPENED", "EVENT_TRIPPED",
    "ROUTE_ADAPTIVE", "ROUTE_DEGRADED", "ROUTE_TRIAL",
    "STATE_CLOSED", "STATE_OPEN",
    "DEGRADED_INTERPRETED", "DEGRADED_RETRIED", "DEGRADED_STATIC_PLAN",
    "SITES", "SITE_EXECUTOR_COMPILE",
    "SITE_EXECUTOR_OPERATOR", "SITE_PLAN_OPTIMIZE",
    "SITE_PREDICT_RUN", "SITE_SNAPSHOT_WRITE",
    "raven_typed",
]
