"""Retry policies and per-query outcome envelopes for serving.

:class:`RetryPolicy` describes how ``RavenSession.serve`` re-runs
transiently-failed queries: which error classes are retryable, how many
attempts, and an exponential backoff with deterministic seeded jitter
bounded by a total sleep budget (and by the query's deadline, when one
is set).

:class:`QueryOutcome` is the per-query envelope ``serve`` returns:
exactly one of ``table`` or ``error`` is set, alongside the last
attempt's record, the attempt count and degraded-mode flags — so one
failing query carries its typed error out in order instead of aborting
the whole batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ExecutionError,
    InjectedFaultError,
    RavenError,
)

#: Error classes retried by the default policy: execution-time failures
#: (which injected faults subclass via :class:`InjectedFaultError`).
#: Deadline and backpressure errors are never retryable — retrying an
#: expired deadline can only expire again, and retrying a rejected
#: admission would defeat the backpressure bound.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (ExecutionError,
                                                      InjectedFaultError)

_NEVER_RETRYABLE: Tuple[Type[BaseException], ...] = (DeadlineExceededError,
                                                     BackpressureError)


@dataclass(frozen=True)
class RetryPolicy:
    """How transient per-query failures are retried.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up to
    two retries. ``budget_seconds`` bounds the *total backoff sleep* per
    query; when the next computed delay would blow the budget the error
    propagates instead (typed, into the query's outcome envelope).
    Jitter is drawn from a :class:`random.Random` seeded per
    :meth:`rng` call, so a serve batch's retry schedule is reproducible.
    """

    max_attempts: int = 3
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    budget_seconds: Optional[float] = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    def is_retryable(self, error: BaseException) -> bool:
        if isinstance(error, _NEVER_RETRYABLE):
            return False
        return isinstance(error, tuple(self.retryable))

    def rng(self, salt: int = 0) -> random.Random:
        """A deterministic jitter source for one query's retry chain."""
        return random.Random(self.seed * 1_000_003 + salt)

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        Exponential in the attempt, capped at ``max_delay``, with
        ``jitter`` of the value randomized (full value at jitter=0).
        """
        raw = min(self.base_delay * (self.multiplier ** (attempt - 1)),
                  self.max_delay)
        if self.jitter <= 0.0:
            return raw
        floor = raw * (1.0 - self.jitter)
        return floor + rng.random() * (raw - floor)


#: Degraded-mode flags carried on outcomes.
DEGRADED_STATIC_PLAN = "static-plan"
DEGRADED_INTERPRETED = "interpreted-fallback"
DEGRADED_RETRIED = "retried"


@dataclass
class QueryOutcome:
    """The envelope for one served query: value *or* typed error.

    ``stats`` is the final attempt's
    :class:`~repro.core.session.RunStats` (``stats.attempt ==
    attempts``); ``ok`` outcomes carry the ``table``, failed outcomes the
    final ``error`` after retries exhausted (always a typed exception —
    :class:`~repro.errors.RavenError` subclasses for library failures).
    ``attempts`` counts executions (0, and no ``stats``, when admission
    itself was rejected, e.g. backpressure).
    """

    query: str
    table: Optional[object] = None
    stats: Optional[object] = None
    error: Optional[BaseException] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> Tuple[str, ...]:
        """The fallbacks that produced the value, read off ``stats``:
        ``"static-plan"`` (circuit breaker served the safe static
        re-optimization), ``"interpreted-fallback"`` (compiled expression
        engine fell back to the interpreted oracle), ``"retried"``."""
        if self.error is not None:
            return ()
        flags = []
        if self.stats is not None:
            if self.stats.static_plan:
                flags.append(DEGRADED_STATIC_PLAN)
            if self.stats.expression_fallbacks:
                flags.append(DEGRADED_INTERPRETED)
        if self.attempts > 1:
            flags.append(DEGRADED_RETRIED)
        return tuple(flags)

    def result(self):
        """The table, re-raising the stored error for failed outcomes."""
        if self.error is not None:
            raise self.error
        return self.table

    def __repr__(self) -> str:
        status = "ok" if self.ok else type(self.error).__name__
        flags = f", degraded={list(self.degraded)}" if self.degraded else ""
        return (f"QueryOutcome({status}, attempts={self.attempts}{flags}, "
                f"query={self.query[:40]!r})")


def raven_typed(error: BaseException) -> BaseException:
    """Ensure an outcome's error is typed under RavenError when possible.

    Library errors already are; foreign exceptions (a numpy overflow, a
    user callback bug) are wrapped so callers matching on RavenError
    still see everything, with the original as ``__cause__``.
    """
    if isinstance(error, RavenError):
        return error
    wrapped = ExecutionError(f"query failed with "
                             f"{type(error).__name__}: {error}")
    wrapped.__cause__ = error
    return wrapped
