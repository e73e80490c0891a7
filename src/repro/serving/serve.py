"""The batch entry point: run many queries concurrently, one outcome each.

``RavenSession.serve`` delegates here with its engine. Every query in a
batch runs through the engine's ordinary lifecycle
(:meth:`repro.core.engine.Engine.run`: plan cache, breakers, deadline
checks, one :class:`RunStats` record and its fold), so a served query is
the same run as an ``sql()`` call; this module only adds what a batch
needs around it:

* an **admission gate** — ``max_pending`` bounds the queries submitted
  but not yet finished, and ``backpressure`` decides what happens at the
  bound: ``"block"`` stalls admission until a worker finishes,
  ``"raise"`` rejects the query with a
  :class:`~repro.errors.BackpressureError` outcome (``attempts=0``);
* a **thread pool** of ``workers`` (numpy kernels release the GIL, so
  vectorized work overlaps);
* **retries** — a :class:`~repro.resilience.RetryPolicy` re-runs
  transiently-failed queries with seeded, deterministic backoff, bounded
  by the policy's sleep budget and the query's deadline. Each attempt is
  its own run with its own record, numbered before it starts.

The result is one :class:`~repro.resilience.QueryOutcome` per query, in
query order. A failing query never stops the batch: its outcome carries
the typed error, and ``outcome.result()`` re-raises it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, List, Optional, Union

from repro.core.record import RunStats
from repro.errors import BackpressureError
from repro.resilience.deadline import Deadline
from repro.resilience.retry import QueryOutcome, RetryPolicy, raven_typed


def serve(engine, queries: Iterable[str], *, workers: int,
          max_pending: Optional[int], backpressure: str,
          retry: Optional[RetryPolicy],
          deadline: Union[Deadline, float, None]) -> List[QueryOutcome]:
    """Run ``queries`` on ``engine``; one outcome per query, in order.

    The defaults are ``RavenSession.serve``'s. ``deadline`` is a
    per-query budget in seconds spanning all of that query's attempts, or
    a shared :class:`~repro.resilience.Deadline`. The engine's
    ``serving_stats`` count ``submitted``, ``completed``, ``rejected``,
    ``retries`` and ``failed`` (final outcomes that are errors).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if backpressure not in ("block", "raise"):
        raise ValueError("backpressure must be 'block' or 'raise'")
    if max_pending is not None and max_pending < 1:
        raise ValueError("max_pending must be >= 1")
    queries = list(queries)
    stats = engine.serving_stats
    gate = (threading.BoundedSemaphore(max_pending)
            if max_pending is not None else None)

    def run_one(index: int, query: str) -> QueryOutcome:
        try:
            return _attempts(engine, query, retry, deadline, salt=index)
        finally:
            stats.inc("completed")
            if gate is not None:
                gate.release()

    def admit(index: int, query: str, submit):
        """Admit then submit; backpressure applies *before* submission."""
        if gate is not None:
            if backpressure == "block":
                gate.acquire()
            elif not gate.acquire(blocking=False):
                stats.inc("rejected")
                return QueryOutcome(query=query, attempts=0,
                                    error=BackpressureError(
                                        f"pending-query depth {max_pending} "
                                        f"exceeded (policy='raise'): "
                                        f"{query[:80]!r}"))
        stats.inc("submitted")
        return submit(run_one, index, query)

    if workers == 1 or len(queries) <= 1:
        return [admit(index, query, lambda fn, *args: fn(*args))
                for index, query in enumerate(queries)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = [admit(index, query, pool.submit)
                   for index, query in enumerate(queries)]
    return [entry.result() if isinstance(entry, Future) else entry
            for entry in pending]


def _attempts(engine, query: str, retry: Optional[RetryPolicy],
              deadline: Union[Deadline, float, None],
              salt: int) -> QueryOutcome:
    """Run one query under the retry policy; always returns an outcome.

    The outcome's ``stats`` is the last attempt's record, failed or not.
    Jitter is deterministic per (policy seed, ``salt``), so a batch's
    retry schedule is reproducible.
    """
    stats = engine.serving_stats
    deadline = Deadline.coerce(deadline)
    rng = retry.rng(salt) if retry is not None else None
    attempt = 0
    slept = 0.0
    while True:
        attempt += 1
        record = RunStats(query, attempt=attempt)
        try:
            table = engine.run(record, deadline)
        except Exception as error:
            delay = None
            if (retry is not None and attempt < retry.max_attempts
                    and retry.is_retryable(error)):
                delay = retry.delay_for(attempt, rng)
                if (retry.budget_seconds is not None
                        and slept + delay > retry.budget_seconds):
                    delay = None
                elif deadline is not None and deadline.remaining() <= delay:
                    delay = None
            if delay is None:
                stats.inc("failed")
                return QueryOutcome(query=query, stats=record,
                                    attempts=attempt,
                                    error=raven_typed(error))
            stats.inc("retries")
            time.sleep(delay)
            slept += delay
            continue
        return QueryOutcome(query=query, table=table, stats=record,
                            attempts=attempt)
