"""The batch loop in ``repro.serving.serve``, driven through a stub session.

The stub stands in for ``RavenSession``'s lifecycle entry
(``_run_query(record, deadline)``) and its serving counters, so these
tests pin the loop itself — order, admission, retries, deadlines, one
record per attempt — without running queries. The end-to-end serve
tests (bit-for-bit against ``sql()``, injected faults) live in
``test_serving.py``, ``test_adaptive.py`` and ``test_resilience.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.serving.serve as serve_module
from repro.core.session import RavenSession, ServingStats
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ExecutionError,
    InjectedFaultError,
)
from repro.resilience import Deadline, RetryPolicy


class StubSession:
    """``run(record, deadline)`` decides each attempt's table or error."""

    def __init__(self, run=None):
        self.serving_stats = ServingStats()
        self._stats_lock = threading.Lock()
        self._run = run or (lambda record, deadline: f"table:{record.query}")
        self.calls = []

    def _run_query(self, record, deadline):
        self.calls.append((record.query, record.attempt, deadline))
        return self._run(record, deadline)


def failing(times, error=InjectedFaultError):
    """A run that fails each query's first ``times`` attempts."""
    def run(record, deadline):
        if record.attempt <= times:
            raise error(f"attempt {record.attempt} of {record.query}")
        return f"table:{record.query}"
    return run


# The public entry with a stub as ``self``: the loop's defaults are its.
serve = RavenSession.serve

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture()
def sleeps(monkeypatch):
    """The backoff delays the loop asked for, without sleeping."""
    delays = []
    monkeypatch.setattr(serve_module.time, "sleep", delays.append)
    return delays


class TestOrderAndAdmission:
    def test_outcomes_keep_query_order_across_workers(self):
        def run(record, deadline):
            # Later queries finish first.
            time.sleep(0.002 * (8 - int(record.query)))
            return record.query

        queries = [str(index) for index in range(8)]
        outcomes = serve(StubSession(run), queries, workers=4)
        assert [outcome.result() for outcome in outcomes] == queries
        assert [outcome.query for outcome in outcomes] == queries

    def test_counters_hold_under_contention(self):
        # More workers than cores and a tiny switch interval: a lost
        # update of a shared counter or a swapped outcome would show.
        def run(record, deadline):
            if int(record.query) % 7 == 0:
                raise ExecutionError(record.query)
            return record.query

        session = StubSession(run)
        queries = [str(index) for index in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = serve(session, queries, workers=16, max_pending=8)
        finally:
            sys.setswitchinterval(interval)
        assert [outcome.query for outcome in outcomes] == queries
        assert all(outcome.ok == (int(outcome.query) % 7 != 0)
                   for outcome in outcomes)
        stats = session.serving_stats
        assert stats.submitted == stats.completed == len(queries)
        assert stats.failed == sum(not outcome.ok for outcome in outcomes)

    def test_a_failure_does_not_stop_admission(self):
        def run(record, deadline):
            if record.query == "bad":
                raise ExecutionError("bad query")
            return record.query

        session = StubSession(run)
        outcomes = serve(session, ["a", "bad", "b"], workers=1)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert [query for query, _, _ in session.calls] == ["a", "bad", "b"]
        with pytest.raises(ExecutionError, match="bad query"):
            outcomes[1].result()
        stats = session.serving_stats
        assert stats.submitted == stats.completed == 3
        assert stats.failed == 1

    def test_empty_batch(self):
        session = StubSession()
        assert serve(session, [], workers=4) == []
        assert session.serving_stats.submitted == 0

    def test_rejection_is_an_outcome_without_a_run(self):
        release = threading.Event()

        def run(record, deadline):
            release.wait(timeout=10.0)
            return record.query

        session = StubSession(run)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            outcomes = serve(session, ["a", "b"], workers=2, max_pending=1,
                             backpressure="raise")
        finally:
            timer.cancel()
            release.set()
        rejected = outcomes[1]
        assert outcomes[0].ok
        assert isinstance(rejected.error, BackpressureError)
        assert rejected.attempts == 0 and rejected.stats is None
        assert [query for query, _, _ in session.calls] == ["a"]
        assert session.serving_stats.rejected == 1
        assert session.serving_stats.submitted == 1

    def test_base_exceptions_propagate(self):
        def run(record, deadline):
            raise KeyboardInterrupt

        session = StubSession(run)
        with pytest.raises(KeyboardInterrupt):
            serve(session, ["a"], workers=1, max_pending=1)
        assert session.serving_stats.completed == 1
        assert session.serving_stats.failed == 0


class TestAttempts:
    def test_each_attempt_runs_a_fresh_numbered_record(self, sleeps):
        session = StubSession(failing(2))
        [outcome] = serve(session, ["q"], workers=1, retry=FAST_RETRY)
        assert outcome.ok and outcome.attempts == 3
        assert [attempt for _, attempt, _ in session.calls] == [1, 2, 3]
        assert outcome.stats.attempt == 3
        assert outcome.stats.query == "q"
        assert session.serving_stats.retries == 2
        assert len(sleeps) == 2

    def test_retried_outcome_is_flagged(self, sleeps):
        [first_try] = serve(StubSession(), ["q"], workers=1)
        [retried] = serve(StubSession(failing(1)), ["q"], workers=1,
                          retry=FAST_RETRY)
        assert first_try.degraded == ()
        assert retried.degraded == ("retried",)

    def test_failed_outcome_carries_the_last_record(self, sleeps):
        session = StubSession(failing(5))
        [outcome] = serve(session, ["q"], workers=1, retry=FAST_RETRY)
        assert not outcome.ok and outcome.attempts == 3
        assert outcome.stats.attempt == 3
        assert isinstance(outcome.error, InjectedFaultError)
        assert session.serving_stats.failed == 1

    def test_no_policy_means_one_attempt(self):
        session = StubSession(failing(1))
        [outcome] = serve(session, ["q"], workers=1)
        assert not outcome.ok and outcome.attempts == 1
        assert session.serving_stats.retries == 0

    def test_never_retryable_errors_stop_at_once(self, sleeps):
        session = StubSession(failing(1, DeadlineExceededError))
        [outcome] = serve(session, ["q"], workers=1, retry=FAST_RETRY)
        assert outcome.attempts == 1
        assert isinstance(outcome.error, DeadlineExceededError)
        assert sleeps == []

    def test_foreign_errors_come_out_typed(self):
        session = StubSession(failing(1, ZeroDivisionError))
        [outcome] = serve(session, ["q"], workers=1)
        assert isinstance(outcome.error, ExecutionError)
        assert isinstance(outcome.error.__cause__, ZeroDivisionError)

    def test_sleep_budget_bounds_the_retries(self, sleeps):
        policy = RetryPolicy(max_attempts=10, base_delay=0.4, multiplier=1.0,
                             max_delay=0.4, jitter=0.0, budget_seconds=1.0)
        session = StubSession(failing(9))
        [outcome] = serve(session, ["q"], workers=1, retry=policy)
        # Two 0.4 s sleeps fit the 1.0 s budget; a third would not.
        assert sleeps == [0.4, 0.4]
        assert outcome.attempts == 3 and not outcome.ok

    def test_deadline_bounds_the_retries(self, sleeps):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        policy = RetryPolicy(max_attempts=10, base_delay=0.4, multiplier=1.0,
                             max_delay=0.4, jitter=0.0, budget_seconds=None)

        def run(record, deadline):
            now[0] += 0.3  # each attempt takes 0.3 s of the budget
            raise InjectedFaultError("transient")

        session = StubSession(run)
        [outcome] = serve(session, ["q"], workers=1, retry=policy,
                          deadline=deadline)
        # After attempt 2, 0.4 s remain: not more than the next delay.
        assert outcome.attempts == 2 and sleeps == [0.4]
        assert all(seen is deadline for _, _, seen in session.calls)

    def test_numeric_deadline_spans_all_attempts(self, sleeps):
        session = StubSession(failing(2))
        serve(session, ["q", "r"], workers=1, retry=FAST_RETRY,
              deadline=60.0)
        per_query = {}
        for query, _, deadline in session.calls:
            assert isinstance(deadline, Deadline)
            per_query.setdefault(query, set()).add(id(deadline))
        assert all(len(ids) == 1 for ids in per_query.values())
        assert per_query["q"] != per_query["r"]

    def test_jitter_is_reproducible_per_query_position(self, monkeypatch):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=1.0,
                             seed=5)

        def schedule():
            delays = []
            monkeypatch.setattr(serve_module.time, "sleep", delays.append)
            serve(StubSession(failing(2)), ["a", "b"], workers=1,
                  retry=policy)
            return delays

        first = schedule()
        assert len(first) == 4
        assert schedule() == first
        # Each query position draws its own jitter.
        assert first[:2] != first[2:]
