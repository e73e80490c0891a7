"""Resilience subsystem: deadlines, retries, breakers, faults, crash-safe IO.

The ``chaos``-marked classes run real injected failures through the real
serving stack (the CI ``fault-injection`` step runs exactly these); the
unmarked classes unit-test the policy objects themselves.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import RavenSession
from repro.errors import (
    BackpressureError,
    CompileError,
    DeadlineExceededError,
    ExecutionError,
    InjectedFaultError,
    ParseError,
    RavenError,
)
from repro.persist import SnapshotStore
from repro.persist.atomic import atomic_write_text, fsync_directory
from repro.resilience import (
    DEGRADED_INTERPRETED,
    DEGRADED_RETRIED,
    DEGRADED_STATIC_PLAN,
    EVENT_CLOSED,
    EVENT_TRIPPED,
    ROUTE_ADAPTIVE,
    ROUTE_DEGRADED,
    ROUTE_TRIAL,
    SITES,
    STATE_OPEN,
    CircuitBreakerBoard,
    Deadline,
    FaultInjector,
    FiredFault,
    QueryOutcome,
    RetryPolicy,
    raven_typed,
)
from repro.serving.plan_cache import PlanCache

FILTER_QUERY = "SELECT pi.id FROM patient_info AS pi WHERE pi.age > 50"


def make_session(patients_table, pulmonary_table, dt_pipeline, **kwargs):
    sess = RavenSession(**kwargs)
    sess.register_table("patient_info", patients_table, primary_key=["id"])
    sess.register_table("pulmonary_test", pulmonary_table, primary_key=["id"])
    sess.register_model("covid_risk", dt_pipeline)
    return sess


def assert_tables_equal(actual, expected):
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        np.testing.assert_array_equal(actual.array(name),
                                      expected.array(name))


# ---------------------------------------------------------------------------
# Unit: Deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_check_raises_after_expiry(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        deadline.check("anywhere")  # plenty of time
        now[0] = 1.5
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check("operator Scan")
        assert "operator Scan" in str(info.value)
        assert info.value.overrun_seconds == pytest.approx(0.5)

    def test_remaining_and_expired(self):
        now = [0.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        now[0] = 3.0
        assert deadline.remaining() == pytest.approx(-1.0)
        assert deadline.expired

    def test_bound_clamps_wait_budgets(self):
        now = [0.0]
        deadline = Deadline(0.5, clock=lambda: now[0])
        assert deadline.bound(10.0) == pytest.approx(0.5)
        assert deadline.bound(0.1) == pytest.approx(0.1)
        assert deadline.bound(None) == pytest.approx(0.5)
        now[0] = 1.0
        assert deadline.bound(10.0) == 0.0

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        deadline = Deadline(1.0)
        assert Deadline.coerce(deadline) is deadline
        assert isinstance(Deadline.coerce(0.25), Deadline)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_check_raises_at_exact_expiry(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 1.0
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check()
        assert info.value.overrun_seconds == 0.0

    def test_zero_budget_is_already_expired(self):
        deadline = Deadline(0.0, clock=lambda: 5.0)
        assert deadline.expired
        assert deadline.bound(1.0) == 0.0

    def test_after_is_constructor_alias(self):
        deadline = Deadline.after(3.0, clock=lambda: 10.0)
        assert deadline.expires_at == pytest.approx(13.0)
        assert deadline.remaining() == pytest.approx(3.0)

    def test_coerce_numeric_budget(self):
        deadline = Deadline.coerce(2)
        assert isinstance(deadline, Deadline)
        assert 0.0 < deadline.remaining() <= 2.0

    def test_error_message_names_checkpoint(self):
        assert str(DeadlineExceededError()) == "deadline exceeded"
        error = DeadlineExceededError(where="predict batch 3")
        assert str(error) == "deadline exceeded (at predict batch 3)"
        assert error.where == "predict batch 3"
        assert isinstance(error, RavenError)

    def test_repr_shows_remaining(self):
        deadline = Deadline(1.5, clock=lambda: 0.0)
        assert repr(deadline) == "Deadline(remaining=1.5000s)"


# ---------------------------------------------------------------------------
# Unit: RetryPolicy / QueryOutcome
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_retryable_classes(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ExecutionError("transient"))
        assert policy.is_retryable(InjectedFaultError("boom"))
        assert not policy.is_retryable(DeadlineExceededError())
        assert not policy.is_retryable(BackpressureError("full"))
        assert not policy.is_retryable(ValueError("foreign"))

    def test_backoff_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.03,
                             jitter=0.0, seed=7)
        rng = policy.rng(0)
        assert policy.delay_for(1, rng) == pytest.approx(0.01)
        assert policy.delay_for(2, rng) == pytest.approx(0.02)
        assert policy.delay_for(3, rng) == pytest.approx(0.03)  # capped
        assert policy.delay_for(9, rng) == pytest.approx(0.03)

    def test_jitter_deterministic_per_seed_and_salt(self):
        policy = RetryPolicy(jitter=0.5, seed=42)
        a = [policy.delay_for(k, policy.rng(3)) for k in (1, 2, 3)]
        b = [policy.delay_for(k, policy.rng(3)) for k in (1, 2, 3)]
        assert a == b
        c = [policy.delay_for(k, policy.rng(4)) for k in (1, 2, 3)]
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_outcome_result_reraises(self):
        ok = QueryOutcome(query="q", table="T", attempts=1)
        assert ok.ok and ok.result() == "T"
        bad = QueryOutcome(query="q", error=ExecutionError("x"), attempts=2)
        assert not bad.ok
        with pytest.raises(ExecutionError):
            bad.result()

    def test_custom_retryable_never_covers_deadline_or_backpressure(self):
        policy = RetryPolicy(retryable=(RavenError,))
        assert policy.is_retryable(ParseError("flaky"))
        assert not policy.is_retryable(DeadlineExceededError())
        assert not policy.is_retryable(BackpressureError("full"))

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=1.0,
                             jitter=0.5, seed=3)
        rng = policy.rng(0)
        for attempt in range(1, 8):
            raw = min(0.01 * 2.0 ** (attempt - 1), 1.0)
            delay = policy.delay_for(attempt, rng)
            assert raw * 0.5 <= delay <= raw

    def test_jitter_differs_across_seeds(self):
        a = RetryPolicy(jitter=1.0, seed=1)
        b = RetryPolicy(jitter=1.0, seed=2)
        assert ([a.delay_for(k, a.rng(0)) for k in (1, 2, 3)]
                != [b.delay_for(k, b.rng(0)) for k in (1, 2, 3)])

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=-0.1)

    def test_policy_is_immutable(self):
        policy = RetryPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.max_attempts = 5

    def test_degraded_reads_stats_and_attempts(self):
        stats = SimpleNamespace(static_plan=True, expression_fallbacks=2)
        outcome = QueryOutcome(query="q", table="T", stats=stats, attempts=2)
        assert outcome.degraded == (DEGRADED_STATIC_PLAN,
                                    DEGRADED_INTERPRETED, DEGRADED_RETRIED)
        clean = SimpleNamespace(static_plan=False, expression_fallbacks=0)
        assert QueryOutcome(query="q", table="T", stats=clean,
                            attempts=1).degraded == ()

    def test_failed_outcome_is_never_degraded(self):
        outcome = QueryOutcome(query="q", error=ExecutionError("x"),
                               attempts=3)
        assert outcome.degraded == ()

    def test_outcome_repr(self):
        ok = QueryOutcome(query="SELECT 1", table="T", attempts=2)
        assert repr(ok) == ("QueryOutcome(ok, attempts=2, "
                            "degraded=['retried'], query='SELECT 1')")
        bad = QueryOutcome(query="x" * 60, error=BackpressureError("full"))
        assert repr(bad) == (f"QueryOutcome(BackpressureError, attempts=0, "
                             f"query={'x' * 40!r})")

    def test_raven_typed_passes_library_errors_through(self):
        error = CompileError("no sql")
        assert raven_typed(error) is error

    def test_raven_typed_wraps_foreign_errors_with_cause(self):
        foreign = ZeroDivisionError("division by zero")
        wrapped = raven_typed(foreign)
        assert isinstance(wrapped, ExecutionError)
        assert wrapped.__cause__ is foreign
        assert "ZeroDivisionError: division by zero" in str(wrapped)


# ---------------------------------------------------------------------------
# Unit: CircuitBreakerBoard
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def make_board(self, **kwargs):
        now = [0.0]
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_seconds", 10.0)
        board = CircuitBreakerBoard(clock=lambda: now[0], **kwargs)
        return board, now

    def test_trips_after_consecutive_failures(self):
        board, _ = self.make_board()
        key = ("q",)
        assert board.record_failure(key) is None
        assert board.record_failure(key) is None
        assert board.record_failure(key) == "tripped"
        assert board.state(key) == "open"
        assert board.acquire(key) == ROUTE_DEGRADED

    def test_success_resets_consecutive_count(self):
        board, _ = self.make_board()
        key = ("q",)
        board.record_failure(key)
        board.record_failure(key)
        board.record_success(key)
        assert board.record_failure(key) is None  # count restarted
        assert board.state(key) == "closed"

    def test_half_open_single_trial_then_close(self):
        board, now = self.make_board()
        key = ("q",)
        for _ in range(3):
            board.record_failure(key)
        now[0] = 11.0
        assert board.acquire(key) == ROUTE_TRIAL
        # Only one concurrent trial; everyone else stays degraded.
        assert board.acquire(key) == ROUTE_DEGRADED
        assert board.record_success(key, trial=True) == "closed"
        assert board.acquire(key) == ROUTE_ADAPTIVE

    def test_failed_trial_reopens(self):
        board, now = self.make_board()
        key = ("q",)
        for _ in range(3):
            board.record_failure(key)
        now[0] = 11.0
        assert board.acquire(key) == ROUTE_TRIAL
        assert board.record_failure(key, trial=True) == "reopened"
        assert board.acquire(key) == ROUTE_DEGRADED  # fresh recovery window
        now[0] = 22.0
        assert board.acquire(key) == ROUTE_TRIAL

    def test_untracked_keys_allocate_nothing(self):
        board, _ = self.make_board()
        assert board.acquire(("healthy",)) == ROUTE_ADAPTIVE
        board.record_success(("healthy",))
        assert len(board) == 0

    def test_lru_bound(self):
        board, _ = self.make_board(max_tracked=2)
        board.record_failure(("a",))
        board.record_failure(("b",))
        board.record_failure(("c",))
        assert len(board) == 2
        assert board.state(("a",)) == "closed"  # evicted = untracked

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerBoard(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerBoard(recovery_seconds=-1)

    def test_open_breaker_ignores_further_failures(self):
        board, _ = self.make_board()
        key = ("q",)
        for _ in range(3):
            board.record_failure(key)
        assert board.record_failure(key) is None
        assert board.record_failure(key) is None

    def test_trial_waits_for_full_recovery_interval(self):
        board, now = self.make_board()
        key = ("q",)
        for _ in range(3):
            board.record_failure(key)
        now[0] = 9.99
        assert board.acquire(key) == ROUTE_DEGRADED
        now[0] = 10.0
        assert board.acquire(key) == ROUTE_TRIAL

    def test_zero_recovery_admits_immediate_trial(self):
        board, _ = self.make_board(failure_threshold=1, recovery_seconds=0.0)
        key = ("q",)
        assert board.record_failure(key) == EVENT_TRIPPED
        assert board.acquire(key) == ROUTE_TRIAL

    def test_success_on_untracked_key_is_a_no_op(self):
        board, _ = self.make_board()
        assert board.record_success(("never-failed",)) is None
        assert board.record_success(("never-failed",), trial=True) is None
        assert len(board) == 0

    def test_static_entry_is_version_validated(self):
        board, _ = self.make_board()
        key = ("q",)
        entry = SimpleNamespace(current=True)
        entry.is_current = lambda catalog: entry.current
        assert board.static_entry(key, catalog=None) is None
        board.set_static_entry(key, entry)
        assert board.static_entry(key, catalog=None) is entry
        entry.current = False
        assert board.static_entry(key, catalog=None) is None
        # A stale entry is dropped, not resurrected once it looks current.
        entry.current = True
        assert board.static_entry(key, catalog=None) is None

    def test_successful_trial_drops_static_entry(self):
        board, now = self.make_board()
        key = ("q",)
        for _ in range(3):
            board.record_failure(key)
        entry = SimpleNamespace(is_current=lambda catalog: True)
        board.set_static_entry(key, entry)
        now[0] = 11.0
        assert board.acquire(key) == ROUTE_TRIAL
        assert board.record_success(key, trial=True) == EVENT_CLOSED
        assert board.static_entry(key, catalog=None) is None

    def test_open_count_and_repr(self):
        board, _ = self.make_board(failure_threshold=1)
        board.record_failure(("a",))
        board.record_failure(("b",))
        assert board.state(("a",)) == STATE_OPEN
        assert board.open_count() == 2
        assert repr(board) == "CircuitBreakerBoard(tracked=2, open=2)"

    def test_lru_keeps_recently_touched_keys(self):
        board, _ = self.make_board(max_tracked=2)
        board.record_failure(("a",))
        board.record_failure(("b",))
        board.record_failure(("a",))  # touch: "b" is now least recent
        board.record_failure(("c",))
        assert len(board) == 2
        board.record_failure(("a",))  # third consecutive failure for "a"
        assert board.state(("a",)) == STATE_OPEN
        assert board.state(("b",)) == "closed"


# ---------------------------------------------------------------------------
# Unit: FaultInjector
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_unknown_site_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.inject("no.such.site")

    def test_on_hits_is_deterministic(self):
        faults = FaultInjector()
        faults.inject("executor.operator", on_hits=[2, 4])
        fired = []
        for _ in range(5):
            try:
                faults.fire("executor.operator")
                fired.append(False)
            except InjectedFaultError:
                fired.append(True)
        assert fired == [False, True, False, True, False]
        assert faults.hits("executor.operator") == 5
        assert faults.fires("executor.operator") == 2

    def test_probability_is_seeded(self):
        def run(seed):
            faults = FaultInjector(seed=seed)
            faults.inject("predict.run", probability=0.5)
            out = []
            for _ in range(20):
                try:
                    faults.fire("predict.run")
                    out.append(0)
                except InjectedFaultError:
                    out.append(1)
            return out

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_max_fires_retires_rule(self):
        faults = FaultInjector()
        faults.inject("executor.operator", max_fires=1)
        with pytest.raises(InjectedFaultError):
            faults.fire("executor.operator")
        faults.fire("executor.operator")  # rule retired: no raise

    def test_delay_mode_sleeps(self):
        faults = FaultInjector()
        slept = []
        faults._sleep = slept.append
        faults.inject("executor.operator", mode="delay", delay=0.25)
        faults.fire("executor.operator")
        assert slept == [0.25]

    def test_custom_error_class(self):
        faults = FaultInjector()
        faults.inject("executor.compile", error=CompileError)
        with pytest.raises(CompileError):
            faults.fire("executor.compile")

    def test_tear_only_matches_torn_rules(self):
        faults = FaultInjector()
        faults.inject("snapshot.write", mode="torn", on_hits=[1])
        assert faults.tear("snapshot.write") is True
        assert faults.tear("snapshot.write") is False
        # error rules never fire through tear()
        faults.inject("spill.write")
        assert faults.tear("spill.write") is False

    def test_torn_rules_never_fire_through_fire(self):
        faults = FaultInjector()
        faults.inject("telemetry.dump", mode="torn")
        faults.fire("telemetry.dump")  # no raise, no sleep
        assert faults.fires("telemetry.dump") == 0
        assert faults.tear("telemetry.dump") is True

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_every_registered_site_accepts_rules(self, site):
        faults = FaultInjector()
        rule = faults.inject(site, on_hits=[1])
        assert rule.site == site
        with pytest.raises(InjectedFaultError) as info:
            faults.fire(site, detail="probe")
        assert site in str(info.value) and "[probe]" in str(info.value)
        assert faults.hits(site) == 1 and faults.fires(site) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().inject("predict.run", mode="explode")

    def test_probability_out_of_range_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.inject("predict.run", probability=1.5)
        with pytest.raises(ValueError):
            faults.inject("predict.run", probability=-0.1)

    def test_delay_mode_requires_positive_delay(self):
        with pytest.raises(ValueError):
            FaultInjector().inject("executor.operator", mode="delay")

    def test_string_error_carries_detail(self):
        faults = FaultInjector()
        faults.inject("predict.run", error="batch lost")
        with pytest.raises(InjectedFaultError, match=r"batch lost \[b7\]"):
            faults.fire("predict.run", detail="b7")

    def test_error_instance_raised_as_is(self):
        faults = FaultInjector()
        error = ExecutionError("exact instance")
        faults.inject("executor.operator", error=error)
        with pytest.raises(ExecutionError) as info:
            faults.fire("executor.operator")
        assert info.value is error

    def test_hits_counted_when_nothing_fires(self):
        faults = FaultInjector()
        for _ in range(3):
            faults.fire("predict.run")
        assert faults.tear("snapshot.write") is False
        assert faults.hits("predict.run") == 3
        assert faults.hits("snapshot.write") == 1
        assert faults.fires() == 0

    def test_on_hits_or_probability_compose(self):
        faults = FaultInjector()
        faults.inject("predict.run", on_hits=[2], probability=0.0)
        fired = []
        for _ in range(4):
            try:
                faults.fire("predict.run")
                fired.append(False)
            except InjectedFaultError:
                fired.append(True)
        assert fired == [False, True, False, False]

    def test_first_matching_rule_wins_and_is_logged(self):
        faults = FaultInjector()
        faults.inject("executor.operator", error="first", max_fires=1)
        faults.inject("executor.operator", error="second")
        with pytest.raises(InjectedFaultError, match="first"):
            faults.fire("executor.operator", detail="Scan")
        with pytest.raises(InjectedFaultError, match="second"):
            faults.fire("executor.operator", detail="Filter")
        assert faults.log.fired == [
            FiredFault("executor.operator", 1, "error", "Scan"),
            FiredFault("executor.operator", 2, "error", "Filter"),
        ]

    def test_clear_one_site_keeps_other_rules_and_counters(self):
        faults = FaultInjector()
        faults.inject("predict.run")
        faults.inject("executor.operator")
        with pytest.raises(InjectedFaultError):
            faults.fire("predict.run")
        faults.clear("predict.run")
        faults.fire("predict.run")
        with pytest.raises(InjectedFaultError):
            faults.fire("executor.operator")
        assert faults.hits("predict.run") == 2
        assert faults.fires("predict.run") == 1

    def test_clear_all_sites(self):
        faults = FaultInjector()
        faults.inject("predict.run")
        faults.inject("spill.write", mode="torn")
        faults.clear()
        faults.fire("predict.run")
        assert faults.tear("spill.write") is False

    def test_fires_counts_per_site_and_in_total(self):
        faults = FaultInjector()
        faults.inject("predict.run")
        faults.inject("snapshot.write", mode="torn")
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                faults.fire("predict.run")
        assert faults.tear("snapshot.write") is True
        assert faults.fires("predict.run") == 2
        assert faults.fires("snapshot.write") == 1
        assert faults.fires() == 3

    def test_repr_counts_rules_hits_and_fires(self):
        faults = FaultInjector(seed=9)
        faults.inject("predict.run", on_hits=[1])
        faults.inject("spill.write", mode="torn")
        with pytest.raises(InjectedFaultError):
            faults.fire("predict.run")
        faults.fire("predict.run")
        assert repr(faults) == ("FaultInjector(seed=9, rules=2, hits=2, "
                                "fires=1)")


# ---------------------------------------------------------------------------
# Unit: crash-safe atomic writes
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_writes_and_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "state.json"
        returned = atomic_write_text(str(target), "{}")
        assert returned == target and isinstance(returned, type(target))
        assert target.read_text() == "{}"

    def test_replaces_content_and_leaves_no_scratch(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_torn_write_preserves_previous_content(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_text(target, "previous")
        faults = FaultInjector()
        faults.inject("snapshot.write", mode="torn")
        with pytest.raises(InjectedFaultError, match="state.json"):
            atomic_write_text(target, "0123456789", faults=faults)
        assert target.read_text() == "previous"
        assert (tmp_path / "state.json.tmp").read_text() == "01234"

    def test_torn_first_write_leaves_no_target(self, tmp_path):
        target = tmp_path / "state.json"
        faults = FaultInjector()
        faults.inject("snapshot.write", mode="torn")
        with pytest.raises(InjectedFaultError):
            atomic_write_text(target, "payload", faults=faults)
        assert not target.exists()

    def test_write_after_torn_write_recovers(self, tmp_path):
        target = tmp_path / "state.json"
        faults = FaultInjector()
        faults.inject("snapshot.write", mode="torn", on_hits=[1])
        with pytest.raises(InjectedFaultError):
            atomic_write_text(target, "first", faults=faults)
        atomic_write_text(target, "second", faults=faults)
        assert target.read_text() == "second"
        assert not (tmp_path / "state.json.tmp").exists()

    def test_site_and_suffix_are_honoured(self, tmp_path):
        target = tmp_path / "trace.json"
        faults = FaultInjector()
        faults.inject("telemetry.dump", mode="torn")
        # A torn rule at another site never tears this write.
        atomic_write_text(target, "kept", faults=faults)
        with pytest.raises(InjectedFaultError, match="telemetry.dump"):
            atomic_write_text(target, "lost", faults=faults,
                              site="telemetry.dump", suffix=".part")
        assert target.read_text() == "kept"
        assert (tmp_path / "trace.json.part").exists()

    def test_fsync_directory_tolerates_missing_directory(self, tmp_path):
        fsync_directory(tmp_path / "does-not-exist")
        fsync_directory(tmp_path)


# ---------------------------------------------------------------------------
# Chaos: the serving stack under injected faults
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestChaosRetries:
    def test_transient_operator_fault_retried_bit_for_bit(
            self, patients_table, pulmonary_table, dt_pipeline, session,
            covid_query):
        expected = session.sql(covid_query)
        faults = FaultInjector(seed=1)
        faults.inject("executor.operator", on_hits=[1])
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        retry = RetryPolicy(base_delay=0.001, max_delay=0.002, seed=1)
        [outcome] = chaotic.serve([covid_query], workers=1, retry=retry)
        assert outcome.ok and outcome.attempts == 2
        assert DEGRADED_RETRIED in outcome.degraded
        assert_tables_equal(outcome.table, expected)
        assert chaotic.serving_stats.retries == 1
        assert chaotic.serving_stats.failed == 0

    def test_each_attempt_owns_its_record(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=1)
        faults.inject("executor.operator", on_hits=[1])
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults, telemetry=True)
        with pytest.raises(InjectedFaultError) as raised:
            chaotic.sql(FILTER_QUERY)
        # The failed run's record is the session's last run; the error
        # does not point back at it.
        assert not hasattr(raised.value, "run_stats")
        assert chaotic.last_run.error is raised.value
        faults.inject("executor.operator",
                      on_hits=[faults.hits("executor.operator") + 1])
        retry = RetryPolicy(base_delay=0.001, max_delay=0.002, seed=1)
        [outcome] = chaotic.serve([FILTER_QUERY], workers=1, retry=retry)
        assert outcome.ok and outcome.attempts == 2
        assert outcome.stats.attempt == outcome.attempts
        assert outcome.stats.trace.root.attributes["attempt"] == 2
        assert chaotic.last_run is outcome.stats

    def test_budget_exhaustion_yields_typed_error(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=2)
        faults.inject("executor.operator")  # every hit fails
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults, breakers=False)
        retry = RetryPolicy(max_attempts=3, base_delay=0.001,
                            max_delay=0.002, seed=2)
        [outcome] = chaotic.serve([FILTER_QUERY], workers=1, retry=retry)
        assert not outcome.ok and outcome.attempts == 3
        assert isinstance(outcome.error, InjectedFaultError)
        assert chaotic.serving_stats.failed == 1
        assert chaotic.serving_stats.retries == 2

    def test_serve_isolates_failures(self, session, covid_query):
        expected = session.sql(covid_query)
        outcomes = session.serve(
            [covid_query, "SELECT x.id FROM no_such_table AS x", covid_query],
            workers=2)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, RavenError)
        assert_tables_equal(outcomes[0].table, expected)
        assert_tables_equal(outcomes[2].table, expected)

    def test_failed_outcome_result_raises(self, session, covid_query):
        outcomes = session.serve([covid_query,
                                  "SELECT x.id FROM no_such_table AS x"],
                                 workers=1)
        with pytest.raises(RavenError):
            [outcome.result() for outcome in outcomes]


@pytest.mark.chaos
class TestChaosExpressionFallback:
    def test_compile_fault_falls_back_to_interpreter(
            self, patients_table, pulmonary_table, dt_pipeline, session,
            covid_query):
        expected = session.sql(covid_query)
        faults = FaultInjector(seed=3)
        faults.inject("executor.compile", error=CompileError)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        [outcome] = chaotic.serve([covid_query], workers=1)
        assert outcome.ok and outcome.attempts == 1
        assert DEGRADED_INTERPRETED in outcome.degraded
        assert outcome.stats.expression_fallbacks > 0
        assert chaotic.serving_stats.expression_fallbacks > 0
        assert_tables_equal(outcome.table, expected)

    def test_internal_defect_falls_back_but_data_errors_propagate(
            self, patients_table, pulmonary_table, dt_pipeline):
        # A foreign exception inside the compiled engine = internal
        # defect -> interpreted oracle. A RavenError that is not a
        # CompileError is a data error the oracle would raise too.
        faults = FaultInjector(seed=4)
        faults.inject("executor.compile", error=RuntimeError("kernel bug"),
                      max_fires=1)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        table, stats = chaotic.sql_with_stats(FILTER_QUERY)
        assert stats.expression_fallbacks == 1
        assert table.num_rows > 0


@pytest.mark.chaos
class TestChaosDeadlines:
    def test_deadline_bounded_by_one_check_interval(
            self, patients_table, pulmonary_table, dt_pipeline):
        delay = 0.05
        faults = FaultInjector(seed=5)
        faults.inject("executor.operator", mode="delay", delay=delay)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        budget = 0.06
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            chaotic.sql(FILTER_QUERY, deadline=budget)
        elapsed = time.perf_counter() - started
        # Cooperative bound: at most one operator interval past expiry
        # (plus optimize time and scheduler slack).
        assert elapsed < budget + delay + 0.5
        assert chaotic.serving_stats.deadline_exceeded == 1

    def test_deadline_errors_never_retried(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=6)
        faults.inject("executor.operator", mode="delay", delay=0.05)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        retry = RetryPolicy(max_attempts=5, base_delay=0.001, seed=6)
        [outcome] = chaotic.serve([FILTER_QUERY], workers=1, retry=retry,
                                  deadline=0.02)
        assert not outcome.ok and outcome.attempts == 1
        assert isinstance(outcome.error, DeadlineExceededError)

    def test_predict_batches_check_deadline(
            self, patients_table, pulmonary_table, dt_pipeline, covid_query):
        faults = FaultInjector(seed=7)
        faults.inject("predict.run", mode="delay", delay=0.2)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 2.0  # expire before the predict batch runs
        with pytest.raises(DeadlineExceededError):
            chaotic.sql(covid_query, deadline=deadline)

    def test_generous_deadline_changes_nothing(self, session, covid_query):
        expected = session.sql(covid_query)
        actual = session.sql(covid_query, deadline=60.0)
        assert_tables_equal(actual, expected)


@pytest.mark.chaos
class TestChaosCircuitBreaker:
    def test_trip_degrade_halfopen_recover(
            self, patients_table, pulmonary_table, dt_pipeline, session,
            covid_query):
        expected = session.sql(covid_query)
        now = [0.0]
        board = CircuitBreakerBoard(failure_threshold=3,
                                    recovery_seconds=10.0,
                                    clock=lambda: now[0])
        faults = FaultInjector(seed=8)
        # Exactly three failing executions, then the fault clears — the
        # adaptive plan "goes bad" transiently.
        faults.inject("executor.operator", max_fires=3)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults, breakers=board)
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                chaotic.sql(covid_query)
        stats = chaotic.serving_stats
        assert stats.breaker_trips == 1

        # Open: served from the static re-optimization, bit-for-bit.
        table, run = chaotic.sql_with_stats(covid_query)
        assert run.static_plan
        assert_tables_equal(table, expected)
        assert stats.degraded_runs == 1

        # Still open within the recovery window.
        table, run = chaotic.sql_with_stats(covid_query)
        assert run.static_plan and stats.degraded_runs == 2

        # Past recovery: the half-open trial takes the adaptive path,
        # succeeds (faults are spent), and closes the breaker.
        now[0] = 11.0
        table, run = chaotic.sql_with_stats(covid_query)
        assert not run.static_plan
        assert_tables_equal(table, expected)
        assert stats.breaker_half_opens == 1
        assert stats.breaker_closes == 1

        # Closed again: adaptive path, no more degraded runs.
        _, run = chaotic.sql_with_stats(covid_query)
        assert not run.static_plan and stats.degraded_runs == 2

    def test_failed_trial_reopens_breaker(
            self, patients_table, pulmonary_table, dt_pipeline):
        now = [0.0]
        board = CircuitBreakerBoard(failure_threshold=2,
                                    recovery_seconds=10.0,
                                    clock=lambda: now[0])
        faults = FaultInjector(seed=9)
        faults.inject("executor.operator", max_fires=3)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults, breakers=board)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                chaotic.sql(FILTER_QUERY)
        now[0] = 11.0  # half-open; trial hits the third injected fault
        with pytest.raises(InjectedFaultError):
            chaotic.sql(FILTER_QUERY)
        assert chaotic.serving_stats.breaker_reopens == 1
        # Degraded again for a fresh window; faults are spent so the
        # static plan serves fine.
        _, run = chaotic.sql_with_stats(FILTER_QUERY)
        assert run.static_plan

    def test_degraded_flag_on_outcomes(
            self, patients_table, pulmonary_table, dt_pipeline):
        board = CircuitBreakerBoard(failure_threshold=1,
                                    recovery_seconds=1000.0)
        faults = FaultInjector(seed=10)
        faults.inject("executor.operator", max_fires=1)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults, breakers=board)
        with pytest.raises(InjectedFaultError):
            chaotic.sql(FILTER_QUERY)
        [outcome] = chaotic.serve([FILTER_QUERY], workers=1)
        assert outcome.ok
        assert DEGRADED_STATIC_PLAN in outcome.degraded


@pytest.mark.chaos
class TestChaosPlanCache:
    def test_wedged_owner_strands_no_waiter(
            self, patients_table, pulmonary_table, dt_pipeline):
        cache = PlanCache(join_timeout=0.05)
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               plan_cache=cache)
        # Take the single-flight ownership for the query's key and never
        # publish — the "owner wedged inside optimization" failure mode.
        from repro.serving.normalize import normalize_query
        key = normalize_query(FILTER_QUERY).key
        entry, flight, owner = cache.begin(key, chaotic.catalog)
        assert owner and entry is None

        started = time.perf_counter()
        table = chaotic.sql(FILTER_QUERY)  # waiter: must not hang
        elapsed = time.perf_counter() - started
        assert table.num_rows > 0
        assert elapsed < 5.0
        assert cache.stats.join_timeouts == 1
        cache.complete(flight, None)  # release the stranded flight

    def test_join_timeout_expiry_counts_and_returns_none(self, session):
        cache = PlanCache(join_timeout=0.01)
        key = ("k",)
        entry, flight, owner = cache.begin(key, session.catalog)
        assert owner
        assert cache.join(flight, session.catalog) is None
        assert cache.stats.join_timeouts == 1
        # Explicit timeout overrides the default.
        assert cache.join(flight, session.catalog, timeout=0.01) is None
        assert cache.stats.join_timeouts == 2
        cache.complete(flight, None)

    def test_optimize_fault_owner_fails_waiter_recovers(
            self, patients_table, pulmonary_table, dt_pipeline):
        faults = FaultInjector(seed=11)
        faults.inject("plan_cache.optimize", on_hits=[1])
        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        with pytest.raises(InjectedFaultError):
            chaotic.sql(FILTER_QUERY)
        # Second call re-optimizes cleanly (hit 2 does not fire).
        assert chaotic.sql(FILTER_QUERY).num_rows > 0


@pytest.mark.chaos
class TestChaosBackpressure:
    def test_rejected_queries_become_outcomes(self, session, covid_query):
        release = threading.Event()
        original = session._run_query

        def slow(record, deadline):
            release.wait(timeout=10.0)
            return original(record, deadline)

        session._run_query = slow
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            outcomes = session.serve(
                [covid_query, covid_query, covid_query], workers=2,
                max_pending=1, backpressure="raise")
        finally:
            timer.cancel()
            release.set()
            del session._run_query
        # Admission is sequential in the submitting thread: the first
        # query holds the only slot, so the rest are rejected — as
        # outcomes, not exceptions.
        assert outcomes[0].ok
        for outcome in outcomes[1:]:
            assert not outcome.ok and outcome.attempts == 0
            assert isinstance(outcome.error, BackpressureError)
        assert session.serving_stats.rejected == 2

    def test_raise_policy_rejection_raises_from_result(self, session,
                                                       covid_query):
        release = threading.Event()
        original = session._run_query

        def slow(record, deadline):
            # Long enough to hold the only slot while the second query is
            # admitted (immediately, in the submitting thread); serve
            # drains this worker before returning, so not longer.
            release.wait(timeout=0.2)
            return original(record, deadline)

        session._run_query = slow
        try:
            with pytest.raises(BackpressureError):
                [outcome.result() for outcome in
                 session.serve([covid_query, covid_query], workers=2,
                               max_pending=1, backpressure="raise")]
        finally:
            release.set()
            del session._run_query


@pytest.mark.chaos
class TestChaosCrashSafeIO:
    def test_torn_snapshot_write_preserves_previous(self, tmp_path, session,
                                                    covid_query):
        session.sql(covid_query)  # warm state worth snapshotting
        faults = FaultInjector(seed=14)
        store = SnapshotStore(tmp_path, faults=faults)
        first = store.save(session)
        faults.inject("snapshot.write", mode="torn",
                      on_hits=[faults.hits("snapshot.write") + 1])
        session.sql(FILTER_QUERY)
        with pytest.raises(InjectedFaultError):
            store.save(session)
        # The durable state is exactly the pre-crash snapshot.
        assert store.latest() == first
        snapshot = store.load_latest()
        assert snapshot is not None and len(snapshot.plans) >= 1
        # Recovery: the next save succeeds and supersedes it.
        second = store.save(session)
        assert store.latest() == second


@pytest.mark.chaos
class TestChaosEverySite:
    def test_all_sites_injected_every_query_gets_an_outcome(
            self, patients_table, pulmonary_table, dt_pipeline, session,
            covid_query):
        """The headline acceptance: seeded faults at every registered
        site, and serve() still returns an outcome for 100% of queries —
        bit-for-bit correct where retries/fallbacks succeeded, typed
        errors where they did not."""
        queries = [covid_query, FILTER_QUERY] * 4
        expected = [session.sql(query) for query in queries]

        faults = FaultInjector(seed=20240808)
        rules = [
            faults.inject("executor.operator", probability=0.02),
            faults.inject("executor.compile", probability=0.05,
                          error=CompileError),
            faults.inject("predict.run", probability=0.02),
            faults.inject("plan_cache.optimize", probability=0.1),
            faults.inject("snapshot.write", mode="torn", probability=0.5),
            faults.inject("telemetry.dump", mode="torn", probability=0.5),
            faults.inject("spill.write", mode="torn", probability=0.5),
        ]
        assert {rule.site for rule in rules} == SITES  # nothing unhooked

        chaotic = make_session(patients_table, pulmonary_table, dt_pipeline,
                               faults=faults)
        retry = RetryPolicy(max_attempts=3, base_delay=0.001,
                            max_delay=0.002, seed=20240808)
        outcomes = chaotic.serve(queries, workers=2, retry=retry)

        assert len(outcomes) == len(queries)
        for outcome, reference in zip(outcomes, expected):
            if outcome.ok:
                assert_tables_equal(outcome.table, reference)
            else:
                assert isinstance(outcome.error, RavenError)
        stats = chaotic.serving_stats
        assert stats.completed == len(queries)
        assert stats.submitted == len(queries)
