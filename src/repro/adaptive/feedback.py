"""The selectivity/cost feedback store: what execution taught us.

Aggregates :class:`~repro.adaptive.profile.OperatorProfile` trees under
structural fingerprints into per-operator observations the optimizer can
consume:

* **selectivity** — EWMA of rows-out/rows-in per call (filters and their
  individual conjuncts);
* **cardinality** — EWMA of output rows (join-side sizing);
* **cost** — EWMA of self-seconds per input row (conjunct ordering by
  rank);
* **drift** — a fast EWMA tracks recent behaviour, a slow EWMA the
  long-run average; their divergence (:meth:`FeedbackStore.drift_score`)
  signals that what the optimizer assumed no longer matches what the
  executor sees.

All methods are thread-safe; the store is shared by every execution of a
session and consulted by the optimizer under the plan cache's
single-flight, so reads must never block on a long write (updates are a
few float ops under a lock).

**Persistence** (see :mod:`repro.persist`): a store exports its complete
state as a versioned dict (:meth:`FeedbackStore.export_state`) and loads
one back (:meth:`FeedbackStore.load_state`). Loading *replaces* the
resident entry of every fingerprint it carries, so loading one session's
checkpoint twice leaves the store as loading it once did.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.adaptive.profile import OperatorProfile, partition_fingerprint
from repro.errors import PersistError

# Versioned wire format of export_state()/load_state() payloads.
FEEDBACK_FORMAT = "repro-feedback-v1"

# EWMA smoothing: alpha for the responsive estimate and the long-run one.
FAST_ALPHA = 0.5
SLOW_ALPHA = 0.05
# Selectivity drift below this absolute fast-vs-slow divergence is noise.
DRIFT_THRESHOLD = 0.25
# Observations required before a drift signal is trusted.
MIN_DRIFT_CALLS = 8
# LRU bound: serving traffic with churning literals mints a new set of
# fingerprints per literal signature; a long-lived session must not pin
# feedback for every plan it ever ran. Eviction only costs re-learning.
MAX_OPERATOR_ENTRIES = 4_096
# An entry's label keeps at most this many characters of operator or
# expression text (a translated model's CASE Project renders to
# kilobytes); the kind prefix and a partition index are kept whole.
MAX_LABEL_CHARS = 120


def _capped(text: str) -> str:
    if len(text) <= MAX_LABEL_CHARS:
        return text
    return text[:MAX_LABEL_CHARS - 1] + "…"


def _ewma(current: Optional[float], observed: float, alpha: float) -> float:
    if current is None:
        return observed
    return alpha * observed + (1.0 - alpha) * current


@dataclass
class FeedbackStoreStats:
    """Monotonic counters for one :class:`FeedbackStore`.

    ``operator_evictions`` counts operator-fingerprint entries dropped by
    the LRU bound (serving traffic with churning literals mints unbounded
    fingerprints; eviction only costs re-learning).
    """

    operator_evictions: int = 0


@dataclass
class OperatorFeedback:
    """Accumulated observations for one structural fingerprint."""

    operator: str
    calls: int = 0
    rows_in: int = 0
    rows_out: int = 0
    seconds: float = 0.0
    selectivity_fast: Optional[float] = None
    selectivity_slow: Optional[float] = None
    rows_out_ewma: Optional[float] = None
    seconds_per_row_ewma: Optional[float] = None

    def observe(self, rows_in: int, rows_out: int, seconds: float,
                calls: int = 1) -> None:
        """Fold one execution's (possibly multi-call) totals in.

        A morsel fan-out runs an operator ``calls`` times; broadcast-join
        dimension subtrees are re-read once *per morsel*, so summed rows
        would overcount them by the number of morsels. The cardinality
        EWMA therefore tracks the **per-call mean** — the size each
        operator instance actually saw, which is also what the join-order
        decisions need (each morsel's join runs against per-call inputs).
        Selectivity and per-row cost are ratios of the totals, which are
        scale-free either way.
        """
        calls = max(1, calls)
        self.calls += calls
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.seconds += seconds
        self.rows_out_ewma = _ewma(self.rows_out_ewma, rows_out / calls,
                                   FAST_ALPHA)
        if rows_in > 0:
            selectivity = rows_out / rows_in
            self.selectivity_fast = _ewma(self.selectivity_fast, selectivity,
                                          FAST_ALPHA)
            self.selectivity_slow = _ewma(self.selectivity_slow, selectivity,
                                          SLOW_ALPHA)
            self.seconds_per_row_ewma = _ewma(self.seconds_per_row_ewma,
                                              seconds / rows_in, FAST_ALPHA)

    def to_dict(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "selectivity_fast": self.selectivity_fast,
            "selectivity_slow": self.selectivity_slow,
            "rows_out_ewma": self.rows_out_ewma,
            "seconds_per_row_ewma": self.seconds_per_row_ewma,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OperatorFeedback":
        return cls(
            operator=str(payload["operator"]),
            calls=int(payload["calls"]),
            rows_in=int(payload["rows_in"]),
            rows_out=int(payload["rows_out"]),
            seconds=float(payload["seconds"]),
            selectivity_fast=_opt_float(payload.get("selectivity_fast")),
            selectivity_slow=_opt_float(payload.get("selectivity_slow")),
            rows_out_ewma=_opt_float(payload.get("rows_out_ewma")),
            seconds_per_row_ewma=_opt_float(
                payload.get("seconds_per_row_ewma")),
        )

    @property
    def drift(self) -> float:
        """Absolute divergence between recent and long-run selectivity."""
        if self.selectivity_fast is None or self.selectivity_slow is None:
            return 0.0
        return abs(self.selectivity_fast - self.selectivity_slow)

    @property
    def relative_drift(self) -> float:
        """Divergence relative to the larger EWMA, in [0, 1).

        Join-step selectivities are fractions of a cross product —
        O(1/rows) — so an *absolute* drift threshold calibrated for
        filter selectivities (which live in [0, 1]) could never fire on
        them. The relative measure is scale-free: 0.25 means the recent
        selectivity shifted 25% away from the long-run average, whatever
        its magnitude.
        """
        if self.selectivity_fast is None or self.selectivity_slow is None:
            return 0.0
        magnitude = max(self.selectivity_fast, self.selectivity_slow)
        if magnitude <= 0.0:
            return 0.0
        return abs(self.selectivity_fast - self.selectivity_slow) / magnitude


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


class FeedbackStore:
    """Thread-safe aggregate of execution feedback for one session.

    LRU-bounded at :data:`MAX_OPERATOR_ENTRIES` fingerprints: long-lived
    serving sessions must not pin feedback for every fingerprint they
    ever minted. Evictions are counted in :attr:`stats`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._operators: "OrderedDict[str, OperatorFeedback]" = OrderedDict()
        self.profiles_recorded = 0
        self.stats = FeedbackStoreStats()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_profile(self, root: OperatorProfile) -> None:
        """Fold one execution's profile tree into the store."""
        with self._lock:
            self.profiles_recorded += 1
            for profile in root.walk():
                if profile.calls == 0:
                    continue
                self._observe(profile.fingerprint,
                              lambda: _capped(profile.operator),
                              profile.rows_in, profile.rows_out,
                              profile.self_seconds, profile.calls)
                for part in profile.conjuncts:
                    self._observe(part.fingerprint,
                                  lambda: "conjunct:"
                                          + _capped(part.expression),
                                  part.rows_in, part.rows_out, part.seconds,
                                  part.calls)
                for step in profile.joins:
                    # rows_in is the step's cross-product size, so the
                    # selectivity EWMA tracks the classic join selectivity
                    # |out| / (|l| * |r|) — invariant to how much earlier
                    # joins already reduced either side, which is what the
                    # ordering pass needs to cost any candidate sequence.
                    self._observe(step.fingerprint,
                                  lambda: "joinstep:" + _capped(step.detail),
                                  step.cross_rows, step.rows_out,
                                  step.seconds, step.calls)
                for part in profile.partitions:
                    self._observe(part.fingerprint,
                                  lambda: "partition:"
                                          f"{_capped(profile.operator)}"
                                          f":{part.partition}",
                                  part.rows_in, part.rows_out, part.seconds,
                                  part.calls)

    def _observe(self, fingerprint: str, label, rows_in: int,
                 rows_out: int, seconds: float, calls: int) -> None:
        """Fold one observation in; ``label()`` names the entry and is
        called only when the fingerprint is new (profile labels render
        their plan node on first read — a known fingerprint never asks)."""
        feedback = self._operators.get(fingerprint)
        if feedback is None:
            feedback = self._operators[fingerprint] = OperatorFeedback(
                operator=label())
            self._bound_operators_locked()
        else:
            self._operators.move_to_end(fingerprint)
        feedback.observe(rows_in, rows_out, seconds, calls)

    def _bound_operators_locked(self) -> None:
        while len(self._operators) > MAX_OPERATOR_ENTRIES:
            self._operators.popitem(last=False)
            self.stats.operator_evictions += 1

    # ------------------------------------------------------------------
    # Lookups (None = no observations yet; optimizer falls back to static)
    # ------------------------------------------------------------------
    def observed(self, fingerprint: str) -> Optional[OperatorFeedback]:
        with self._lock:
            return self._operators.get(fingerprint)

    def selectivity(self, fingerprint: str) -> Optional[float]:
        feedback = self.observed(fingerprint)
        return feedback.selectivity_fast if feedback else None

    def rows_out(self, fingerprint: str) -> Optional[float]:
        feedback = self.observed(fingerprint)
        return feedback.rows_out_ewma if feedback else None

    def seconds_per_row(self, fingerprint: str) -> Optional[float]:
        feedback = self.observed(fingerprint)
        return feedback.seconds_per_row_ewma if feedback else None

    def partition_selectivity(self, fingerprint: str,
                              partition: int) -> Optional[float]:
        """Observed survival rate of one partition under an operator."""
        return self.selectivity(partition_fingerprint(fingerprint, partition))

    def partition_seconds_per_row(self, fingerprint: str,
                                  partition: int) -> Optional[float]:
        """Observed per-scanned-row cost of one partition's segment."""
        return self.seconds_per_row(
            partition_fingerprint(fingerprint, partition))

    def drift_score(self, fingerprint: str) -> float:
        """Drift for one fingerprint; 0.0 until enough calls accumulated.

        Join-step entries use the scale-free relative measure (their
        selectivities are cross-product fractions, far below any absolute
        threshold); everything else uses the absolute one.
        """
        feedback = self.observed(fingerprint)
        if feedback is None or feedback.calls < MIN_DRIFT_CALLS:
            return 0.0
        if feedback.operator.startswith("joinstep:"):
            return feedback.relative_drift
        return feedback.drift

    def has_drifted(self, fingerprint: str,
                    threshold: float = DRIFT_THRESHOLD) -> bool:
        return self.drift_score(fingerprint) > threshold

    def consume_drift(self, fingerprint: str) -> None:
        """Acknowledge a drift signal after acting on it.

        Re-optimization responds to the *recent* behaviour (the fast
        EWMA), so once a drifted plan has been marked stale the long-run
        average restarts from there — otherwise the slow EWMA's long
        convergence tail would keep re-marking the replacement plan on
        every call even when nothing changes anymore.
        """
        with self._lock:
            feedback = self._operators.get(fingerprint)
            if feedback is not None and feedback.selectivity_fast is not None:
                feedback.selectivity_slow = feedback.selectivity_fast

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Complete store state as a versioned, JSON-compatible dict.

        The export is a consistent point-in-time copy (taken under the
        lock); mutating the store afterwards does not affect it.
        """
        with self._lock:
            return {
                "format": FEEDBACK_FORMAT,
                "profiles_recorded": self.profiles_recorded,
                "operators": {fingerprint: feedback.to_dict()
                              for fingerprint, feedback
                              in self._operators.items()},
            }

    def load_state(self, state: Dict[str, object]) -> None:
        """Load an exported state: each entry replaces the resident one.

        A snapshot is a session's cumulative checkpoint, so an incoming
        entry supersedes whatever this store holds for its fingerprint,
        and ``profiles_recorded`` becomes the larger of the two counts —
        loading the same state twice equals loading it once. New
        fingerprints respect the LRU bound (oldest resident entries are
        evicted and counted). Keys of older writers (``models``) are
        ignored.

        All-or-nothing: the entire payload is decoded and validated
        *before* anything is replaced, so a malformed state raises
        :class:`~repro.errors.PersistError` without partially mutating
        the store.
        """
        if state.get("format") != FEEDBACK_FORMAT:
            raise PersistError(
                f"not a {FEEDBACK_FORMAT} payload: {state.get('format')!r}")
        try:
            profiles = int(state.get("profiles_recorded", 0))
            incoming = {
                fingerprint: OperatorFeedback.from_dict(payload)
                for fingerprint, payload
                in dict(state.get("operators", {})).items()
            }
        except (KeyError, TypeError, AttributeError, ValueError) as error:
            raise PersistError(
                f"malformed {FEEDBACK_FORMAT} payload: {error}") from error
        with self._lock:
            self.profiles_recorded = max(self.profiles_recorded, profiles)
            for fingerprint, feedback in incoming.items():
                self._operators[fingerprint] = feedback
                self._operators.move_to_end(fingerprint)
            self._bound_operators_locked()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._operators)

    def __repr__(self) -> str:
        with self._lock:
            return (f"FeedbackStore(operators={len(self._operators)}, "
                    f"profiles={self.profiles_recorded})")
