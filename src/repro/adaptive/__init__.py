"""Adaptive execution: runtime profiling, feedback, re-optimization.

Closes the optimize → execute loop the static optimizer leaves open:

* :mod:`~repro.adaptive.profile` — the relational executor records
  rows-in/rows-out and wall time per operator into an
  :class:`OperatorProfile` tree (attached to ``RunStats``);
* :mod:`~repro.adaptive.feedback` — profiles aggregate under structural
  plan fingerprints into a :class:`FeedbackStore` of observed
  selectivities, cardinalities, per-row costs and EWMA drift signals;
* :mod:`~repro.adaptive.reopt` — the optimizer consumes the store:
  conjunct reordering by observed selectivity/cost rank, join ordering
  by observed cardinalities and join selectivities. The serving plan
  cache marks entries stale when
  feedback diverges from what a cached plan encodes, re-optimizing them
  through the existing single-flight path.

``RavenSession(adaptive=...)`` turns the whole loop on (default) or off;
the non-adaptive path is the differential-testing oracle — both must
produce bit-for-bit identical results.
"""

from repro.adaptive.feedback import (
    FeedbackStore,
    FeedbackStoreStats,
    OperatorFeedback,
)
from repro.adaptive.profile import (
    ConjunctProfile,
    JoinStepProfile,
    OperatorProfile,
    PlanProfiler,
    conjunct_fingerprint,
    join_edge_fingerprint,
    join_step_fingerprints,
    plan_fingerprint,
)
from repro.adaptive.reopt import (
    apply_feedback,
    feedback_divergence,
    plan_join_order,
)

__all__ = [
    "ConjunctProfile", "FeedbackStore", "FeedbackStoreStats",
    "JoinStepProfile",
    "OperatorFeedback", "OperatorProfile", "PlanProfiler", "apply_feedback",
    "conjunct_fingerprint", "feedback_divergence",
    "join_edge_fingerprint", "join_step_fingerprints",
    "plan_fingerprint", "plan_join_order",
]
