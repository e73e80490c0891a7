"""Persistence & warm start: durable plans, feedback and statistics.

A :class:`~repro.core.session.RavenSession` used to start cold: the
PlanCache, the FeedbackStore's learned selectivities/costs and the
catalog statistics all died with the process, so a restarted serving
session re-paid optimization and re-learned what it already knew. This
package makes one session's warm state durable:

* :mod:`~repro.persist.plan_codec` — schema-versioned plan ⇄ dict round
  trip covering the whole logical algebra (every operator and expression
  node type, including ``MultiJoin`` and learned annotations);
* :mod:`~repro.persist.snapshot` — :class:`Snapshot` bundles plan-cache
  entries (content-digest validated against the live catalog on load),
  the FeedbackStore's exported state, and per-table statistics;
* :mod:`~repro.persist.store` — :class:`SnapshotStore`, one session's
  rotating checkpoint directory; a restarted session warm-starts from
  its newest readable file (``load_latest``).

Entry points on the session::

    session.save_snapshot("warm.json")
    fresh = RavenSession(warm_start="warm.json")   # or a Snapshot
    store = SnapshotStore("checkpoints/")
    store.attach(session, every_reoptimizations=8)
    restarted = RavenSession(warm_start=store.load_latest())
"""

from repro.persist.plan_codec import (
    PLAN_FORMAT,
    expression_from_dict,
    expression_to_dict,
    plan_from_dict,
    plan_to_dict,
)
from repro.persist.snapshot import (
    SNAPSHOT_FORMAT,
    Snapshot,
    build_snapshot,
    model_digest,
    table_digest,
)
from repro.persist.store import SnapshotStore

__all__ = [
    "PLAN_FORMAT", "SNAPSHOT_FORMAT", "Snapshot", "SnapshotStore",
    "build_snapshot", "expression_from_dict", "expression_to_dict",
    "model_digest", "plan_from_dict", "plan_to_dict", "table_digest",
]
