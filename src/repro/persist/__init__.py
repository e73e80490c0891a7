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
  its newest readable file (``load_latest``);
* :mod:`~repro.persist.warm` — :class:`WarmState`, a session's pending
  snapshot plans and statistics and its checkpoint store
  (``session.warm``).

Entry points (``store.attach`` is the one way to attach a store;
``store.detach(session)`` undoes it)::

    session.save_snapshot("warm.json")
    fresh = RavenSession(warm_start="warm.json")   # or a Snapshot
    store = SnapshotStore("checkpoints/")
    store.attach(session, every_reoptimizations=8)
    restarted = RavenSession(warm_start=store.load_latest())

Names are imported on first use, so the leaf module ``atomic``, which
telemetry writes files through, loads without the snapshot machinery
(and its import of the serving package).
"""

from importlib import import_module

#: Each public name, and the submodule that defines it.
_EXPORTS = {
    "PLAN_FORMAT": "plan_codec", "expression_from_dict": "plan_codec",
    "expression_to_dict": "plan_codec", "plan_from_dict": "plan_codec",
    "plan_to_dict": "plan_codec",
    "SNAPSHOT_FORMAT": "snapshot", "Snapshot": "snapshot",
    "build_snapshot": "snapshot", "model_digest": "snapshot",
    "table_digest": "snapshot",
    "SnapshotStore": "store",
    "WarmState": "warm",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
