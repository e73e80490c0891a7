"""WarmState: one session's warm start and checkpoints."""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.errors import PersistError, RavenError
from repro.persist.snapshot import (
    Snapshot,
    build_snapshot,
    install_plans,
    table_digest,
)
from repro.storage.statistics import TableStats


class WarmState:
    """A session's pending snapshot plans and statistics, and its
    checkpoint store.

    :meth:`load` loads a snapshot's feedback at once; its plans and
    table statistics install as their tables and models get registered
    (a catalog listener retries the pending ones on every registration).
    An attached :class:`~repro.persist.SnapshotStore` receives a fresh
    snapshot every K adaptive re-optimizations (:meth:`maybe_checkpoint`,
    called when a re-optimized plan has converged). ``catalog``,
    ``plan_cache`` and ``feedback`` are the session's; they are also
    what :func:`~repro.persist.build_snapshot` reads.
    """

    def __init__(self, catalog, plan_cache, feedback):
        self.catalog = catalog
        self.plan_cache = plan_cache
        self.feedback = feedback
        # Guards the pending lists and the checkpoint claim.
        self._lock = threading.Lock()
        self._install_lock = threading.Lock()
        self._plans: List[dict] = []
        self._stats: Dict[str, dict] = {}
        self._store = None
        self._every = 0
        self._claimed = 0

    def snapshot(self) -> Snapshot:
        """Export the warm state (plans, feedback, table statistics)."""
        return build_snapshot(self)

    @property
    def plans_pending(self) -> int:
        """Snapshot plans still waiting for a table or model."""
        with self._lock:
            return len(self._plans)

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def load(self, snapshot: Union[str, Path, Snapshot]) -> Dict[str, int]:
        """Warm-start from a snapshot (or a path to one).

        Feedback loads into the store immediately: each loaded entry
        replaces the resident one for its fingerprint, so loading the
        same snapshot twice equals loading it once. Plan entries and
        table statistics whose dependencies are already registered
        install now; the rest stay pending and install automatically as
        matching tables/models are registered. Entries whose dependencies
        exist with *different* content (schema or model changed) are
        dropped — the ordinary miss path re-optimizes.

        Returns a summary dict: ``plans_installed`` / ``plans_pending`` /
        ``plans_dropped`` / ``feedback_operators`` / ``tables_with_stats``.
        """
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.load(snapshot)
        feedback_operators = 0
        if snapshot.feedback is not None and self.feedback is not None:
            # load_state validates the whole payload before replacing
            # anything (all-or-nothing), so a malformed feedback export
            # degrades to "no feedback" — plans and statistics still
            # load — instead of crashing the constructor.
            try:
                self.feedback.load_state(snapshot.feedback)
                feedback_operators = len(
                    snapshot.feedback.get("operators", {}))
            except PersistError:
                pass
        with self._lock:
            self._stats.update(snapshot.table_stats)
            if self.plan_cache is not None:
                self._plans.extend(snapshot.plans)
        # Subscribe *before* the initial install pass (and after the plan
        # cache's invalidation hook, so a registration first invalidates,
        # then installs): a registration landing between the pass and a
        # later subscription would otherwise leave its plans pending
        # forever. catalog.subscribe is idempotent.
        self.catalog.subscribe(self._on_catalog_change)
        for name in self.catalog.table_names:
            self._augment_stats(name)
        installed, dropped = self._install_plans()
        return {"plans_installed": installed,
                "plans_pending": self.plans_pending,
                "plans_dropped": dropped,
                "feedback_operators": feedback_operators,
                "tables_with_stats": len(snapshot.table_stats)}

    def _on_catalog_change(self, kind: str, name: str) -> None:
        if kind == "table":
            self._augment_stats(name)
        self._install_plans()

    def _augment_stats(self, name: str) -> None:
        """Apply a snapshot's statistics to a freshly registered table.

        Only fills fields live collection left unknown, and only when the
        table's content digest still matches the snapshot's — statistics
        from a different schema must never leak in. Applied (or
        discarded) once per table.
        """
        with self._lock:
            payload = self._stats.get(name)
        if payload is None or not self.catalog.has_table(name):
            return
        if table_digest(self.catalog.table(name)) == payload.get("digest"):
            try:
                stats = TableStats.from_dict(payload["stats"])
            except (KeyError, TypeError, ValueError):
                stats = None
            if stats is not None:
                self.catalog.augment_stats(name, stats)
            try:
                partition_stats = [TableStats.from_dict(part) for part
                                   in payload.get("partitions") or []]
            except (KeyError, TypeError, ValueError):
                partition_stats = []
            if partition_stats:
                # Matching digest means matching content, and
                # partitioning is a pure function of content — the
                # layout check inside is just belt and braces.
                self.catalog.augment_partition_stats(name, partition_stats)
        with self._lock:
            self._stats.pop(name, None)

    def _install_plans(self) -> Tuple[int, int]:
        """Try installing pending snapshot plans; ``(installed, dropped)``.

        Serialized by the install lock so a concurrent registration
        cannot observe an empty pending list mid-install and skip entries
        that just became ready. Only lock-free catalog reads happen under
        the lock (no catalog-lock inversion with the change listener).
        """
        if self.plan_cache is None:
            return 0, 0
        with self._install_lock:
            with self._lock:
                pending, self._plans = self._plans, []
            if not pending:
                return 0, 0
            installed, still_pending, dropped = install_plans(
                self.plan_cache, self.catalog, pending)
            with self._lock:
                self._plans = still_pending + self._plans
        return installed, dropped

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def attach(self, store, every_reoptimizations: int = 8) -> None:
        """Checkpoint into ``store`` every K re-optimizations."""
        if every_reoptimizations < 1:
            raise ValueError("every_reoptimizations must be >= 1")
        self._claimed = (self.plan_cache.stats.reoptimizations
                         if self.plan_cache is not None else 0)
        self._every = every_reoptimizations
        self._store = store

    def detach(self) -> None:
        self._store = None

    def maybe_checkpoint(self) -> None:
        """Write a snapshot once K re-optimizations passed the last one."""
        store = self._store
        if store is None or self.plan_cache is None:
            return
        reoptimizations = self.plan_cache.stats.reoptimizations
        with self._lock:
            previous = self._claimed
            if reoptimizations - previous < self._every:
                return
            self._claimed = reoptimizations
        try:
            store.save(self.snapshot())
        except (OSError, RavenError):
            # Checkpoints are best-effort: a full disk, or a concurrent
            # drop_table racing build_snapshot's catalog reads, must not
            # fail the serving call that crossed the threshold.
            # Un-claim the counter so a later crossing retries.
            with self._lock:
                if self._claimed == reoptimizations:
                    self._claimed = previous
