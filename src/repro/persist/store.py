"""SnapshotStore: a rotating directory of one session's snapshots.

A serving session checkpoints its warm state through
:meth:`SnapshotStore.save`, and a restarted session warm-starts from
:meth:`SnapshotStore.load_latest`. The store is one
directory per session: files are ``snapshot-<seq>.json`` with a
six-digit sequence number, and a store opened on an existing directory
continues its numbering. Writes are write-then-rename atomic, so readers
only ever see complete files.

Successive checkpoints of a session are cumulative — the newest holds
everything the older ones did — so the newest readable file is the whole
warm state, and rotation keeps only the ``keep`` newest.

Auto-checkpointing: :meth:`SnapshotStore.attach` hooks a session so that
every K adaptive re-optimizations — at the moment the *replacement* plan
is cached — a fresh snapshot is written. Checkpoints happen on the
serving thread that crossed the threshold; writing is one JSON dump, and
the interval K bounds how often it is paid.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import PersistError
from repro.persist.snapshot import Snapshot, build_snapshot

DEFAULT_KEEP = 4
_SNAPSHOT_NAME = re.compile(r"^snapshot-(?P<seq>\d{6})\.json$")


class SnapshotStore:
    """Sequence-numbered snapshot files of one session under one directory."""

    def __init__(self, directory: Union[str, Path], keep: int = DEFAULT_KEEP,
                 faults=None):
        if keep < 1:
            raise ValueError("snapshot store must keep >= 1 files")
        self.directory = Path(directory)
        self.keep = keep
        # Optional repro.resilience.FaultInjector for the snapshot.write
        # site (torn-write crash simulation in the chaos suite).
        self.faults = faults
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _scan(self) -> List[Tuple[int, Path]]:
        """All retained ``(sequence, path)``, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(path.name)
            if match:
                found.append((int(match.group("seq")), path))
        return sorted(found)

    def paths(self) -> List[Path]:
        """Retained snapshot files, oldest (lowest sequence) first."""
        return [path for _, path in self._scan()]

    def latest(self) -> Optional[Path]:
        """The newest (highest-sequence) snapshot file."""
        entries = self._scan()
        return entries[-1][1] if entries else None

    def save(self, session_or_snapshot) -> Path:
        """Write the next checkpoint and prune all but the ``keep`` newest."""
        if isinstance(session_or_snapshot, Snapshot):
            snapshot = session_or_snapshot
        else:
            snapshot = build_snapshot(session_or_snapshot)
        with self._lock:
            entries = self._scan()
            sequence = (entries[-1][0] if entries else 0) + 1
            path = self.directory / f"snapshot-{sequence:06d}.json"
            snapshot.save(path, faults=self.faults)
            for _, stale in self._scan()[:-self.keep]:
                stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> Optional[Snapshot]:
        """The newest file that reads as a valid snapshot, or None.

        A torn file (the writer killed mid-write), non-JSON or a
        different format version is skipped for the next-newest one: a
        warm start degrades to "less warm", never to a crash.
        """
        for path in reversed(self.paths()):
            try:
                return Snapshot.load(path)
            except PersistError:
                continue
        return None

    # ------------------------------------------------------------------
    # Session auto-checkpointing
    # ------------------------------------------------------------------
    def attach(self, session, every_reoptimizations: int = 8) -> None:
        """Checkpoint ``session`` every K adaptive re-optimizations."""
        session.attach_snapshot_store(self, every_reoptimizations)

    def detach(self, session) -> None:
        session.detach_snapshot_store()

    def __repr__(self) -> str:
        return (f"SnapshotStore({str(self.directory)!r}, "
                f"files={len(self.paths())}, keep={self.keep})")
