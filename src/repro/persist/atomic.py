"""Crash-safe file writes for snapshots, spill files and telemetry exports.

The durability contract: after :func:`atomic_write_text` returns, the
target holds the complete new content and has been fsynced; if the
process dies at any earlier point — including mid-write — the target
still holds its previous complete content (or does not exist). That is
what snapshot warm starts rely on.

The recipe is the classic one: write a scratch file *in the same
directory* (so the final rename never crosses filesystems), flush and
``fsync`` it, atomically ``os.replace`` it over the target, then
best-effort fsync the directory so the rename itself is durable.

Fault injection: when a :class:`~repro.resilience.FaultInjector` is
passed, a ``torn``-mode rule at the given site simulates the crash the
contract defends against — a deliberately truncated payload lands in the
scratch file and :class:`~repro.errors.InjectedFaultError` is raised
*before* the rename, so tests can verify the durable state survived.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

from repro.errors import InjectedFaultError


def fsync_directory(directory: Union[str, Path]) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str,
                      faults=None, site: str = "snapshot.write",
                      suffix: str = ".tmp") -> Path:
    """Durably replace ``path``'s content with ``text``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + suffix)
    if faults is not None and faults.tear(site, detail=path.name):
        # Simulated crash mid-write: half the payload reaches the scratch
        # file, the target is never touched.
        scratch.write_text(text[: max(1, len(text) // 2)])
        raise InjectedFaultError(f"torn write at {site}: {path.name}")
    with open(scratch, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    fsync_directory(path.parent)
    return path
