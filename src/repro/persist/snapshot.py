"""Versioned session snapshots: plans + feedback + statistics.

The paper's premise is that a prediction query is optimized once and
executed millions of times — but a process restart used to throw the
"once" away. A :class:`Snapshot` captures the warm state of a
:class:`~repro.core.session.RavenSession` so a restarted session starts
where the previous one left off:

* **optimized plans** from the :class:`~repro.serving.PlanCache`, each
  with its normalized key and a *content digest* per dependency (table
  schema + primary key, model graph). Catalog versions are process-local
  counters, so cross-process validation is content-based: on load an
  entry installs only when every dependency is registered with a
  matching digest, and is silently dropped when a dependency changed —
  the snapshot analogue of the cache's version invalidation. Installed
  entries are re-stamped with *live* dependency versions, so the
  existing eager/on-lookup invalidation machinery keeps governing them.
* **the FeedbackStore** (learned selectivities, cardinalities, per-row
  costs), exported via its versioned state codec; loading replaces the
  entries it carries, so loading a snapshot twice equals loading it once.
* **TableStats** per registered table, so a warm-started session's
  cold-start join ordering sees real NDVs immediately (live collection
  skips distinct counts above a size cutoff; persisted ones fill the
  gap).

Loading never recomputes derived caches eagerly: compiled expression
programs and adaptive fingerprints live in
plan-node side slots and are rebuilt lazily on first execution. Keys
that older writers emitted and nothing reads any more (a snapshot's
writer identity and provenance, a plan's convergence flag, the
feedback's per-model costs) are ignored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PersistError, RavenError
from repro.onnxlite.serialize import graph_to_dict
from repro.persist.plan_codec import plan_from_dict, plan_to_dict
from repro.serving.plan_cache import CachedPlan, dependency_versions

SNAPSHOT_FORMAT = "repro-snapshot-v1"


# ---------------------------------------------------------------------------
# Content digests (cross-process dependency validation)
# ---------------------------------------------------------------------------

def table_digest(entry) -> str:
    """Digest of a table's *logical* identity: ordered schema + PK.

    Row counts and statistics are deliberately excluded — data growth
    must not invalidate a structurally valid plan (the live feedback
    loop re-tunes it instead).
    """
    schema = "|".join(f"{name}:{dtype.value}" for name, dtype in entry.schema)
    primary_key = ",".join(entry.primary_key or [])
    return hashlib.md5(f"{schema}#pk:{primary_key}".encode()).hexdigest()[:16]


def model_digest(graph) -> str:
    """Digest of a model's full graph content (structure + parameters)."""
    payload = json.dumps(graph_to_dict(graph), sort_keys=True)
    return hashlib.md5(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# OptimizationReport codec (display metadata; str-fallback sanitized)
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


def report_to_dict(report) -> dict:
    return {
        "rules_applied": list(report.rules_applied),
        "strategy_choices": list(report.strategy_choices),
        "rule_info": {name: _jsonable(info)
                      for name, info in report.rule_info.items()},
    }


def report_from_dict(payload: dict):
    from repro.core.optimizer import OptimizationReport

    return OptimizationReport(
        rules_applied=list(payload.get("rules_applied", [])),
        rule_info=dict(payload.get("rule_info", {})),
        strategy_choices=list(payload.get("strategy_choices", [])),
    )


# ---------------------------------------------------------------------------
# The snapshot
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    """A point-in-time export of a session's warm state.

    Successive snapshots of one session are cumulative: the newest holds
    everything the older ones did.
    """

    feedback: Optional[dict] = None
    plans: List[dict] = field(default_factory=list)
    table_stats: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "feedback": self.feedback,
            "plans": self.plans,
            "table_stats": self.table_stats,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Snapshot":
        if not isinstance(payload, dict) \
                or payload.get("format") != SNAPSHOT_FORMAT:
            raise PersistError(f"not a {SNAPSHOT_FORMAT} payload")
        return cls(
            feedback=payload.get("feedback"),
            plans=list(payload.get("plans", [])),
            table_stats=dict(payload.get("table_stats", {})),
        )

    def save(self, path: Union[str, Path], faults=None) -> Path:
        # Crash-safe write: scratch file in the same directory, fsync,
        # atomic rename — a reader (or a crash at any point) never sees
        # a torn snapshot, and the rename is durable once we return.
        from repro.persist.atomic import atomic_write_text

        return atomic_write_text(path, json.dumps(self.to_dict()),
                                 faults=faults, site="snapshot.write")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise PersistError(f"cannot read snapshot {path}: {error}") from error
        return cls.from_dict(payload)

    def __repr__(self) -> str:
        operators = len((self.feedback or {}).get("operators", {}))
        return (f"Snapshot(plans={len(self.plans)}, "
                f"feedback_operators={operators}, "
                f"tables={len(self.table_stats)})")


def build_snapshot(session) -> Snapshot:
    """Export a session's plan cache, feedback store and table stats.

    Plan entries whose dependencies are no longer registered, or whose
    plans carry unserializable payloads, are skipped — a snapshot is a
    best-effort warm-state export, never a correctness requirement.
    """
    snapshot = Snapshot()
    catalog = session.catalog
    digests = _DigestCache(catalog)
    if getattr(session, "feedback", None) is not None:
        snapshot.feedback = session.feedback.export_state()
    for name in catalog.table_names:
        try:
            entry = catalog.table(name)
            payload = {
                "digest": digests.table(name),
                "stats": entry.stats.to_dict(),
            }
            if entry.data.num_partitions > 1:
                # Per-partition zone maps ride along so a warm-started
                # shard can skip partitions (and cost morsels) before it
                # has scanned anything. Old snapshots simply lack the
                # key; old readers ignore it.
                payload["partitions"] = [part.stats.to_dict()
                                         for part in entry.data.partitions]
            snapshot.table_stats[name] = payload
        except RavenError:
            continue  # dropped concurrently: skip, don't fail the export
    if getattr(session, "plan_cache", None) is None:
        return snapshot
    for key, entry in session.plan_cache.entries():
        dependencies: Dict[str, str] = {}
        missing = False
        try:
            for table in sorted(entry.tables):
                if not catalog.has_table(table):
                    missing = True
                    break
                dependencies[f"table:{table}"] = digests.table(table)
            for model in sorted(entry.models):
                if missing or not catalog.has_model(model):
                    missing = True
                    break
                dependencies[f"model:{model}"] = digests.model(model)
        except RavenError:
            missing = True  # dependency dropped mid-export
        if missing:
            continue
        try:
            plan_payload = plan_to_dict(entry.plan)
        except PersistError:
            continue
        snapshot.plans.append({
            "template": entry.template,
            "params": [list(param) for param in entry.params],
            "plan": plan_payload,
            "report": report_to_dict(entry.report)
            if entry.report is not None else None,
            "tables": sorted(entry.tables),
            "models": sorted(entry.models),
            "dependencies": dependencies,
        })
    return snapshot


# ---------------------------------------------------------------------------
# Loading: validate against the live catalog, install what is current
# ---------------------------------------------------------------------------

def _plan_key(payload: dict) -> Tuple:
    params = tuple(tuple(param) for param in payload["params"])
    return (payload["template"], params)


class _DigestCache:
    """Memoizes content digests within one snapshot/install pass.

    Model digests serialize the whole graph; E cache entries referencing
    one model must not pay that E times per checkpoint. Scoped to a
    single pass, so a catalog mutation between passes is always seen.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self._cache: Dict[Tuple[str, str], str] = {}

    def table(self, name: str) -> str:
        key = ("table", name)
        if key not in self._cache:
            self._cache[key] = table_digest(self.catalog.table(name))
        return self._cache[key]

    def model(self, name: str) -> str:
        key = ("model", name)
        if key not in self._cache:
            self._cache[key] = model_digest(self.catalog.model(name).graph)
        return self._cache[key]


def _dependency_status(payload: dict, digests: _DigestCache) -> str:
    """``"ready"`` / ``"waiting"`` (dependency not yet registered) /
    ``"stale"`` (registered with different content)."""
    catalog = digests.catalog
    waiting = False
    for dep, digest in dict(payload["dependencies"]).items():
        kind, _, name = dep.partition(":")
        if kind == "table":
            if not catalog.has_table(name):
                waiting = True
                continue
            if digests.table(name) != digest:
                return "stale"
        elif kind == "model":
            if not catalog.has_model(name):
                waiting = True
                continue
            if digests.model(name) != digest:
                return "stale"
        else:
            return "stale"
    return "waiting" if waiting else "ready"


def entry_from_payload(payload: dict, catalog) -> CachedPlan:
    """Decode one persisted plan entry against the live catalog.

    Raises on any inconsistency (malformed payload, schema the plan no
    longer binds against) — callers drop the entry and let the ordinary
    miss path re-optimize.
    """
    plan = plan_from_dict(payload["plan"])
    plan.output_schema(catalog)  # sanity: the plan still binds
    tables = frozenset(payload["tables"])
    models = frozenset(payload["models"])
    return CachedPlan(
        template=payload["template"],
        params=tuple(tuple(param) for param in payload["params"]),
        plan=plan,
        report=report_from_dict(payload["report"])
        if payload.get("report") is not None else None,
        tables=tables,
        models=models,
        versions=dependency_versions(catalog, tables, models),
    )


def install_plans(plan_cache, catalog,
                  pending: List[dict]) -> Tuple[int, List[dict], int]:
    """Install every pending entry whose dependencies are ready.

    Returns ``(installed, still_pending, dropped)``: entries whose
    dependencies are not yet registered stay pending (the session retries
    on every catalog change); entries whose dependencies changed content,
    or that fail to decode, are dropped as stale.
    """
    installed = 0
    dropped = 0
    still_pending: List[dict] = []
    digests = _DigestCache(catalog)
    for payload in pending:
        # A structurally corrupt payload (wrong-typed field, missing key)
        # is dropped, never raised: a warm start degrades to "less warm",
        # it must not crash the session constructor.
        try:
            status = _dependency_status(payload, digests)
        except (RavenError, KeyError, TypeError, AttributeError, ValueError):
            # RavenError covers a concurrent drop_table racing the
            # has_table/table pair inside the digest lookup.
            dropped += 1
            continue
        if status == "waiting":
            still_pending.append(payload)
            continue
        if status == "stale":
            dropped += 1
            continue
        try:
            key = _plan_key(payload)
            entry = entry_from_payload(payload, catalog)
        except (RavenError, KeyError, TypeError, AttributeError, ValueError):
            dropped += 1
            continue
        plan_cache.restore(key, entry)
        installed += 1
    return installed, still_pending, dropped
