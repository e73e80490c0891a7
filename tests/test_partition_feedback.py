"""Per-partition feedback: fingerprints, profiles, store lookups."""

from __future__ import annotations

import numpy as np

from repro import RavenSession, Table
from repro.adaptive.feedback import FeedbackStore
from repro.adaptive.profile import (
    PlanProfiler,
    partition_fingerprint,
    plan_fingerprint,
)
from repro.relational.logical import Scan


def make_session(dop=2, n=30_000, buckets=5, **kwargs) -> RavenSession:
    rng = np.random.default_rng(9)
    table = Table.from_arrays(
        id=np.arange(n),
        bucket=np.repeat(np.arange(buckets), n // buckets).astype(np.int64),
        x=rng.normal(size=n),
        y=rng.uniform(0, 100, size=n),
    )
    session = RavenSession(dop=dop, **kwargs)
    session.register_table("events", table, primary_key=["id"],
                           partition_column="bucket")
    return session


class TestPartitionFingerprint:
    def test_distinct_per_partition_and_stable(self):
        base = plan_fingerprint(Scan("events"))
        fps = [partition_fingerprint(base, p) for p in range(4)]
        assert len(set(fps)) == 4
        assert fps == [partition_fingerprint(base, p) for p in range(4)]
        assert all(fp != base for fp in fps)


class TestProfilerPartitions:
    def test_record_partition_lands_in_profile_tree(self):
        scan = Scan("events")
        profiler = PlanProfiler()
        profiler.record_operator(scan, 100, 0.001)
        profiler.record_partition(scan, 0, 60, 30, 0.002)
        profiler.record_partition(scan, 1, 40, 10, 0.001)
        profile = profiler.profile_tree(scan)
        parts = profile.partitions
        assert [p.partition for p in parts] == [0, 1]
        assert parts[0].rows_in == 60 and parts[0].rows_out == 30
        assert parts[0].selectivity == 0.5
        assert "partition 0" in profile.pretty()

    def test_record_profile_folds_partitions_into_store(self):
        scan = Scan("events")
        profiler = PlanProfiler()
        profiler.record_operator(scan, 100, 0.001)
        profiler.record_partition(scan, 2, 50, 5, 0.002)
        store = FeedbackStore()
        store.record_profile(profiler.profile_tree(scan))
        base = plan_fingerprint(scan)
        assert store.partition_selectivity(base, 2) == 0.1
        assert store.partition_seconds_per_row(base, 2) is not None
        assert store.partition_selectivity(base, 3) is None


class TestEndToEnd:
    def test_morsel_runs_populate_partition_observations(self):
        session = make_session(dop=4)
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 30.0")
        with session.feedback._lock:
            labels = [fb.operator for fb in
                      session.feedback._operators.values()]
        partition_labels = [l for l in labels if l.startswith("partition:")]
        assert len(partition_labels) == 5  # one per partition

    def test_per_partition_selectivities_differ_under_skew(self):
        # y < 30 keeps ~all of partition 0's rows (y scaled low there)
        # and none of partition 4's.
        rng = np.random.default_rng(2)
        n = 25_000
        bucket = np.repeat(np.arange(5), n // 5).astype(np.int64)
        y = rng.uniform(0, 100, n) * (bucket * 25)  # 0 for bucket 0
        table = Table.from_arrays(id=np.arange(n), bucket=bucket,
                                  x=rng.normal(size=n), y=y)
        session = RavenSession(dop=4)
        session.register_table("events", table, partition_column="bucket")
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 30.0")
        with session.feedback._lock:
            entries = {fb.operator: fb for fb in
                       session.feedback._operators.values()
                       if fb.operator.startswith("partition:")}
        sels = {label.rsplit(":", 1)[-1]: fb.selectivity_fast
                for label, fb in entries.items()}
        assert sels["0"] == 1.0  # bucket 0: y is identically 0
        assert sels["4"] < 0.05  # bucket 4: y in [0, 7500)

    def test_static_session_records_nothing(self):
        session = make_session(dop=4, adaptive=False)
        session.sql("SELECT e.id FROM events AS e WHERE e.y < 30.0")
        assert session.feedback is None
