"""Serving layer: plan caching, concurrent execution, micro-batching.

The paper optimizes a prediction query once and runs the optimized plan
repeatedly; this package makes that the steady-state of a live session:

* :class:`PlanCache` — normalized, versioned, LRU-bounded cache of
  optimized plans (``RavenSession`` keeps one by default);
* :mod:`~repro.serving.normalize` — SQL normalization +
  auto-parameterization that builds the cache keys;
* :class:`MicroBatcher` — coalesces concurrent single-row predict
  requests into one vectorized execution.

Concurrent query execution itself lives on the session:
``RavenSession.serve(queries, workers=N)``.
"""

from repro.serving.batcher import BatcherStats, MicroBatcher
from repro.serving.normalize import (
    NormalizedQuery,
    QueryDependencies,
    normalize_query,
    query_dependencies,
)
from repro.serving.plan_cache import (
    CachedPlan,
    PlanCache,
    PlanCacheStats,
    dependency_versions,
)

__all__ = [
    "BatcherStats", "CachedPlan", "MicroBatcher", "NormalizedQuery",
    "PlanCache", "PlanCacheStats", "QueryDependencies",
    "dependency_versions", "normalize_query", "query_dependencies",
]
