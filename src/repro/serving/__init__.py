"""Serving layer: plan caching and the batch entry point.

The paper optimizes a prediction query once and runs the optimized plan
repeatedly; this package makes that the steady-state of a live session:

* :class:`PlanCache` — normalized, versioned, LRU-bounded cache of
  optimized plans (``RavenSession`` keeps one by default), with its
  counters and the session's serving counters (:class:`ServingStats`);
* :mod:`~repro.serving.normalize` — SQL normalization +
  auto-parameterization that builds the cache keys;
* :mod:`~repro.serving.serve` — the batch loop behind
  ``RavenSession.serve(queries, workers=N)`` (described there).
"""

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
    ServingStats,
    dependency_versions,
)

__all__ = [
    "CachedPlan", "NormalizedQuery", "PlanCache", "PlanCacheStats",
    "QueryDependencies", "ServingStats", "dependency_versions",
    "normalize_query", "query_dependencies",
]
