"""Raven's core: parser, binder, optimizer, strategies, session.

This package is the paper's primary contribution — the co-optimizer for
prediction queries — assembled from the rules in ``repro.core.rules`` and
the strategies in ``repro.core.strategies``.
"""

from importlib import import_module

#: Each public name, and the submodule that defines it. Imported on first
#: use, so that importing one submodule (the parser, say) loads no other.
_EXPORTS = {
    "Binder": "binder", "bind": "binder",
    "PredictRuntime": "executor", "QueryExecutor": "executor",
    "OptimizationReport": "optimizer", "RavenOptimizer": "optimizer",
    "parse": "parser",
    "RunStats": "record",
    "RavenSession": "session",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
