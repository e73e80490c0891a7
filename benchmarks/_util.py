"""Shared helpers for the benchmark suite.

Every benchmark runs its report generator under ``benchmark.pedantic`` (so
``pytest benchmarks/ --benchmark-only`` times it) and writes the
paper-style table to ``benchmarks/results/<name>.txt`` for inspection.
Nothing under ``results/`` is committed.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def save_report(table, name: str) -> None:
    """Print the report and write it to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = table.render()
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_report(benchmark, fn, name: str):
    """Time one report generation and save its output table(s)."""
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    if isinstance(result, tuple):
        for index, table in enumerate(result):
            save_report(table, f"{name}_{index}")
    else:
        save_report(result, name)
    return result
