"""Deterministic renderer: ledger + results → ``benchmarks/REPORT.md``.

The report is a pure function of its inputs — the committed full-scale
bench JSONs, the trajectory ledger, and the per-figure text tables under
``benchmarks/results/*.txt``. No clocks, no environment reads: the same
inputs always render byte-identical markdown, so CI can regenerate the
committed report and fail on drift, and the report's git history *is*
the perf history's change log.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.obsv.gates import (
    DEFAULT_GATES,
    HIGHER_IS_BETTER,
    Gate,
    GateResult,
    best_value,
)
from repro.obsv.ledger import Ledger
from repro.obsv.schema import SCALE_FULL

HEADER = (
    "# Benchmark perf report\n"
    "\n"
    "<!-- Generated by `python -m repro.obsv report`. Do not edit by "
    "hand. -->\n"
    "\n"
    "Rendered from the committed bench artifacts under "
    "`benchmarks/results/`: the\n"
    "full-scale `bench_*.json` payloads, the append-only trajectory "
    "ledger\n"
    "`ledger.jsonl` (one record per bench per commit), and the "
    "per-figure text\n"
    "tables. See `benchmarks/README.md` for the schema and the gate "
    "semantics.\n"
)


def fmt(value: Optional[float]) -> str:
    """Deterministic numeric cell formatting."""
    if value is None:
        return "—"
    return f"{value:.4g}"


def fmt_delta(delta: Optional[float]) -> str:
    if delta is None:
        return "—"
    return f"{delta:+.1%}"


def short_sha(sha: str) -> str:
    return sha[:12] if len(sha) > 12 else sha


def _markdown_table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join(" --- " for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _gate_section(results: Sequence[GateResult]) -> List[str]:
    lines = ["## Gate status", ""]
    if not results:
        lines.append("No gates configured.")
        lines.append("")
        return lines
    rows = []
    for outcome in results:
        gate = outcome.gate
        baseline = ("—" if outcome.baseline is None else
                    f"{fmt(outcome.baseline)} (n={outcome.history})")
        status = "PASS" if outcome.status == "pass" else outcome.status.upper()
        rows.append([
            f"`{gate.name}`",
            gate.direction,
            fmt(outcome.current),
            baseline,
            fmt_delta(outcome.delta),
            f"{gate.tolerance:.0%}",
            status,
        ])
    lines.extend(_markdown_table(
        ["gate", "direction", "current", "baseline (window median)",
         "delta", "tolerance", "status"],
        rows))
    failing = [o for o in results if not o.ok]
    lines.append("")
    if failing:
        lines.append(f"**{len(failing)} gate(s) failing:**")
        lines.append("")
        for outcome in failing:
            lines.append(f"- `{outcome.gate.name}`: {outcome.detail}")
    else:
        lines.append("All gates pass against the trailing ledger window.")
    lines.append("")
    return lines


def _bench_metrics(bench: str, ledger: Ledger,
                   gates: Sequence[Gate]) -> List[str]:
    """Trajectory columns for one bench: gated metrics, else a stable few."""
    gated = [g.metric for g in gates if g.bench == bench]
    if gated:
        return gated
    names: set = set()
    for record in ledger.for_bench(bench, scale=SCALE_FULL):
        names.update(record.metrics)
    return sorted(names)[:6]


def _trajectory_section(ledger: Ledger, gates: Sequence[Gate]) -> List[str]:
    lines = ["## Trajectories", ""]
    benches = ledger.benches()
    if not benches:
        lines.append("The ledger is empty — run `python -m repro.obsv record` "
                     "after a full-scale bench run.")
        lines.append("")
        return lines
    for bench in benches:
        metrics = _bench_metrics(bench, ledger, gates)
        lines.append(f"### {bench}")
        lines.append("")
        records = [r for r in ledger.records if r.bench == bench]
        rows = []
        for record in records:  # ledger (append) order == chronological
            rows.append([f"`{short_sha(record.sha)}`", record.timestamp,
                         record.scale]
                        + [fmt(record.metrics.get(m)) for m in metrics])
        lines.extend(_markdown_table(
            ["commit", "timestamp", "scale"] + [f"`{m}`" for m in metrics],
            rows))
        lines.append("")
        best_lines = _current_vs_best(bench, ledger, gates)
        if best_lines:
            lines.extend(best_lines)
            lines.append("")
    return lines


def _current_vs_best(bench: str, ledger: Ledger,
                     gates: Sequence[Gate]) -> List[str]:
    """Current-vs-best-ever deltas for the bench's gated metrics."""
    full = ledger.for_bench(bench, scale=SCALE_FULL)
    if not full:
        return []
    current = full[-1]
    lines = []
    for gate in (g for g in gates if g.bench == bench):
        values = {r.sha: r.metrics[gate.metric] for r in full
                  if gate.metric in r.metrics}
        if not values:
            continue
        best = best_value(list(values.values()), gate.direction)
        best_sha = next(sha for sha, v in values.items() if v == best)
        now = current.metrics.get(gate.metric)
        delta = None if now is None or not best else now / best - 1.0
        word = "max" if gate.direction == HIGHER_IS_BETTER else "min"
        lines.append(f"- `{gate.metric}`: current {fmt(now)} vs best "
                     f"({word}) {fmt(best)} at `{short_sha(best_sha)}` "
                     f"({fmt_delta(delta)})")
    return lines


def _figure_tables_section(tables: Mapping[str, str]) -> List[str]:
    lines = ["## Figure tables", ""]
    if not tables:
        lines.append("No per-figure text tables committed.")
        lines.append("")
        return lines
    for name in sorted(tables):
        lines.append(f"### {name}")
        lines.append("")
        lines.append("```text")
        lines.append(tables[name].rstrip("\n"))
        lines.append("```")
        lines.append("")
    return lines


def render_report(ledger: Ledger, gate_results: Sequence[GateResult],
                  figure_tables: Optional[Mapping[str, str]] = None,
                  gates: Sequence[Gate] = DEFAULT_GATES) -> str:
    """Render the full markdown report (ends with one trailing newline)."""
    lines: List[str] = [HEADER]
    lines.extend(_gate_section(list(gate_results)))
    lines.extend(_trajectory_section(ledger, gates))
    lines.extend(_figure_tables_section(dict(figure_tables or {})))
    text = "\n".join(lines)
    return text.rstrip("\n") + "\n"


def summarize_results(results: Mapping[str, Mapping[str, object]]) -> Dict[str, int]:
    """Tiny stats for CLI chatter (bench and metric counts)."""
    from repro.obsv.schema import flatten_metrics

    return {
        "benches": len(results),
        "metrics": sum(len(flatten_metrics(p)) for p in results.values()),
    }
