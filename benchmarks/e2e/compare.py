"""Compare two result files of ``run.py --out`` under the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json     # A = parent, B = change

One row per pairing of end-to-end metric and workload: both medians with
their quartiles over the repeats, how much worse B is as a share of A,
and a verdict —

    worse        B's median is worse than A's by more than the bound
    unresolved   not worse, but the run-to-run spread (quartile distance
                 over median, the wider of the two files) exceeds the
                 bound, so "unchanged" cannot be claimed either
    ok           neither

``failed_share`` has no bound: it must not rise. Exit code 1 when any
row is ``worse``, 2 when the files cannot be compared (different seed,
timed-phase length, scale, cpu count or workload inputs), 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SAME_PROVENANCE = ("seed", "seconds", "smoke", "trace", "nproc")


def incomparable(a: dict, b: dict) -> list:
    """Reasons the two result files do not measure the same thing."""
    reasons = [f"{key}: {a['provenance'][key]!r} vs {b['provenance'][key]!r}"
               for key in SAME_PROVENANCE
               if a["provenance"][key] != b["provenance"][key]]
    if set(a["workloads"]) != set(b["workloads"]):
        reasons.append(f"workloads: {sorted(a['workloads'])} vs "
                       f"{sorted(b['workloads'])}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        digests = [doc["workloads"][name]["input_digest"] for doc in (a, b)]
        if digests[0] != digests[1]:
            reasons.append(f"{name}: input_digest {digests[0][:12]} vs "
                           f"{digests[1][:12]} (the workload's tables, model "
                           f"or queries changed)")
    return reasons


def spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def judge(metric: dict, a: dict, b: dict) -> tuple:
    """(share by which B is worse than A, spread, verdict)."""
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if metric["better"] == "lower" else -change
    width = max(spread(a), spread(b))
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif width > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return worse_by, width, verdict


def compare(a: dict, b: dict, contract: dict) -> list:
    rows = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            sa, sb = wa["summary"][metric["name"]], wb["summary"][metric["name"]]
            worse_by, width, verdict = judge(metric, sa, sb)
            rows.append((name, metric["name"], metric["unit"], sa, sb,
                         worse_by, width, metric["bound"], verdict))
        shares = [w["failed"] / w["attempted"] for w in (wa, wb)]
        flat = [{"median": s, "q1": s, "q3": s} for s in shares]
        rows.append((name, "failed_share", "share", flat[0], flat[1],
                     shares[1] - shares[0], 0.0, 0.0,
                     "worse" if shares[1] > shares[0] else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    reasons = incomparable(a, b)
    if reasons:
        print("cannot compare:", *reasons, sep="\n  ", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, contract)
    print(f"A = {argv[0]} ({a['provenance']['commit'][:12]}), "
          f"B = {argv[1]} ({b['provenance']['commit'][:12]}), "
          f"n = {a['provenance']['repeat']} / {b['provenance']['repeat']} repeats")
    print(f"{'workload':<12} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'unit':<5} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, metric, unit, sa, sb, worse_by, width, bound, verdict in rows:
        cells = [f"{s['median']:.3f} [{s['q1']:.3f}, {s['q3']:.3f}]"
                 for s in (sa, sb)]
        print(f"{name:<12} {metric:<14} {cells[0]:>34} {cells[1]:>34} "
              f"{unit:<5} {worse_by:>+9.1%} {width:>7.1%} {bound:>6.0%}  {verdict}")
    counts = {v: sum(1 for row in rows if row[-1] == v)
              for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
