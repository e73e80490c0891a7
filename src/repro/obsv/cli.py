"""CLI driver for the observatory: ``python -m repro.obsv <command>``.

Commands (shared by CI and humans; run from the repo root):

``check``
    Validate every committed bench JSON against the schema, parse the
    ledger, and run the regression gates against the trailing window.
    Exit 1 on any schema problem or failing gate.
``record``
    Distill the current results (full-scale JSONs, plus any smoke-scale
    JSONs under ``results/smoke/``) into ledger records and append the
    new ones (dedup by bench/sha/scale). Idempotent.
``report``
    Render ``benchmarks/REPORT.md`` from the ledger + results. With
    ``--check``, don't write — verify the committed report is
    byte-identical to a fresh render and exit 1 on drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obsv.gates import DEFAULT_GATES, check_results
from repro.obsv.ledger import Ledger, LedgerError
from repro.obsv.report import render_report
from repro.obsv.schema import BenchRecord, validate_bench_json

DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
LEDGER_NAME = "ledger.jsonl"
REPORT_NAME = "REPORT.md"
SMOKE_DIR = "smoke"


def load_results(results_dir: Path,
                 smoke: bool = False) -> Tuple[Dict[str, dict], List[str]]:
    """Load ``bench_*.json`` payloads keyed by bench name, plus problems.

    A file that doesn't parse, fails schema validation, or disagrees
    with its own ``bench`` field is reported as a problem (torn/partial
    artifacts must not pass silently) and excluded from the results.
    """
    directory = results_dir / SMOKE_DIR if smoke else results_dir
    results: Dict[str, dict] = {}
    problems: List[str] = []
    if not directory.is_dir():
        return results, problems
    for path in sorted(directory.glob("bench_*.json")):
        source = str(path.relative_to(results_dir.parent))
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{source}: unreadable or torn JSON ({exc})")
            continue
        issues = validate_bench_json(payload, source=source)
        if issues:
            problems.extend(issues)
            continue
        bench = payload["bench"]
        if path.stem != f"bench_{bench}":
            problems.append(f"{source}: file name disagrees with bench "
                            f"name {bench!r}")
            continue
        if bench in results:
            problems.append(f"{source}: duplicate bench {bench!r}")
            continue
        results[bench] = payload
    return results, problems


def load_figure_tables(results_dir: Path) -> Dict[str, str]:
    """Committed per-figure text tables (``results/*.txt``) by stem."""
    if not results_dir.is_dir():
        return {}
    return {path.stem: path.read_text()
            for path in sorted(results_dir.glob("*.txt"))}


def _load_ledger(path: Path) -> Tuple[Optional[Ledger], List[str]]:
    try:
        return Ledger.load(path), []
    except LedgerError as exc:
        return None, [str(exc)]


def cmd_check(args: argparse.Namespace) -> int:
    results, problems = load_results(args.results)
    ledger, ledger_problems = _load_ledger(args.ledger)
    problems.extend(ledger_problems)
    for problem in problems:
        print(f"SCHEMA {problem}")
    if ledger is None:
        return 1
    outcomes = check_results(results, ledger, DEFAULT_GATES,
                             tolerance=args.tolerance, window=args.window)
    failed = [o for o in outcomes if not o.ok]
    for outcome in outcomes:
        print(f"{outcome.status.upper():10s} {outcome.gate.name}: "
              f"{outcome.detail}")
    if problems or failed:
        print(f"check: FAIL ({len(problems)} schema problem(s), "
              f"{len(failed)} failing gate(s))")
        return 1
    print(f"check: OK ({len(outcomes)} gate(s) over {len(results)} bench "
          f"result(s), ledger has {len(ledger)} record(s))")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    results, problems = load_results(args.results)
    smoke_results, smoke_problems = load_results(args.results, smoke=True)
    problems.extend(smoke_problems)
    ledger, ledger_problems = _load_ledger(args.ledger)
    problems.extend(ledger_problems)
    for problem in problems:
        print(f"SCHEMA {problem}")
    if problems or ledger is None:
        print("record: FAIL (fix schema problems before recording)")
        return 1
    appended = 0
    for payload in list(results.values()) + list(smoke_results.values()):
        record = BenchRecord.from_bench_json(payload)
        if ledger.append_to_file(args.ledger, record):
            appended += 1
            print(f"recorded {record.bench} @ {record.sha[:12]} "
                  f"[{record.scale}]")
    print(f"record: OK ({appended} new record(s), ledger has "
          f"{len(ledger)} total)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results, problems = load_results(args.results)
    ledger, ledger_problems = _load_ledger(args.ledger)
    problems.extend(ledger_problems)
    for problem in problems:
        print(f"SCHEMA {problem}")
    if problems or ledger is None:
        print("report: FAIL (fix schema problems before rendering)")
        return 1
    outcomes = check_results(results, ledger, DEFAULT_GATES,
                             tolerance=args.tolerance, window=args.window)
    text = render_report(ledger, outcomes,
                         figure_tables=load_figure_tables(args.results))
    output: Path = args.output
    if args.check:
        committed = output.read_text() if output.exists() else None
        if committed != text:
            print(f"report: STALE ({output} does not match a fresh render; "
                  f"run `python -m repro.obsv report` and commit)")
            return 1
        print(f"report: OK ({output} is up to date)")
        return 0
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(f"report: wrote {output} ({len(text.splitlines())} lines, "
          f"{len(ledger)} ledger record(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obsv",
        description="Benchmark observatory: perf ledger, regression gates, "
                    "and the committed perf report.")
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS_DIR,
                        help="bench results directory (default: "
                             "benchmarks/results)")
    parser.add_argument("--ledger", type=Path, default=None,
                        help="ledger path (default: <results>/ledger.jsonl)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate schemas + run gates")
    check.add_argument("--tolerance", type=float, default=None,
                       help="override every gate's relative tolerance")
    check.add_argument("--window", type=int, default=None,
                       help="override every gate's trailing-window length")
    check.set_defaults(fn=cmd_check)

    record = sub.add_parser("record",
                            help="append current results to the ledger")
    record.set_defaults(fn=cmd_record)

    report = sub.add_parser("report", help="render benchmarks/REPORT.md")
    report.add_argument("--output", type=Path, default=None,
                        help="report path (default: <results>/../REPORT.md)")
    report.add_argument("--check", action="store_true",
                        help="verify the committed report matches a fresh "
                             "render instead of writing")
    report.add_argument("--tolerance", type=float, default=None,
                        help="override every gate's relative tolerance")
    report.add_argument("--window", type=int, default=None,
                        help="override every gate's trailing-window length")
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.ledger is None:
        args.ledger = args.results / LEDGER_NAME
    if getattr(args, "output", None) is None and args.command == "report":
        args.output = args.results.parent / REPORT_NAME
    if not hasattr(args, "tolerance"):
        args.tolerance = None
    if not hasattr(args, "window"):
        args.window = None
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
