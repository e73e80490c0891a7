"""Committed-artifact schema gate (runs in the CI bench-smoke job).

Torn, partial, or provenance-less results must not pass silently: every
committed ``benchmarks/results/bench_*.json`` has to parse, carry the
``repro-bench-v1`` schema with a complete provenance block, and agree
with its own file name; the committed ledger has to parse strictly; and
every gated bench must actually have a committed full-scale artifact
(deleting one is the quietest possible perf regression).
"""

from __future__ import annotations

from benchmarks._util import RESULTS_DIR
from repro.obsv import DEFAULT_GATES, Ledger
from repro.obsv.cli import LEDGER_NAME, load_results

GATED_BENCHES = sorted({gate.bench for gate in DEFAULT_GATES})


def test_committed_results_validate():
    results, problems = load_results(RESULTS_DIR)
    assert not problems, "\n".join(problems)
    missing = [bench for bench in GATED_BENCHES if bench not in results]
    assert not missing, (
        f"gated bench(es) {missing} have no committed results JSON under "
        f"{RESULTS_DIR}"
    )


def test_committed_results_are_full_scale():
    results, _ = load_results(RESULTS_DIR)
    wrong = {bench: payload["provenance"]["scale"]
             for bench, payload in results.items()
             if payload["provenance"]["scale"] != "full"}
    assert not wrong, (
        f"committed results must be full-scale (smoke runs belong under "
        f"results/smoke/): {wrong}"
    )


def test_committed_ledger_parses_and_covers_gated_benches():
    ledger = Ledger.load(RESULTS_DIR / LEDGER_NAME)  # strict: raises on torn
    assert len(ledger) > 0, "committed ledger is empty"
    missing = [bench for bench in GATED_BENCHES
               if not ledger.for_bench(bench)]
    assert not missing, (
        f"gated bench(es) {missing} have no full-scale ledger history"
    )
