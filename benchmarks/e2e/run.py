"""End-to-end benchmark of the prediction-query engine.

    python3 benchmarks/e2e/run.py --seed 0                  # all workloads
    python3 benchmarks/e2e/run.py --workload scan_tree --seed 3 --seconds 8 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --repeat 3 --out A.json
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --trace-out spans.json

Load shape: one fresh process per workload, one client thread, closed
loop (the next ``session.sql`` is sent when the previous returned — a
caller of ``sql()`` waits for its table), BLAS threads pinned to 1, a
default ``RavenSession()``. A run is set-up (generate from ``--seed``,
train, register, warm up) and a timed phase of ``--seconds``; outputs are
checked against the un-optimized interpreted oracle after the timed
phase, so neither the oracle's time nor its memory is in any metric.

Set-up is measured ``SETUP_REPEATS`` times per run, each in its own
process, and ``setup_s`` is the median: process start to the first timed
operation.

With ``--trace 1`` the timed phase records spans around the calls into
each layer (see ``trace.py``) and the per-layer metrics are printed; the
end-to-end metrics always come from an untraced run.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with several workloads
the metric keys are ``<workload>/<metric>`` and the values are medians
over ``--repeat``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()   # before the product is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set for every worker: nothing may depend on thread scheduling (the host
#: has two shared cores) or on this process's string-hash seed.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_REPEATS = 3
SMOKE_SECONDS = 0.2
#: A timed phase never ends before this many operations, however short.
MIN_OPERATIONS = 5
#: Share of a traced run's seconds spent untraced, as the base of
#: ``trace.overhead_share``.
UNTRACED_SHARE = 0.25
THROUGHPUT_BLOCKS = 10


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Worker: one workload in this process
# ---------------------------------------------------------------------------

def closed_loop(workload, seconds: float, operation, first_op: int = 0):
    """Issue operations back to back for ``seconds``; returns per-operation
    latencies (s), result row counts (-1 for one that raised) and the time
    each operation ended, counted from the start of the phase."""
    latencies, row_counts, ends = [], [], []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    op = first_op
    while True:
        query = workload.query(op)
        before = clock()
        try:
            rows = operation(query, op).num_rows
        except Exception as error:   # a failed operation is a result
            print(f"operation {op} failed: {error!r}", file=sys.stderr)
            rows = -1
        after = clock()
        latencies.append(after - before)
        row_counts.append(rows)
        ends.append(after - started)
        op += 1
        if after >= deadline and len(latencies) >= MIN_OPERATIONS:
            return latencies, row_counts, ends


def throughput(ends) -> float:
    """Operations per second: the median over ``THROUGHPUT_BLOCKS``
    consecutive blocks of operations. On this host single stalls of a
    second or more (other tenants) moved operations / wall seconds by up
    to 19% between runs of one commit; a stall confined to one block does
    not move the median, while pauses and tails that recur in every block
    (garbage collection, allocation) still do."""
    blocks = min(THROUGHPUT_BLOCKS, len(ends))
    edges = [len(ends) * i // blocks for i in range(blocks + 1)]
    rates = []
    for low, high in zip(edges, edges[1:]):
        began = ends[low - 1] if low else 0.0
        rates.append((high - low) / (ends[high - 1] - began))
    return statistics.median(rates)


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_worker(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import trace as tracing
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    name = args.workload[0]
    workload = workloads.build(name, args.seed, args.smoke)
    started = time.perf_counter()
    warmup_rounds = workloads.warm_up(workload)
    now = time.perf_counter()
    result = {
        "workload": name, "rows": workload.rows, "numpy": numpy.__version__,
        "setup_s": now - PROCESS_START,
        "setup": {"import_s": import_s, **workload.setup_seconds,
                  "warmup_s": now - started},
        "warmup_rounds": warmup_rounds,
    }
    if args.worker == "setup":
        return result

    session = workload.session
    cache_stats = session.plan_cache.stats
    reoptimizations = cache_stats.reoptimizations
    hits, misses = cache_stats.hits, cache_stats.misses

    def plain(query, _op):
        return session.sql(query)

    layers = {}
    if args.worker == "run":
        latencies, row_counts, ends = closed_loop(workload, args.seconds, plain)
        lookups = (cache_stats.hits - hits) + (cache_stats.misses - misses)
        result.update({
            "samples": len(latencies),
            "query_ms_p50": statistics.median(latencies) * 1e3,
            "query_ms_p90": percentile(latencies, 0.9) * 1e3,
            "queries_per_s": throughput(ends),
            "plan_cache_hit_rate": (cache_stats.hits - hits) / lookups,
        })
    else:
        untraced, row_counts, _ = closed_loop(
            workload, args.seconds * UNTRACED_SHARE, plain)
        spans = tracing.Spans()

        def traced(query, op):
            return tracing.trace_operation(spans, session, query, op)

        _, traced_rows, _ = closed_loop(
            workload, args.seconds * (1 - UNTRACED_SHARE), traced,
            first_op=len(untraced))
        row_counts += traced_rows
        layers = tracing.layer_metrics(spans, statistics.median(untraced) * 1e3)
        result["samples"] = len(traced_rows)
        if args.trace_out:
            spans.write(args.trace_out)
    layers["adaptive.reoptimizations"] = cache_stats.reoptimizations - reoptimizations
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    started = time.perf_counter()
    failed = workloads.verify(workload, row_counts)
    layers["verify.oracle_s"] = time.perf_counter() - started
    for stage, value in result["setup"].items():
        layers[f"setup.{stage}"] = value
    result.update({"attempted": len(row_counts), "failed": failed,
                   "layers": layers, "input_digest": workload.input_digest()})
    return result


# ---------------------------------------------------------------------------
# Orchestrator: processes, repeats, printing
# ---------------------------------------------------------------------------

def spawn_worker(args, name: str, mode: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--worker", mode,
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if mode == "trace" and args.trace_out:
        command += ["--trace-out", trace_path(args, name)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV})
    if done.returncode != 0:
        raise SystemExit(f"{name}: worker ({mode}) exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def trace_path(args, name: str) -> str:
    """One span file per workload when several are traced."""
    if len(args.workload) == 1:
        return args.trace_out
    path = Path(args.trace_out)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def run_once(args, name: str) -> dict:
    """One run of one workload: its set-up repeats and its timed phase."""
    extra_setups = 0 if (args.smoke or args.trace) else SETUP_REPEATS - 1
    setups = [spawn_worker(args, name, "setup")["setup_s"]
              for _ in range(extra_setups)]
    result = spawn_worker(args, name, "trace" if args.trace else "run")
    setups.append(result["setup_s"])
    result["setup_s_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def metric_values(contract: dict, result: dict, trace: bool) -> dict:
    """The contract's metrics of one run, by name."""
    if trace:
        return {m["name"]: result["layers"][m["name"]]
                for m in contract["per_layer"]}
    return {m["name"]: result[m["name"]] for m in contract["end_to_end"]}


def print_run(contract: dict, result: dict, trace: bool, label: str) -> None:
    name = result["workload"]
    units = {m["name"]: m["unit"]
             for m in contract["per_layer" if trace else "end_to_end"]}
    values = metric_values(contract, result, trace)
    if not trace:
        failed_share = result["failed"] / result["attempted"]
        values.update({
            "query_ms_p90": result["query_ms_p90"],
            "rows_per_s": result["queries_per_s"] * result["rows"],
            "failed_share": failed_share,
            "plan_cache_hit_rate": result["plan_cache_hit_rate"],
        })
        units.update({"query_ms_p90": "ms", "rows_per_s": "1/s",
                      "failed_share": "share", "plan_cache_hit_rate": "share"})
    print(f"# {name} {label}: {result['rows']} rows, "
          f"{result['samples']} timed operations, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for metric, value in values.items():
        print(f"{name:<12} {metric:<30} {value:>14.4f} {units[metric]}")


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def provenance(args, load_start: float, numpy_version: str) -> dict:
    def git(*arguments) -> str:
        try:
            return subprocess.run(["git", "-C", str(ROOT), *arguments],
                                  text=True, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL).stdout.strip()
        except OSError:
            return ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(git("status", "--porcelain")),
        "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": bool(args.trace), "repeat": args.repeat,
        "setup_repeats": SETUP_REPEATS, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "worker_env": WORKER_ENV,
    }


def orchestrate(args) -> int:
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; choose from {known}")
    args.workload = names
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    load_start = os.getloadavg()[0]

    runs = {name: [] for name in names}
    for repeat in range(1, args.repeat + 1):
        for name in names:   # interleaved: A B C D E A B C ...
            result = run_once(args, name)
            runs[name].append(result)
            print_run(contract, result, args.trace,
                      f"seed {args.seed} repeat {repeat}/{args.repeat}")

    workloads_out, metrics = {}, {}
    section = contract["per_layer" if args.trace else "end_to_end"]
    for name in names:
        per_run = [metric_values(contract, r, args.trace) for r in runs[name]]
        summary = {m["name"]: {**summarize([v[m["name"]] for v in per_run]),
                               "unit": m["unit"]} for m in section}
        workloads_out[name] = {
            "rows": runs[name][0]["rows"],
            "input_digest": runs[name][0]["input_digest"],
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "summary": summary, "runs": runs[name],
        }
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, stats in summary.items():
            metrics[prefix + metric] = {"value": stats["median"],
                                        "unit": stats["unit"]}
    if args.repeat > 1:
        print(f"# medians [q1, q3] over {args.repeat} repeats")
        for name in names:
            for metric, s in workloads_out[name]["summary"].items():
                print(f"{name:<12} {metric:<30} {s['median']:>14.4f} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}] {s['unit']}")
    if args.out:
        document = {
            "schema": "e2e-bench-v1",
            "provenance": provenance(args, load_start,
                                     runs[names[0]][0]["numpy"]),
            "workloads": workloads_out,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    attempted = sum(w["attempted"] for w in workloads_out.values())
    failed = sum(w["failed"] for w in workloads_out.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: record spans and print per-layer metrics")
    parser.add_argument("--trace-out", help="write the spans here as JSON")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times, interleaved")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the rows, 1/50 of the seconds, one set-up")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--worker", choices=("setup", "run", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(run_worker(args)))
        return 0
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
