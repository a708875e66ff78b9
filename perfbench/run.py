#!/usr/bin/env python3
"""Run one symcone benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forward-symr3 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, so nothing needs installing.  A run warms the workload up at a small
size, then repeats whole rounds of its operations until ``--seconds`` have
passed (at least one round), checks every output against computations made
apart from symcone, and prints one JSON object as the last line of stdout.
With ``--trace 0`` it reports the end-to-end metrics, ``wall_s`` being the
fastest round; with ``--trace 1`` it runs the rounds once untraced and once
under the tracer, and reports the per-layer metrics per round.  Files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _process_start() -> float | None:
    """CLOCK_BOOTTIME reading at which this process started, from /proc."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


PROCESS_START = _process_start() or time.clock_gettime(time.CLOCK_BOOTTIME)
# one BLAS/OpenMP thread, set before numpy loads: a second pool thread would
# contend with the interpreter on a 2-core machine (the command pins these too)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def run_round(workload) -> dict:
    """One round; an operation that raises is left out of the result."""
    results = {}
    try:
        for name, op in workload.round():
            try:
                results[name] = op()
            except Exception:
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc()
    except Exception:
        print("the round's inputs could not be built:", file=sys.stderr)
        traceback.print_exc()
    return results


def run_pass(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns (rounds, times)."""
    rounds, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(workload))
        times.append(time.perf_counter() - t0)
    return rounds, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symcone" / "__init__.py").is_file():
        print(f"symcone sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    # two workloads never run at once: a second run waits here
    with open(OUT_DIR / "run.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return _run(args)


def _run(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    workload = make(args.seed, OUT_DIR)
    run_round(make(args.seed, OUT_DIR, small=True))
    setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - PROCESS_START

    rounds, times = run_pass(workload, args.seconds)
    print("round times (s):", " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    # the host slows down for a share of the time that drifts over minutes;
    # the fastest of many short rounds is steadier than their mean
    wall_s = min(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import tracer

        with tracer.Tracer() as trace:
            traced_rounds, traced_times = run_pass(workload, args.seconds)
        trace.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        layer = trace.layer_metrics(len(traced_rounds))
        layer["trace.overhead_s"] = min(traced_times) - wall_s
        bytes_out = getattr(workload, "bytes_out", lambda results: 0)
        layer["cli.bytes_out"] = bytes_out(traced_rounds[0])
        rounds += traced_rounds
        values, declared = layer, "per_layer"
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        declared = "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[declared]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    attempted = len(workload.op_names) * len(rounds)
    failed = attempted - sum(len(r) for r in rounds)
    failures = workload.check(rounds)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
