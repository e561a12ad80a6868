"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {worlds,fixpoints,queries} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics: set-up time (the
median of nine fresh processes), operations per second, the median
and tail operation time, and peak memory.  With ``--trace 1`` it prints
the per-layer metrics of one traced pass, and the tracing overhead
against the same pass run untraced in another process.

A table goes to standard error; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each worker is a fresh ``worker.py`` process; see ``README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("worlds", "fixpoints", "queries")
SETUP_PROCESSES = 9
WORKER_TIMEOUT_S = 150
NEEDED = ("src/aliasgraph/__init__.py", "tests/oracles.py", "tests/corpus/deutsch.oo")


def worker(args, mode):
    """Run one fresh worker process and return its result.  String
    hashing is pinned: how often ``_privatize`` rescans the edge set
    depends on set iteration order, and counts must repeat exactly."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("worker %s exited with %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def tail(times):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, 1)  # 1-based; ten samples lie above this one
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(args):
    """On a shared machine the CPU's speed can drift by a fifth and
    more within seconds.  So each operation's time is its fastest
    repetition in the five passes the worker sampled across the run.
    The median and the tail are taken over those times, and the
    throughput is derived from them: operations over their summed
    times."""
    timed = worker(args, "timed")
    setups = [timed["setup_s"]] + [worker(args, "setup")["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
    per_op = [min(ts) for ts in zip(*timed["op_times"])]
    tail_s, tail_pct, n = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(per_op), "1/s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    ratio = timed["failed"] / timed["attempted"]
    shown = dict(metrics, failed_ratio=(ratio, "ratio"))
    notes = ["op_s.tail is p%.1f of %d operations, each the fastest of %d of %d passes"
             % (tail_pct, n, len(timed["op_times"]), timed["passes"])]
    return timed, metrics, shown, notes + timed["notes"]


def per_layer(args):
    plain = worker(args, "pass")
    traced = worker(args, "traced")
    metrics = {name: tuple(v) for name, v in traced["layer"].items()}
    metrics["trace.overhead_ratio"] = (traced["op_total_s"] / plain["op_total_s"], "ratio")
    outcome = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "correct": plain["correct"] and traced["correct"],
    }
    notes = ["self times sum to %.6f s; operations and gate calls took %.6f s, timed outside the tracer"
             % (traced["self_sum_s"], traced["wall_s"])] + traced["notes"]
    return outcome, metrics, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="aliasgraph benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if missing:
        print("cannot benchmark: %s not found under %s" % (", ".join(missing), ROOT), file=sys.stderr)
        return 2

    outcome, metrics, shown, notes = (per_layer if args.trace else end_to_end)(args)
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace), file=sys.stderr)
    for name in sorted(shown):
        value, unit = shown[name]
        print("  %-32s %14.6g %s" % (name, value, unit), file=sys.stderr)
    for note in notes:
        print("  note: %s" % note, file=sys.stderr)
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
