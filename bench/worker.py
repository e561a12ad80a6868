"""One benchmark process: set up one workload, then run it in one mode.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --seconds S

Modes:
  setup   set up only (imports, generation, warm-up, set-up analyses)
  timed   set up, then repeat whole passes over the operations until
          S seconds have gone (at least five), untraced; report every
          operation's time in five passes spread evenly over the run
  pass    set up, run exactly one pass untraced
  traced  set up, install the tracing wrappers, run exactly one pass;
          check that the spans' self times sum to the time taken
          outside the tracer around each operation and gate call

Every mode but ``setup`` checks the answers and runs the command-line
gate (``aliasgraph corpus``, and ``aliasgraph analyze`` on the list copy
and on a recursive ring).
The result is one JSON object on the last line of standard output;
each failed check is printed to standard error with the seed and the
operation's index.  ``run.py`` starts one of these per mode, so each
workload's memory and timings belong to a fresh process, and a process
that times operations untraced never loads the tracing wrappers.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from aliasgraph import cli  # noqa: E402

import workloads  # noqa: E402

OUT = BENCH / "out"
SAMPLED_PASSES = 5


def set_up(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    workload.prepare()
    ops = workload.ops()
    for i in workload.warmup_indices():
        ops[i].run()
    return workload, ops, time.perf_counter() - STARTED


class Outcomes:
    """Answers of every operation run, checked against the workload's
    oracles once per distinct operation and for repeatability across
    passes."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.first = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.problems = {}  # op index -> list of strings

    def record(self, i, out):
        self.runs[i] += 1
        if isinstance(out, Exception):
            self.problems.setdefault(i, []).append("raised %s: %s" % (type(out).__name__, out))
            return
        got = self.workload.digest(i, out)
        if self.runs[i] == 1:
            self.first[i] = got
        elif got != self.first[i]:
            self.problems.setdefault(i, []).append("answer changed between passes")

    def check(self):
        for i, got in enumerate(self.first):
            if self.runs[i] and got is not None:
                problems = self.workload.check(i, got)
                if problems:
                    self.problems.setdefault(i, []).extend(problems)
        failed = sum(self.runs[i] for i in self.problems)
        for i in sorted(self.problems):
            for p in self.problems[i]:
                print("FAIL %s seed=%d op=%d (%s): %s" % (self.workload.name, self.workload.seed, i,
                                                           self.ops[i].label, p), file=sys.stderr)
        return sum(self.runs), failed


def one_pass(ops, outcomes):
    """Closed loop, one caller: each operation starts when the last
    returns.  Returns every operation's time."""
    times = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        times.append(time.perf_counter() - t0)
        outcomes.record(i, out)
        del out
    return times


def timed_passes(ops, outcomes, seconds):
    """Whole passes until ``seconds`` have gone, at least
    ``SAMPLED_PASSES``.  Returns the times of ``SAMPLED_PASSES`` of them,
    the first, the last and the rest evenly between, and the number of
    passes run.  Every pass is checked; a fixed number is sampled so
    that how many passes fit, which grows with the code's speed, does
    not change the estimate made from them."""
    passes = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(passes) < SAMPLED_PASSES:
        passes.append(one_pass(ops, outcomes))
    last = len(passes) - 1
    return [passes[round(j * last / (SAMPLED_PASSES - 1))] for j in range(SAMPLED_PASSES)], len(passes)


def traced_pass(ops, outcomes, tracer):
    """One pass with a root span around each operation.  Returns the
    pass's time, summed over the operations and taken outside the
    tracer."""
    total = 0.0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        with tracer.span("bench.op", i):
            try:
                out = op.run()
            except Exception as exc:
                out = exc
        total += time.perf_counter() - t0
        outcomes.record(i, out)
        del out
    return total


def cli_gate(tracer=None, first_op=0):
    """``aliasgraph corpus`` over the hand-written expectations,
    ``aliasgraph analyze`` with every report switch on the list copy, and
    on a recursive ring.  Returns (problems, corpus seconds, corpus
    files failed, seconds of all three calls)."""
    problems = []
    calls_s = []

    def call(argv, op):
        buf = io.StringIO()
        span = tracer.span("cli.main", op) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        calls_s.append(time.perf_counter() - t0)
        return rc, buf.getvalue(), calls_s[-1]

    rc, text, corpus_s = call(["corpus", str(workloads.CORPUS)], first_op)
    m = re.search(r"(\d+) passed, (\d+) failed, (\d+) skipped\s*$", text)
    corpus_failed = int(m.group(2)) if m else -1
    if rc != 0 or not m or corpus_failed or int(m.group(3)):
        problems.append("aliasgraph corpus: exit %d, %s" % (rc, text.strip().splitlines()[-1:] or "no output"))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report, dot = Path(tmp) / "report.json", Path(tmp) / "report.dot"
        rc, text, _ = call(["analyze", str(workloads.CORPUS / "deutsch.oo"), "--deutsch", "--points",
                            "--query", "Y", "--json", str(report), "--dot", str(dot)], first_op + 1)
        with open(workloads.CORPUS / "deutsch.expected.json", encoding="utf-8") as fh:
            want = json.load(fh)
        got = json.loads(report.read_bytes()) if report.exists() else {}
        if rc != 0 or any("P%d: yes" % k not in text for k in range(1, 6)):
            problems.append("aliasgraph analyze --deutsch: exit %d, output %r" % (rc, text))
        if (got.get("points"), got.get("final")) != (want["points"], want["final"]):
            problems.append("aliasgraph analyze --json: report differs from deutsch.expected.json")
        if not (dot.exists() and dot.read_text().startswith("digraph")):
            problems.append("aliasgraph analyze --dot: no drawing")
        # a recursive ring, so every run's trace covers the recursion fixpoint
        ring, ring_report = Path(tmp) / "ring.oo", Path(tmp) / "ring.json"
        source = workloads.ring(0, 2, 2)
        ring.write_text(source, encoding="utf-8")
        rc, _, _ = call(["analyze", str(ring), "--entry", "C.run", "--json", str(ring_report)], first_op + 2)
        want = workloads.frozen_answers("fixpoints").get(workloads.source_key(source))
        got = workloads.final_pairs(ring_report.read_bytes()) if ring_report.exists() else None
        if rc != 0 or got is None or got != want:
            problems.append("aliasgraph analyze %s: exit %d, pairs %s, frozen %s" % (ring.name, rc, got, want))
    for p in problems:
        print("FAIL cli gate: %s" % p, file=sys.stderr)
    return problems, corpus_s, corpus_failed, sum(calls_s)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "pass", "traced"])
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    workload, ops, setup_s = set_up(args.workload, args.seed)
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    outcomes = Outcomes(workload, ops)
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        op_total = traced_pass(ops, outcomes, tracer)
        gate, corpus_s, corpus_failed, gate_s = cli_gate(tracer, first_op=len(ops))
        tracer.uninstall()
        layer, self_sum = tracing.layer_metrics(tracer)
        finals = workload.final_counts([g for g in outcomes.first if isinstance(g, workloads.Digest)])
        layer["diagram.final.roots"] = (finals["roots"], "count")
        layer["diagram.final.nodes"] = (finals["nodes"], "count")
        layer["diagram.final.edges"] = (finals["edges"], "count")
        layer["diagram.peak.roots"] = (max(finals["peak_roots"], tracer.max_a("calculus.replay")), "count")
        layer["cli.corpus.s"] = (corpus_s, "s")
        layer["cli.corpus.failed"] = (corpus_failed, "count")
        tracer.write(OUT / ("spans-%s.tsv.gz" % args.workload))
        wall = op_total + gate_s
        if abs(self_sum - wall) > tracing.SELF_TIME_TOLERANCE * wall:
            gate.append("self times sum to %.6f s, operations and gate calls took %.6f s" % (self_sum, wall))
            print("FAIL trace: %s" % gate[-1], file=sys.stderr)
        result.update(op_total_s=op_total, layer=layer, self_sum_s=self_sum, wall_s=wall)
    elif args.mode == "pass":
        result.update(op_total_s=sum(one_pass(ops, outcomes)))
        gate = cli_gate()[0]
    else:
        sampled, passes = timed_passes(ops, outcomes, args.seconds)
        result.update(op_times=sampled, passes=passes, peak_rss_mb=peak_rss_mb())
        gate = cli_gate()[0]

    attempted, failed = outcomes.check()
    result.update(attempted=attempted, failed=failed, correct=not failed and not gate, notes=workload.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
