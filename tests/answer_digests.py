"""Print two sha256 digests per program: the same-answers check for refactors.

    python3 tests/answer_digests.py [SET ...]

The sets are ``corpus`` (``tests/corpus/``), ``scaled``
(``tests/scaled/``), ``calls`` (the 200 programs of
``tests/calls/frozen.json``), and ``worlds`` and ``fixpoints`` (every
program of those benchmark workloads at seeds 1 and 7); with no
argument, all five, 619 programs.  The ``sweep`` set, which runs only
when named, is ``oracles.gen_call_program`` seeds 0-999, each under a
limit of one second of CPU time.  Each line is ``ANSWERS SHAPE NAME``;
a program that hits its limit prints ``timeout timeout NAME``.
The answers digest covers the program's static diagnostics and its JSON
report with and without point snapshots.  The shape digest covers the
DOT drawing of the final diagram and the final root, node, edge and
activation counts: how the diagram holds those answers, which a change
may alter while keeping every answer.

A change that claims to keep every answer runs this at its parent and
at itself, under two values of ``PYTHONHASHSEED``, and compares the
output: the answers digests must match, and every shape digest that
differs wants a reason.  Program names are relative to the repository
root, so two checkouts print the same lines.  Pytest does not collect
this file; ``tests/test_scaled.py`` runs it on the corpus.
"""

import hashlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from aliasgraph.calculus import AnalysisConfig, Engine  # noqa: E402
from aliasgraph.lang import parse_program, resolve  # noqa: E402
from aliasgraph.query import build_report, emit_dot, emit_json, state_at  # noqa: E402

BENCH_SEEDS = (1, 7)
SWEEP_SEEDS = range(1000)


def corpus():
    for oo in sorted((ROOT / "tests" / "corpus").glob("*.oo")):
        want = json.loads(oo.with_name(oo.stem + ".expected.json").read_text(encoding="utf-8"))
        yield oo.relative_to(ROOT).as_posix(), oo.read_text(encoding="utf-8"), want.get("entry", "main")


def scaled():
    folder = ROOT / "tests" / "scaled"
    for entry in json.loads((folder / "frozen.json").read_text(encoding="utf-8"))["programs"]:
        oo = folder / entry["file"]
        yield oo.relative_to(ROOT).as_posix(), oo.read_text(encoding="utf-8"), entry["entry"]


def calls():
    from oracles import gen_call_program

    frozen = json.loads((ROOT / "tests" / "calls" / "frozen.json").read_text(encoding="utf-8"))
    for entry in frozen["programs"].values():
        yield "tests/calls/seed%d.oo" % entry["seed"], gen_call_program(entry["seed"]), frozen["entry"]


def sweep():
    from oracles import gen_call_program

    for seed in SWEEP_SEEDS:
        yield "sweep/seed%d" % seed, gen_call_program(seed), "C.run"


def _bench(name):
    import workloads

    workload = {"worlds": workloads.Worlds, "fixpoints": workloads.Fixpoints}[name]
    for seed in BENCH_SEEDS:
        for p in workload(seed).programs:
            yield "bench/%s/seed%d/%s" % (name, seed, p.name), p.source, p.entry


SETS = {
    "corpus": corpus,
    "scaled": scaled,
    "calls": calls,
    "worlds": lambda: _bench("worlds"),
    "fixpoints": lambda: _bench("fixpoints"),
    "sweep": sweep,
}
DEFAULT_SETS = ("corpus", "scaled", "calls", "worlds", "fixpoints")
# seconds of CPU time one program of the set may take; other sets have no limit
CPU_LIMITS = {"sweep": 1.0}


def answer_digests(name, text, entry):
    """The sha256 of everything the analysis answers for one program,
    and the sha256 of the final diagram's shape."""
    answers, shape = hashlib.sha256(), hashlib.sha256()
    program = parse_program(text, name)
    static = resolve(program)
    answers.update("".join(d.render() + "\n" for d in static).encode("utf-8"))
    if any(d.severity == "error" for d in static):
        return answers.hexdigest(), shape.hexdigest()
    for points in (True, False):
        engine = Engine(program, AnalysisConfig(record_points=points))
        engine.analyze(entry)
        answers.update(emit_json(build_report(engine)))
    shape.update(emit_dot(*state_at(engine, None)))
    d = engine.diagram
    counts = (len(d.roots), len(d.nodes), sum(1 for _ in d.edges()), engine._next_act)
    shape.update(("roots %d nodes %d edges %d activations %d\n" % counts).encode("utf-8"))
    return answers.hexdigest(), shape.hexdigest()


class _Timeout(BaseException):
    """Raised out of the analysis when its CPU time runs out; not an
    ``Exception``, so no handler on the way catches it."""


def _raise_timeout(signum, frame):
    raise _Timeout


def within_cpu(seconds, fn, *args):
    """``fn(*args)``, or None once it has used ``seconds`` of CPU time."""
    handler = signal.signal(signal.SIGVTALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        return fn(*args)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, handler)


def main(argv):
    unknown = [s for s in argv if s not in SETS]
    if unknown:
        print("unknown set %s; choose from %s" % (", ".join(unknown), ", ".join(SETS)), file=sys.stderr)
        return 2
    for set_name in argv or DEFAULT_SETS:
        limit = CPU_LIMITS.get(set_name)
        for name, text, entry in SETS[set_name]():
            digests = within_cpu(limit, answer_digests, name, text, entry) if limit else answer_digests(name, text, entry)
            print(*(digests or ("timeout", "timeout")), name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
