"""Seeded program generators and the three benchmark workloads.

Only generated source text reaches the analyzer.  Loop-free and loop
programs are built as ``tests/oracles.py`` instruction blocks and
rendered by its renderer, so its concrete interpreter can check them.

A workload is a fixed pool of operations made from the seed.  One pass
runs every operation once, in order; the timed phase repeats whole
passes, so every run of a seed does the same mix of work.  Pool sizes
are chosen so that a pass holds enough programs for its cost to vary
little from seed to seed (see ``README.md``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracles
from aliasgraph import calculus, lang, query
from aliasgraph.diagram import Label, format_name_path, parse_name_path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CORPUS = ROOT / "tests" / "corpus"
FROZEN = BENCH / "frozen"
DEFAULT_SEED = 1
LADDER_LOCALS = 8
LOOP_LOCALS, LOOP_SIZE, LOOP_CHOICES = 4, 8, 2

DEUTSCH_PROPERTIES = {"k": 3, "P1": True, "P2": True, "P3": True, "P4": True, "P5": True, "no_share_root": True}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def ladder(seed, k, spread_fields=False):
    """ladder(k) as an oracle block: ``LADDER_LOCALS`` created locals,
    then ``k`` choices ``then vi.n := vj else vl := vi.n end`` with
    seeded indices.  Every choice doubles the worlds, so the result has
    2^k roots.  With ``spread_fields`` the i's run through a seeded
    permutation, so the program mentions min(k, 8) fields whatever the
    seed."""
    nv = LADDER_LOCALS
    rng = random.Random(seed)
    order = rng.sample(range(nv), nv)
    block = [("create", i) for i in range(nv)]
    for c in range(k):
        i, j, l = rng.randrange(nv), rng.randrange(nv), rng.randrange(nv)
        if spread_fields:
            i = order[c % nv]
        block.append(("choice", [("write", i, j)], [("read", l, i)]))
    return nv, block


def ladder_source(nv, block, labels=None):
    """Render a ladder; ``labels`` maps a top-level choice's ordinal to
    the program-point label it carries."""
    text = oracles.render(nv, block)
    if not labels:
        return text
    out, seen = [], 0
    for line in text.splitlines():
        if line == "  then":
            if seen in labels:
                line = "  %s: then" % labels[seen]
            seen += 1
        out.append(line)
    return "\n".join(out) + "\n"


def ring(seed, n, cycle):
    """ring(n): functions f0..f{n-1} of class C, each choosing between a
    base case and a call to the next one on ``a.n``.  ``C.run`` builds a
    cycle of ``cycle`` objects and calls f0 on it.  Two bits of the seed
    per function pick which branch comes first and whether the base case
    returns ``a`` or ``a.n``, so seeds 0 .. 4^n - 1 give every variant.
    Labels L0 (cycle built) and L1 (after the call) mark program points."""
    lines = ["class C feature", "  n: C"]
    for i in range(n):
        bits = (seed >> (2 * i)) & 3
        base = "Result := a.n" if bits & 1 else "Result := a"
        rec = "Result := f%d (a.n)" % ((i + 1) % n)
        first, second = (rec, base) if bits & 2 else (base, rec)
        lines.append("  f%d (a: C): C do then %s else %s end end" % (i, first, second))
    xs = ["x%d" % i for i in range(cycle)]
    body = ["create %s" % x for x in xs]
    body += ["%s.n := %s" % (xs[i], xs[(i + 1) % cycle]) for i in range(cycle)]
    body[-1] = "L0: " + body[-1]
    body.append("L1: y := f0 (x0)")
    lines.append("  run local %s y: C do %s end" % (" ".join(x + ": C" for x in xs), " ".join(body)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _simple(rng, nv):
    kind = rng.choice(["create", "assign", "read", "read", "write", "write"])
    i, j = rng.randrange(nv), rng.randrange(nv)
    return ("create", i) if kind == "create" else (kind, i, j)


def loop_program(seed):
    """A loop with choices that creates objects, as oracle blocks:
    (nv, prefix, body).  The prefix creates ``LOOP_LOCALS`` locals and
    links two of them; the body has ``LOOP_SIZE`` instructions, one a
    creation and ``LOOP_CHOICES`` of them two-way choices over simple
    instructions.  ``oracles.render_loop`` labels the loop entry P."""
    nv = LOOP_LOCALS
    rng = random.Random(seed)
    prefix = [("create", i) for i in range(nv)]
    prefix += [("write", rng.randrange(nv), rng.randrange(nv)) for _ in range(2)]
    body = [_simple(rng, nv) for _ in range(LOOP_SIZE - LOOP_CHOICES - 1)]
    body.append(("create", rng.randrange(nv)))
    body += [("choice", [_simple(rng, nv)], [_simple(rng, nv)]) for _ in range(LOOP_CHOICES)]
    rng.shuffle(body)
    return nv, prefix, body


def deutsch_source():
    return (CORPUS / "deutsch.oo").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# programs and operations
# ---------------------------------------------------------------------------


@dataclass
class Program:
    index: int
    name: str
    source: str
    entry: str = "main"
    block: Optional[tuple] = None  # (nv, block) for the concrete oracle


def program_seed(seed, index):
    """Each program draws from its own generator, so pools of different
    sizes agree on the programs they share."""
    return seed * 100003 + index


def analyze_op(program, record_points=False):
    """parse -> resolve -> analyze -> report -> JSON, as ``aliasgraph
    analyze --json`` runs it with default settings.  Returns the
    diagnostics, the engine (None after a static error) and the bytes."""
    parsed = lang.parse_program(program.source, program.name)
    static = lang.resolve(parsed)
    if any(d.severity == "error" for d in static):
        return static, None, b""
    engine = calculus.Engine(parsed, calculus.AnalysisConfig(record_points=record_points))
    engine.analyze(program.entry)
    blob = query.emit_json(query.build_report(engine))
    return static + engine.diagnostics, engine, blob


@dataclass
class Digest:
    """What the checks and counters need from one analysis operation."""

    errors: List[str]
    blob: bytes
    roots: int
    nodes: int
    edges: int


def digest_analysis(out):
    diags, engine, blob = out
    errors = [d.render() for d in diags if d.severity == "error"]
    if engine is None:
        return Digest(errors or ["did not analyze"], blob, 0, 0, 0)
    d = engine.diagram
    return Digest(errors, blob, len(d.roots), len(d.nodes), sum(1 for _ in d.edges()))


def final_pairs(blob):
    return {tuple(p) for p in json.loads(blob)["final"]["pairs"]}


@dataclass
class Op:
    label: str  # printed with a failure
    run: Callable[[], object]


class Workload:
    """A pool of operations made from a seed, plus their checks."""

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.notes: List[str] = []

    def prepare(self):
        """Set-up work beyond generation (analyses a workload queries)."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def digest(self, i, out):
        return out

    def check(self, i, got) -> List[str]:
        """Problems with operation ``i``'s digested output."""
        raise NotImplementedError

    def warmup_indices(self) -> List[int]:
        raise NotImplementedError

    def final_counts(self, digests) -> Dict[str, int]:
        """diagram.final.{roots,nodes,edges} and the largest root count
        over the analyzed programs."""
        return {
            "roots": sum(g.roots for g in digests),
            "nodes": sum(g.nodes for g in digests),
            "edges": sum(g.edges for g in digests),
            "peak_roots": max((g.roots for g in digests), default=0),
        }


def source_key(source):
    # imported here, after the timed phase: hashlib loads OpenSSL, about
    # 4 MB that would otherwise count in the timed worker's peak_rss_mb
    import hashlib

    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def frozen_answers(name):
    """The frozen final pairs of the default seed's ``name`` pool, keyed
    by the sha256 of each program's text.  A program of any seed whose
    text equals a frozen one (every ring and the list copy) is checked
    against them."""
    path = FROZEN / ("%s-seed%d.json" % (name, DEFAULT_SEED))
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["programs"]
    return {e["sha256"]: {tuple(p) for p in e["pairs"]} for e in entries}


class AnalysisWorkload(Workload):
    """Operations that each take one program from text to JSON bytes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.programs = self.generate()

    @cached_property
    def frozen(self):
        """Each program's frozen pairs, or None; looked up at the first
        check."""
        answers = frozen_answers(self.name)
        frozen = [answers.get(source_key(p.source)) for p in self.programs]
        unfrozen = frozen.count(None)
        if unfrozen:
            self.notes.append("%d of %d programs have no frozen pairs for seed %d: %s"
                              % (unfrozen, len(self.programs), self.seed, self.UNFROZEN))
        return frozen

    def generate(self) -> List[Program]:
        raise NotImplementedError

    def ops(self):
        return [Op(p.name, (lambda p=p: analyze_op(p))) for p in self.programs]

    def digest(self, i, out):
        return digest_analysis(out)

    def check(self, i, got):
        problems = list(got.errors)
        if not got.blob:
            return problems or ["no report"]
        pairs = final_pairs(got.blob)
        if self.frozen[i] is not None and pairs != self.frozen[i]:
            problems.append("pairs differ from the frozen answer: missing %s, extra %s"
                            % (sorted(self.frozen[i] - pairs), sorted(pairs - self.frozen[i])))
        return problems + self.check_pairs(i, pairs)

    def check_pairs(self, i, pairs):
        return []


class Worlds(AnalysisWorkload):
    """Loop-free, call-free ladders: worlds multiply, nothing iterates."""

    name = "worlds"
    UNFROZEN = "their answers were checked against concrete execution and for error diagnostics only"
    # ladder(k) programs per pass, for each k.  The median operation is
    # a ladder(6) and ladder(7) takes about 60% of a pass.  Each program
    # varies about 20% in cost with its seed, so a pass holds enough of
    # them for its total to vary little between seeds.
    MIX = ((4, 24), (5, 24), (6, 48), (7, 28))

    def generate(self):
        programs = []
        for k, count in self.MIX:
            for _ in range(count):
                i = len(programs)
                nv, block = ladder(program_seed(self.seed, i), k)
                programs.append(Program(i, "ladder%d-%d.oo" % (k, i), ladder_source(nv, block), block=(nv, block)))
        return programs

    def warmup_indices(self):
        return [0, self.MIX[0][1]]

    def check_pairs(self, i, pairs):
        # the report speaks about the paths the program mentions
        program = self.programs[i]
        universe = {format_name_path(p) for p in lang.build_expr_universe(lang.parse_program(program.source))}
        nv, block = program.block
        concrete = {(p, q) for p, q in oracles.concrete_alias_pairs(nv, block) if p in universe and q in universe}
        missing = concrete - pairs
        return ["unsound: concrete pairs not predicted %s" % sorted(missing)] if missing else []


class Fixpoints(AnalysisWorkload):
    """Rings of recursive calls, loops with choices that create objects,
    and the list copy: calls, contexts and both fixpoint loops."""

    name = "fixpoints"
    UNFROZEN = "only their diagnostics were checked"
    # Every variant of each ring size, so the rings cost the same for
    # every seed.  ring(2) on a 2-cycle runs twice per pass: its slower
    # variants are then the top twenty operations, and the tail (the
    # eleventh slowest) falls inside that group.  The median falls among
    # ring(2) on one object and the faster ring(2) on two, about thirty
    # operations of 20-30 ms, because there are about as many faster
    # operations (the loops, small rings and the list copy) as slower
    # ones.  The seed draws the loop programs, whose costs are
    # heavy-tailed.
    RINGS = ((1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 2, 2))  # (functions, cycle length, copies)
    LOOPS = 16

    def generate(self):
        programs = []
        for n, cycle, copies in self.RINGS:
            for copy in range(copies):
                for variant in range(4 ** n):
                    i = len(programs)
                    src = ring(variant, n, cycle)
                    programs.append(Program(i, "ring%d-c%d-v%d-%d.oo" % (n, cycle, variant, copy), src, entry="C.run"))
        self.first_loop = len(programs)
        for _ in range(self.LOOPS):
            i = len(programs)
            nv, prefix, body = loop_program(program_seed(self.seed, i))
            programs.append(Program(i, "loop-%d.oo" % i, oracles.render_loop(nv, prefix, body)))
        programs.append(Program(len(programs), "deutsch.oo", deutsch_source()))
        return programs

    def warmup_indices(self):
        return [0, self.first_loop]

    def check_pairs(self, i, pairs):
        if self.programs[i].name != "deutsch.oo":
            return []
        with open(CORPUS / "deutsch.expected.json", encoding="utf-8") as fh:
            want = {tuple(p) for p in json.load(fh)["final"]["pairs"]}
        return [] if pairs == want else ["list copy: pairs %s, expected %s" % (sorted(pairs), sorted(want))]


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


class PathWalk:
    """Alias answers for one diagram state, by walking each root
    separately over the raw edge list.  Shares nothing with
    ``value_set``; the answers for a query must equal ``query_alias``'s."""

    def __init__(self, diagram, scope, universe):
        self.roots = sorted(diagram.roots)
        self.scope = scope
        self.by_label = {lbl: name for name, lbl in scope.items()}
        self.succ, self.labels_at = {}, {}
        for lbl, s, t in diagram.edges():
            self.succ.setdefault((s, lbl), set()).add(t)
            self.labels_at.setdefault(s, set()).add(lbl)
        self.universe = {format_name_path(p) for p in universe}
        self._values = {}
        self._candidates = {}

    def value(self, root, text):
        key = (root, text)
        if key not in self._values:
            names = parse_name_path(text)
            path = (self.scope.get(names[0], Label(names[0])),) + tuple(Label(n) for n in names[1:]) if names else ()
            nodes = {root}
            for lbl in path:
                nodes = {t for n in nodes for t in self.succ.get((n, lbl), ())}
            self._values[key] = nodes
        return self._values[key]

    def _paths_from(self, root, depth):
        """Name paths up to ``depth`` with a value from ``root``: internal
        back-pointers never, scoped names only first and only in scope."""
        found = set()
        stack = [((), {root})]
        while stack:
            trail, nodes = stack.pop()
            if len(trail) >= depth:
                continue
            for lbl in {l for n in nodes for l in self.labels_at.get(n, ())}:
                if lbl.prime or (lbl.tag and (trail or lbl not in self.by_label)):
                    continue
                new = trail + (self.by_label.get(lbl, lbl.name),)
                found.add(format_name_path(new))
                stack.append((new, {t for n in nodes for t in self.succ.get((n, lbl), ())}))
        return found

    def candidates(self, depth):
        if depth not in self._candidates:
            texts = set(self.universe)
            if depth is not None:
                for r in self.roots:
                    texts |= self._paths_from(r, depth)
            self._candidates[depth] = texts
        return self._candidates[depth]

    def answer(self, qtext, depth):
        q = format_name_path(parse_name_path(qtext))
        texts = self.candidates(depth) - {q}
        out = set()
        for r in self.roots:
            mine = self.value(r, q)
            if mine:
                out |= {t for t in texts - out if mine & self.value(r, t)}
        return out


class Queries(Workload):
    """Read-only questions against engines analyzed in set-up: alias
    queries at every point, with and without a depth bound, and the
    list-copy property report."""

    name = "queries"
    # ladder(6) engines carry most queries: 64 roots each, and enough
    # programs that the pass costs about the same for every seed.
    LADDERS = (6,) * 24
    RINGS = ((2, 2),)
    LOOPS = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.programs = []
        for k in self.LADDERS:
            i = len(self.programs)
            nv, block = ladder(program_seed(seed, i), k, spread_fields=True)
            labels = {k // 2: "A", k - 1: "B"}
            self.programs.append(Program(i, "ladder%d-%d.oo" % (k, i), ladder_source(nv, block, labels)))
        for n, cycle in self.RINGS:
            i = len(self.programs)
            self.programs.append(Program(i, "ring%d-c%d-%d.oo" % (n, cycle, i),
                                         ring(random.Random(program_seed(seed, i)).randrange(4 ** n), n, cycle),
                                         entry="C.run"))
        for _ in range(self.LOOPS):
            i = len(self.programs)
            nv, prefix, body = loop_program(program_seed(seed, i))
            self.programs.append(Program(i, "loop-%d.oo" % i, oracles.render_loop(nv, prefix, body)))
        self.programs.append(Program(len(self.programs), "deutsch.oo", deutsch_source()))
        self.engines = []
        self.queries: List[Tuple[int, str, Optional[str], Optional[int]]] = []
        self._walks = {}

    def prepare(self):
        for p in self.programs:
            diags, engine, _ = analyze_op(p, record_points=True)
            errors = [d.render() for d in diags if d.severity == "error"]
            if engine is None or errors:
                raise RuntimeError("%s does not analyze: %s" % (p.name, errors))
            self.engines.append(engine)
        self.queries = []
        for e, engine in enumerate(self.engines):
            paths = [format_name_path(np) for np in engine.universe]
            for at in list(engine.snapshot_order) + [None]:
                for text in paths:
                    for depth in (None, len(parse_name_path(text)) + 1):
                        self.queries.append((e, text, at, depth))

    def ops(self):
        out = []
        for e, text, at, depth in self.queries:
            engine = self.engines[e]
            out.append(Op("%s alias(%s) at %s depth %s" % (self.programs[e].name, text, at or "exit", depth),
                          (lambda engine=engine, text=text, at=at, depth=depth:
                           query.query_alias(engine, query.AliasQuery(text, at=at, depth=depth)))))
        deutsch = self.engines[-1]
        out.append(Op("deutsch.oo deutsch_report", lambda: query.deutsch_report(deutsch, k=3)))
        return out

    def warmup_indices(self):
        return [0, len(self.queries)]

    def check(self, i, got):
        if i == len(self.queries):
            return [] if got == DEUTSCH_PROPERTIES else ["list-copy properties %r" % (got,)]
        e, text, at, depth = self.queries[i]
        if (e, at) not in self._walks:
            engine = self.engines[e]
            diagram, scope = (engine.diagram, engine.report_scope()) if at is None else engine.snapshots[at]
            self._walks[(e, at)] = PathWalk(diagram, scope, engine.universe)
        want = self._walks[(e, at)].answer(text, depth)
        if got != want:
            return ["answer differs from the path walk: missing %s, extra %s"
                    % (sorted(want - got), sorted(got - want))]
        return []

    def final_counts(self, digests):
        d = [e.diagram for e in self.engines]
        return {
            "roots": sum(len(x.roots) for x in d),
            "nodes": sum(len(x.nodes) for x in d),
            "edges": sum(sum(1 for _ in x.edges()) for x in d),
            "peak_roots": max(len(x.roots) for x in d),
        }


WORKLOADS = {w.name: w for w in (Worlds, Fixpoints, Queries)}
