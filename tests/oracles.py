"""Independent answer generators for the acceptance suite.

Seeded random program generators (one loop-free and call-free, one
with calls and recursion), a concrete interpreter that forks at
every choice and runs a real heap, an explicit union-over-iterations
evaluator for loops working on raw edge triples, and an engine whose
choices copy the whole diagram per branch instead of replaying deltas.
Each exists so the engine's answers can be compared against something
computed a different way.  The diagram helpers at the end (cloning,
union, canonical forms for shape comparison, per-root alias answers)
use only the diagram's public operations plus its id counter.
"""

import itertools
import random

from aliasgraph.calculus import Engine
from aliasgraph.diagram import AliasDiagram, Label, format_name_path
from aliasgraph.query import resolve_path

# Structured instruction forms, shared by the generator, the renderer,
# the interpreter, and the loop evaluator:
#   ("create", i)       create vi
#   ("assign", i, j)    vi := vj
#   ("void", i)         vi := Void
#   ("read", i, j)      vi := vj.n
#   ("write", i, j)     vi.n := vj
#   ("choice", a, b, ...)  then <a> else <b> ... end, two arms or more


def gen_program(seed, arms=2):
    """A random loop-free call-free program: (nvars, block).  Each choice
    has 2 to ``arms`` arms; with ``arms=2`` a seed gives the same program
    as it always has."""
    rng = random.Random(seed)
    nv = rng.randint(3, 6)
    budget = rng.randint(6, 12)
    block, _ = _gen_block(rng, nv, budget, 0, arms)
    return nv, block


def _gen_block(rng, nv, budget, depth, arms):
    block, used = [], 0
    while used < budget:
        left = budget - used
        kinds = ["create", "create", "create", "assign", "assign", "assign",
                 "void", "read", "read", "write", "write"]
        if depth < 2 and left >= 4:
            kinds += ["choice", "choice"]
        kind = rng.choice(kinds)
        i, j = rng.randrange(nv), rng.randrange(nv)
        if kind == "create":
            block.append(("create", i))
            used += 1
        elif kind == "assign":
            block.append(("assign", i, j))
            used += 1
        elif kind == "void":
            block.append(("void", i))
            used += 1
        elif kind == "read":
            block.append(("read", i, j))
            used += 1
        elif kind == "write":
            block.append(("write", i, j))
            used += 1
        else:
            # each arm takes 1 to 3 of the budget and leaves at least 1
            # for every arm after it; a width is drawn only past two arms
            width = rng.randint(2, min(arms, left - 1)) if arms > 2 else 2
            sizes = []
            for i in range(width):
                sizes.append(rng.randint(1, min(3, left - 1 - sum(sizes) - (width - 1 - i))))
            blocks = [_gen_block(rng, nv, n, depth + 1, arms) for n in sizes]
            block.append(("choice",) + tuple(b for b, _ in blocks))
            used += sum(u for _, u in blocks)
    return block, used


def gen_loop_program(seed):
    """A straight-line prefix plus one loop: (nvars, prefix, body)."""
    rng = random.Random(seed)
    nv = rng.randint(3, 5)
    prefix = [("create", i) for i in range(nv) if rng.random() < 0.8]
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["assign", "write", "create"])
        i, j = rng.randrange(nv), rng.randrange(nv)
        prefix.append(("create", i) if kind == "create" else (kind, i, j))
    body = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["assign", "assign", "read", "read", "read", "void"])
        i, j = rng.randrange(nv), rng.randrange(nv)
        body.append(("void", i) if kind == "void" else (kind, i, j))
    return nv, prefix, body


def wide_ring(seed, n, choices=6):
    """A wide program as (nvars, block): ``n`` created locals linked in a
    ring by ``.n``, then ``choices`` choices ``then vA.n := vB else vC :=
    vD.n end`` with seeded indices.  It ends with up to 2^choices roots
    and mentions 2n paths, every vi and vi.n."""
    rng = random.Random(seed)
    block = [("create", i) for i in range(n)]
    block += [("write", i, (i + 1) % n) for i in range(n)]
    for _ in range(choices):
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        block.append(("choice", [("write", a, b)], [("read", c, d)]))
    return n, block


def gen_call_program(seed):
    """A random program with calls, as source text; its entry is ``C.run``.

    Class C has the fields n and m and two or three functions r0, r1, ...,
    each with the formal ``x``, the locals ``t`` and ``u``, and ``Result``,
    which each function first sets.  ``run`` first creates its locals a,
    b and c and links them, and Current, by both fields.  Bodies mix
    creation, assignment, field reads and writes, unqualified and
    qualified calls to any function (so direct and mutual recursion are
    common), and choices and loops nested up to two deep."""
    rng = random.Random(seed)
    funcs = ["r%d" % i for i in range(rng.randint(2, 3))]
    lines = ["class C feature", "  n: C", "  m: C"]
    for f in funcs:
        body = ["Result := %s" % rng.choice(["x", "Current", "x.n"])]
        body += _gen_call_block(rng, ["t", "u", "Result"], ["x"], funcs, rng.randint(1, 4), 0)
        lines.append("  %s (x: C): C local t: C u: C do %s end" % (f, " ".join(body)))
    body = ["create a", "create b", "create c", "a.n := b", "b.m := c", "n := a", "m := c"]
    body += _gen_call_block(rng, ["a", "b", "c"], [], funcs, rng.randint(2, 5), 0)
    lines.append("  run local a: C b: C c: C do %s end" % " ".join(body))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _gen_call_block(rng, own, read_only, funcs, size, depth):
    """``size`` instructions over the routine's assignable names ``own``
    and its ``read_only`` formals; fields n and m of Current are names
    too."""
    targets = own + ["n", "m"]
    sources = targets + read_only + ["Current"]
    kinds = ["create", "assign", "read", "write", "call", "call", "qcall"]
    if depth < 2:
        kinds += ["choice", "loop"]
    out = []
    for _ in range(size):
        kind = rng.choice(kinds)
        v, w, field = rng.choice(targets), rng.choice(sources), rng.choice(["n", "m"])
        if kind == "create":
            out.append("create %s" % rng.choice(own))
        elif kind == "assign":
            out.append("%s := %s" % (v, w))
        elif kind == "read":
            out.append("%s := %s.%s" % (v, w, field))
        elif kind == "write":
            out.append("%s.%s := %s" % (rng.choice(sources), field, w))
        elif kind == "call":
            out.append("%s := %s (%s)" % (v, rng.choice(funcs), w))
        elif kind == "qcall":
            out.append("%s := %s.%s (%s)" % (v, rng.choice(sources), rng.choice(funcs), w))
        else:
            blocks = [_gen_call_block(rng, own, read_only, funcs, rng.randint(1, 2), depth + 1)
                      for _ in range(2 if kind == "choice" else 1)]
            if kind == "choice":
                out.append("then %s else %s end" % tuple(" ".join(b) for b in blocks))
            else:
                out.append("loop %s end" % " ".join(blocks[0]))
    return out


def render(nv, block):
    lines = ["class C feature n: C end",
             "main local " + " ".join("v%d: C" % i for i in range(nv)) + " do"]
    _render_block(block, lines, 1)
    lines.append("end")
    return "\n".join(lines) + "\n"


def render_loop(nv, prefix, body):
    lines = ["class C feature n: C end",
             "main local " + " ".join("v%d: C" % i for i in range(nv)) + " do"]
    _render_block(prefix, lines, 1)
    lines.append("  P: skip")
    lines.append("  loop")
    _render_block(body, lines, 2)
    lines.append("  end")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _render_block(block, lines, indent):
    pad = "  " * indent
    for op in block:
        if op[0] == "create":
            lines.append(pad + "create v%d" % op[1])
        elif op[0] == "assign":
            lines.append(pad + "v%d := v%d" % (op[1], op[2]))
        elif op[0] == "void":
            lines.append(pad + "v%d := Void" % op[1])
        elif op[0] == "read":
            lines.append(pad + "v%d := v%d.n" % (op[1], op[2]))
        elif op[0] == "write":
            lines.append(pad + "v%d.n := v%d" % (op[1], op[2]))
        else:
            for word, arm in zip(["then"] + ["else"] * (len(op) - 2), op[1:]):
                lines.append(pad + word)
                _render_block(arm, lines, indent + 1)
            lines.append(pad + "end")


def observed_names(nv):
    return ["v%d" % i for i in range(nv)] + ["v%d.n" % i for i in range(nv)]


def concrete_alias_pairs(nv, block):
    """Union of final alias pairs over every way the choices can go.

    Real heap, real references.  A path that dereferences a void value
    dies on the spot, as the execution would, and contributes nothing.
    """
    finals = []
    counter = [0]

    def walk(ops, env, heap):
        for at, op in enumerate(ops):
            kind = op[0]
            if kind == "choice":
                rest = ops[at + 1:]
                for branch in op[1:]:
                    walk(branch + rest, list(env), {o: dict(f) for o, f in heap.items()})
                return
            if kind == "create":
                heap[counter[0]] = {"n": None}
                env[op[1]] = counter[0]
                counter[0] += 1
            elif kind == "assign":
                env[op[1]] = env[op[2]]
            elif kind == "void":
                env[op[1]] = None
            elif kind == "read":
                if env[op[2]] is None:
                    return
                env[op[1]] = heap[env[op[2]]]["n"]
            elif kind == "write":
                if env[op[1]] is None:
                    return
                heap[env[op[1]]]["n"] = env[op[2]]
        finals.append((env, heap))

    walk(block, [None] * nv, {})
    pairs = set()
    for env, heap in finals:
        vals = {}
        for i in range(nv):
            if env[i] is not None:
                vals["v%d" % i] = env[i]
                if heap[env[i]]["n"] is not None:
                    vals["v%d.n" % i] = heap[env[i]]["n"]
        names = sorted(vals)
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                if vals[names[x]] == vals[names[y]]:
                    pairs.add((names[x], names[y]))
    return pairs


def iterated_union(triples, root, body):
    """Union of the states a straight-line loop body steps through.

    Applies the body to a raw edge-triple set over and over, joining
    every state reached, until the state revisits one already seen.
    """
    attr = Label("n")

    def targets_of(G, lbl):
        return {t for (l, s, t) in G if s == root and l == lbl}

    def step(G):
        G = set(G)
        for op in body:
            lbl = Label("v%d" % op[1])
            if op[0] == "assign":
                vals = targets_of(G, Label("v%d" % op[2]))
            elif op[0] == "read":
                vals = {u for t in targets_of(G, Label("v%d" % op[2]))
                        for (l, s, u) in G if s == t and l == attr}
            else:
                vals = set()
            G = {(l, s, t) for (l, s, t) in G if not (s == root and l == lbl)}
            G |= {(lbl, root, v) for v in vals}
        return frozenset(G)

    cur = frozenset(triples)
    union, seen = set(cur), set()
    while cur not in seen:
        seen.add(cur)
        cur = step(cur)
        union |= cur
    return union


def union_alias_pairs(union, root, names):
    """Alias pairs read straight off a triple set."""
    def value(dotted):
        segs = dotted.split(".")
        cur = {t for (l, s, t) in union if s == root and l == Label(segs[0])}
        for seg in segs[1:]:
            cur = {u for t in cur for (l, s, u) in union if s == t and l == Label(seg)}
        return cur

    vals = {n: value(n) for n in names}
    out = set()
    for p in names:
        for q in names:
            if p < q and vals[p] & vals[q]:
                out.add((p, q))
    return sorted(out)


# ---------------------------------------------------------------------------
# naive choice handling: fork a full copy per branch and union
# ---------------------------------------------------------------------------


class CloningEngine(Engine):
    """The engine with every multi-branch choice run by whole-diagram
    cloning instead of delta replay (it overrides the engine's
    multi-branch step): each branch runs on its own snapshot, and the
    worlds are renamed apart and united.  Counters are synced before
    cloning so the united worlds cannot collide on fresh node ids.  Kept
    simple on purpose: it is the oracle delta replay is tested against,
    and it ignores the memo machinery, so it is only safe outside
    fixpoints.  It refuses to fork inside one: a fixpoint runs under a
    ``Delta`` that lives on the diagram this fork would replace, so the
    fixpoint could neither name its states nor roll them back.  A loop
    inside a choice's arm is fine: the fork happens outside it."""

    def _branches_by_replay(self, site, live):
        assert not self.diagram._deltas, "the cloning oracle cannot fork inside a fixpoint"
        base = self.diagram
        worlds = []
        for thunk in live:
            self.diagram = base.snapshot()
            thunk()
            worlds.append(self.diagram)
        merged = worlds[0]
        cursor = max(w._next_id for w in worlds)
        for w in worlds[1:]:
            w._next_id = cursor
            renamed, _ = clone(w)
            cursor = renamed._next_id
            merged._next_id = cursor
            union(merged, renamed)
        self.diagram = merged


def clone(d):
    """Isomorphic copy of ``d`` on fresh ids drawn from its counter, and
    the old-to-new id mapping.

    The copy's counter continues past both diagrams' ids, and ``d``'s
    skips past the ids the copy consumed, so either can later be unioned
    with the other without collisions.
    """
    twin = AliasDiagram()
    twin._next_id = d._next_id
    mapping = {n: twin.fresh_node() for n in sorted(d.nodes)}
    for label, s, t in sorted(d.edges()):
        twin.add_edge(label, mapping[s], mapping[t])
    twin.roots = {mapping[r] for r in d.roots}
    d._next_id = twin._next_id
    return twin, mapping


def union(d, other):
    """Componentwise in-place union into ``d``, preserving node ids.

    Shared ids merge: this is how two variants derived from the same
    diagram recombine, with agreement on the untouched structure and
    accumulation of the divergent edges.
    """
    for n in sorted(other.nodes):
        d.ensure_node(n)
    for label, s, t in sorted(other.edges()):
        d.add_edge(label, s, t)
    d.roots |= other.roots


def reachable_nodes(d):
    """The nodes reachable from some root of ``d``."""
    seen = set()
    frontier = list(d.roots)
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        for _, t in d.out_edges(n):
            if t not in seen:
                frontier.append(t)
    return seen


def canonical_form(d, reachable_only=True):
    """A value equal for exactly the isomorphic diagrams.

    Isomorphism here means a node bijection preserving edges, labels and
    rootness; ids themselves do not matter.  By default nodes unreachable
    from every root are ignored, mirroring how result states are drawn
    without their orphaned objects.

    Color refinement splits the nodes; any remaining symmetric class is
    broken by trying the permutations and keeping the least encoding,
    which is fine at the sizes the analysis produces (the search is
    capped and falls back to the refined order).
    """
    nodes = sorted(reachable_nodes(d) if reachable_only else d.nodes)
    node_set = set(nodes)
    edges = [(l, s, t) for (l, s, t) in d.edges() if s in node_set and t in node_set]
    ins = {n: [] for n in nodes}
    outs = {n: [] for n in nodes}
    for l, s, t in edges:
        outs[s].append((l, t))
        ins[t].append((l, s))

    color = {n: (n in d.roots) for n in nodes}
    while True:
        sig = {
            n: (
                color[n],
                tuple(sorted((l, color[t]) for l, t in outs[n])),
                tuple(sorted((l, color[s]) for l, s in ins[n])),
            )
            for n in nodes
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        new_color = {n: palette[sig[n]] for n in nodes}
        if new_color == color:
            break
        color = new_color

    classes = {}
    for n in nodes:
        classes.setdefault(color[n], []).append(n)

    def encode(order):
        return (
            tuple(sorted((l.name, l.tag, order[s], order[t]) for l, s, t in edges)),
            tuple(sorted(order[r] for r in d.roots if r in node_set)),
        )

    base_order = {n: i for i, n in enumerate(sorted(nodes, key=lambda n: (color[n], n)))}
    search_space = 1
    for members in classes.values():
        for k in range(2, len(members) + 1):
            search_space *= k
        if search_space > 40320:
            return encode(base_order)

    best = None
    group_ids = sorted(classes)
    perms_per_group = [list(itertools.permutations(classes[g])) for g in group_ids]
    for combo in itertools.product(*perms_per_group):
        order = {}
        i = 0
        for seq in combo:
            for n in seq:
                order[n] = i
                i += 1
        enc = encode(order)
        if best is None or enc < best:
            best = enc
    return best if best is not None else encode(base_order)


# ---------------------------------------------------------------------------
# per-root alias answers: one value set per root and path
# ---------------------------------------------------------------------------


def may_alias(d, p, q):
    """True when some single root sees the two paths share a node."""
    for r in d.roots:
        vp = d.value_set(p, start=(r,))
        if not vp:
            continue
        if vp & d.value_set(q, start=(r,)):
            return True
    return False


def alias_pairs_reference(diagram, scope, name_paths):
    """``query.alias_pairs`` computed root by root and pair by pair, in
    O(U^2 R) for U paths and R roots: the reference the root masks are
    checked against."""
    resolved = {}
    for np in name_paths:
        text = format_name_path(np) if not isinstance(np, str) else np
        resolved[text] = diagram.value_sets_by_root(resolve_path(text, scope))
    names = sorted(resolved)
    pairs = []
    for i, p in enumerate(names):
        for q in names[i + 1 :]:
            vp, vq = resolved[p], resolved[q]
            if any(vp[r] & vq[r] for r in diagram.roots):
                pairs.append((p, q))
    return pairs
