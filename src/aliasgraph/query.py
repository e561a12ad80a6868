"""Alias queries over analysis results, the list-copy properties, reports.

Everything here is read-only over a diagram plus a name scope.  Every
answer resolves its name paths one way, through ``label_path``, and
answers for every root at once through root masks (``RootMasks``): the
alias pairs of a report, the answers to a query (with the diagram paths
a depth bound adds), and the list-copy properties, which are families of
path pairs that must not alias.  The answers are rendered as a JSON
document (``build_report``, written by ``emit_json``) or a DOT drawing.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Optional, Sequence, Tuple

from aliasgraph.diagram import AliasDiagram, Label, NodeId, format_name_path, label_path, parse_name_path

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class QueryError(Exception):
    """Raised for queries that cannot be answered (unknown point, a
    query text that is not a dotted path of names, or a depth bound
    shorter than the query path)."""


@dataclass
class AliasQuery:
    path: str  # a dotted path of names, such as "a.n" or "Current"
    at: Optional[str] = None  # program point label; None = routine exit
    depth: Optional[int] = None  # also consider diagram paths up to here

    def __post_init__(self):
        if not all(_NAME_RE.match(seg.strip()) for seg in self.path.split(".")):
            raise QueryError("query %r is not a dotted path of names such as 'a.n'" % self.path)
        if self.depth is not None and self.depth < len(parse_name_path(self.path)):
            raise QueryError("depth bound %d must cover the query path %r itself" % (self.depth, self.path))


def resolve_path(text, scope=None):
    """Source-level 'a.b.c' -> label path under scope."""
    return label_path(parse_name_path(text), scope)


# ---------------------------------------------------------------------------
# root masks
# ---------------------------------------------------------------------------

# a trie entry: a path's masks, and label -> the entry one step further
_Entry = Tuple[Dict[NodeId, int], dict]


class RootMasks:
    """Value sets of label paths under every root of a diagram at once.

    Root i of ``sorted(diagram.roots)`` owns the bit ``1 << i``.  The
    masks of a path map each node of its merged value set to the bits of
    the roots r with that node in V_r(path).  Two paths may alias exactly
    when some node carries a common bit in both: one root witnesses the
    shared node.  Masks of different nodes are never or-ed together, so
    worlds stay apart.  Each path's masks are memoized and built from its
    prefix's, so a prefix-closed set of paths is walked as a trie.  The
    diagram must not change while the masks are in use.
    """

    def __init__(self, diagram: AliasDiagram) -> None:
        self.diagram = diagram
        self.bits = {r: 1 << i for i, r in enumerate(sorted(diagram.roots))}
        self.all_bits = (1 << len(self.bits)) - 1
        # a trie of resolved prefixes: (masks, label -> next entry)
        self._trie: _Entry = (dict(self.bits), {})
        self._heads = [(diagram.out_map(r), bit) for r, bit in self.bits.items()]

    def of(self, path: Sequence[Label]) -> Dict[NodeId, int]:
        """node -> bits of the roots whose value set of ``path`` holds it."""
        return self.entry(path)[0]

    def entry(self, path: Sequence[Label], start: Optional[_Entry] = None) -> _Entry:
        """The trie entry of ``path``, walked from ``start`` (default: the
        roots)."""
        masks, steps = found = start or self._trie
        for label in path:
            if not masks:
                break  # no value: no longer path has one either
            masks, steps = found = steps.get(label) or self._extend(masks, steps, label)
        return found

    def _extend(self, masks, steps, label):
        got: Dict[NodeId, int] = {}
        if steps is self._trie[1]:
            # the roots' out-maps, looked up once per masks object
            for out, bit in self._heads:
                for t in out.get(label, ()):
                    got[t] = got.get(t, 0) | bit
        else:
            for n, mask in masks.items():
                for t in self.diagram.successors(n, label):
                    got[t] = got.get(t, 0) | mask
        found = steps[label] = (got, {})
        return found


def _meet(a: Dict[NodeId, int], b: Dict[NodeId, int]) -> bool:
    """True when two paths with these masks may alias: some single root
    sees them share a node."""
    if len(b) < len(a):
        a, b = b, a
    return any(mask & b.get(n, 0) for n, mask in a.items())


# a stored state's diagram -> its masks, kept while the diagram lives
_STATE_MASKS: "weakref.WeakKeyDictionary[AliasDiagram, RootMasks]" = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# alias pairs and query answering
# ---------------------------------------------------------------------------


def alias_pairs(diagram, scope, name_paths):
    """All unordered may-alias pairs among the given name paths.

    Returns sorted (p, q) string tuples with p < q; empty-valued paths
    pair with nothing, and a path never pairs with itself.  Paths are
    compared only where they share a node, so the cost follows the
    value-set sizes and the pairs found, not the number of path pairs
    times the number of roots.
    """
    masks = RootMasks(diagram)
    texts = {np if isinstance(np, str) else format_name_path(np) for np in name_paths}
    by_node = {}
    # in sorted order, so each bucket lists p before q when p < q
    for text in sorted(texts):
        for n, mask in masks.of(resolve_path(text, scope)).items():
            by_node.setdefault(n, []).append((text, mask))
    pairs = set()
    for bucket in by_node.values():
        for i, (p, mp) in enumerate(bucket):
            for q, mq in bucket[i + 1 :]:
                if mp & mq:
                    pairs.add((p, q))
    return sorted(pairs)


def _diagram_paths(masks, scope, depth):
    """Name paths up to ``depth`` long that have a value, with its masks.

    A path starts as a query's does, with a scoped name or a field of the
    current object, and goes on through fields.  Each resolves as
    ``label_path`` resolves it; an extension steps on from its prefix's
    entry in the masks' trie.
    """
    scope = scope or {}
    g = masks.diagram

    def fields(nodes):
        return {lbl.name for n in nodes for lbl in g.out_map(n) if not lbl.tag}

    heads = (set(scope) - {"Current"}) | fields(masks.of(label_path((), scope)))
    stack = [((name,), masks.entry(label_path((name,), scope))) for name in heads]
    found = {}
    while stack:
        trail, entry = stack.pop()
        if entry[0]:
            found[trail] = entry[0]
            if len(trail) < depth:
                stack += [(trail + (name,), masks.entry((Label(name),), entry)) for name in fields(entry[0])]
    return found


def query_alias(engine, query: AliasQuery):
    """Paths that may denote the same object as the query path.

    Candidates come from the program's expression universe; a depth
    bound widens them with every diagram path up to that length.  The
    state's root masks are built by its first query and kept for the
    rest, so queries come after the analysis.
    """
    diagram, scope = state_at(engine, query.at)
    masks = _STATE_MASKS.get(diagram)
    if masks is None:
        masks = _STATE_MASKS[diagram] = RootMasks(diagram)
    candidates = {np: masks.of(label_path(np, scope)) for np in engine.universe}
    if query.depth is not None:
        candidates.update(_diagram_paths(masks, scope, query.depth))
    mine = masks.of(resolve_path(query.path, scope))
    qtext = format_name_path(parse_name_path(query.path))
    answers = {format_name_path(np) for np, theirs in candidates.items() if _meet(mine, theirs)}
    answers.discard(qtext)
    return answers


def state_at(engine, at):
    """The (diagram, scope) at program point ``at``, or at the end when
    ``at`` is None.  Raises QueryError for a point not recorded."""
    if at is None:
        return engine.diagram, engine.report_scope()
    if at not in engine.snapshots:
        raise QueryError(
            "unknown program point %r (recorded: %s)" % (at, ", ".join(engine.snapshot_order) or "none")
        )
    return engine.snapshots[at]


# ---------------------------------------------------------------------------
# list-copy properties
# ---------------------------------------------------------------------------


def check_acyclic(diagram, p, via, k, scope=None):
    """No node within k via-steps of p's values lies on a via-cycle."""
    ball = set(diagram.value_set(resolve_path(p, scope)))
    frontier = set(ball)
    for _ in range(k):
        nxt = set()
        for n in frontier:
            nxt |= diagram.successors(n, via)
        nxt -= ball
        if not nxt:
            break
        ball |= nxt
        frontier = nxt
    for n in sorted(ball):
        # on a cycle iff n reaches itself in >= 1 via-step
        seen = set(diagram.successors(n, via))
        queue = list(seen)
        while queue:
            m = queue.pop()
            if m == n:
                return False
            for s in diagram.successors(m, via):
                if s not in seen:
                    seen.add(s)
                    queue.append(s)
    return True


def _unaliased(masks, pairs):
    """True when no pair of paths in the family may alias."""
    return not any(_meet(masks.of(p), masks.of(q)) for p, q in pairs)


def deutsch_report(engine, k=3):
    """The five list-copy properties over the L2/L3 snapshots.

    Expects the copy benchmark's naming: lists X and Y, fields hd/tl,
    points L2 (after the copy) and L3 (after X is re-created).  A list's
    spine is its positions 0..k (``Y``, ``Y.tl``, ...), and its heads
    are their ``hd`` fields.  P1 is structural; P2-P5 each say that no
    pair of one family of paths aliases.
    """
    d2, s2 = state_at(engine, "L2")
    d3, s3 = state_at(engine, "L3")
    hd, tl = Label("hd"), Label("tl")

    def spine(name, scope):
        return [resolve_path(name, scope) + (tl,) * i for i in range(k + 1)]

    xspine, yspine, yspine3 = spine("X", s2), spine("Y", s2), spine("Y", s3)
    xheads, yheads = [p + (hd,) for p in xspine], [p + (hd,) for p in yspine]
    m2, m3 = RootMasks(d2), RootMasks(d3)
    xs, ys = {}, {}
    for heads, acc in ((xheads, xs), (yheads, ys)):
        for p in heads:
            for n, mask in m2.of(p).items():
                acc[n] = acc.get(n, 0) | mask
    # the roots under which some X head meets some Y head
    sharing = 0
    for n, mask in xs.items():
        sharing |= mask & ys.get(n, 0)
    return {
        "k": k,
        "P1": check_acyclic(d2, "X", tl, k, s2) and check_acyclic(d2, "Y", tl, k, s2),
        "P2": _unaliased(m2, zip(yheads, yheads[1:])),
        "P3": _unaliased(m2, product(xspine[1:], yspine[1:])),
        "P4": _unaliased(m2, ((a, b) for i, a in enumerate(xheads) for j, b in enumerate(yheads) if i != j)),
        "P5": _unaliased(m3, combinations(yspine3[1:] + [p + (hd,) for p in yspine3], 2)),
        "no_share_root": sharing != m2.all_bits,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def build_report(engine):
    """The report document: the alias pairs among the universe's paths at
    each recorded point and at the end, and the rendered diagnostics."""

    def pairs(diagram, scope):
        return [list(p) for p in alias_pairs(diagram, scope, engine.universe)]

    return {
        "program": engine.program.source,
        "entry": engine.entry_name or "",
        "points": [{"label": label, "pairs": pairs(*engine.snapshots[label])} for label in engine.snapshot_order],
        "final": {"pairs": pairs(engine.diagram, engine.report_scope())},
        "diagnostics": [d.render() for d in engine.diagnostics],
    }


def emit_json(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def emit_dot(diagram, scope=None) -> bytes:
    """A deterministic DOT drawing: roots double-circled, each edge
    labeled with its name (scoped names as ``scope`` spells them)."""
    by_label = {}
    for name, lbl in (scope or {}).items():
        by_label[lbl] = name
    lines = ["digraph alias_diagram {", "  rankdir=LR;", '  node [shape=circle, fontsize=11];']
    for n in sorted(diagram.nodes):
        attrs = ['label="n%d"' % n]
        if n in diagram.roots:
            attrs.append("peripheries=2")
        lines.append("  n%d [%s];" % (n, ", ".join(attrs)))
    def edge_key(e):
        lbl, s, t = e
        return (s, lbl.name, t)
    for (lbl, s, t) in sorted(diagram.edges(), key=edge_key):
        lines.append('  n%d -> n%d [label="%s"];' % (s, t, by_label.get(lbl, lbl.name)))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
