"""Alias queries over analysis results, list-shape checkers, reports.

Everything here is read-only over a diagram plus a name scope: queries
resolve source-level path strings to label paths, answer alias
questions for every root at once through root masks (``RootMasks``),
and render the answers (JSON document, DOT drawing).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
        # a trie of resolved prefixes: (masks, label -> next step)
        self._trie: Tuple[Dict[NodeId, int], dict] = (dict(self.bits), {})

    def of(self, path: Sequence[Label]) -> Dict[NodeId, int]:
        """node -> bits of the roots whose value set of ``path`` holds it."""
        masks, steps = self._trie
        for i, label in enumerate(path):
            if not masks:
                break  # no value: no longer path has one either
            step = steps.get(label)
            if step is None:
                got: Dict[NodeId, int] = {}
                if i == 0:
                    # one pass over the label's edges, not one successor
                    # set per root; a top-level local can carry the same
                    # label as a field, so only edges leaving a root count
                    for s, t in self.diagram.label_edges(label):
                        bit = masks.get(s)
                        if bit is not None:
                            got[t] = got.get(t, 0) | bit
                else:
                    for n, mask in masks.items():
                        for t in self.diagram.successors(n, label):
                            got[t] = got.get(t, 0) | mask
                step = steps[label] = (got, {})
            masks, steps = step
        return masks

    def alias(self, p: Sequence[Label], q: Sequence[Label]) -> bool:
        """True when some single root sees the two paths share a node."""
        a, b = self.of(p), self.of(q)
        if len(b) < len(a):
            a, b = b, a
        return any(mask & b.get(n, 0) for n, mask in a.items())


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


def _diagram_paths(diagram, scope, depth):
    """Expressible label paths up to the given length, as name strings."""
    by_label = {}
    for name, lbl in (scope or {}).items():
        by_label[lbl] = name
    found = set()
    stack = [((), frozenset(diagram.roots))]
    while stack:
        trail, nodes = stack.pop()
        if len(trail) >= depth:
            continue
        labels = set()
        for n in nodes:
            labels |= diagram.labels_at(n)
        for lbl in sorted(labels):
            if lbl.tag and (trail or lbl not in by_label):
                continue  # scoped names only start a path, and only in scope
            nxt = frozenset().union(*(diagram.successors(n, lbl) for n in nodes))
            if not nxt:
                continue
            new_trail = trail + (by_label.get(lbl, lbl.name),)
            found.add(new_trail)
            stack.append((new_trail, nxt))
    return found


def query_alias(engine, query: AliasQuery):
    """Paths that may denote the same object as the query path.

    Candidates come from the program's expression universe; a depth
    bound widens them with every diagram path up to that length.
    """
    diagram, scope = _state_at(engine, query.at)
    candidates = set(engine.universe)
    if query.depth is not None:
        candidates |= _diagram_paths(diagram, scope, query.depth)
    masks = RootMasks(diagram)
    qpath = resolve_path(query.path, scope)
    qtext = format_name_path(parse_name_path(query.path))
    out = set()
    for np in candidates:
        text = format_name_path(np)
        if text != qtext and masks.alias(qpath, label_path(np, scope)):
            out.add(text)
    return out


def _state_at(engine, at):
    if at is None:
        return engine.diagram, engine.report_scope()
    if at not in engine.snapshots:
        raise QueryError(
            "unknown program point %r (recorded: %s)" % (at, ", ".join(engine.snapshot_order) or "none")
        )
    return engine.snapshots[at]


# ---------------------------------------------------------------------------
# bounded list-shape checkers
# ---------------------------------------------------------------------------


def _spine(base, tl, i):
    return base + (tl,) * i


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


def check_successive_heads(diagram, y, hd, tl, k, scope=None):
    """Heads at consecutive list positions never alias (positions 0..k)."""
    masks = RootMasks(diagram)
    ypath = resolve_path(y, scope)
    for i in range(k):
        a = _spine(ypath, tl, i) + (hd,)
        b = _spine(ypath, tl, i + 1) + (hd,)
        if masks.alias(a, b):
            return False
    return True


def check_tails_disjoint(diagram, x, y, tl, k, scope=None):
    """No proper tail of x aliases a proper tail of y (1..k each)."""
    masks = RootMasks(diagram)
    xpath, ypath = resolve_path(x, scope), resolve_path(y, scope)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if masks.alias(_spine(xpath, tl, i), _spine(ypath, tl, j)):
                return False
    return True


def check_pairwise_heads(diagram, x, y, hd, tl, k, scope=None):
    """Heads of x and y may meet only at equal positions (0..k)."""
    masks = RootMasks(diagram)
    xpath, ypath = resolve_path(x, scope), resolve_path(y, scope)
    for i in range(k + 1):
        for j in range(k + 1):
            if i == j:
                continue
            a = _spine(xpath, tl, i) + (hd,)
            b = _spine(ypath, tl, j) + (hd,)
            if masks.alias(a, b):
                return False
    return True


def check_fully_unaliased(diagram, y, hd, tl, k, scope=None):
    """Heads and proper tails of y are pairwise unaliased (distinct
    expressions only)."""
    masks = RootMasks(diagram)
    ypath = resolve_path(y, scope)
    family = [_spine(ypath, tl, j) for j in range(1, k + 1)]
    family += [_spine(ypath, tl, i) + (hd,) for i in range(k + 1)]
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if masks.alias(a, b):
                return False
    return True


def deutsch_report(engine, k=3):
    """The five list-copy properties over the L2/L3 snapshots.

    Expects the copy benchmark's naming: lists X and Y, fields hd/tl,
    points L2 (after the copy) and L3 (after X is re-created).
    """
    d2, s2 = _state_at(engine, "L2")
    d3, s3 = _state_at(engine, "L3")
    hd, tl = Label("hd"), Label("tl")
    xheads = [_spine(resolve_path("X", s2), tl, i) + (hd,) for i in range(k + 1)]
    yheads = [_spine(resolve_path("Y", s2), tl, j) + (hd,) for j in range(k + 1)]
    masks = RootMasks(d2)
    xs, ys = {}, {}
    for heads, acc in ((xheads, xs), (yheads, ys)):
        for p in heads:
            for n, mask in masks.of(p).items():
                acc[n] = acc.get(n, 0) | mask
    # the roots under which some X head meets some Y head
    sharing = 0
    for n, mask in xs.items():
        sharing |= mask & ys.get(n, 0)
    return {
        "k": k,
        "P1": check_acyclic(d2, "X", tl, k, s2) and check_acyclic(d2, "Y", tl, k, s2),
        "P2": check_successive_heads(d2, "Y", hd, tl, k, s2),
        "P3": check_tails_disjoint(d2, "X", "Y", tl, k, s2),
        "P4": check_pairwise_heads(d2, "X", "Y", hd, tl, k, s2),
        "P5": check_fully_unaliased(d3, "Y", hd, tl, k, s3),
        "no_share_root": sharing != masks.all_bits,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    program: str
    entry: str
    points: List[Tuple[str, List[Tuple[str, str]]]]
    final_pairs: List[Tuple[str, str]]
    diagnostics: List[str]

    def to_dict(self):
        return {
            "program": self.program,
            "entry": self.entry,
            "points": [
                {"label": label, "pairs": [list(p) for p in pairs]}
                for label, pairs in self.points
            ],
            "final": {"pairs": [list(p) for p in self.final_pairs]},
            "diagnostics": list(self.diagnostics),
        }


def build_report(engine):
    universe = list(engine.universe)
    points = []
    for label in engine.snapshot_order:
        diagram, scope = engine.snapshots[label]
        points.append((label, alias_pairs(diagram, scope, universe)))
    final_pairs = alias_pairs(engine.diagram, engine.report_scope(), universe)
    return AnalysisReport(
        program=engine.program.source,
        entry=engine.entry_name or "",
        points=points,
        final_pairs=final_pairs,
        diagnostics=[d.render() for d in engine.diagnostics],
    )


def emit_json(report) -> bytes:
    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return (doc + "\n").encode("utf-8")


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
    for (lbl, s, t) in sorted(diagram.edge_set(), key=edge_key):
        lines.append('  n%d -> n%d [label="%s"];' % (s, t, by_label.get(lbl, lbl.name)))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
