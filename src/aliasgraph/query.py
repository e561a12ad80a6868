"""Alias queries over analysis results, list-shape checkers, reports.

Everything here is read-only over a diagram plus a name scope: queries
resolve source-level path strings to label paths, intersect per-root
value sets, and render the answers (JSON document, DOT drawing).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from aliasgraph.diagram import Label, format_name_path, label_path, parse_name_path

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
# alias pairs and query answering
# ---------------------------------------------------------------------------


def alias_pairs(diagram, scope, name_paths):
    """All unordered may-alias pairs among the given name paths.

    Returns sorted (p, q) string tuples with p < q; empty-valued paths
    pair with nothing, and a path never pairs with itself.
    """
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
            if lbl.prime:
                continue  # internal back-pointers are not source syntax
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
    qpath = resolve_path(query.path, scope)
    qtext = format_name_path(parse_name_path(query.path))
    out = set()
    for np in candidates:
        text = format_name_path(np)
        if text == qtext:
            continue
        if diagram.may_alias(qpath, label_path(np, scope)):
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
    ypath = resolve_path(y, scope)
    for i in range(k):
        a = _spine(ypath, tl, i) + (hd,)
        b = _spine(ypath, tl, i + 1) + (hd,)
        if diagram.may_alias(a, b):
            return False
    return True


def check_tails_disjoint(diagram, x, y, tl, k, scope=None):
    """No proper tail of x aliases a proper tail of y (1..k each)."""
    xpath, ypath = resolve_path(x, scope), resolve_path(y, scope)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if diagram.may_alias(_spine(xpath, tl, i), _spine(ypath, tl, j)):
                return False
    return True


def check_pairwise_heads(diagram, x, y, hd, tl, k, scope=None):
    """Heads of x and y may meet only at equal positions (0..k)."""
    xpath, ypath = resolve_path(x, scope), resolve_path(y, scope)
    for i in range(k + 1):
        for j in range(k + 1):
            if i == j:
                continue
            a = _spine(xpath, tl, i) + (hd,)
            b = _spine(ypath, tl, j) + (hd,)
            if diagram.may_alias(a, b):
                return False
    return True


def check_fully_unaliased(diagram, y, hd, tl, k, scope=None):
    """Heads and proper tails of y are pairwise unaliased (distinct
    expressions only)."""
    ypath = resolve_path(y, scope)
    family = [_spine(ypath, tl, j) for j in range(1, k + 1)]
    family += [_spine(ypath, tl, i) + (hd,) for i in range(k + 1)]
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if diagram.may_alias(a, b):
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
    no_share = False
    xheads = [_spine(resolve_path("X", s2), tl, i) + (hd,) for i in range(k + 1)]
    yheads = [_spine(resolve_path("Y", s2), tl, j) + (hd,) for j in range(k + 1)]
    for r in sorted(d2.roots):
        xs = set()
        for p in xheads:
            xs |= d2.value_set(p, start=(r,))
        ys = set()
        for p in yheads:
            ys |= d2.value_set(p, start=(r,))
        if not (xs & ys):
            no_share = True
            break
    return {
        "k": k,
        "P1": check_acyclic(d2, "X", tl, k, s2) and check_acyclic(d2, "Y", tl, k, s2),
        "P2": check_successive_heads(d2, "Y", hd, tl, k, s2),
        "P3": check_tails_disjoint(d2, "X", "Y", tl, k, s2),
        "P4": check_pairwise_heads(d2, "X", "Y", hd, tl, k, s2),
        "P5": check_fully_unaliased(d3, "Y", hd, tl, k, s3),
        "no_share_root": no_share,
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
    """A deterministic DOT drawing: roots double-circled, internal
    back-pointer edges dashed."""
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
        return (s, lbl.display(), t)
    for (lbl, s, t) in sorted(diagram.edge_set(), key=edge_key):
        shown = by_label.get(lbl, lbl.display())
        attrs = ['label="%s"' % shown]
        if lbl.prime:
            attrs.append("style=dashed")
        lines.append("  n%d -> n%d [%s];" % (s, t, ", ".join(attrs)))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
