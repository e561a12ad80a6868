"""Rooted labeled multigraphs ("alias diagrams") and their value semantics.

An alias diagram abstracts the heap of an object-oriented program.  Nodes
stand for runtime objects, labeled edges for variables and fields that may
reference them, and one or more *root* nodes play the role of the current
object.  The value set ``V(p)`` of a dotted path expression ``p`` (such as
``a.b``) is the set of nodes reached from a root by following edges whose
labels match the path's segments in order.  Two paths may denote the same
object exactly when their value sets intersect.

Multiple roots arise when control flow forks: each root then anchors one
family of possible heaps, and the families share whatever structure the
fork left untouched.  Alias questions on such a diagram must be answered
within each root's component and or-ed across roots; intersecting the
merged value sets would conflate objects that belong to different worlds.
``value_sets_by_root`` gives each root's value set, and the root masks of
``aliasgraph.query`` answer alias questions for every root at once, while
plain ``value_set`` gives the merged view used for condition tests.

Invariants maintained by every mutating operation:

  * the root set is never empty;
  * node identifiers are allocated from a monotone counter and never
    reused, so every node at or past a recorded counter value was made
    after it (branch replay uses this as its watermark);
  * the edge set agrees with its three indexes: outgoing (source ->
    label -> targets), incoming (target -> (label, source) pairs) and by
    label (label -> (source, target) pairs), and no index keeps an empty
    bucket (``check_invariants``).

Example:

    >>> g = AliasDiagram()
    >>> r = g.add_root()
    >>> n = g.fresh_node()
    >>> g.add_edge(Label("a"), r, n)
    True
    >>> g.value_set((Label("a"),)) == frozenset({n})
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

NodeId = int


class Label(NamedTuple):
    """An edge label: a program name plus an activation tag.

    ``tag`` distinguishes the routine-local names of one activation from
    another's (0 for object fields and for names of the entry routine's
    own scope that were installed with tag 0).  Labels order and hash as
    the tuple of their fields.

    ``prime`` is always 0: the analysis binds a qualified call's actuals
    per world and installs no back-pointer labels, so nothing here sets
    or reads it.  It stays only because the benchmark's reference path
    walk (``bench/workloads.py``, ``PathWalk``) still reads it.
    """

    name: str
    tag: int = 0
    prime: int = 0


Edge = Tuple[Label, NodeId, NodeId]


# ---------------------------------------------------------------------------
# The diagram proper
# ---------------------------------------------------------------------------


class AliasDiagram:
    """Mutable rooted labeled directed multigraph with set-valued edges.

    Parallel edges with distinct labels are allowed; a (label, source,
    target) triple is stored at most once.  All bulk operations iterate
    in sorted order so node allocation is deterministic.
    """

    def __init__(self) -> None:
        self.nodes: Set[NodeId] = set()
        self.roots: Set[NodeId] = set()
        self._out: Dict[NodeId, Dict[Label, Set[NodeId]]] = {}
        self._in: Dict[NodeId, Set[Tuple[Label, NodeId]]] = {}
        self._by_label: Dict[Label, Set[Tuple[NodeId, NodeId]]] = {}
        self._edges: Set[Edge] = set()
        self._next_id: int = 0

    # -- construction -------------------------------------------------------

    def fresh_node(self) -> NodeId:
        n = self._next_id
        self._next_id += 1
        self.nodes.add(n)
        self._out[n] = {}
        return n

    def add_root(self) -> NodeId:
        n = self.fresh_node()
        self.roots.add(n)
        return n

    def ensure_node(self, n: NodeId) -> None:
        """Register an id that may not be a node yet (an edge's ends, a
        new root), moving the counter past it."""
        if n not in self.nodes:
            self.nodes.add(n)
            self._out.setdefault(n, {})
            self._next_id = max(self._next_id, n + 1)

    # -- raw edge surgery ----------------------------------------------------

    def add_edge(self, label: Label, source: NodeId, target: NodeId) -> bool:
        """Insert one triple.  Returns True if the diagram changed."""
        e = (label, source, target)
        if e in self._edges:
            return False
        self.ensure_node(source)
        self.ensure_node(target)
        self._edges.add(e)
        self._out[source].setdefault(label, set()).add(target)
        self._in.setdefault(target, set()).add((label, source))
        self._by_label.setdefault(label, set()).add((source, target))
        return True

    def remove_edge(self, label: Label, source: NodeId, target: NodeId) -> bool:
        e = (label, source, target)
        if e not in self._edges:
            return False
        self._edges.discard(e)
        _discard(self._out[source], label, target)
        _discard(self._in, target, (label, source))
        _discard(self._by_label, label, (source, target))
        return True

    def edge_set(self) -> FrozenSet[Edge]:
        return frozenset(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def out_edges(self, source: NodeId) -> Iterator[Tuple[Label, NodeId]]:
        for label, targets in self._out.get(source, {}).items():
            for t in targets:
                yield label, t

    # The next three iterate the live indexes: collect what they yield
    # before changing the diagram.

    def in_edges(self, target: NodeId) -> Iterator[Tuple[Label, NodeId]]:
        """The (label, source) pairs of the edges into ``target``."""
        return iter(self._in.get(target, ()))

    def label_edges(self, label: Label) -> Iterator[Tuple[NodeId, NodeId]]:
        """The (source, target) pairs of the edges labeled ``label``."""
        return iter(self._by_label.get(label, ()))

    def edge_labels(self) -> Iterator[Label]:
        """Every label some edge carries."""
        return iter(self._by_label)

    def successors(self, source: NodeId, label: Label) -> FrozenSet[NodeId]:
        return frozenset(self._out.get(source, {}).get(label, ()))

    def labels_at(self, source: NodeId) -> FrozenSet[Label]:
        return frozenset(self._out.get(source, {}))

    # -- value semantics -----------------------------------------------------

    def value_set(self, path: Sequence[Label], start: Optional[Iterable[NodeId]] = None) -> FrozenSet[NodeId]:
        """Nodes denoted by ``path`` from ``start`` (default: all roots).

        The empty path denotes the start set itself (the current object).
        """
        frontier: Set[NodeId] = set(self.roots if start is None else start)
        for label in path:
            nxt: Set[NodeId] = set()
            for n in frontier:
                nxt |= self._out.get(n, {}).get(label, set())
            frontier = nxt
            if not frontier:
                break
        return frozenset(frontier)

    def value_sets_by_root(self, path: Sequence[Label]) -> Dict[NodeId, FrozenSet[NodeId]]:
        """``V(path)`` computed separately under each root."""
        return {r: self.value_set(path, start=(r,)) for r in self.roots}

    # -- reachability ------------------------------------------------------------

    def ancestors(self, nodes: Iterable[NodeId]) -> Set[NodeId]:
        """``nodes`` plus every node with a path into one of them."""
        seen = set(nodes)
        work = list(seen)
        while work:
            for _, s in self._in.get(work.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen

    def reach_within(self, starts: Iterable[NodeId], allowed: Set[NodeId]) -> Set[NodeId]:
        """Nodes reached from ``starts`` on paths that stay in ``allowed``."""
        seen = {n for n in starts if n in allowed}
        work = list(seen)
        while work:
            for targets in self._out[work.pop()].values():
                for t in targets:
                    if t in allowed and t not in seen:
                        seen.add(t)
                        work.append(t)
        return seen

    # -- whole-diagram operations ---------------------------------------------

    def reroot(self, new_roots: Iterable[NodeId]) -> FrozenSet[NodeId]:
        """Replace the root set; returns the previous one."""
        new = set(new_roots)
        assert new, "a diagram must keep at least one root"
        for n in new:
            self.ensure_node(n)
        old = frozenset(self.roots)
        self.roots = new
        return old

    def snapshot(self) -> "AliasDiagram":
        """Identity-preserving deep copy (same ids, same roots)."""
        twin = AliasDiagram()
        twin.nodes = set(self.nodes)
        twin.roots = set(self.roots)
        twin._edges = set(self._edges)
        twin._out = {n: {l: set(ts) for l, ts in bylabel.items()} for n, bylabel in self._out.items()}
        twin._in = {t: set(pairs) for t, pairs in self._in.items()}
        twin._by_label = {l: set(pairs) for l, pairs in self._by_label.items()}
        twin._next_id = self._next_id
        return twin

    # -- sanity -----------------------------------------------------------------

    def check_invariants(self) -> None:
        assert self.roots, "root set went empty"
        assert self.roots <= self.nodes
        rebuilt = set()
        for n, bylabel in self._out.items():
            assert n in self.nodes
            for label, targets in bylabel.items():
                assert targets, "empty target bucket left behind for %r at %d" % (label, n)
                for t in targets:
                    rebuilt.add((label, n, t))
        assert rebuilt == self._edges, "edge set and outgoing index disagree"
        by_target: Dict[NodeId, Set[Tuple[Label, NodeId]]] = {}
        by_label: Dict[Label, Set[Tuple[NodeId, NodeId]]] = {}
        for label, s, t in self._edges:
            by_target.setdefault(t, set()).add((label, s))
            by_label.setdefault(label, set()).add((s, t))
        assert by_target == self._in, "edge set and incoming index disagree"
        assert by_label == self._by_label, "edge set and label index disagree"
        for _, s, t in self._edges:
            assert s in self.nodes and t in self.nodes
        assert all(n < self._next_id for n in self.nodes)

    def __repr__(self) -> str:
        return "AliasDiagram(nodes=%d, roots=%s, edges=%d)" % (len(self.nodes), sorted(self.roots), len(self._edges))


def _discard(index, key, item):
    """Drop ``item`` from ``index[key]``, and the bucket once it empties."""
    bucket = index[key]
    bucket.discard(item)
    if not bucket:
        del index[key]


# ---------------------------------------------------------------------------
# Expression universes
# ---------------------------------------------------------------------------

NamePath = Tuple[str, ...]


@dataclass
class ExprUniverse:
    """The prefix-closed set of dotted name paths a program mentions.

    Alias questions are asked and answered over this finite universe:
    reported alias sets are subsets of it.  Paths are tuples of plain
    names; resolution to labels happens at query time against a scope.
    """

    paths: Set[NamePath] = field(default_factory=set)

    def add(self, path: Sequence[str]) -> None:
        path = tuple(path)
        for i in range(1, len(path) + 1):
            self.paths.add(path[:i])

    def __contains__(self, path: Sequence[str]) -> bool:
        return tuple(path) in self.paths

    def __iter__(self) -> Iterator[NamePath]:
        return iter(sorted(self.paths))

    def __len__(self) -> int:
        return len(self.paths)


def parse_name_path(text: str) -> NamePath:
    """Split ``"a.b.c"`` into ``("a", "b", "c")``; ``"Current"`` prefixes
    normalize away (the current object is the empty path)."""
    parts = [seg.strip() for seg in text.strip().split(".") if seg.strip()]
    while parts and parts[0] == "Current":
        parts.pop(0)
    return tuple(parts)


def label_path(names: Sequence[str], scope: Optional[Mapping[str, Label]] = None) -> Tuple[Label, ...]:
    """The label path a name path denotes.  The head resolves through
    ``scope`` (a routine's names, tagged with its activation); a head the
    scope lacks, and every later name, is a field of the current object."""
    if not names:
        return ()
    head = scope.get(names[0], Label(names[0])) if scope else Label(names[0])
    return (head,) + tuple(Label(s) for s in names[1:])


def format_name_path(path: Sequence[str]) -> str:
    return ".".join(path) if path else "Current"
