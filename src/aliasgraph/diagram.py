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
  * each edge is stored once per direction: outgoing (source -> label ->
    targets, with an entry for every node, so its keys are the node
    set) and incoming (target -> (label, source) pairs); the two agree,
    and neither keeps an empty bucket;
  * open deltas record each edge change, innermost first: the change
    is noted in the innermost delta ``record`` opened, and ``rollback``
    undoes it off the record; a finished analysis leaves none open.

The engine keeps one more: an edge whose label carries a nonzero
activation tag leaves a root.  A routine's names are bound from the
roots only, so closing an activation sweeps its labels from the roots.
``check_invariants`` checks all of these.

Example:

    >>> g = AliasDiagram()
    >>> r = g.add_root()
    >>> n = g.fresh_node()
    >>> g.add_edge(Label("a"), r, n)
    True
    >>> g.value_set((Label("a"),)) == frozenset({n})
    True
    >>> d = g.record()
    >>> g.remove_edge(Label("a"), r, n)
    True
    >>> g.rollback(d)
    >>> d.removed == {(Label("a"), r, n)} and g.value_set((Label("a"),)) == frozenset({n})
    True
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

NodeId = int


class Label(NamedTuple):
    """An edge label: a program name plus an activation tag.

    ``tag`` is the depth on the call stack of the activation that owns a
    routine-local name: 0 for object fields and for the entry routine's
    own names, d for a callee d calls deep.  Two live activations never
    share a depth, and a closed one's labels are swept, so a tag tells
    live activations apart.  Labels order and hash as the tuple of their
    fields.

    ``prime`` is always 0: the analysis binds a qualified call's actuals
    per world and installs no back-pointer labels, so nothing here sets
    or reads it.  It stays only because the benchmark's reference path
    walk (``bench/workloads.py``, ``PathWalk``) still reads it.
    """

    name: str
    tag: int = 0
    prime: int = 0


Edge = Tuple[Label, NodeId, NodeId]


class Delta:
    """The net edge change since ``AliasDiagram.record`` opened it."""

    def __init__(self) -> None:
        self.added: Set[Edge] = set()
        self.removed: Set[Edge] = set()


# ---------------------------------------------------------------------------
# The diagram proper
# ---------------------------------------------------------------------------


class AliasDiagram:
    """Mutable rooted labeled directed multigraph with set-valued edges.

    Parallel edges with distinct labels are allowed; a (label, source,
    target) triple is stored at most once.  Callers iterate in sorted
    order only where a loop allocates nodes, so node ids do not depend
    on set iteration order; a loop that only writes edges reaches the
    same edges in any order.
    """

    def __init__(self) -> None:
        self.roots: Set[NodeId] = set()
        # every node has an entry here, edges or not
        self._out: Dict[NodeId, Dict[Label, Set[NodeId]]] = {}
        self._in: Dict[NodeId, Set[Tuple[Label, NodeId]]] = {}
        self._next_id: int = 0
        # the open deltas, innermost last
        self._deltas: List[Delta] = []

    @property
    def nodes(self) -> AbstractSet[NodeId]:
        """A live read-only view of the node set."""
        return self._out.keys()

    # -- construction -------------------------------------------------------

    def fresh_node(self) -> NodeId:
        n = self._next_id
        self._next_id += 1
        self._out[n] = {}
        return n

    def add_root(self) -> NodeId:
        n = self.fresh_node()
        self.roots.add(n)
        return n

    def ensure_node(self, n: NodeId) -> None:
        """Register an id that may not be a node yet, moving the counter
        past it.  A builder that picks its own ids calls this before
        ``add_edge``, which only links nodes."""
        if n not in self._out:
            self._out[n] = {}
            if n >= self._next_id:
                self._next_id = n + 1

    # -- raw edge surgery ----------------------------------------------------

    def add_edge(self, label: Label, source: NodeId, target: NodeId) -> bool:
        """Insert one triple between two nodes.  Returns True if the
        diagram changed."""
        out = self._out[source]
        targets = out.get(label)
        if targets is None:
            out[label] = {target}
        elif target in targets:
            return False
        else:
            targets.add(target)
        ins = self._in.get(target)
        if ins is None:
            self._in[target] = {(label, source)}
        else:
            ins.add((label, source))
        if self._deltas:
            _note((label, source, target), self._deltas[-1].added, self._deltas[-1].removed)
        return True

    def remove_edge(self, label: Label, source: NodeId, target: NodeId) -> bool:
        out = self._out.get(source)
        targets = out.get(label) if out else None
        if not targets or target not in targets:
            return False
        _discard(out, label, target)
        _discard(self._in, target, (label, source))
        if self._deltas:
            _note((label, source, target), self._deltas[-1].removed, self._deltas[-1].added)
        return True

    def record(self) -> Delta:
        """Open a delta that notes each edge change until ``rollback``
        closes it.  Deltas nest; a change is noted in the innermost."""
        self._deltas.append(Delta())
        return self._deltas[-1]

    def rollback(self, delta: Delta) -> None:
        """Close ``delta``, the innermost open one, and undo it off the record."""
        assert self._deltas[-1] is delta, "rollback of a delta that is not the innermost open one"
        outer, self._deltas = self._deltas[:-1], []
        for e in delta.added:
            self.remove_edge(*e)
        for e in delta.removed:
            self.add_edge(*e)
        self._deltas = outer

    def edge_set(self) -> FrozenSet[Edge]:
        return frozenset(self.edges())

    def edges(self) -> Iterator[Edge]:
        return ((l, s, t) for s, out in self._out.items() for l, ts in out.items() for t in ts)

    def out_edges(self, source: NodeId) -> Iterator[Tuple[Label, NodeId]]:
        for label, targets in self._out.get(source, _NO_EDGES).items():
            for t in targets:
                yield label, t

    # The rest of this section hands out the live index: collect what
    # it yields before changing the diagram, and never mutate it.

    def in_edges(self, target: NodeId) -> Iterator[Tuple[Label, NodeId]]:
        """The (label, source) pairs of the edges into ``target``."""
        return iter(self._in.get(target, ()))

    def out_map(self, source: NodeId) -> Mapping[Label, AbstractSet[NodeId]]:
        """``source``'s label -> targets map (empty for a non-node)."""
        return self._out.get(source, _NO_EDGES)

    def successors(self, source: NodeId, label: Label) -> AbstractSet[NodeId]:
        return self._out.get(source, _NO_EDGES).get(label, _NO_NODES)

    # -- value semantics -----------------------------------------------------

    def value_set(self, path: Sequence[Label], start: Optional[Iterable[NodeId]] = None) -> FrozenSet[NodeId]:
        """Nodes denoted by ``path`` from ``start`` (default: all roots).

        The empty path denotes the start set itself (the current object).
        """
        frontier: Iterable[NodeId] = self.roots if start is None else start
        for label in path:
            nxt: Set[NodeId] = set()
            for n in frontier:
                nxt |= self._out.get(n, _NO_EDGES).get(label, _NO_NODES)
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

    def snapshot(self) -> "AliasDiagram":
        """Identity-preserving deep copy (same ids, same roots)."""
        twin = AliasDiagram()
        twin.roots = set(self.roots)
        twin._out = {n: {l: set(ts) for l, ts in bylabel.items()} for n, bylabel in self._out.items()}
        twin._in = {t: set(pairs) for t, pairs in self._in.items()}
        twin._next_id = self._next_id
        return twin

    # -- sanity -----------------------------------------------------------------

    def check_invariants(self) -> None:
        assert self.roots, "root set went empty"
        assert all(r in self._out for r in self.roots), "a root is not a node"
        by_target: Dict[NodeId, Set[Tuple[Label, NodeId]]] = {}
        for n, bylabel in self._out.items():
            for label, targets in bylabel.items():
                assert targets, "empty target bucket left behind for %r at %d" % (label, n)
                assert not label.tag or n in self.roots, "tagged label %r leaves non-root %d" % (label, n)
                for t in targets:
                    assert t in self._out, "edge target %d is not a node" % t
                    by_target.setdefault(t, set()).add((label, n))
        assert by_target == self._in, "outgoing and incoming indexes disagree"
        assert all(n < self._next_id for n in self._out)
        assert not self._deltas, "a delta was left open"

    def __repr__(self) -> str:
        return "AliasDiagram(nodes=%d, roots=%s, edges=%d)" % (len(self._out), sorted(self.roots), len(self.edge_set()))


_NO_EDGES: Mapping[Label, AbstractSet[NodeId]] = MappingProxyType({})
_NO_NODES: AbstractSet[NodeId] = frozenset()


def _note(edge, gains, cancels):
    """Note one edge change, or cancel its noted inverse: adding an edge
    a delta removed, or removing one it added, leaves no trace."""
    if edge in cancels:
        cancels.discard(edge)
    else:
        gains.add(edge)


def _discard(index, key, item):
    """Drop ``item`` from ``index[key]``, and the bucket once it empties."""
    bucket = index[key]
    bucket.discard(item)
    if not bucket:
        del index[key]


# ---------------------------------------------------------------------------
# Name paths
# ---------------------------------------------------------------------------

NamePath = Tuple[str, ...]


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
    scope lacks, and every later name, is a field of the current object:
    the root, or what the scope's ``Current`` reaches from it."""
    scope = scope or {}
    if names and names[0] in scope:
        return (scope[names[0]],) + tuple(Label(s) for s in names[1:])
    prefix = (scope["Current"],) if "Current" in scope else ()
    return prefix + tuple(Label(s) for s in names)


def format_name_path(path: Sequence[str]) -> str:
    return ".".join(path) if path else "Current"
