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
``value_sets_by_root`` and ``may_alias`` implement that discipline, while
plain ``value_set`` gives the merged view used for condition tests.

Invariants maintained by every mutating operation:

  * the root set is never empty;
  * node identifiers are allocated from a monotone counter and never
    reused, so a clone can later be unioned back without collisions;
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

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

NodeId = int


class Label(NamedTuple):
    """An edge label: a program name plus analysis-internal qualifiers.

    ``tag`` distinguishes the routine-local names of one activation from
    another's (0 for object fields and for names of the entry routine's
    own scope that were installed with tag 0).  ``prime`` marks synthetic
    back-pointers installed for the duration of a qualified call; the
    value records the call nesting depth so nested calls do not collide.
    Labels order and hash as the tuple of their fields.
    """

    name: str
    tag: int = 0
    prime: int = 0

    def display(self) -> str:
        return self.name + "'" * min(self.prime, 3) if self.prime else self.name


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
        """Register an externally chosen id (used by union and cloning)."""
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

    def may_alias(self, p: Sequence[Label], q: Sequence[Label]) -> bool:
        """True when some single root sees the two paths share a node."""
        for r in self.roots:
            vp = self.value_set(p, start=(r,))
            if not vp:
                continue
            if vp & self.value_set(q, start=(r,)):
                return True
        return False

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

    def union(self, other: "AliasDiagram") -> None:
        """Componentwise in-place union, preserving node identities.

        Shared ids merge: this is how two variants derived from the same
        diagram recombine, with agreement on the untouched structure and
        accumulation of the divergent edges.
        """
        for n in sorted(other.nodes):
            self.ensure_node(n)
        for label, s, t in sorted(other.edges()):
            self.add_edge(label, s, t)
        self.roots |= other.roots

    def clone(self) -> Tuple["AliasDiagram", Dict[NodeId, NodeId]]:
        """Isomorphic copy on fresh ids drawn from this diagram's counter.

        The copy's counter continues past both diagrams' ids, so either
        can later be unioned with the other without collisions.
        """
        twin = AliasDiagram()
        twin._next_id = self._next_id
        mapping: Dict[NodeId, NodeId] = {}
        for n in sorted(self.nodes):
            mapping[n] = twin.fresh_node()
        for label, s, t in sorted(self._edges):
            twin.add_edge(label, mapping[s], mapping[t])
        twin.roots = {mapping[r] for r in self.roots}
        # Let the source skip past the ids the twin consumed, keeping the
        # "never reused" invariant global across both.
        self._next_id = twin._next_id
        return twin, mapping

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

    # -- comparison ------------------------------------------------------------

    def reachable_nodes(self) -> Set[NodeId]:
        seen: Set[NodeId] = set()
        frontier = list(self.roots)
        while frontier:
            n = frontier.pop()
            if n in seen:
                continue
            seen.add(n)
            for _, t in self.out_edges(n):
                if t not in seen:
                    frontier.append(t)
        return seen

    def canonical_form(self, reachable_only: bool = True) -> Tuple:
        """A value equal for exactly the isomorphic diagrams.

        Isomorphism here means a node bijection preserving edges, labels
        and rootness; ids themselves do not matter.  By default nodes
        unreachable from every root are ignored, mirroring how result
        states are drawn without their orphaned objects.

        Color refinement splits the nodes; any remaining symmetric class
        is broken by trying the permutations and keeping the least
        encoding, which is fine at the sizes the analysis produces (the
        search is capped and falls back to the refined order).
        """
        nodes = sorted(self.reachable_nodes() if reachable_only else self.nodes)
        node_set = set(nodes)
        edges = [(l, s, t) for (l, s, t) in self._edges if s in node_set and t in node_set]
        ins: Dict[NodeId, List[Tuple[Label, NodeId]]] = {n: [] for n in nodes}
        outs: Dict[NodeId, List[Tuple[Label, NodeId]]] = {n: [] for n in nodes}
        for l, s, t in edges:
            outs[s].append((l, t))
            ins[t].append((l, s))

        color = {n: (n in self.roots) for n in nodes}
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

        classes: Dict[int, List[NodeId]] = {}
        for n in nodes:
            classes.setdefault(color[n], []).append(n)

        def encode(order: Mapping[NodeId, int]) -> Tuple:
            return (
                tuple(sorted((l.display(), l.tag, order[s], order[t]) for l, s, t in edges)),
                tuple(sorted(order[r] for r in self.roots if r in node_set)),
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
            order: Dict[NodeId, int] = {}
            i = 0
            for seq in combo:
                for n in seq:
                    order[n] = i
                    i += 1
            enc = encode(order)
            if best is None or enc < best:
                best = enc
        return best if best is not None else encode(base_order)

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
