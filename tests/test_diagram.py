import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliasgraph import diagram
from aliasgraph.diagram import (
    AliasDiagram,
    Label,
    format_name_path,
    parse_name_path,
)

from oracles import canonical_form, clone, may_alias, union

A, B, C, D, F = (Label(x) for x in "abcdf")
V, W, X = (Label(x) for x in "vwx")


def reference_graph():
    """Three nodes under one root: a,d -> n1, c -> n2, b: n1 -> n2."""
    g = AliasDiagram()
    n0 = g.add_root()
    n1 = g.fresh_node()
    n2 = g.fresh_node()
    g.add_edge(A, n0, n1)
    g.add_edge(D, n0, n1)
    g.add_edge(C, n0, n2)
    g.add_edge(B, n1, n2)
    return g, n0, n1, n2


def sibling_graph():
    """Shares ids n0 and n2 with the reference graph: v,w -> n4, x: n4 -> n2."""
    g = AliasDiagram()
    g.ensure_node(0)
    g.roots = {0}
    g.ensure_node(2)
    n4 = 4
    g.ensure_node(n4)
    g.add_edge(V, 0, n4)
    g.add_edge(W, 0, n4)
    g.add_edge(X, n4, 2)
    return g, n4


# -- whole-diagram operations, pinned ------------------------------------------


def test_include_adds_isolated_node():
    g, n0, n1, n2 = reference_graph()
    before = g.edge_set()
    n = g.fresh_node()
    assert n not in {n0, n1, n2}
    assert g.edge_set() == before
    assert not list(g.out_edges(n))


def test_union_merges_componentwise_on_shared_ids():
    g, n0, n1, n2 = reference_graph()
    h, n4 = sibling_graph()
    union(g, h)
    assert g.edge_set() == frozenset(
        {
            (A, n0, n1),
            (D, n0, n1),
            (C, n0, n2),
            (B, n1, n2),
            (V, n0, n4),
            (W, n0, n4),
            (X, n4, n2),
        }
    )
    assert g.roots == {n0}
    g.check_invariants()


def test_clone_is_isomorphic_on_disjoint_ids():
    g, n0, n1, n2 = reference_graph()
    twin, mapping = clone(g)
    assert set(mapping) == {n0, n1, n2}
    assert not (set(mapping.values()) & {n0, n1, n2})
    assert canonical_form(g) == canonical_form(twin)
    # the source counter moved past the twin's ids, so a later union is safe
    union(g, twin)
    g.check_invariants()
    fresh = g.fresh_node()
    assert fresh not in mapping.values()


# -- value semantics ----------------------------------------------------------


def test_value_set_follows_label_chains():
    g, n0, n1, n2 = reference_graph()
    assert g.value_set(()) == frozenset({n0})
    assert g.value_set((A,)) == frozenset({n1})
    assert g.value_set((A, B)) == frozenset({n2})
    assert g.value_set((B,)) == frozenset()
    assert g.value_set((A, B, C)) == frozenset()


def test_value_sets_by_root_keeps_worlds_apart():
    g = AliasDiagram()
    r1 = g.add_root()
    r2 = g.add_root()
    n1 = g.fresh_node()
    n2 = g.fresh_node()
    g.add_edge(A, r1, n1)
    g.add_edge(B, r2, n1)
    g.add_edge(B, r1, n2)
    per_root = g.value_sets_by_root((A,))
    assert per_root[r1] == frozenset({n1})
    assert per_root[r2] == frozenset()


def test_may_alias_needs_a_single_root_witness():
    # a and b meet only when their shared node is seen from one root
    g = AliasDiagram()
    r1 = g.add_root()
    r2 = g.add_root()
    n = g.fresh_node()
    g.add_edge(A, r1, n)
    g.add_edge(B, r2, n)
    assert not may_alias(g, (A,), (B,))
    g.add_edge(B, r1, n)
    assert may_alias(g, (A,), (B,))


def test_alias_set_over_program_expressions():
    g, n0, n1, n2 = reference_graph()
    universe = [(A,), (B,), (C,), (D,), (A, B), (D, B)]
    got = [q for q in universe if may_alias(g, (C,), q)]
    assert got == [(C,), (A, B), (D, B)]


def test_empty_valued_path_aliases_nothing():
    g, *_ = reference_graph()
    assert not any(may_alias(g, (F,), q) for q in [(F,), (A,)])


# -- name paths ----------------------------------------------------------------


def test_name_path_parsing_normalizes_current():
    assert parse_name_path("a.b") == ("a", "b")
    assert parse_name_path("Current") == ()
    assert parse_name_path("Current.a") == ("a",)
    assert format_name_path(()) == "Current"
    assert format_name_path(("a", "b")) == "a.b"


# -- canonical comparison --------------------------------------------------------


def test_canonical_form_ignores_node_ids():
    g, *_ = reference_graph()
    h = AliasDiagram()
    m0, m1, m2 = 10, 11, 12
    for m in (m0, m1, m2):
        h.ensure_node(m)
    h.roots = {m0}
    h.add_edge(A, m0, m1)
    h.add_edge(D, m0, m1)
    h.add_edge(C, m0, m2)
    h.add_edge(B, m1, m2)
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_sees_root_placement():
    g, n0, n1, n2 = reference_graph()
    h = g.snapshot()
    h.roots = {n1}
    assert canonical_form(g, reachable_only=False) != canonical_form(h, reachable_only=False)


def test_canonical_form_skips_orphans_by_default():
    g, *_ = reference_graph()
    h = g.snapshot()
    h.fresh_node()
    assert canonical_form(g) == canonical_form(h)
    assert canonical_form(g, reachable_only=False) != canonical_form(h, reachable_only=False)


def test_canonical_form_separates_symmetric_targets():
    # two roots pointing at private nodes vs. at a shared one
    shared = AliasDiagram()
    r1, r2 = shared.add_root(), shared.add_root()
    n = shared.fresh_node()
    shared.add_edge(A, r1, n)
    shared.add_edge(A, r2, n)
    private = AliasDiagram()
    s1, s2 = private.add_root(), private.add_root()
    private.add_edge(A, s1, private.fresh_node())
    private.add_edge(A, s2, private.fresh_node())
    assert canonical_form(shared) != canonical_form(private)


# -- property tests ----------------------------------------------------------------


@st.composite
def diagrams(draw):
    g = AliasDiagram()
    ids = [g.fresh_node() for _ in range(draw(st.integers(2, 6)))]
    g.roots = {ids[0]}
    for extra in draw(st.lists(st.sampled_from(ids), max_size=2)):
        g.roots.add(extra)
    for name, s, t in draw(
        st.lists(
            st.tuples(
                st.sampled_from("abcxy"),
                st.sampled_from(ids),
                st.sampled_from(ids),
            ),
            max_size=12,
        )
    ):
        g.add_edge(Label(name), s, t)
    return g


@given(diagrams())
@settings(max_examples=60)
def test_clone_preserves_structure(g):
    twin, _ = clone(g)
    assert canonical_form(g, reachable_only=False) == canonical_form(twin, reachable_only=False)
    assert not (twin.nodes & g.nodes)
    twin.check_invariants()


@given(diagrams(), diagrams())
@settings(max_examples=60)
def test_union_only_accumulates(g, h):
    before_edges = g.edge_set()
    before_roots = set(g.roots)
    union(g, h)
    assert before_edges <= g.edge_set()
    assert h.edge_set() <= g.edge_set()
    assert before_roots <= g.roots
    g.check_invariants()


@given(diagrams())
@settings(max_examples=60)
def test_union_cannot_lose_alias_pairs(g):
    h, _ = clone(g)
    paths = [(Label(n),) for n in "abcxy"]
    before = {(p, q) for p in paths for q in paths if may_alias(g, p, q)}
    union(g, h)
    after = {(p, q) for p in paths for q in paths if may_alias(g, p, q)}
    assert before <= after


@given(diagrams())
@settings(max_examples=60)
def test_snapshot_is_detached(g):
    snap = g.snapshot()
    assert snap.edge_set() == g.edge_set()
    assert snap.roots == g.roots
    n = snap.fresh_node()
    snap.add_edge(Label("zz"), next(iter(snap.roots)), n)
    assert snap.edge_set() != g.edge_set()
    assert n not in g.nodes
    g.check_invariants()


@given(diagrams(), st.lists(st.tuples(st.sampled_from("abcxy"), st.integers(0, 5), st.integers(0, 5)), max_size=12))
@settings(max_examples=60)
def test_indexes_follow_removals(g, doomed):
    """Removing edges, present or not, keeps the in-edge index equal to
    the edge set, with no empty bucket left."""
    for name, s, t in doomed:
        g.remove_edge(Label(name), s, t)
    g.check_invariants()
    edges = g.edge_set()
    for n in g.nodes:
        assert set(g.in_edges(n)) == {(l, s) for (l, s, t) in edges if t == n}


# one step of the model-based test: (kind, label name, source, target)
diagram_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove", "ensure", "snapshot"]),
        st.sampled_from("ab"),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=40,
)


@given(diagram_ops)
@settings(max_examples=100)
def test_edge_stores_follow_a_model_of_triples(ops):
    """Adds, removals, new nodes and snapshots, applied both to a diagram
    and to a plain set of triples, leave the two with the same edges,
    nodes and in-edges; a snapshot carries on as a detached copy."""
    g = AliasDiagram()
    g.add_root()
    model, nodes = set(), {0}
    for kind, name, s, t in ops:
        e = (Label(name), s, t)
        if kind == "add":
            # add_edge links nodes only: explicit ids are registered first
            g.ensure_node(s)
            g.ensure_node(t)
            assert g.add_edge(*e) == (e not in model)
            model.add(e)
            nodes |= {s, t}
        elif kind == "remove":
            assert g.remove_edge(*e) == (e in model)
            model.discard(e)
        elif kind == "ensure":
            g.ensure_node(s)
            nodes.add(s)
        else:
            before = g
            g = g.snapshot()
            before.add_edge(Label("zz"), 0, 0)
    assert g.edge_set() == frozenset(model)
    assert sorted(g.edges()) == sorted(model)
    assert set(g.nodes) == nodes
    assert g._next_id == max(nodes) + 1
    for n in nodes:
        assert set(g.in_edges(n)) == {(l, s) for (l, s, t) in model if t == n}
        assert {(l, t) for l, ts in g.out_map(n).items() for t in ts} == {(l, t) for (l, s, t) in model if s == n}
    g.check_invariants()


def test_ancestors_and_reach_within():
    g, n0, n1, n2 = reference_graph()
    n3 = g.fresh_node()
    g.add_edge(A, n3, n1)
    assert g.ancestors([n1]) == {n0, n1, n3}
    assert g.ancestors([n2]) == {n0, n1, n2, n3}
    # n2 is reached from n0 directly, and through n1 only when n1 is allowed
    assert g.reach_within([n0], {n0, n2}) == {n0, n2}
    assert g.reach_within([n3], {n3, n2}) == {n3}
    assert g.reach_within([n3], {n3, n1, n2}) == {n3, n1, n2}
    assert g.reach_within([n1], {n0}) == set()


def test_label_orders_and_hashes_as_its_fields():
    assert sorted([Label("b"), Label("a", 2), Label("a", 1, 1), Label("a", 1)]) == [
        Label("a", 1),
        Label("a", 1, 1),
        Label("a", 2),
        Label("b"),
    ]
    assert hash(Label("a", 1, 2)) == hash(("a", 1, 2))


# -- change records ------------------------------------------------------------------


def test_a_change_and_its_inverse_leave_an_empty_delta():
    g, n0, n1, n2 = reference_graph()
    delta = g.record()
    assert g.add_edge(X, n0, n2) and g.remove_edge(X, n0, n2)
    assert (delta.added, delta.removed) == (set(), set())
    assert g.remove_edge(A, n0, n1) and g.add_edge(A, n0, n1)
    assert (delta.added, delta.removed) == (set(), set())
    # writes that change nothing note nothing
    assert not g.add_edge(B, n1, n2) and not g.remove_edge(X, n1, n2)
    assert (delta.added, delta.removed) == (set(), set())
    g.rollback(delta)
    g.check_invariants()


edge_writes = st.lists(st.tuples(st.booleans(), st.sampled_from("abcxy"), st.integers(0, 5), st.integers(0, 5)), max_size=20)


@given(diagrams(), edge_writes)
@settings(max_examples=100)
def test_rollback_restores_the_diagram_exactly(g, writes):
    """A delta holds the net change of any run of writes, and rolling it
    back restores both indexes and the edge set."""
    out = {n: {l: set(ts) for l, ts in by_label.items()} for n, by_label in g._out.items()}
    ins = {t: set(pairs) for t, pairs in g._in.items()}
    before = g.edge_set()
    delta = g.record()
    for add, name, s, t in writes:
        if s in g.nodes and t in g.nodes:
            (g.add_edge if add else g.remove_edge)(Label(name), s, t)
    after = g.edge_set()
    assert (delta.added, delta.removed) == (after - before, before - after)
    g.rollback(delta)
    assert (g._out, g._in, g.edge_set()) == (out, ins, before)
    g.check_invariants()


def test_an_inner_rollback_leaves_the_outer_delta_as_it_was():
    g, n0, n1, n2 = reference_graph()
    outer = g.record()
    g.add_edge(X, n0, n2)
    inner = g.record()
    g.add_edge(X, n1, n2)
    g.remove_edge(X, n0, n2)
    g.remove_edge(A, n0, n1)
    assert (inner.added, inner.removed) == ({(X, n1, n2)}, {(X, n0, n2), (A, n0, n1)})
    g.rollback(inner)
    assert (outer.added, outer.removed) == ({(X, n0, n2)}, set())
    assert g.edge_set() == reference_graph()[0].edge_set() | {(X, n0, n2)}
    # later writes land in the outer delta again
    g.remove_edge(B, n1, n2)
    assert (outer.added, outer.removed) == ({(X, n0, n2)}, {(B, n1, n2)})
    g.rollback(outer)
    assert g.edge_set() == reference_graph()[0].edge_set()
    g.check_invariants()


def test_an_open_delta_breaks_the_invariants_and_closes_innermost_first():
    g, *_ = reference_graph()
    outer = g.record()
    inner = g.record()
    with pytest.raises(AssertionError, match="innermost"):
        g.rollback(outer)
    g.rollback(inner)
    with pytest.raises(AssertionError, match="left open"):
        g.check_invariants()
    g.rollback(outer)
    g.check_invariants()


# -- documentation ------------------------------------------------------------------


def test_module_example_runs():
    result = doctest.testmod(diagram)
    assert result.attempted > 0
    assert result.failed == 0
