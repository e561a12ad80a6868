import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliasgraph import diagram
from aliasgraph.diagram import (
    AliasDiagram,
    ExprUniverse,
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


def test_reroot_swaps_root_set_and_keeps_edges():
    g, n0, n1, n2 = reference_graph()
    before = g.edge_set()
    old = g.reroot({n2})
    assert old == frozenset({n0})
    assert g.roots == {n2}
    assert g.edge_set() == before


def test_reroot_refuses_empty():
    g, *_ = reference_graph()
    with pytest.raises(AssertionError):
        g.reroot(set())


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


# -- expression universe -------------------------------------------------------


def test_universe_is_prefix_closed():
    u = ExprUniverse()
    u.add(("a", "b", "c"))
    assert ("a",) in u
    assert ("a", "b") in u
    assert ("a", "b", "c") in u
    assert len(u) == 3


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
    h.reroot({n1})
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
    """Removing edges, present or not, keeps the in-edge and label
    indexes equal to the edge set, with no empty bucket left."""
    for name, s, t in doomed:
        g.remove_edge(Label(name), s, t)
    g.check_invariants()
    edges = g.edge_set()
    for n in g.nodes:
        assert set(g.in_edges(n)) == {(l, s) for (l, s, t) in edges if t == n}
    for name in "abcxy":
        assert set(g.label_edges(Label(name))) == {(s, t) for (l, s, t) in edges if l == Label(name)}
    assert set(g.edge_labels()) == {l for (l, _, _) in edges}


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


# -- documentation ------------------------------------------------------------------


def test_module_example_runs():
    result = doctest.testmod(diagram)
    assert result.attempted > 0
    assert result.failed == 0
