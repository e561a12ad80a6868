"""Query answers, the list-copy properties, and report rendering.

Root-mask answers are checked against references that walk one root at
a time (``oracles``), and the depth-bound candidates against a path
enumeration of their own.  The list-copy properties are checked through
``deutsch_report`` on hand diagrams and on generated worlds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aliasgraph
from aliasgraph import query as query_module
from aliasgraph.diagram import AliasDiagram, Label, format_name_path, label_path, parse_name_path
from aliasgraph.query import (
    AliasQuery,
    QueryError,
    alias_pairs,
    build_report,
    check_acyclic,
    deutsch_report,
    emit_dot,
    emit_json,
    query_alias,
    resolve_path,
)

from oracles import acyclic_reference, alias_pairs_reference, may_alias
from util import DEUTSCH_SRC, DISPATCH_SRC, FLOW_SRC, build, run


@pytest.fixture(scope="module")
def copied_list():
    return run(DEUTSCH_SRC)


# ---------------------------------------------------------------------------
# query_alias
# ---------------------------------------------------------------------------


def test_query_at_point_sees_that_state(copied_list):
    answers = query_alias(copied_list, AliasQuery("t2", at="L2"))
    assert "X" in answers


def test_query_current_shares_with_nothing(copied_list):
    assert query_alias(copied_list, AliasQuery("Current", at="L2")) == set()


def test_query_on_dispatch_worlds():
    e = run(DISPATCH_SRC)
    answers_a = query_alias(e, AliasQuery("a"))
    assert "t.b" in answers_a and "t.c" in answers_a
    assert "t.b" not in query_alias(e, AliasQuery("t.c"))


def test_queries_at_one_state_share_its_root_masks(monkeypatch):
    built = []

    class CountingMasks(query_module.RootMasks):
        def __init__(self, diagram):
            built.append(diagram)
            super().__init__(diagram)

    monkeypatch.setattr(query_module, "RootMasks", CountingMasks)
    e = run(DEUTSCH_SRC)
    diagram, scope = e.snapshots["L2"]
    texts = [format_name_path(np) for np in e.universe]
    for text in texts:
        qpath = resolve_path(text, scope)
        want = {q for q in texts if q != text and may_alias(diagram, qpath, resolve_path(q, scope))}
        assert query_alias(e, AliasQuery(text, at="L2")) == want
    assert built == [diagram]
    # the final state is another state, with masks of its own
    assert query_alias(e, AliasQuery("Y")) == query_alias(e, AliasQuery("Y"))
    assert built == [diagram, e.diagram]


def test_query_unknown_point_is_an_error(copied_list):
    with pytest.raises(QueryError):
        query_alias(copied_list, AliasQuery("t2", at="L99"))


@pytest.mark.parametrize("text", ["alias(a.n)", "alias(Y)", "a..n", "", "a b", "a.n)"])
def test_query_text_must_be_a_dotted_path(text):
    with pytest.raises(QueryError):
        AliasQuery(text)


def test_dotted_query_text_is_accepted():
    e = run("class C feature n: C end main local a: C b: C do create a create b a.n := b end")
    assert query_alias(e, AliasQuery("a.n")) == {"b"}
    assert query_alias(e, AliasQuery(" Current.a . n ")) == {"b"}


def test_query_answers_are_symmetric_and_irreflexive():
    e = run(FLOW_SRC)
    for p in ["a", "b", "x"]:
        answers = query_alias(e, AliasQuery(p))
        assert p not in answers
        for q in answers:
            assert p in query_alias(e, AliasQuery(q))


def test_depth_bound_widens_candidates_beyond_source_expressions():
    src = """
class C feature n: C end
main local a: C b: C do
  create a
  create b
  a.n := b
end
"""
    e = run(src)
    # b.n is never written in the program text, so only the depth-bound
    # query can name a.n's sibling spelling through b... a.n aliases b
    # either way; the bound adds spellings like a.n itself when asked
    # from b's side
    assert "a.n" in query_alias(e, AliasQuery("b", depth=3))


def test_depth_bound_inside_a_callee_names_the_receivers_fields_as_the_source_does():
    src = """
class M feature
  x: M  z: M
  pick (v: M) local w: M do w := v Q: x := v end
end
main local o: M p: M a: M do create o create p create a o.z := a then o.pick (p) else o.pick (a) end end
"""
    e = run(src)
    assert query_alias(e, AliasQuery("v", at="Q", depth=2)) == {"w", "x", "z"}


def test_depth_bound_must_cover_the_path():
    with pytest.raises(QueryError):
        AliasQuery("a.b.c", depth=2)


def test_depth_bound_is_checked_without_assertions():
    """The bound is input from a library caller, so it must hold under
    ``python -O``, which strips assert statements."""
    with pytest.raises(QueryError, match="depth bound 1"):
        AliasQuery("a.b", depth=1)
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    probe = (
        "from aliasgraph.query import AliasQuery, QueryError\n"
        "try:\n"
        "    AliasQuery('a.b', depth=1)\n"
        "except QueryError:\n"
        "    print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


# ---------------------------------------------------------------------------
# list-copy properties; hand diagrams use plain labels
# ---------------------------------------------------------------------------

HD, TL = Label("hd"), Label("tl")


def chainy(n_spine, loop_back_to=None, shared_heads=False, name="x"):
    """root --name--> spine of tl edges, one hd per spine node."""
    edges = [(name, 0, 1)]
    for i in range(1, n_spine):
        edges.append(("tl", i, i + 1))
    if loop_back_to is not None:
        edges.append(("tl", n_spine, loop_back_to))
    for i in range(1, n_spine + 1):
        edges.append(("hd", i, 100 + (0 if shared_heads else i)))
    return build([0], edges)


def deutsch_on(g, k=3):
    """``deutsch_report`` with ``g`` as both the L2 and the L3 state."""
    return deutsch_report(fake_engine(g, []), k)


def test_acyclic_holds_on_a_plain_chain():
    d = chainy(3)
    assert check_acyclic(d, "x", TL, 3)


def test_self_loop_is_cyclic():
    d = build([0], [("x", 0, 1), ("tl", 1, 1)])
    assert not check_acyclic(d, "x", TL, 0)


def test_chain_looping_back_is_cyclic():
    d = chainy(3, loop_back_to=1)
    assert not check_acyclic(d, "x", TL, 3)


def test_acyclic_is_monotone_in_k():
    # the cycle sits two steps away: small k cannot see it, and once a
    # depth sees it every deeper check still does
    d = build([0], [("x", 0, 1), ("tl", 1, 2), ("tl", 2, 3), ("tl", 3, 3)])
    verdicts = [check_acyclic(d, "x", TL, k) for k in range(5)]
    assert verdicts[0] is True and verdicts[4] is False
    assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=8),
    st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_acyclic_agrees_with_the_closure_reference(xs, tls, k):
    # root 0's x values and tl edges among nodes 1-5
    d = build([0], [("x", 0, n) for n in xs] + [("tl", s, t) for s, t in tls])
    assert check_acyclic(d, "x", TL, k) == acyclic_reference(d, Label("x"), TL, k)


def test_pairwise_heads_on_separate_lists():
    d = build(
        [0],
        [("X", 0, 1), ("tl", 1, 2), ("hd", 1, 11), ("hd", 2, 12),
         ("Y", 0, 5), ("tl", 5, 6), ("hd", 5, 11), ("hd", 6, 12)],
    )
    # heads meet exactly at equal positions: allowed
    assert deutsch_on(d)["P4"]


def test_pairwise_heads_rejects_shifted_sharing():
    d = chainy(3, name="X")
    d.add_edge(Label("Y"), 0, 2)  # Y = X.tl
    assert not deutsch_on(d)["P4"]


def test_pairwise_heads_vacuous_when_unbound():
    assert deutsch_on(chainy(2, name="X"))["P4"]


def test_successive_heads_on_a_plain_chain():
    assert deutsch_on(chainy(3, name="Y"))["P2"]


def test_successive_heads_rejects_repeated_head():
    assert not deutsch_on(chainy(3, shared_heads=True, name="Y"))["P2"]


def test_successive_heads_vacuous_when_unbound():
    assert deutsch_on(chainy(2, name="X"))["P2"]


def test_tails_disjoint_on_separate_lists():
    d = build([0], [("X", 0, 1), ("tl", 1, 2), ("Y", 0, 5), ("tl", 5, 6)])
    assert deutsch_on(d)["P3"]


def test_tails_disjoint_rejects_a_merge():
    d = build([0], [("X", 0, 1), ("tl", 1, 3), ("Y", 0, 2), ("tl", 2, 3)])
    assert not deutsch_on(d)["P3"]


def test_tails_disjoint_vacuous_when_unbound():
    d = build([0], [("X", 0, 1), ("tl", 1, 2)])
    assert deutsch_on(d)["P3"]


def test_fully_unaliased_on_a_plain_chain():
    assert deutsch_on(chainy(3, name="Y"))["P5"]


def test_fully_unaliased_rejects_head_into_spine():
    d = build([0], [("Y", 0, 1), ("tl", 1, 2), ("hd", 1, 2)])
    assert not deutsch_on(d)["P5"]


def test_fully_unaliased_vacuous_when_unbound():
    assert deutsch_on(chainy(2, name="X"))["P5"]


def test_checkers_monotone_in_k_on_shifted_lists():
    d = chainy(4, name="X")
    d.add_edge(Label("Y"), 0, 2)
    verdicts = [deutsch_on(d, k)["P4"] for k in range(5)]
    seen_false = False
    for v in verdicts:
        if not v:
            seen_false = True
        assert not (seen_false and v)


# ---------------------------------------------------------------------------
# the copy benchmark bundle
# ---------------------------------------------------------------------------


def test_copy_benchmark_properties_all_hold(copied_list):
    report = deutsch_report(copied_list, k=3)
    assert report["P1"] and report["P2"] and report["P3"] and report["P4"] and report["P5"]
    assert report["no_share_root"]


# ---------------------------------------------------------------------------
# root masks against the per-root reference
# ---------------------------------------------------------------------------

# X, Y and n are top-level locals of the scope, and n is also a field, so
# a path starting with n must start at a root; T is a tagged local.  The
# second scope also binds a qualified call's ``Current``, so a head it
# lacks, such as hd, is a field of what ``Current`` reaches.
MASK_SCOPE = {"X": Label("X"), "Y": Label("Y"), "n": Label("n"), "T": Label("T", 1)}
CURRENT = Label("Current", 2)
SCOPES = [MASK_SCOPE, dict(MASK_SCOPE, Current=CURRENT)]
MASK_LABELS = list(MASK_SCOPE.values()) + [HD, TL, CURRENT]
HEADS = ["X", "Y", "n", "T", "hd"]
FIELDS = ["n", "hd", "tl", "X"]


@st.composite
def worlds(draw):
    """A diagram with 1 to 70 roots over a few shared nodes.  Each root
    takes the out-edges of one of a few patterns, as worlds forked from
    one another do; further edges leave any node for any node, so cycles
    form, roots get in-edges and locals' labels leave non-roots too."""
    g = AliasDiagram()
    roots = [g.add_root() for _ in range(draw(st.integers(1, 70) | st.integers(60, 70)))]
    ids = roots + [g.fresh_node() for _ in range(draw(st.integers(1, 6)))]
    label = st.sampled_from(MASK_LABELS)
    out_edges = st.lists(st.tuples(label, st.sampled_from(ids[-8:])), max_size=4)
    patterns = draw(st.lists(out_edges, min_size=1, max_size=4))
    for r in roots:
        for lbl, t in patterns[draw(st.integers(0, len(patterns) - 1))]:
            g.add_edge(lbl, r, t)
    for lbl, s, t in draw(st.lists(st.tuples(label, st.sampled_from(ids), st.sampled_from(ids)), max_size=40)):
        g.add_edge(lbl, s, t)
    return g


name_paths = st.tuples(st.sampled_from(HEADS), st.lists(st.sampled_from(FIELDS), max_size=3)).map(
    lambda hf: (hf[0],) + tuple(hf[1])
) | st.just(())


def fake_engine(g, paths, scope=MASK_SCOPE):
    """What the query functions read of an engine, with the diagram as
    the exit state and as the L2 and L3 snapshots."""
    universe = tuple(sorted({p[:i] for p in paths for i in range(1, len(p) + 1)}))
    return SimpleNamespace(
        diagram=g,
        report_scope=lambda: scope,
        universe=universe,
        snapshots={"L2": (g, scope), "L3": (g, scope)},
        snapshot_order=["L2", "L3"],
    )


def diagram_paths_reference(g, scope, depth):
    """The name paths up to ``depth`` long that have a value, found apart
    from the trie walk in ``query``: heads are the scope's names and the
    diagram's field names, and a path grows only while ``label_path``
    gives it a value."""
    fields = {lbl.name for lbl, _, _ in g.edges() if not lbl.tag}
    found, grow = set(), [(name,) for name in (set(scope) - {"Current"}) | fields]
    while grow:
        p = grow.pop()
        if g.value_set(label_path(p, scope)):
            found.add(p)
            if len(p) < depth:
                grow += [p + (f,) for f in fields]
    return found


def query_alias_reference(engine, query):
    scope = engine.report_scope()
    candidates = set(engine.universe)
    if query.depth is not None:
        candidates |= diagram_paths_reference(engine.diagram, scope, query.depth)
    qpath = resolve_path(query.path, scope)
    qtext = format_name_path(parse_name_path(query.path))
    return {
        format_name_path(np)
        for np in candidates
        if format_name_path(np) != qtext and may_alias(engine.diagram, qpath, label_path(np, scope))
    }


def deutsch_reference(g, scope, k):
    """P2-P5 and the no-share root of ``deutsch_report`` with ``g`` as
    both states, one root and one pair at a time."""
    X, Y = resolve_path("X", scope), resolve_path("Y", scope)

    def tail(base, i):
        return base + (TL,) * i

    def head(base, i):
        return tail(base, i) + (HD,)

    def alias(a, b):
        return may_alias(g, a, b)

    family = [tail(Y, j) for j in range(1, k + 1)] + [head(Y, i) for i in range(k + 1)]
    no_share = False
    for r in sorted(g.roots):
        xs = set().union(*(g.value_set(head(X, i), start=(r,)) for i in range(k + 1)))
        ys = set().union(*(g.value_set(head(Y, j), start=(r,)) for j in range(k + 1)))
        if not (xs & ys):
            no_share = True
            break
    return {
        "P2": not any(alias(head(Y, i), head(Y, i + 1)) for i in range(k)),
        "P3": not any(alias(tail(X, i), tail(Y, j)) for i in range(1, k + 1) for j in range(1, k + 1)),
        "P4": not any(alias(head(X, i), head(Y, j)) for i in range(k + 1) for j in range(k + 1) if i != j),
        "P5": not any(alias(a, b) for i, a in enumerate(family) for b in family[i + 1 :]),
        "no_share_root": no_share,
    }


@given(
    worlds(),
    st.sampled_from(SCOPES),
    st.lists(name_paths, max_size=12),
    st.lists(st.booleans(), min_size=12, max_size=12),
    name_paths,
    st.integers(0, 2),
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_root_masks_agree_with_the_per_root_reference(g, scope, paths, as_text, qpath, extra, k):
    # duplicates, the empty path and both input forms; the list need not
    # be prefix-closed
    mixed = [format_name_path(p) if text else p for p, text in zip(paths, as_text)]
    mixed += [mixed[0]] if mixed else []
    mixed += ["Current", ()]
    assert alias_pairs(g, scope, mixed) == alias_pairs_reference(g, scope, mixed)

    engine = fake_engine(g, paths, scope)
    for depth in (None, len(qpath) + extra):
        q = AliasQuery(format_name_path(qpath), depth=depth)
        assert query_alias(engine, q) == query_alias_reference(engine, q)

    got = deutsch_report(engine, k)
    assert {key: got[key] for key in ("P2", "P3", "P4", "P5", "no_share_root")} == deutsch_reference(g, scope, k)


@pytest.mark.parametrize("nroots,second", [(2, 1), (70, 64)])
def test_masks_of_different_roots_never_make_a_pair(nroots, second):
    # a reaches n only under r1 and b reaches n only under r2, while both
    # have values under both roots: or-ing a path's masks across nodes
    # before intersecting would pair them, and so would giving r2 the
    # bit of r1 (bits 0 and 64)
    g = AliasDiagram()
    roots = [g.add_root() for _ in range(nroots)]
    r1, r2 = roots[0], roots[second]
    n, m1, m2 = g.fresh_node(), g.fresh_node(), g.fresh_node()
    a, b = Label("a"), Label("b")
    g.add_edge(a, r1, n)
    g.add_edge(b, r1, m1)
    g.add_edge(a, r2, m2)
    g.add_edge(b, r2, n)
    assert alias_pairs(g, {}, ["a", "b"]) == alias_pairs_reference(g, {}, ["a", "b"]) == []
    engine = SimpleNamespace(diagram=g, report_scope=lambda: {}, universe=(("a",), ("b",)))
    assert query_alias(engine, AliasQuery("a")) == set()
    assert query_alias(engine, AliasQuery("b", depth=1)) == set()
    g.add_edge(b, r1, n)
    assert alias_pairs(g, {}, ["a", "b"]) == [("a", "b")]


def test_paths_far_longer_than_the_recursion_limit_resolve():
    # a on a one-node .n cycle: every a.n...n denotes that node, and a
    # depth bound walks the cycle as deep as it allows
    g = AliasDiagram()
    r, x = g.add_root(), g.fresh_node()
    g.add_edge(Label("a"), r, x)
    g.add_edge(Label("n"), x, x)
    long = "a" + ".n" * 2000
    assert alias_pairs(g, {}, [long, "a"]) == alias_pairs_reference(g, {}, [long, "a"]) == [("a", long)]
    engine = SimpleNamespace(diagram=g, report_scope=lambda: {}, universe=(("a",),))
    assert query_alias(engine, AliasQuery(long)) == {"a"}
    assert len(query_alias(engine, AliasQuery("a", depth=1500))) == 1499


def test_no_share_root_needs_one_root_without_sharing():
    # X and Y heads meet under r1 only: r2 is a root where they share nothing
    g = AliasDiagram()
    r1, r2 = g.add_root(), g.add_root()
    x1, y1, x2, y2, h, h2, h3 = (g.fresh_node() for _ in range(7))
    for lbl, s, t in [("X", r1, x1), ("Y", r1, y1), ("hd", x1, h), ("hd", y1, h),
                      ("X", r2, x2), ("Y", r2, y2), ("hd", x2, h2), ("hd", y2, h3)]:
        g.add_edge(Label(lbl), s, t)
    engine = fake_engine(g, [])
    assert deutsch_report(engine, 1)["no_share_root"] is True
    g.add_edge(HD, y2, h2)
    assert deutsch_report(engine, 1)["no_share_root"] is False
    assert deutsch_reference(g, MASK_SCOPE, 1)["no_share_root"] is False


# ---------------------------------------------------------------------------
# reports and rendering
# ---------------------------------------------------------------------------


def test_final_pairs_cover_the_flow_split():
    e = run(FLOW_SRC)
    pairs = [tuple(p) for p in build_report(e)["final"]["pairs"]]
    assert ("a", "x") in pairs
    assert ("b", "x") in pairs
    assert ("a", "b") not in pairs


def test_pairs_are_sorted_and_irreflexive():
    e = run(DEUTSCH_SRC)
    report = build_report(e)
    for pairs in [point["pairs"] for point in report["points"]] + [report["final"]["pairs"]]:
        assert pairs == sorted(pairs)
        for p, q in pairs:
            assert p < q


def test_json_schema_and_determinism():
    e = run(DEUTSCH_SRC)
    report = build_report(e)
    blob = emit_json(report)
    assert blob == emit_json(build_report(e))
    doc = json.loads(blob)
    assert set(doc) == {"program", "entry", "points", "final", "diagnostics"}
    assert doc["entry"] == "main"
    assert [p["label"] for p in doc["points"]] == ["L0", "L1", "L2", "L3"]
    for point in doc["points"]:
        assert set(point) == {"label", "pairs"}


def test_json_round_trips(copied_list):
    report = build_report(copied_list)
    assert json.loads(emit_json(report)) == report


def test_json_is_injective_on_reports():
    a = emit_json(build_report(run(FLOW_SRC)))
    b = emit_json(build_report(run(DEUTSCH_SRC)))
    assert a != b


def test_dot_shape_and_stability():
    d = build([0], [("a", 0, 1), ("d", 0, 1), ("c", 0, 2), ("b", 1, 2)])
    blob = emit_dot(d)
    assert blob == emit_dot(d)
    text = blob.decode()
    assert text.startswith("digraph")
    assert text.count("peripheries=2") == 1
    assert text.count(" -> ") == 4
    assert text.count("[label=\"n") == 3


def test_dot_single_root_no_edges():
    d = build([0], [])
    text = emit_dot(d).decode()
    assert text.count("[label=\"n") == 1
    assert " -> " not in text


def test_dot_on_analysis_result(copied_list):
    snap, scope = copied_list.snapshots["L2"]
    text = emit_dot(snap, scope).decode()
    assert text.count("peripheries=2") == 2  # both worlds are roots
    assert "X" in text and "Y" in text
