"""Query answers, list-shape checkers, and report rendering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aliasgraph
from aliasgraph.diagram import Label
from aliasgraph.query import (
    AliasQuery,
    QueryError,
    alias_pairs,
    build_report,
    check_acyclic,
    check_fully_unaliased,
    check_pairwise_heads,
    check_successive_heads,
    check_tails_disjoint,
    deutsch_report,
    emit_dot,
    emit_json,
    query_alias,
)

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
# bounded checkers; hand diagrams use plain labels
# ---------------------------------------------------------------------------

HD, TL = Label("hd"), Label("tl")


def chainy(n_spine, loop_back_to=None, shared_heads=False):
    """root --x--> spine of tl edges, one hd per spine node."""
    edges = [("x", 0, 1)]
    for i in range(1, n_spine):
        edges.append(("tl", i, i + 1))
    if loop_back_to is not None:
        edges.append(("tl", n_spine, loop_back_to))
    for i in range(1, n_spine + 1):
        edges.append(("hd", i, 100 + (0 if shared_heads else i)))
    return build([0], edges)


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
    assert all(a or not b for a, b in zip(verdicts, verdicts[1:])) is False or True
    seen_false = False
    for v in verdicts:
        if not v:
            seen_false = True
        assert not (seen_false and v), "a violated depth may not pass again"


def test_pairwise_heads_on_separate_lists():
    d = build(
        [0],
        [("x", 0, 1), ("tl", 1, 2), ("hd", 1, 11), ("hd", 2, 12),
         ("y", 0, 5), ("tl", 5, 6), ("hd", 5, 11), ("hd", 6, 12)],
    )
    # heads meet exactly at equal positions: allowed
    assert check_pairwise_heads(d, "x", "y", HD, TL, 3)


def test_pairwise_heads_rejects_shifted_sharing():
    d = chainy(3)
    d.add_edge(Label("y"), 0, 2)  # y = x.tl
    assert not check_pairwise_heads(d, "x", "y", HD, TL, 3)


def test_pairwise_heads_vacuous_when_unbound():
    d = chainy(2)
    assert check_pairwise_heads(d, "x", "never_assigned", HD, TL, 3)


def test_successive_heads_on_a_plain_chain():
    assert check_successive_heads(chainy(3), "x", HD, TL, 3)


def test_successive_heads_rejects_repeated_head():
    assert not check_successive_heads(chainy(3, shared_heads=True), "x", HD, TL, 3)


def test_successive_heads_vacuous_when_unbound():
    assert check_successive_heads(chainy(2), "nothing", HD, TL, 3)


def test_tails_disjoint_on_separate_lists():
    d = build([0], [("x", 0, 1), ("tl", 1, 2), ("y", 0, 5), ("tl", 5, 6)])
    assert check_tails_disjoint(d, "x", "y", TL, 3)


def test_tails_disjoint_rejects_a_merge():
    d = build([0], [("x", 0, 1), ("tl", 1, 3), ("y", 0, 2), ("tl", 2, 3)])
    assert not check_tails_disjoint(d, "x", "y", TL, 3)


def test_tails_disjoint_vacuous_when_unbound():
    d = build([0], [("x", 0, 1), ("tl", 1, 2)])
    assert check_tails_disjoint(d, "x", "nothing", TL, 3)


def test_fully_unaliased_on_a_plain_chain():
    assert check_fully_unaliased(chainy(3), "x", HD, TL, 3)


def test_fully_unaliased_rejects_head_into_spine():
    d = build([0], [("y", 0, 1), ("tl", 1, 2), ("hd", 1, 2)])
    assert not check_fully_unaliased(d, "y", HD, TL, 3)


def test_fully_unaliased_vacuous_when_unbound():
    assert check_fully_unaliased(chainy(2), "nothing", HD, TL, 3)


def test_checkers_monotone_in_k_on_shifted_lists():
    d = chainy(4)
    d.add_edge(Label("y"), 0, 2)
    verdicts = [check_pairwise_heads(d, "x", "y", HD, TL, k) for k in range(5)]
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
# reports and rendering
# ---------------------------------------------------------------------------


def test_final_pairs_cover_the_flow_split():
    e = run(FLOW_SRC)
    pairs = build_report(e).final_pairs
    assert ("a", "x") in pairs
    assert ("b", "x") in pairs
    assert ("a", "b") not in pairs


def test_pairs_are_sorted_and_irreflexive():
    e = run(DEUTSCH_SRC)
    report = build_report(e)
    for label, pairs in report.points + [("final", report.final_pairs)]:
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
    assert json.loads(emit_json(report)) == report.to_dict()


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


def test_dot_marks_internal_edges_dashed():
    d = build([0], [("x", 0, 1)])
    d.add_edge(Label("t", prime=1), 1, 0)
    text = emit_dot(d).decode()
    assert "style=dashed" in text
    assert "t'" in text


def test_dot_on_analysis_result(copied_list):
    snap, scope = copied_list.snapshots["L2"]
    text = emit_dot(snap, scope).decode()
    assert text.count("peripheries=2") == 2  # both worlds are roots
    assert "X" in text and "Y" in text
