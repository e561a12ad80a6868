"""Engine rules, pinned against hand-run expected states.

Every expected diagram below was worked out by hand, applying the
rule definitions step by step, then frozen here.  Shape comparisons go
through the canonical form, so node numbering is irrelevant but the
root/edge structure is exact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aliasgraph
from aliasgraph.calculus import AnalysisConfig, AnalysisError, Engine, _DeltaFrame
from aliasgraph.diagram import Label
from aliasgraph.lang import parse_program
from aliasgraph.query import AliasQuery, alias_pairs, query_alias

import oracles
from oracles import CloningEngine, canonical_form, reachable_nodes
from util import DISPATCH_SRC, aliased, build, path, run, same_shape, values

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
EMPTY_CLASS = "class C feature n: C right: C next: C end\n"


def corpus_sources():
    """(text, entry) of every corpus program, the entry from its expectation."""
    return [
        (oo.read_text(), json.loads(oo.with_name(oo.stem + ".expected.json").read_text()).get("entry", "main"))
        for oo in sorted(CORPUS_DIR.glob("*.oo"))
    ]


# ---------------------------------------------------------------------------
# assignment, sequencing, creation
# ---------------------------------------------------------------------------


def test_assignment_relinks_the_target():
    e = run(EMPTY_CLASS + "main local a: C b: C x: C do create a create b create x a := b end")
    # a is redirected at b's object; its old object drops out of view
    same_shape(e, build([0], [("a", 0, 2), ("b", 0, 2), ("x", 0, 3)]))
    assert aliased(e, "a", "b")
    assert not aliased(e, "a", "x")


def test_sequence_threads_the_state_left_to_right():
    e = run(EMPTY_CLASS + "main local a: C b: C x: C do create a create b create x a := x b := x end")
    same_shape(e, build([0], [("a", 0, 3), ("b", 0, 3), ("x", 0, 3)]))
    assert aliased(e, "a", "b") and aliased(e, "b", "x")


def test_assigning_void_unlinks():
    e = run(EMPTY_CLASS + "main local a: C b: C do create a b := a a := Void end")
    assert values(e, "a") == frozenset()
    assert values(e, "b") != frozenset()
    assert not aliased(e, "a", "b")


def test_creation_mints_a_fresh_unshared_node():
    e = run(EMPTY_CLASS + "main local a: C b: C x: C do create a create b create x create x end")
    same_shape(e, build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 4)]))
    # the abandoned first x object stays in the node set, just unreachable
    assert len(e.diagram.nodes) == 5
    assert not aliased(e, "x", "a") and not aliased(e, "x", "b")


def test_attribute_assignment_is_a_strong_update():
    e = run(EMPTY_CLASS + "main local a: C c: C d: C do create a create c create d a.n := c a.n := d end")
    assert not aliased(e, "a.n", "c")
    assert aliased(e, "a.n", "d")


def test_attribute_assignment_through_void_prefix_warns_and_does_nothing():
    e = run(EMPTY_CLASS + "main local a: C c: C do create c a.n := c end")
    assert any("definitely void" in d.message for d in e.diagnostics)
    assert values(e, "a.n") == frozenset()


def test_void_prefix_warning_inside_a_callee_names_the_source_path():
    # the callee's field path runs through its receiver's Current label,
    # which the source does not spell
    src = "class N feature next: N val: N y: N peek do y := next.val end end\nmain local a: N do create a a.peek end"
    messages = [d.message for d in run(src).diagnostics]
    assert messages == ["'next' is definitely void here; 'next.val' has no value"]


# ---------------------------------------------------------------------------
# the mutation funnel writes only the edges that change
# ---------------------------------------------------------------------------


def record_writes(diagram):
    """Log every ``add_edge``/``remove_edge`` call on ``diagram``, with
    its arguments, in the list returned."""
    calls = []
    for name in ("add_edge", "remove_edge"):
        def spy(*edge, _name=name, _write=getattr(diagram, name)):
            calls.append((_name,) + edge)
            return _write(*edge)
        setattr(diagram, name, spy)
    return calls


def relink_in_a_branch(e, target, per_root):
    """Relink ``target`` under a fresh delta frame, as inside a choice
    branch; returns the frame and the diagram writes made."""
    frame = _DeltaFrame()
    e.delta_stack.append(frame)
    calls = record_writes(e.diagram)
    e._relink_target(target, per_root, e.entry_frame, None)
    for name in ("add_edge", "remove_edge"):
        delattr(e.diagram, name)
    e.delta_stack.pop()
    return frame, calls


def test_a_relink_that_keeps_every_worlds_value_records_an_empty_delta_frame():
    e = run(EMPTY_CLASS + "main local a: C b: C do create a create b then b := a else a := b end end")
    assert len(e.diagram.roots) == 2
    a = e.entry_frame.scope["a"]
    frame, calls = relink_in_a_branch(e, ("b",), e.diagram.value_sets_by_root((a,)))
    assert (frame.added, frame.removed, calls) == (set(), set(), [])


@pytest.mark.parametrize("target", [("a",), ("o", "n")])
def test_a_relink_records_exactly_the_edges_that_change(target):
    e = run(EMPTY_CLASS + "main local a: C o: C x: C y: C z: C do create o create x create y create z end")
    (root,) = e.diagram.roots
    x, y, z = (next(iter(values(e, name))) for name in ("x", "y", "z"))
    e._relink_target(target, {root: frozenset({x, y})}, e.entry_frame, None)
    frame, calls = relink_in_a_branch(e, target, {root: frozenset({y, z})})
    owner = root if target == ("a",) else next(iter(values(e, "o")))
    label = e.entry_frame.scope["a"] if target == ("a",) else Label("n")
    assert frame.added == {(label, owner, z)}
    assert frame.removed == {(label, owner, x)}
    assert sorted(calls) == [("add_edge", label, owner, z), ("remove_edge", label, owner, x)]


def test_replay_onto_a_memoized_clone_adds_only_the_edges_it_lacks(monkeypatch):
    copied = []  # per clone: edges it should get, edges it lacked, add_edge calls
    copy_onto_clone = Engine._copy_onto_clone

    def spy(self, orig, copy, mapping):
        g = self.diagram
        wanted = {(l, copy, mapping.get(t, t)) for l, t in g.out_edges(orig)}
        wanted |= {(l, s, copy) for l, s in g.in_edges(orig) if s not in mapping}
        lacking = {(l, s, t) for l, s, t in wanted if t not in g.successors(s, l)}
        calls = record_writes(g)
        copy_onto_clone(self, orig, copy, mapping)
        delattr(g, "add_edge")
        delattr(g, "remove_edge")
        assert all(t in g.successors(s, l) for l, s, t in wanted)
        copied.append((wanted, lacking, calls))

    monkeypatch.setattr(Engine, "_copy_onto_clone", spy)
    run(EMPTY_CLASS + (
        "main local v0: C v1: C v2: C do"
        " create v0 create v1 create v2 v2 := v1"
        " loop"
        " then v1 := v0 else v2 := v0 end"
        " then v0.n := v0 else v1 := v1 end"
        " end"
        " end"
    ))
    for wanted, lacking, calls in copied:
        assert sorted(calls) == sorted(("add_edge",) + e for e in lacking)
    # some clone came from the memo, already holding edges it needs
    assert any(len(lacking) < len(wanted) for wanted, lacking, _ in copied)


# ---------------------------------------------------------------------------
# choice
# ---------------------------------------------------------------------------


def test_branchy_assignment_keeps_both_worlds_apart():
    e = run(EMPTY_CLASS + "main local a: C x: C b: C do create a create x create b then a := x else b := x end end")
    same_shape(
        e,
        build(
            [0, 4],
            [
                ("a", 0, 2), ("x", 0, 2), ("b", 0, 3),
                ("a", 4, 1), ("x", 4, 2), ("b", 4, 2),
            ],
        ),
    )
    # each world sees exactly one of the two assignments
    assert aliased(e, "a", "x")
    assert aliased(e, "b", "x")
    assert not aliased(e, "a", "b")


def test_branch_worlds_see_one_assignment_each():
    e = run(EMPTY_CLASS + "main local a: C x: C b: C do create a create x create b then a := x else b := x end end")
    by_root = sorted(
        (e.diagram.value_set(path("a"), start=(r,)) == e.diagram.value_set(path("x"), start=(r,)),
         e.diagram.value_set(path("b"), start=(r,)) == e.diagram.value_set(path("x"), start=(r,)))
        for r in e.diagram.roots
    )
    assert by_root == [(False, True), (True, False)]


def test_three_way_choice_with_nesting():
    e = run(
        EMPTY_CLASS
        + "main local a: C b: C c: C x: C do create a create b create c"
        + " then then x := a else x := b end else x := c end end"
    )
    assert len(e.diagram.roots) == 3
    assert aliased(e, "x", "a") and aliased(e, "x", "b") and aliased(e, "x", "c")
    assert not aliased(e, "a", "b") and not aliased(e, "a", "c") and not aliased(e, "b", "c")


def test_both_branches_empty_changes_no_answers():
    src = EMPTY_CLASS + "main local a: C b: C do create a b := a then skip else skip end end"
    e = run(src)
    assert len(e.diagram.roots) == 2
    assert aliased(e, "a", "b")
    assert values(e, "a") == values(e, "b")


def test_definitely_false_branch_is_pruned():
    e = run(EMPTY_CLASS + "main local x: C y: C do x := Void if x /= Void then create y end end")
    assert len(e.diagram.roots) == 1  # no second world was materialized
    assert values(e, "y") == frozenset()


def test_syntactically_equal_condition_prunes_the_else():
    e = run(EMPTY_CLASS + "main local x: C y: C z: C do create x if x = x then create y else create z end end")
    assert len(e.diagram.roots) == 1
    assert values(e, "y") != frozenset()
    assert values(e, "z") == frozenset()


def test_unknown_condition_keeps_both_branches():
    e = run(EMPTY_CLASS + "main local x: C y: C do create x if x = Void then create y end end")
    assert len(e.diagram.roots) == 2
    roots_with_y = [r for r in e.diagram.roots if e.diagram.value_set(path("y"), start=(r,))]
    assert len(roots_with_y) == 1


def test_disjoint_nonempty_values_make_equality_definitely_false():
    e = run(EMPTY_CLASS + "main local x: C y: C z: C do create x create y if x = y then create z end end")
    assert len(e.diagram.roots) == 1
    assert values(e, "z") == frozenset()


@pytest.mark.parametrize("op", ["=", "/="])
def test_sides_that_may_be_one_object_keep_both_arms(op):
    # y copies x, but equal value sets prove neither equality nor its
    # negation: the guard may hold either way
    e = run(EMPTY_CLASS + "main local x: C y: C z: C do create x y := x if x %s y then create z end end" % op)
    assert len(e.diagram.roots) == 2


ELSEIF_SRC = EMPTY_CLASS + (
    "main local a: C b: C c: C x: C y: C z: C do create a create b create c create y create z"
    " if y = Void then x := a elseif %s then x := b else x := c end end"
)


@pytest.mark.parametrize("engine", [Engine, CloningEngine], ids=["replay", "clone"])
def test_elseif_chain_keeps_one_world_per_live_arm(engine):
    names = ["a", "b", "c", "x"]
    # y and z are created, so "= Void" is unknown: every arm and the
    # else (guarded by z /= Void) stay live, each in its own world
    e = run(ELSEIF_SRC % "z = Void", engine=engine)
    assert len(e.diagram.roots) == 3
    assert alias_pairs(e.diagram, e.report_scope(), names) == [("a", "x"), ("b", "x"), ("c", "x")]
    # z and a are distinct objects: the middle arm is pruned, and the
    # else, guarded by its negation, is definitely live
    e = run(ELSEIF_SRC % "z = a", engine=engine)
    assert len(e.diagram.roots) == 2
    assert alias_pairs(e.diagram, e.report_scope(), names) == [("a", "x"), ("c", "x")]


def test_not_equal_and_not_equals_give_the_same_pairs():
    src = EMPTY_CLASS + (
        "main local a: C b: C x: C do create a create b then a := Void else skip end"
        " if %s then x := a else x := b end end"
    )
    names = ["a", "b", "x"]
    by_cond = {}
    for cond in ("not a = Void", "a /= Void", "not not a /= Void"):
        e = run(src % cond)
        by_cond[cond] = (alias_pairs(e.diagram, e.report_scope(), names), canonical_form(e.diagram))
    assert by_cond["not a = Void"] == by_cond["a /= Void"] == by_cond["not not a /= Void"]
    assert by_cond["a /= Void"][0] == [("a", "x"), ("b", "x")]


@pytest.mark.parametrize("engine", [Engine, CloningEngine], ids=["replay", "clone"])
def test_definitely_false_single_arm_if_keeps_the_state(engine):
    src = EMPTY_CLASS + "main local x: C y: C do create y x := Void %s end"
    plain = run(src % "skip")
    e = run(src % "if x /= Void then y := x end", engine=engine)
    assert canonical_form(e.diagram) == canonical_form(plain.diagram)
    assert values(e, "y") != frozenset()
    # the else guard (x = Void) is definitely true, so exactly one
    # branch runs: no world is forked and no note is given
    assert len(e.diagram.roots) == 1
    assert e.diagnostics == []


def test_guarded_branch_worlds_then_shared_update():
    e = run(
        EMPTY_CLASS
        + "main local a: C b: C c: C t: C do create a create b create c"
        + " then t := a else t := b end t.n := c end"
    )
    # the attribute write lands in both worlds, each at its own object
    assert aliased(e, "t.n", "c")
    assert aliased(e, "a.n", "c")
    assert aliased(e, "b.n", "c")
    assert not aliased(e, "a", "b")


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def test_loop_keeps_every_iteration_view():
    e = run(
        EMPTY_CLASS
        + "main local l: C u: C v: C do"
        + " create l create u create v"
        + " l.right := u u.right := v u := Void v := Void"
        + " loop l := l.right end end"
    )
    same_shape(
        e,
        build([0], [("l", 0, 1), ("l", 0, 2), ("l", 0, 3), ("right", 1, 2), ("right", 2, 3)]),
    )
    assert aliased(e, "l", "l.right")


def test_empty_loop_body_stops_immediately():
    e = run(EMPTY_CLASS + "main local a: C do create a loop skip end end")
    assert not e.has_errors()
    same_shape(e, build([0], [("a", 0, 1)]))


def test_loop_iteration_ceiling_reports_an_error():
    src = (
        EMPTY_CLASS
        + "main local l: C u: C v: C do create l create u create v"
        + " l.right := u u.right := v loop l := l.right end end"
    )
    e = run(src, max_iters=2)
    assert any("exceeded" in d.message for d in e.diagnostics if d.severity == "error")
    # l steps to u's object, v's, then Void, and the fourth pass
    # repeats the third's state: four is the least ceiling that converges
    assert run(src, max_iters=3).has_errors()
    assert not run(src, max_iters=4).has_errors()


def test_creation_in_a_loop_is_capped_per_site():
    e = run(EMPTY_CLASS + "main local t: C do loop create t end end")
    assert not e.has_errors()
    # one allowance: every iteration past the first reuses the same node
    assert len(reachable_nodes(e.diagram)) == 2


def test_creation_cap_is_configurable():
    e = run(EMPTY_CLASS + "main local t: C do loop create t end end", cap=2)
    assert not e.has_errors()
    assert len(reachable_nodes(e.diagram)) == 3


def test_config_bounds_are_checked_without_assertions():
    """The creation cap and the iteration ceiling are input from a library
    caller, so they must be refused under ``python -O`` too, which strips
    assert statements."""
    for bad in ({"cap": 0}, {"max_iters": 0}):
        with pytest.raises(ValueError, match="at least 1"):
            AnalysisConfig(**bad)
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    probe = (
        "from aliasgraph.calculus import AnalysisConfig\n"
        "for bad in ({'cap': 0}, {'max_iters': 0}):\n"
        "    try:\n"
        "        AnalysisConfig(**bad)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]


def test_two_creations_outside_loops_stay_distinct():
    e = run(EMPTY_CLASS + "main local s: C t: C do create s create t end")
    assert not aliased(e, "s", "t")


def test_loop_with_until_is_analyzed_as_plain_loop():
    e = run(EMPTY_CLASS + "main local l: C u: C do create l create u l.right := u loop l := l.right until l = Void end end")
    assert aliased(e, "l", "u")  # the exit condition does not narrow anything


NESTED_LOOPS_SRC = (
    "class C feature n: C end\n"
    "main local a: C b: C c: C do\n"
    "  create a\n"
    "  loop\n"
    "    b := a\n"
    "    loop create c then c.n := b else b := c end end\n"
    "    a.n := c\n"
    "  end\n"
    "end\n"
)
NESTED_LOOPS_PAIRS = [
    ("a", "b"), ("a", "c.n"), ("a.n", "b"), ("a.n", "c"), ("a.n", "c.n"), ("b", "c"), ("b", "c.n"), ("c", "c.n"),
]
LOOP_IN_RECURSION_SRC = (
    "class C feature\n"
    "  n: C\n"
    "  walk (x: C): C local t: C do\n"
    "    Result := x\n"
    "    loop create t then t.n := Result else Result := t end end\n"
    "    then skip else Result := walk (Result.n) end\n"
    "  end\n"
    "  run local a: C y: C z: C do create a a.n := a y := walk (a) z := y.n end\n"
    "end\n"
)
# every pair of the five paths
LOOP_IN_RECURSION_PAIRS = [
    ("a", "a.n"), ("a", "y"), ("a", "y.n"), ("a", "z"), ("a.n", "y"),
    ("a.n", "y.n"), ("a.n", "z"), ("y", "y.n"), ("y", "z"), ("y.n", "z"),
]


@pytest.mark.parametrize(
    "source, entry, cap, pairs, nodes, roots",
    [
        (NESTED_LOOPS_SRC, "main", 1, NESTED_LOOPS_PAIRS, 5, 2),
        (NESTED_LOOPS_SRC, "main", 2, NESTED_LOOPS_PAIRS, 7, 2),
        (LOOP_IN_RECURSION_SRC, "C.run", 1, LOOP_IN_RECURSION_PAIRS, 48, 37),
        (LOOP_IN_RECURSION_SRC, "C.run", 2, LOOP_IN_RECURSION_PAIRS, 58, 37),
    ],
    ids=["loops-cap1", "loops-cap2", "recursion-cap1", "recursion-cap2"],
)
def test_nested_fixpoints_share_the_outermost_caps_and_worlds(source, entry, cap, pairs, nodes, roots):
    # creation and a free choice in a loop nested in a loop, or in a
    # recursive routine's body; the answers and the node and root counts
    # were frozen when each nested fixpoint kept a scope of its own
    e = run(source, entry, cap=cap)
    assert alias_pairs(e.diagram, e.report_scope(), e.universe) == pairs
    assert (len(e.diagram.nodes), len(e.diagram.roots)) == (nodes, roots)
    assert not e.diagnostics
    assert e.fixpoint is None


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

RECEIVER = """
class M feature
  x: M
  set_x (v: M) do x := v end
  run local a: M b: M do
    create a
    create b
    create x
    %s
  end
end
"""


def test_unqualified_call_updates_the_current_object():
    e = run(RECEIVER % "set_x (a)", entry="M.run")
    same_shape(e, build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 1)]))
    assert aliased(e, "x", "a")
    assert not aliased(e, "x", "b")


def test_second_call_overrides_the_first():
    e = run(RECEIVER % "set_x (a)\n    set_x (b)", entry="M.run")
    same_shape(e, build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 2)]))
    assert aliased(e, "x", "b")
    assert not aliased(e, "x", "a")


def test_formal_and_local_names_leave_no_trace_after_the_call():
    e = run(RECEIVER % "set_x (a)", entry="M.run")
    for (lbl, _, _) in e.diagram.edge_set():
        assert lbl.tag == 0


def test_callee_local_shadowing_caller_name_is_kept_apart():
    src = """
class M feature
  x: M
  set_x (v: M) do x := v end
  run local v: M do create v set_x (v) end
end
"""
    e = run(src, entry="M.run")
    assert aliased(e, "x", "v")


QUALIFIED = """
class M feature
  a: M  b: M  x: M  t: M
  set_x (v: M) do x := v end
  run do
    create a
    create b
    create x
    create t
    a.x := t
    t := Void
    a.set_x (b)
  end
end
"""


def test_qualified_call_updates_the_target_object_only():
    e = run(QUALIFIED, entry="M.run")
    same_shape(e, build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 3), ("x", 1, 2)]))
    assert aliased(e, "a.x", "b")
    assert not aliased(e, "x", "b")  # the caller's own x attribute is untouched


def test_call_on_definitely_void_target_is_an_error():
    src = """
class M feature
  x: M
  f (v: M) do x := v end
  run local a: M do create a x.f (a) end
end
"""
    e = run(src, entry="M.run")
    assert any(d.severity == "error" and "void" in d.message for d in e.diagnostics)


def test_function_result_flows_back_to_the_assignment_target():
    src = EMPTY_CLASS + """
pick (p: C): C do Result := p end
main local a: C y: C do create a y := pick (a) end
"""
    e = run(src)
    assert aliased(e, "y", "a")


def test_function_result_through_branches_is_per_world():
    src = EMPTY_CLASS + """
choose (p, q: C): C do then Result := p else Result := q end end
main local a: C b: C y: C do create a create b y := choose (a, b) end
"""
    e = run(src)
    assert aliased(e, "y", "a")
    assert aliased(e, "y", "b")
    assert not aliased(e, "a", "b")
    # and in no single world does y alias both
    for r in e.diagram.roots:
        ya = e.diagram.value_set(path("y"), start=(r,)) & e.diagram.value_set(path("a"), start=(r,))
        yb = e.diagram.value_set(path("y"), start=(r,)) & e.diagram.value_set(path("b"), start=(r,))
        assert not (ya and yb)


# ---------------------------------------------------------------------------
# dynamic binding
# ---------------------------------------------------------------------------

DISPATCH = """
class T1 feature
  b: T1
  c: T1
  set (o: T1) do b := o end
end
class T2 inherit T1 redefine set end feature
  set (o: T1) do c := o end
end
main local t: %s a: T1 u: T1 v: T1 do
  create t create u create v create a
  t.c := u
  t.b := v
  u := Void
  v := Void
  t.set (a)
end
"""


def test_dynamic_call_forks_one_world_per_version():
    e = run(DISPATCH % "T1")
    same_shape(
        e,
        build(
            [0, 5],
            [
                ("t", 0, 1), ("a", 0, 4), ("b", 1, 4), ("c", 1, 2),
                ("t", 5, 6), ("a", 5, 4), ("b", 6, 3), ("c", 6, 4),
            ],
        ),
    )
    assert aliased(e, "a", "t.b")
    assert aliased(e, "a", "t.c")
    assert not aliased(e, "t.b", "t.c")  # never both in the same world


def test_exact_receiver_type_needs_no_fork():
    e = run(DISPATCH % "T2")
    assert len(e.diagram.roots) == 1
    assert aliased(e, "a", "t.c")
    assert not aliased(e, "a", "t.b")


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------


def test_blunt_self_recursion_terminates_with_empty_result():
    src = EMPTY_CLASS + """
f (x: C): C do Result := f (x) end
main local a: C y: C do create a y := f (a) end
"""
    e = run(src)
    assert not e.has_errors()
    assert values(e, "y") == frozenset()


def test_structural_recursion_walks_the_chain():
    src = EMPTY_CLASS + """
last (l: C): C do
  if l.next = Void then Result := l
  else Result := last (l.next) end
end
main local a: C b: C y: C do create a create b a.next := b y := last (a) end
"""
    e = run(src)
    assert not e.has_errors()
    assert aliased(e, "y", "a")
    assert aliased(e, "y", "b")
    assert aliased(e, "y", "a.next")
    assert not aliased(e, "a", "b")


def test_mutual_recursion_terminates():
    src = EMPTY_CLASS + """
even (x: C): C do Result := odd (x) end
odd (x: C): C do Result := even (x) end
main local a: C y: C do create a y := even (a) end
"""
    e = run(src)
    assert not e.has_errors()
    assert values(e, "y") == frozenset()


def test_mutual_recursion_passes_values_through():
    src = EMPTY_CLASS + """
ping (x: C): C do Result := pong (x) end
pong (x: C): C do Result := x end
main local a: C y: C do create a y := ping (a) end
"""
    e = run(src)
    assert aliased(e, "y", "a")


def test_recursion_with_creation_hits_the_unroll_guard_and_stops():
    src = EMPTY_CLASS + """
grow (x: C): C local q: C do create q Result := grow (q) end
main local a: C y: C do create a y := grow (a) end
"""
    e = run(src)
    assert not e.has_errors()
    assert len(e.diagram.nodes) < 60  # bounded, not one node per unrolling


CHAIN = "create a create b create c create d create e create f create x" + "".join(
    " %s.next := %s" % pair for pair in zip("abcde", "bcdef")
)
CHAIN_LOCALS = "a: N b: N c: N d: N e: N f: N x: N"

# recursion down a chain of six objects, past the unroll limit: a plain
# qualified recursion; an unqualified helper between the qualified calls
# (entered first and second); and an entry-level recursion four levels
# deep before the qualified one, at entry N.run
DEEP_RECURSION = [
    ("class N feature next: N val: N mark (v: N) do val := v if next /= Void then next.mark (v) end end end\n"
     "main local %s do %s a.mark (x) end" % (CHAIN_LOCALS, CHAIN), "main"),
    ("class N feature next: N val: N g (v: N) do f (v) end"
     " f (v: N) do val := v if next /= Void then next.g (v) end end end\n"
     "main local %s do %s a.g (x) end" % (CHAIN_LOCALS, CHAIN), "main"),
    ("class N feature next: N val: N g (v: N) do f (v) end"
     " f (v: N) do val := v if next /= Void then next.g (v) end end end\n"
     "main local %s do %s a.f (x) end" % (CHAIN_LOCALS, CHAIN), "main"),
    ("class N feature next: N val: N"
     " walk (v: N; k: N) do val := v if k /= Void then walk (v, k.next) else next.walk (v, Void) end end"
     " run local %s do %s next := a walk (x, b) end end" % (CHAIN_LOCALS, CHAIN), "N.run"),
]


@pytest.mark.parametrize("source, entry", DEEP_RECURSION, ids=["qualified", "helper", "helper-first", "entry-level"])
def test_recursion_past_the_unroll_limit_keeps_every_write(source, entry):
    # every object of the chain has its val written in the only run; a
    # call cut off at the limit hands its receivers to the frame that
    # absorbs it
    e = run(source, entry=entry)
    assert not e.has_errors()
    answers = query_alias(e, AliasQuery("x", depth=4))
    assert {"%s.val" % o for o in "abcdef"} <= answers


def test_recursion_back_into_the_entry_keeps_its_effects():
    # the nested run takes the else branch: m := n, with n the object the
    # outer run created.  The entry frame is never re-analyzed, so it
    # must not absorb that call in place of running it
    src = "class C feature n: C m: C run local a: C do if n = Void then create a n := a run else m := n end end end"
    e = run(src, entry="C.run")
    assert not e.has_errors()
    assert aliased(e, "a", "n") and aliased(e, "a", "m") and aliased(e, "m", "n")


RING_OF_ONE = """class C feature
  n: C
  f0 (a: C): C do then Result := a else Result := f0 (a.n) end end
  run local x0: C x1: C y: C do
    create x0 create x1 x0.n := x1 x1.n := x0 y := f0 (x0)
  end
end
"""


def test_recursion_fixpoint_ceiling_reports_an_error():
    # f0's frame absorbs its own call on ``a.n`` and converges in two
    # passes, so one pass is too few and two are enough
    e = run(RING_OF_ONE, entry="C.run", max_iters=1)
    assert [(d.severity, d.message, str(d.pos)) for d in e.diagnostics] == [
        ("error", "recursion fixpoint for 'f0' exceeded 1 iterations", "3:3"),
    ]
    assert run(RING_OF_ONE, entry="C.run", max_iters=2).diagnostics == []


def test_list_copy_recursion_full_shape():
    src = """
class LST feature
  hd: T
  tl: LST
end
copy_ (L: LST): LST
  local t1: LST
  do
    if L = Void then
      create Result
    else
      create Result
      t1 := L.tl
      Result.tl := copy_ (t1)
      Result.hd := L.hd
    end
  end
main local X: LST Y: LST t2: LST do
  L0: create X
  L1: t2 := X
  L2: Y := copy_ (t2)
  L3: create X
end
"""
    e = run(src)
    assert not e.has_errors()
    snap, scope = e.snapshots["L2"]
    # two worlds after the copy: one took the void branch, one the chain
    # branch whose inner call then took the void branch
    same_shape_src = build(
        [0, 5],
        [
            ("X", 0, 1), ("t2", 0, 1), ("Y", 0, 2),
            ("X", 5, 1), ("t2", 5, 1), ("Y", 5, 3),
            ("tl", 3, 4),
        ],
    )
    assert canonical_form(snap) == canonical_form(same_shape_src)
    # X and Y never share structure in any world
    for r in snap.roots:
        assert not (snap.value_set(path("X"), start=(r,)) & snap.value_set(path("Y"), start=(r,)))


# ---------------------------------------------------------------------------
# program points
# ---------------------------------------------------------------------------


def test_point_snapshots_are_frozen_views():
    src = EMPTY_CLASS + "main local a: C b: C do L1: create a L2: b := a a := Void end"
    e = run(src)
    assert e.snapshot_order == ["L1", "L2"]
    snap1, _ = e.snapshots["L1"]
    snap2, _ = e.snapshots["L2"]
    assert snap1.value_set(path("b")) == frozenset()
    assert snap2.value_set(path("a")) == snap2.value_set(path("b")) != frozenset()
    # the final void-assignment did not bleed backwards
    assert snap2.value_set(path("a")) != frozenset()
    assert values(e, "a") == frozenset()


def test_points_can_be_switched_off():
    src = EMPTY_CLASS + "main local a: C do L1: create a end"
    e = run(src, record_points=False)
    assert e.snapshots == {}


# ---------------------------------------------------------------------------
# naive reference mode
# ---------------------------------------------------------------------------


# a qualified call whose callee forks: the choice forks the caller's
# world, and y reads its outcome back in the caller
QUALIFIED_CHOICE_SRC = (
    "class M feature x: M pick (v: M; w: M) do then x := v else x := w end end end\n"
    "main local o: M p: M q: M y: M do create o create p create q o.pick (p, q) y := o.x end"
)

# two worlds pass different actuals to different receivers: each receiver
# must take only its own world's actual
PER_WORLD_ACTUALS_SRC = (
    "class M feature x: M set (v: M) do x := v end end\n"
    "main local o: M a: M b: M p: M q: M c: M do create p create q"
    " then create o a := p b := q else create o a := q b := p end"
    " o.set (a) c := o.x end"
)


# two caller worlds share n; only the first passes it to its receiver,
# which writes n.f, so the second world must keep reading n.f = y
SHARED_CALLER_HEAP_SRC = (
    "class M feature f: M touch (v: M) do v.f := Current end end\n"
    "main local o: M a: M n: M m: M y: M do create n create m create y n.f := y"
    " then create o a := n else create o a := m end o.touch (a) end"
)

# the same write behind a choice inside the callee, behind a second,
# nested qualified call, and after a choice in the callee has cloned the
# receiver (the caller world then runs both the clone, which writes p,
# and the original, which writes n)
SHARED_CALLER_HEAP_VARIANTS = [
    "class M feature f: M g: M touch (v: M) do then g := v else v.f := Current end end end\n"
    "main local o: M a: M n: M m: M y: M do create n create m create y n.f := y"
    " then create o a := n else create o a := m end o.touch (a) end",
    "class M feature f: M k: M touch (v: M) do v.f := Current end go (v: M) do k.touch (v) end end\n"
    "main local o: M a: M n: M m: M y: M do create n create m create y n.f := y"
    " then create o o.k := o a := n else create o o.k := o a := m end o.go (a) end",
    "class M feature f: M k: M touch (w: M) do then skip else k := w end k.f := Current end end\n"
    "main local o: M n: M y: M p: M do create n create y create p n.f := y create o o.k := n o.touch (p) end",
    # a world whose receiver is Void runs nothing, so it keeps n.f = y
    "class M feature f: M touch (v: M) do v.f := Current end end\n"
    "main local o: M a: M n: M y: M do create n create y n.f := y then create o else skip end a := n o.touch (a) end",
]

# a choice inside the callee: each caller world forks, so no world sets
# both o.x and o.z to p
FORK_IN_CALLEE_SRC = (
    "class M feature x: M z: M pick (v: M) do then x := v else z := v end end end\n"
    "main local o: M p: M a: M b: M do"
    " create o create p create a create b o.x := a o.z := b a := Void b := Void o.pick (p) end"
)

# f := v writes a field of the receiver, which the world where o is
# fresh does not share: a.f = z survives there
RECEIVER_FIELD_WRITE_SRC = (
    "class M feature f: M set (v: M) do f := v end end\n"
    "main local o: M q: M a: M y: M z: M do"
    " create a create y create z a.f := z then o := a else create o end q := a o.set (y) end"
)

# one branch of the callee writes a field of the caller's own root
# object (entry M.run): the write must reach that world
ROOT_WRITE_IN_CALLEE_SRC = (
    "class M feature f: M g: M set (v: M) do then skip else v.f := Current end end\n"
    "run local o: M do create o o.g := o o.set (Current) end end"
)

# a function called on a receiver that is Void in the world where a and
# b are one object: that world gets no result, so b.g stays unset there
VOID_RECEIVER_RESULT_SRC = (
    "class M feature g: M mk: M do create Result end end\n"
    "main local o: M a: M b: M y: M z: M do"
    " create a then b := a else create o create b end y := o.mk () a.g := y z := b.g end"
)


def test_qualified_call_binds_each_receiver_to_its_own_worlds_actuals():
    e = run(PER_WORLD_ACTUALS_SRC)
    assert aliased(e, "a", "o.x")
    assert not aliased(e, "b", "o.x")
    assert not aliased(e, "b", "c")


def test_callee_write_keeps_caller_worlds_that_share_the_owner():
    e = run(SHARED_CALLER_HEAP_SRC)
    assert aliased(e, "y", "n.f")
    assert aliased(e, "n.f", "o")
    for source in SHARED_CALLER_HEAP_VARIANTS:
        e = run(source)
        assert aliased(e, "y", "n.f"), source
        assert aliased(e, "n.f", "o"), source


def test_a_choice_in_a_callee_forks_the_callers_world():
    e = run(FORK_IN_CALLEE_SRC)
    assert not aliased(e, "o.x", "o.z")
    assert aliased(e, "o.x", "p")
    assert aliased(e, "o.z", "p")


def test_a_receiver_field_write_spares_the_worlds_that_do_not_call_on_it():
    e = run(RECEIVER_FIELD_WRITE_SRC)
    assert aliased(e, "a.f", "z")
    assert aliased(e, "a.f", "y")


def test_a_callee_branch_writing_the_callers_root_object_is_kept():
    e = run(ROOT_WRITE_IN_CALLEE_SRC, entry="M.run")
    assert "f" in query_alias(e, AliasQuery("o", depth=2))


def test_a_world_whose_receiver_is_void_gets_no_result():
    e = run(VOID_RECEIVER_RESULT_SRC)
    assert aliased(e, "a.g", "y")
    assert not aliased(e, "b.g", "y")


def test_clone_mode_agrees_with_replay_on_a_branchy_program():
    src = (
        EMPTY_CLASS
        + "main local a: C b: C c: C x: C do create a create b create c"
        + " then x := a else x := b end then c := x else skip end end"
    )
    fast = run(src)
    slow = run(src, engine=CloningEngine)
    names = ["a", "b", "c", "x"]
    for p in names:
        for q in names:
            assert aliased(fast, p, q) == aliased(slow, p, q), (p, q)
    # calls fork through the same step: plain calls, qualified calls,
    # recursion and dynamic dispatch
    cases = [
        (source, "main")
        for source in [DISPATCH_SRC, QUALIFIED_CHOICE_SRC, PER_WORLD_ACTUALS_SRC, SHARED_CALLER_HEAP_SRC]
        + SHARED_CALLER_HEAP_VARIANTS
        + [FORK_IN_CALLEE_SRC, RECEIVER_FIELD_WRITE_SRC, VOID_RECEIVER_RESULT_SRC]
    ] + [(ROOT_WRITE_IN_CALLEE_SRC, "M.run")]
    for source, entry in cases + corpus_sources():
        fast = run(source, entry=entry)
        slow = run(source, entry=entry, engine=CloningEngine)
        universe = list(fast.universe)
        got = alias_pairs(fast.diagram, fast.report_scope(), universe)
        assert got == alias_pairs(slow.diagram, slow.report_scope(), universe), source


# ---------------------------------------------------------------------------
# entry handling
# ---------------------------------------------------------------------------


def test_unknown_entry_is_reported():
    prog = parse_program(EMPTY_CLASS + "main do skip end")
    with pytest.raises(AnalysisError):
        Engine(prog).analyze("nope")


def test_class_routine_entry_requires_the_dotted_form():
    prog = parse_program("class M feature run do skip end end")
    with pytest.raises(AnalysisError) as err:
        Engine(prog).analyze("run")
    assert "M.run" in str(err.value)


@pytest.mark.parametrize(
    "src, target",
    [
        ("main do y.f end", "y"),
        ("main local x: T do x.f end", "x"),
        (EMPTY_CLASS + "main local x: C do x.z.f end", "x.z"),
    ],
)
def test_a_call_on_a_path_without_a_class_cannot_resolve(src, target):
    # the library call skips ``resolve``: an unknown name, an opaque type
    # and a missing attribute all leave the call nothing to dispatch to
    e = Engine(parse_program(src))
    e.analyze("main")
    assert [d.message for d in e.diagnostics] == ["cannot resolve call 'f' on '%s'" % target]
    assert e.has_errors()


def test_entry_formals_start_unbound_with_a_warning():
    src = EMPTY_CLASS + "f (x: C) do x := x end"
    prog = parse_program(src)
    e = Engine(prog)
    e.analyze("f")
    assert any("unbound" in d.message for d in e.diagnostics)


def _run_probe(probe, timeout=20):
    """Run ``probe`` in a child process, so a hang fails the test
    instead of stalling the suite; returns its stdout lines."""
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cyclic_inheritance_does_not_hang_an_unresolved_analysis():
    """``resolve`` refuses an inheritance cycle, but the library call
    ``analyze_program(parse_program(src), entry)`` skips it; dispatch over
    the cycle's descendants must still end."""
    probe = (
        "from aliasgraph import analyze_program, parse_program\n"
        "from aliasgraph.lang import ClassTable\n"
        "src = 'class A inherit B feature g do end end class B inherit A feature end '\n"
        "src += 'main local x: A do create x x.g end'\n"
        "program = parse_program(src)\n"
        "print(ClassTable(program).descendants('A'), ClassTable(program).descendants('B'))\n"
        "print(len(analyze_program(program, 'main').diagram.roots))\n"
    )
    assert _run_probe(probe) == ["['B'] ['A']", "1"]


# choices inside mutually recursive calls: a context that named the root
# set would be new after every join, so the calls would descend again
# after each one and the worlds would multiply without bound
RECURSIVE_FORKS = """class C feature
  n: C
  m: C
  f (x: C): C local t: C do Result.n := Result.m end
  g (x: C): C local t: C do x.m := f (t) then Result := g (Result) else create t end Result := x.m end
  p (x: C) local t: C do
    t := g (t.n) p (t)
    then x.m := x.g (t) else t := g (t) t := x t := t.g (t.m) end
  end
  run local a: C b: C c: C do create a create b p (c) a := c end
end
"""


def test_choices_under_recursion_do_not_multiply_worlds_without_bound():
    probe = (
        "from aliasgraph import analyze_program, parse_program\n"
        "e = analyze_program(parse_program(%r), 'C.run')\n"
        "e.diagram.check_invariants()\n"
        "print(len(e.diagram.roots))\n" % RECURSIVE_FORKS
    )
    (roots,) = _run_probe(probe)
    assert int(roots) <= 100


# ---------------------------------------------------------------------------
# randomized cross-checks (the acceptance suite runs fixed seeds; this
# explores fresh ones)
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_replay_equals_cloning_and_predicts_every_concrete_pair(seed):
    nv, block = oracles.gen_program(seed)
    source = oracles.render(nv, block)
    names = oracles.observed_names(nv)
    by_mode = {}
    for mode, engine in (("replay", Engine), ("clone", CloningEngine)):
        e = run(source, engine=engine)
        by_mode[mode] = alias_pairs(e.diagram, e.report_scope(), names)
    assert by_mode["replay"] == by_mode["clone"], source
    assert oracles.concrete_alias_pairs(nv, block) <= set(by_mode["replay"]), source


# ---------------------------------------------------------------------------
# shared-world updates (regressions pinned from the random cross-checks)
# ---------------------------------------------------------------------------


def test_divergent_strong_update_forks_the_shared_owner():
    # the worlds disagree about what v2 denotes when v2.n is overwritten:
    # in the else-worlds v2 is void, so their view of the object reached
    # through v1.n must keep its old field value
    src = EMPTY_CLASS + (
        "main local v0: C v1: C v2: C v3: C do"
        " create v0 create v1"
        " then create v0 else v0 := Void v3.n := v3 v0.n := v2 end"
        " then v2 := Void v2 := v1 else v3 := v1.n end"
        " v1.n := v0"
        " v3 := v1.n"
        " v2.n := v2"
        " end"
    )
    names = ["v0", "v1", "v2", "v3", "v0.n", "v1.n", "v2.n", "v3.n"]
    fast = run(src)
    slow = run(src, engine=CloningEngine)
    got = alias_pairs(fast.diagram, fast.report_scope(), names)
    assert got == alias_pairs(slow.diagram, slow.report_scope(), names)
    assert ("v0", "v1.n") in got
    assert ("v1.n", "v3") in got


def test_contested_update_inside_a_loop_terminates_and_keeps_both_worlds():
    src = EMPTY_CLASS + (
        "main local a: C b: C x: C do create a create b"
        " loop then x := a else x := b end x.n := a end"
        " end"
    )
    e = run(src)
    assert not e.has_errors()
    assert not any("exceeded" in d.message for d in e.diagnostics)
    assert aliased(e, "a.n", "a")
    assert aliased(e, "b.n", "a")
    assert not aliased(e, "a", "b")


def test_alternating_choices_inside_a_loop_close_onto_a_finite_world_set():
    src = EMPTY_CLASS + (
        "main local v0: C v1: C v2: C do"
        " create v0 create v1 create v2 v2 := v1"
        " loop"
        " then v1 := v0 else v2 := v0 end"
        " then v0.n := v0 else v1 := v1 end"
        " end"
        " end"
    )
    e = run(src)
    assert not e.has_errors()
    assert not any("exceeded" in d.message for d in e.diagnostics)
    assert aliased(e, "v0.n", "v0")
    assert aliased(e, "v1", "v2")


def test_diagram_indexes_stay_consistent_through_the_engine():
    """Replay rollback, privatization and unbinding all remove edges;
    after a whole analysis the in-edge index still agrees with the
    outgoing one and tagged labels leave roots only, in the final
    diagram and in every snapshot (``run`` checks both)."""
    sources = []
    for seed in range(24):
        nv, block = oracles.gen_program(seed)
        sources.append((oracles.render(nv, block), "main"))
    for seed in range(12):
        sources.append((oracles.render_loop(*oracles.gen_loop_program(seed)), "main"))
    for source, entry in sources + corpus_sources():
        run(source, entry=entry)
