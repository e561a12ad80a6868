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
from aliasgraph.calculus import FALSE, TRUE, UNKNOWN, AnalysisConfig, AnalysisError, Engine
from aliasgraph.diagram import Label
from aliasgraph.lang import parse_program
from aliasgraph.query import alias_pairs

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


RING_OF_ONE = """class C feature
  n: C
  f0 (a: C): C do then Result := a else Result := f0 (a.n) end end
  run local x0: C x1: C y: C do
    create x0 create x1 x0.n := x1 x1.n := x0 y := f0 (x0)
  end
end
"""


def test_recursion_fixpoint_ceiling_reports_an_error():
    e = run(RING_OF_ONE, entry="C.run", max_iters=2)
    assert [(d.severity, d.message, str(d.pos)) for d in e.diagnostics] == [
        ("error", "recursion fixpoint for 'f0' exceeded 2 iterations", "3:3"),
    ]
    assert run(RING_OF_ONE, entry="C.run", max_iters=3).diagnostics == []


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


# a qualified call whose callee forks: the choice runs rerooted into o,
# and y reads its outcome back in the caller
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
]


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
    # calls fork through the same step: plain calls, qualified calls
    # (rerooting), recursion and dynamic dispatch
    cases = [
        (source, "main")
        for source in [DISPATCH_SRC, QUALIFIED_CHOICE_SRC, PER_WORLD_ACTUALS_SRC, SHARED_CALLER_HEAP_SRC]
        + SHARED_CALLER_HEAP_VARIANTS
    ]
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


def test_entry_formals_start_unbound_with_a_warning():
    src = EMPTY_CLASS + "f (x: C) do x := x end"
    prog = parse_program(src)
    e = Engine(prog)
    e.analyze("f")
    assert any("unbound" in d.message for d in e.diagnostics)


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
    after a whole analysis in the default (replay) mode the in-edge and
    label indexes still agree with the edge set, in the final diagram
    and in every snapshot."""
    sources = []
    for seed in range(24):
        nv, block = oracles.gen_program(seed)
        sources.append((oracles.render(nv, block), "main"))
    for seed in range(12):
        sources.append((oracles.render_loop(*oracles.gen_loop_program(seed)), "main"))
    for source, entry in sources + corpus_sources():
        e = run(source, entry=entry)
        e.diagram.check_invariants()
        for snapshot, _ in e.snapshots.values():
            snapshot.check_invariants()
