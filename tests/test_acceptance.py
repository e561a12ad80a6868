"""Acceptance gate: one test per required end-to-end behavior.

Each test states its tolerance inline; run with -v to get one pass or
fail line per requirement.
"""

import os
import time

from aliasgraph.calculus import Engine
from aliasgraph.query import alias_pairs, deutsch_report
from aliasgraph.cli import main

import oracles
from util import DEUTSCH_SRC, FLOW_SRC, aliased, build, path, run, same_shape

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _names_at(engine, names):
    return alias_pairs(engine.diagram, engine.report_scope(), names)


def test_list_copy_benchmark_all_properties_hold_within_one_second():
    started = time.perf_counter()
    engine = run(DEUTSCH_SRC)
    props = deutsch_report(engine, k=3)
    elapsed = time.perf_counter() - started
    assert props == {
        "k": 3,
        "P1": True,
        "P2": True,
        "P3": True,
        "P4": True,
        "P5": True,
        "no_share_root": True,
    }
    assert elapsed < 1.0, "took %.3fs, budget is 1s" % elapsed


def test_reference_diagrams_match_shape_for_shape():
    base = "class C feature n: C right: C next: C end\n"
    cases = [
        # plain assignment redirects the target at the source's object
        (base + "main local a: C b: C x: C do create a create b create x a := b end",
         "main",
         build([0], [("a", 0, 2), ("b", 0, 2), ("x", 0, 3)])),
        # sequencing threads the state left to right
        (base + "main local a: C b: C x: C do create a create b create x a := x b := x end",
         "main",
         build([0], [("a", 0, 3), ("b", 0, 3), ("x", 0, 3)])),
        # creation mints a fresh unshared node each time
        (base + "main local a: C b: C x: C do create a create b create x create x end",
         "main",
         build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 4)])),
        # a conditional keeps one world per branch
        (base + "main local a: C x: C b: C do create a create x create b then a := x else b := x end end",
         "main",
         build([0, 4], [("a", 0, 2), ("x", 0, 2), ("b", 0, 3),
                        ("a", 4, 1), ("x", 4, 2), ("b", 4, 2)])),
        # a loop keeps every iteration's view of the walker
        (base + "main local l: C u: C v: C do create l create u create v"
                " l.right := u u.right := v u := Void v := Void"
                " loop l := l.right end end",
         "main",
         build([0], [("l", 0, 1), ("l", 0, 2), ("l", 0, 3),
                     ("right", 1, 2), ("right", 2, 3)])),
        # an unqualified call updates the current object
        ("class M feature\n  x: M\n  set_x (v: M) do x := v end\n"
         "  run local a: M b: M do create a create b create x set_x (a) end\nend\n",
         "M.run",
         build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 1)])),
        # a second call overrides the first: only the latest argument stays
        ("class M feature\n  x: M\n  set_x (v: M) do x := v end\n"
         "  run local a: M b: M do create a create b create x set_x (a) set_x (b) end\nend\n",
         "M.run",
         build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 2)])),
        # a qualified call updates the target's object, not the caller's
        ("class M feature\n  a: M  b: M  x: M  t: M\n  set_x (v: M) do x := v end\n"
         "  run do create a create b create x create t a.x := t t := Void a.set_x (b) end\nend\n",
         "M.run",
         build([0], [("a", 0, 1), ("b", 0, 2), ("x", 0, 3), ("x", 1, 2)])),
        # a dynamically bound call forks one world per routine version
        ("class T1 feature\n  b: T1\n  c: T1\n  set (o: T1) do b := o end\nend\n"
         "class T2 inherit T1 redefine set end feature\n  set (o: T1) do c := o end\nend\n"
         "main local t: T1 a: T1 u: T1 v: T1 do create t create u create v create a"
         " t.c := u t.b := v u := Void v := Void t.set (a) end\n",
         "main",
         build([0, 5], [("t", 0, 1), ("a", 0, 4), ("b", 1, 4), ("c", 1, 2),
                        ("t", 5, 6), ("a", 5, 4), ("b", 6, 3), ("c", 6, 4)])),
    ]
    for source, entry, expected in cases:
        same_shape(run(source, entry=entry), expected)


def test_conditional_branches_stay_flow_separated():
    engine = run(FLOW_SRC)
    assert aliased(engine, "a", "x")
    assert aliased(engine, "b", "x")
    assert not aliased(engine, "a", "b")
    # and in each single world exactly one of the two assignments shows
    split = sorted(
        (bool(engine.diagram.value_set(path("a"), start=(r,))
              & engine.diagram.value_set(path("x"), start=(r,))),
         bool(engine.diagram.value_set(path("b"), start=(r,))
              & engine.diagram.value_set(path("x"), start=(r,))))
        for r in engine.diagram.roots
    )
    assert split == [(False, True), (True, False)]


def test_later_call_site_wins_over_earlier_one():
    source = (
        "class M feature\n  x: M\n  set_x (v: M) do x := v end\n"
        "  run local a: M b: M do create a create b create x set_x (a) set_x (b) end\nend\n"
    )
    engine = run(source, entry="M.run")
    assert aliased(engine, "x", "b")
    assert not aliased(engine, "x", "a")


def test_branch_replay_agrees_with_naive_cloning_on_random_programs():
    # two-arm choices, then choices of up to four arms
    checked = 0
    for arms in (2, 4):
        for seed in range(24):
            nv, block = oracles.gen_program(seed, arms)
            source = oracles.render(nv, block)
            names = oracles.observed_names(nv)
            answers = {
                mode: _names_at(run(source, engine=engine), names)
                for mode, engine in (("replay", Engine), ("clone", oracles.CloningEngine))
            }
            assert answers["replay"] == answers["clone"], (
                "seed %d (arms %d) disagrees:\n%s\nreplay=%s\nclone=%s"
                % (seed, arms, source, answers["replay"], answers["clone"])
            )
            checked += 1
    assert checked >= 40


def test_loop_rule_equals_explicit_iterated_union():
    for seed in range(12):
        nv, prefix, body = oracles.gen_loop_program(seed)
        source = oracles.render_loop(nv, prefix, body)
        engine = run(source)
        snapshot, _scope = engine.snapshots["P"]
        (root,) = snapshot.roots
        union = oracles.iterated_union(snapshot.edge_set(), root, body)
        names = oracles.observed_names(nv)
        want = oracles.union_alias_pairs(union, root, names)
        got = _names_at(engine, names)
        assert got == want, (
            "seed %d disagrees:\n%s\ngot=%s\nwant=%s" % (seed, source, got, want)
        )


def test_every_concrete_alias_pair_is_predicted():
    for arms in (2, 4):
        for seed in range(20):
            nv, block = oracles.gen_program(seed, arms)
            source = oracles.render(nv, block)
            engine = run(source)
            predicted = set(_names_at(engine, oracles.observed_names(nv)))
            actual = oracles.concrete_alias_pairs(nv, block)
            missed = actual - predicted
            assert not missed, (
                "seed %d (arms %d) missed %s:\n%s" % (seed, arms, sorted(missed), source)
            )


def test_whole_corpus_terminates_at_unit_cap(capsys, monkeypatch):
    monkeypatch.setenv("ALIASGRAPH_COLOR", "0")
    started = time.perf_counter()
    rc = main(["corpus", CORPUS_DIR, "--cap", "1"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert rc == 0, captured.out
    assert "0 failed" in captured.out
    assert "exceeded" not in captured.out + captured.err
    assert elapsed < 30.0, "corpus run took %.1fs" % elapsed
