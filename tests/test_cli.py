import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import aliasgraph
from aliasgraph.calculus import AnalysisError, analyze_program
from aliasgraph.cli import main
from aliasgraph.lang import ParseError, parse_program, resolve

from util import DEUTSCH_SRC, FLOW_SRC

SCALED_DIR = Path(__file__).resolve().parent / "scaled"

CLEAN_SRC = """class C feature n: C end
main
local
    a: C
    b: C
do
    create a
    b := a
end
"""

VOID_CALL_SRC = """class C feature
    n: C
    poke (o: C)
    do
        n := o
    end
end
main
local
    a: C
do
    a.poke (a)
end
"""

BAD_SYNTAX_SRC = "main do a := := b end\n"

BAD_NAME_SRC = """main
local
    a: C
do
    a := b
end
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_every_export_imports():
    # a name ``__all__`` lists that the package lacks breaks a star import
    namespace = {}
    exec("from aliasgraph import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(aliasgraph.__all__)


def test_clean_program_exits_zero(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "a ~ b" in out


def test_parse_error_exits_two_with_location(tmp_path, capsys):
    path = write(tmp_path, "bad.oo", BAD_SYNTAX_SRC)
    rc = main(["analyze", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.oo:1:" in err


def test_static_error_exits_two(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "undef.oo", BAD_NAME_SRC)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "b" in err


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "ghost.oo")])
    assert rc == 2
    assert "ghost.oo" in capsys.readouterr().err


def test_unknown_entry_exits_two(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC), "--entry", "nope"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_void_call_exits_one(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "voidcall.oo", VOID_CALL_SRC)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "void" in err


def test_warning_only_still_exits_zero(tmp_path, capsys):
    src = """class C feature n: C end
main
local
    a: C
    b: C
do
    b := a.n
end
"""
    rc = main(["analyze", write(tmp_path, "warn.oo", src)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "void" in err


def test_bad_cap_rejected(tmp_path, capsys):
    path = write(tmp_path, "ok.oo", CLEAN_SRC)
    assert main(["analyze", path, "--cap", "0"]) == 2
    assert "the creation cap must be at least 1, got 0" in capsys.readouterr().err
    assert main(["analyze", path, "--max-iters", "0"]) == 2
    assert "the iteration ceiling must be at least 1, got 0" in capsys.readouterr().err
    assert main(["corpus", str(tmp_path), "--max-iters", "0"]) == 2
    assert "the iteration ceiling must be at least 1, got 0" in capsys.readouterr().err


def deep_calls(n):
    """A chain of n + 1 routines, each calling the next."""
    return "".join("r%d do r%d end\n" % (i, i + 1) for i in range(n)) + "r%d do skip end\nmain do r0 end\n" % n


def deep_choices(n):
    """n choices, each nested in the first branch of the one before."""
    return "main do " + "then " * n + "skip" + " else skip end" * n + " end\n"


@pytest.mark.parametrize("src", [deep_calls(1000), deep_choices(1000)], ids=["calls", "choices"])
def test_deep_nesting_is_unusable_input(tmp_path, capsys, src):
    rc = main(["analyze", write(tmp_path, "deep.oo", src)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "deep.oo: the program nests too deeply to analyze" in err
    assert "Traceback" not in err


def test_nesting_well_inside_the_recursion_limit_parses():
    """240 nested choices parse under the default recursion limit.  The
    parse runs on a fresh thread, whose stack starts empty, so the test
    runner's own frames do not count against the program's nesting."""
    parsed = []
    worker = threading.Thread(target=lambda: parsed.append(parse_program(deep_choices(240))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert parsed, "the parse raised; the thread's traceback says why"
    assert len(parsed[0].routines["main"].body.instrs) == 1


@pytest.mark.parametrize("body", ["Current", "Current (Void)", "x := Current (x)"])
def test_calling_current_itself_is_a_parse_error(tmp_path, capsys, body):
    rc = main(["analyze", write(tmp_path, "cur.oo", "main local x: C do %s end\nclass C feature end\n" % body)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cur.oo:1:" in err and "error" in err
    assert "Traceback" not in err


NO_POINTS_SRC = "class C feature run do skip end end"

# (stage, source, entry, what the stage reports).  "parse" parses,
# "resolve" parses and resolves, "analyze" runs the engine on the parsed
# program (no resolve), and "cli" runs `analyze --deutsch` on a file.
DIAGNOSTICS = [
    ("parse", "class A feature end class A feature end", None, ["<input>:1:21: error: duplicate class 'A'"]),
    ("parse", "f do skip end f do skip end", None, ["<input>:1:15: error: duplicate routine 'f'"]),
    ("parse", "main do skip end )", None, ["<input>:1:18: error: expected a class or routine declaration, found ')'"]),
    ("parse", "class C feature a, a: C end", None, ["<input>:1:25: error: duplicate declaration of 'a' in class 'C'"]),
    ("parse", "class C feature a: C a do skip end end", None, ["<input>:1:22: error: duplicate declaration of 'a' in class 'C'"]),
    ("parse", "main local x, x: C do skip end", None, ["<input>:1:20: error: duplicate local 'x'"]),
    ("parse", "main do create Void end", None, ["<input>:1:16: error: expected a variable name after 'create'"]),
    ("parse", "main do ) end", None, ["<input>:1:9: error: expected an instruction, found ')'"]),
    ("parse", "main local x: C do if x then skip end end", None, ["<input>:1:25: error: expected '=' or '/=' in a condition"]),
    ("parse", "main local x: C do if x = x skip end end", None, ["<input>:1:29: error: expected 'then', found 'skip'"]),
    ("parse", "main do skip", None, ["<input>:1:13: error: expected 'end' (closing routine 'main'), found 'end of input'"]),
    # both attributes of one declaration get its type: only 'c' is missing
    ("resolve", "class C feature a, b: C end main local x: C do x := x.a.b.c end", None,
     ["<input>:1:48: error: type 'C' has no attribute 'c'"]),
    ("resolve", "class A feature f do skip end g do skip end end class B inherit A redefine f, g end feature f do skip end end",
     None, ["<input>:1:49: error: class 'B' lists 'g' under redefine but gives no body"]),
    ("resolve", "class B inherit Z feature end", None, ["<input>:1:1: error: class 'B' inherits unknown class 'Z'"]),
    ("resolve", "class C feature end f (v: C) local v: C do skip end", None,
     ["<input>:1:21: error: local 'v' of 'f' collides with a formal"]),
    ("resolve", "class C feature end f (v: C) do create v end", None, ["<input>:1:33: error: cannot create into formal 'v'"]),
    ("resolve", "main do create x end", None, ["<input>:1:9: error: unknown variable 'x' in create"]),
    ("resolve", "main do g end", None, ["<input>:1:9: error: unknown routine 'g'"]),
    ("resolve", "main local x: T do x.f end", None, ["<input>:1:20: error: cannot call 'f' on opaque type 'T'"]),
    ("resolve", "class C feature end main local x: C do x.f end", None, ["<input>:1:40: error: type 'C' has no routine 'f'"]),
    ("analyze", "main do g end", "main", ["<input>:1:9: error: unknown routine 'g'"]),
    ("analyze", NO_POINTS_SRC, "Z.run", ["unknown class 'Z' in entry 'Z.run'"]),
    ("analyze", NO_POINTS_SRC, "C.go", ["class 'C' has no routine 'go'"]),
    ("cli", NO_POINTS_SRC, "C.run", ["exit 1", "unknown program point 'L2' (recorded: none)"]),
]


@pytest.mark.parametrize("stage, src, entry, want", DIAGNOSTICS)
def test_every_diagnostic_renders_as_pinned(stage, src, entry, want, tmp_path, capsys, monkeypatch):
    if stage == "cli":
        monkeypatch.setenv("ALIASGRAPH_COLOR", "0")
        rc = main(["analyze", write(tmp_path, "p.oo", src), "--entry", entry, "--deutsch"])
        assert ["exit %d" % rc] + capsys.readouterr().err.splitlines() == want
        return
    try:
        program = parse_program(src)
        if stage == "resolve":
            got = [d.render() for d in resolve(program)]
        elif stage == "analyze":
            got = [d.render() for d in analyze_program(program, entry).diagnostics]
        else:
            got = ["parsed"]
    except (ParseError, AnalysisError) as exc:
        got = [str(exc)]
    assert got == want


def test_json_output_is_deterministic(tmp_path, capsys):
    src_path = write(tmp_path, "flow.oo", FLOW_SRC)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", src_path, "--json", str(out1)]) == 0
    assert main(["analyze", src_path, "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc) == {"program", "entry", "points", "final", "diagnostics"}


def ladder_with_a_point():
    """The scaled ladder(10), its fifth choice labelled P."""
    text = (SCALED_DIR / "ladder10-seed1.oo").read_text()
    head, sep, rest = text.partition("  then\n")
    for _ in range(4):
        more, sep, rest = rest.partition("  then\n")
        head += sep + more
    return head + "  P: then\n" + rest


@pytest.mark.parametrize("name,entry,point", [("ring3-v0.oo", "C.run", "L1"), ("ladder10-seed1.oo", "main", "P")])
def test_reports_do_not_depend_on_the_hash_seed(name, entry, point, tmp_path):
    """Edge writes run in set order, which string hashing changes; the
    JSON report and the DOT drawings of the final state and of a point
    must come out byte for byte the same under two hash seeds."""
    text = ladder_with_a_point() if point == "P" else (SCALED_DIR / name).read_text()
    src_path = write(tmp_path, name, text)
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        common = [src_path, "--entry", entry, "--points"]
        runs = [
            common + ["--json", str(out / "report.json"), "--dot", str(out / "final.dot")],
            common + ["--at", point, "--dot", str(out / "point.dot")],
        ]
        launcher = "from aliasgraph.cli import main\nfor argv in %r: assert main(['analyze'] + argv) == 0" % (runs,)
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / f).read_bytes() for f in ("report.json", "final.dot", "point.dot")])
    assert outputs[0] == outputs[1]
    assert b'"label": "%s"' % point.encode() in outputs[0][0]


def test_json_to_stdout_is_pipe_clean(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC), "--json", "-"])
    captured = capsys.readouterr()
    assert rc == 0
    # the whole stream must parse: the human summary moves to stderr
    doc = json.loads(captured.out)
    assert set(doc) == {"program", "entry", "points", "final", "diagnostics"}
    assert "alias pairs" in captured.err


def test_json_and_dot_cannot_share_stdout(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC), "--json", "-", "--dot", "-"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "cannot both write to stdout" in captured.err


def test_dot_output(tmp_path, capsys):
    src_path = write(tmp_path, "ok.oo", CLEAN_SRC)
    out = tmp_path / "g.dot"
    assert main(["analyze", src_path, "--dot", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("digraph")
    assert "peripheries=2" in text


def test_dot_at_point_differs_from_final(tmp_path, capsys):
    src_path = write(tmp_path, "deutsch.oo", DEUTSCH_SRC)
    final = tmp_path / "final.dot"
    at_l2 = tmp_path / "l2.dot"
    assert main(["analyze", src_path, "--dot", str(final)]) == 0
    assert main(["analyze", src_path, "--points", "--at", "L2", "--dot", str(at_l2)]) == 0
    capsys.readouterr()
    assert final.read_bytes() != at_l2.read_bytes()


def test_at_unknown_point_exits_one(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC), "--at", "L9"])
    assert rc == 1
    assert "L9" in capsys.readouterr().err


def test_query_prints_alias_set(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "ok.oo", CLEAN_SRC), "--query", "a"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alias(a) = {b}" in out


def test_query_that_is_not_a_path_exits_one(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "deutsch.oo", DEUTSCH_SRC), "--query", "alias(Y)"])
    assert rc == 1
    assert "'alias(Y)' is not a dotted path" in capsys.readouterr().err


VOID_TARGET_SRC = """class C feature n: C end
main local a: C b: C do
  create b
  a.n := b
end
"""


@pytest.mark.parametrize("request_args", [["--query", "alias(a)"], ["--at", "L9"]])
def test_unanswerable_request_still_writes_reports_and_diagnostics(request_args, tmp_path, capsys):
    src_path = write(tmp_path, "void_target.oo", VOID_TARGET_SRC)
    report = tmp_path / "out.json"
    drawing = tmp_path / "out.dot"
    rc = main(["analyze", src_path, "--json", str(report), "--dot", str(drawing)] + request_args)
    err = capsys.readouterr().err
    assert rc == 1
    assert "assignment target 'a.n' is definitely void" in err
    assert json.loads(report.read_text())["final"]["pairs"] == []
    # the final diagram is drawn unless the request named a point
    assert drawing.exists() == ("--at" not in request_args)


def test_deutsch_flag_prints_and_embeds_properties(tmp_path, capsys):
    src_path = write(tmp_path, "deutsch.oo", DEUTSCH_SRC)
    out = tmp_path / "r.json"
    rc = main(["analyze", src_path, "--deutsch", "--json", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    for name in ("P1", "P2", "P3", "P4", "P5"):
        assert "%s: yes" % name in text
    assert "no-share root component: yes" in text
    doc = json.loads(out.read_text())
    assert any("P5" in d for d in doc["diagnostics"])


def test_color_env_controls_ansi(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "bad.oo", BAD_SYNTAX_SRC)
    monkeypatch.setenv("ALIASGRAPH_COLOR", "1")
    main(["analyze", path])
    assert "\x1b[31m" in capsys.readouterr().err
    monkeypatch.setenv("ALIASGRAPH_COLOR", "0")
    main(["analyze", path])
    assert "\x1b[" not in capsys.readouterr().err


def _freeze_expectation(tmp_path, name, src, monkeypatch):
    """Write src and its expectation produced by the tool itself."""
    src_path = write(tmp_path, name, src)
    out = tmp_path / (name[:-3] + ".expected.json")
    monkeypatch.setenv("ALIASGRAPH_COLOR", "0")
    assert main(["analyze", src_path, "--points", "--json", str(out)]) == 0
    return src_path


class TestCorpus:
    def test_all_pass(self, tmp_path, capsys, monkeypatch):
        _freeze_expectation(tmp_path, "a_flow.oo", FLOW_SRC, monkeypatch)
        _freeze_expectation(tmp_path, "b_clean.oo", CLEAN_SRC, monkeypatch)
        capsys.readouterr()
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("PASS a_flow.oo") < out.index("PASS b_clean.oo")
        assert "2 passed, 0 failed, 0 skipped" in out

    def test_missing_expectation_skips(self, tmp_path, capsys, monkeypatch):
        _freeze_expectation(tmp_path, "a_flow.oo", FLOW_SRC, monkeypatch)
        write(tmp_path, "b_orphan.oo", CLEAN_SRC)
        capsys.readouterr()
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SKIP b_orphan.oo" in out
        assert "1 passed, 0 failed, 1 skipped" in out

    def test_wrong_expectation_fails_with_diff(self, tmp_path, capsys, monkeypatch):
        _freeze_expectation(tmp_path, "a_clean.oo", CLEAN_SRC, monkeypatch)
        want_path = tmp_path / "a_clean.expected.json"
        doc = json.loads(want_path.read_text())
        doc["final"]["pairs"] = [["a", "x"]]
        want_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL a_clean.oo" in out
        assert "final: missing a ~ x" in out
        assert "final: unexpected a ~ b" in out

    def test_broken_program_fails(self, tmp_path, capsys):
        write(tmp_path, "bad.oo", BAD_SYNTAX_SRC)
        (tmp_path / "bad.expected.json").write_text('{"final": {"pairs": []}}')
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL bad.oo (did not analyze)" in out

    def test_deep_program_fails_and_the_run_goes_on(self, tmp_path, capsys, monkeypatch):
        write(tmp_path, "a_deep.oo", deep_calls(1000))
        (tmp_path / "a_deep.expected.json").write_text('{"final": {"pairs": []}}')
        _freeze_expectation(tmp_path, "b_clean.oo", CLEAN_SRC, monkeypatch)
        capsys.readouterr()
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.index("FAIL a_deep.oo (did not analyze)") < out.index("PASS b_clean.oo")
        assert "1 passed, 1 failed, 0 skipped" in out

    def test_empty_dir_passes(self, tmp_path, capsys):
        rc = main(["corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 passed, 0 failed, 0 skipped" in out

    def test_not_a_directory(self, tmp_path, capsys):
        rc = main(["corpus", str(tmp_path / "nowhere")])
        assert rc == 2


def test_console_entry_point(tmp_path):
    """Run the `aliasgraph` target declared in [project.scripts] in a child
    process, called the way the installed console script calls it, so the
    test needs no install and no `aliasgraph` executable on PATH."""
    toml = tomllib or pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = toml.load(f)["project"]["scripts"]["aliasgraph"]
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    src_path = write(tmp_path, "ok.oo", CLEAN_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "analyze", src_path, "--query", "b"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "alias(b) = {a}" in proc.stdout


@pytest.mark.parametrize("demo", ["list_copy.py", "worlds.py"])
def test_demo_runs_to_completion(demo, tmp_path):
    """Each script under demos/ runs in a child process and exits 0;
    worlds.py also writes its DOT drawing to the path it is given."""
    script = Path(__file__).resolve().parents[1] / "demos" / demo
    pkg_root = str(Path(aliasgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    dot = tmp_path / "worlds.dot"
    args = [str(dot)] if demo == "worlds.py" else []
    proc = subprocess.run(
        [sys.executable, str(script)] + args,
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    if args:
        assert dot.read_text().startswith("digraph alias_diagram {")
