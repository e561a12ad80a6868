import pytest

from aliasgraph.lang import (
    Assign,
    CallExpr,
    CallInstr,
    Choice,
    Compound,
    Cond,
    Create,
    Loop,
    ParseError,
    build_expr_universe,
    parse_program,
    resolve,
    tokenize,
    ClassTable,
)

LIST_COPY = """
class LST feature
  hd: T
  tl: LST
end

copy_ (L: LST): LST
  local
    t1: LST
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

main
  local
    X: LST
    Y: LST
    t2: LST
  do
    L0: create X
    L1: t2 := X
    L2: Y := copy_ (t2)
    L3: create X
  end
"""


def test_parses_classes_and_toplevel_routines():
    prog = parse_program(LIST_COPY)
    assert set(prog.classes) == {"LST"}
    assert set(prog.routines) == {"copy_", "main"}
    lst = prog.classes["LST"]
    assert lst.attrs == {"hd": "T", "tl": "LST"}
    copy_ = prog.routines["copy_"]
    assert copy_.formals == [("L", "LST")]
    assert copy_.result_type == "LST"
    assert copy_.locals == {"t1": "LST"}


def test_labels_and_instruction_shapes():
    prog = parse_program(LIST_COPY)
    body = prog.routines["main"].body.instrs
    assert [i.point for i in body] == ["L0", "L1", "L2", "L3"]
    assert isinstance(body[0], Create) and body[0].target == "X"
    assert isinstance(body[1], Assign) and body[1].source == ("X",)
    assert isinstance(body[2], Assign)
    call = body[2].source
    assert isinstance(call, CallExpr)
    assert call.target is None and call.name == "copy_" and call.actuals == [("t2",)]


def test_choice_syntax_and_branches():
    prog = parse_program("main do then a := x else b := x end end")
    # the unknown names are a resolution matter, not a parse error
    (choice,) = prog.routines["main"].body.instrs
    assert isinstance(choice, Choice)
    assert len(choice.branches) == 2
    guard, body = choice.branches[0]
    assert guard is None
    assert isinstance(body.instrs[0], Assign)


def test_choice_allows_more_than_two_branches():
    prog = parse_program("main do then skip else skip else skip end end")
    (choice,) = prog.routines["main"].body.instrs
    assert len(choice.branches) == 3


def test_skip_is_an_empty_compound():
    prog = parse_program("main do skip end")
    (instr,) = prog.routines["main"].body.instrs
    assert isinstance(instr, Compound) and instr.instrs == []


def test_loop_with_until_is_parsed():
    prog = parse_program("main local l: LST do loop l := l until l = Void end end")
    (loop,) = prog.routines["main"].body.instrs
    assert isinstance(loop, Loop)
    assert isinstance(loop.until, Cond) and not loop.until.negated


def test_qualified_and_bare_call_statements():
    prog = parse_program("main local x: C do x.f (x) x.g end class C feature f (v: C) do skip end g do skip end end")
    calls = prog.routines["main"].body.instrs
    assert isinstance(calls[0], CallInstr) and calls[0].call.target == ("x",)
    assert calls[1].call.name == "g" and calls[1].call.actuals == []


def test_current_prefix_normalizes_away():
    prog = parse_program("main local x: C do x := Current.y Current.f (Void) end class C feature y: C f (v: C) do skip end end")
    assign, call = prog.routines["main"].body.instrs
    assert assign.source == ("y",)
    assert call.call.target is None


def test_nested_call_arguments_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("main do x := f (g (y)) end")
    assert "','" in str(err.value) or "argument" in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("main do x := end")
    d = err.value.diagnostic
    assert d.pos is not None and d.pos.line == 1
    assert "expected" in d.message


def test_single_branch_choice_is_an_error():
    with pytest.raises(ParseError):
        parse_program("main do then skip end end")


# -- token positions ------------------------------------------------------------


@pytest.mark.parametrize(
    "src, tokens",
    [
        # a comment on its own, and one that ends the input with no newline
        (
            "a -- note\n  b := c -- tail",
            [("name", "a", 1, 1), ("name", "b", 2, 3), ("assign", ":=", 2, 5), ("name", "c", 2, 8), ("eof", "", 2, 17)],
        ),
        ("-- only", [("eof", "", 1, 8)]),
        ("", [("eof", "", 1, 1)]),
        # every whitespace character is one column; only \n starts a line
        (
            "x\t:= y\r\nz\x0b.\x0cw\xa0(\u2028)\n  p /= Void;\n",
            [
                ("name", "x", 1, 1), ("assign", ":=", 1, 3), ("name", "y", 1, 6),
                ("name", "z", 2, 1), ("punct", ".", 2, 3), ("name", "w", 2, 5),
                ("punct", "(", 2, 7), ("punct", ")", 2, 9),
                ("name", "p", 3, 3), ("neq", "/=", 3, 5), ("name", "Void", 3, 8), ("punct", ";", 3, 12),
                ("eof", "", 4, 1),
            ],
        ),
        (
            "a\u2028b\n\xa0 c -- x\u2028y\nd",
            [("name", "a", 1, 1), ("name", "b", 1, 3), ("name", "c", 2, 3), ("name", "d", 3, 1), ("eof", "", 3, 2)],
        ),
    ],
    ids=["comments", "comment-only", "empty", "control-spaces", "unicode-spaces"],
)
def test_tokens_carry_kind_text_line_and_column(src, tokens):
    assert tokenize(src) == tokens


@pytest.mark.parametrize(
    "src, message",
    [
        ("x\n  @", "2:3: error: unexpected character '@'"),
        ("main do x\u2028 @ end", "1:12: error: unexpected character '@'"),
        ("a\r\n\t#", "2:2: error: unexpected character '#'"),
    ],
    ids=["after-newline", "after-u2028", "after-crlf-tab"],
)
def test_unexpected_character_error_carries_its_position(src, message):
    with pytest.raises(ParseError) as err:
        tokenize(src)
    assert str(err.value) == "<input>:" + message


@pytest.mark.parametrize(
    "src, where",
    [("main do Current end", "1:9"), ("main do Current (Void) end", "1:9"), ("main local x: C do x := Current (x) end", "1:25")],
)
def test_calling_current_itself_is_a_parse_error(src, where):
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert str(err.value) == "<input>:%s: error: expected a routine name to call, found 'Current'" % where


# -- desugaring ---------------------------------------------------------------


def test_if_else_desugars_to_two_guards():
    prog = parse_program("main local a, x: C do if a = Void then a := x else x := a end end class C feature end")
    (choice,) = prog.routines["main"].body.instrs
    assert isinstance(choice, Choice) and len(choice.branches) == 2
    (c1, b1), (c2, b2) = choice.branches
    assert isinstance(c1, Cond) and not c1.negated
    assert isinstance(c2, Cond) and c2.negated
    assert (c1.left, c1.right) == (c2.left, c2.right) == (("a",), None)
    assert isinstance(b1.instrs[0], Assign) and isinstance(b2.instrs[0], Assign)


def test_if_without_else_gets_a_guarded_skip():
    prog = parse_program("main local a, x: C do if a = x then a := x end end class C feature end")
    (choice,) = prog.routines["main"].body.instrs
    assert len(choice.branches) == 2
    guard, body = choice.branches[1]
    assert guard.negated
    assert body.instrs == []


def test_elseif_chain_desugars_to_three_guards():
    text = """
    main local a, b, x: C do
      if a = Void then a := x
      elseif b = Void then b := x
      else x := a end
    end
    class C feature end
    """
    (choice,) = parse_program(text).routines["main"].body.instrs
    assert len(choice.branches) == 3
    # each arm keeps its own condition; the else negates the last one
    (c0, _), (c1, _), (c2, _) = choice.branches
    assert c0.left == ("a",) and not c0.negated
    assert c1.left == ("b",) and not c1.negated
    assert c2.left == ("b",) and c2.negated


def first_guard(cond_text):
    prog = parse_program("main local a, b: C do if %s then skip end end class C feature end" % cond_text)
    (choice,) = prog.routines["main"].body.instrs
    cond = choice.branches[0][0]
    return (cond.left, cond.right, cond.negated)


def test_negation_folds_instead_of_stacking():
    eq = first_guard("a = b")
    assert eq == (("a",), ("b",), False)
    # "not" flips the one flag: it folds into /= and cancels itself
    assert first_guard("not a = b") == first_guard("a /= b") == (("a",), ("b",), True)
    assert first_guard("not not a = b") == eq
    assert first_guard("not a /= b") == eq


# -- static checks ---------------------------------------------------------------


def diags(text):
    return [d for d in resolve(parse_program(text)) if d.severity == "error"]


def warnings(text):
    return [d for d in resolve(parse_program(text)) if d.severity == "warning"]


def test_clean_program_resolves_quietly():
    assert resolve(parse_program(LIST_COPY)) == []


def test_assigning_to_a_formal_is_an_error():
    errs = diags("f (v: C) do v := Void end class C feature end")
    assert any("read-only" in d.message for d in errs)


def test_assigning_through_a_formal_is_fine():
    assert diags("f (v: C) do v.a := Void end class C feature a: C end") == []


def test_unknown_names_are_reported():
    errs = diags("main do x := Void end")
    assert any("unknown name 'x'" in d.message for d in errs)


def test_each_diagnostic_is_reported_once():
    # both sides of the assignment name the undeclared x at one position
    errs = resolve(parse_program("main do x.a := x.b end"))
    assert [d.render() for d in errs] == ["<input>:1:9: error: unknown name 'x'"]
    # an if's else guard repeats its last condition
    errs = diags("main do if x = Void then skip elseif y = Void then skip end end")
    assert [d.message for d in errs] == ["unknown name 'x'", "unknown name 'y'"]


def test_opaque_types_are_fine_until_followed():
    assert diags("main local x: T do x := Void end") == []
    errs = diags("main local x: T do x := x.a end")
    assert any("opaque" in d.message for d in errs)


def test_attribute_lookup_follows_inheritance():
    text = """
    class A feature a: A end
    class B inherit A feature end
    main local b: B do b := b.a end
    """
    assert diags(text) == []


def test_inheritance_cycle_is_reported():
    errs = diags("class A inherit B feature end class B inherit A feature end main do skip end")
    assert any("cycle" in d.message for d in errs)
    # only the classes on a cycle: A inherits into the B-C cycle
    errs = diags("class A inherit B feature end class B inherit C feature end class C inherit B feature end")
    assert [d.message for d in errs] == ["inheritance cycle through class 'B'", "inheritance cycle through class 'C'"]
    assert [d.message for d in diags("class A inherit A feature end")] == ["inheritance cycle through class 'A'"]


def test_redefine_without_ancestor_version():
    errs = diags("class A feature end class B inherit A redefine f end feature f do skip end end main do skip end")
    assert any("no ancestor declares" in d.message for d in errs)


def test_locals_may_not_hide_attributes():
    errs = diags("class A feature x: A f do skip end end main do skip end class Z feature end")
    assert errs == []
    errs = diags("class A feature x: A f local x: A do skip end end main do skip end")
    assert any("hides an attribute" in d.message for d in errs)


def test_duplicate_program_points_are_reported():
    errs = diags("main local x: T do L1: x := Void L1: x := Void end")
    assert any("duplicate program point" in d.message for d in errs)


def test_until_condition_warns():
    ws = warnings("main local x: T do loop x := Void until x = Void end end")
    assert any("ignored" in d.message for d in ws)


def test_arity_mismatch_is_reported():
    errs = diags("f (v: T) do skip end main do f (Void, Void) end")
    assert any("argument" in d.message for d in errs)


def test_cannot_assign_to_current():
    errs = diags("main do Current := Void end")
    assert any("Current" in d.message for d in errs)


TYPED = "class C feature a: T f local x: C do x := %s end end"


@pytest.mark.parametrize(
    "path, why",
    [
        ("y", "unknown name 'y'"),
        ("x.a.b", "cannot follow 'b': type 'T' is opaque (no class declaration)"),
        ("x.z", "type 'C' has no attribute 'z'"),
    ],
)
def test_a_path_without_a_type_says_why(path, why):
    prog = parse_program(TYPED % path)
    routine = prog.classes["C"].routines["f"]
    assert ClassTable(prog).path_type(routine, tuple(path.split("."))) == (None, why)
    assert [d.message for d in diags(TYPED % path)] == [why]


def test_path_types_follow_locals_attributes_and_current():
    prog = parse_program(TYPED % "x")
    routine, table = prog.classes["C"].routines["f"], ClassTable(prog)
    assert table.path_type(routine, ()) == ("C", None)
    assert table.path_type(routine, ("a",)) == ("T", None)
    # a path may end on an opaque type
    assert table.path_type(routine, ("x", "a")) == ("T", None)


# -- dispatch table ---------------------------------------------------------------


CHAIN = """
class T1 feature
  set (o: T1) do a := o end
  a: T1
end
class T2 inherit T1 feature end
class T3 inherit T2 redefine set end feature
  set (o: T1) do b := o end
  b: T1
end
main do skip end
"""


def test_dispatch_versions_static_first_then_redefiners():
    prog = parse_program(CHAIN)
    table = ClassTable(prog)
    versions = table.dispatch_versions("T1", "set")
    assert [v.owner for v in versions] == ["T1", "T3"]
    # the middle class never redefines, so a T2 receiver sees the same two
    assert [v.owner for v in table.dispatch_versions("T2", "set")] == ["T1", "T3"]
    assert [v.owner for v in table.dispatch_versions("T3", "set")] == ["T3"]


def test_inherited_version_resolves_on_heir():
    prog = parse_program(CHAIN)
    table = ClassTable(prog)
    assert table.find_routine("T2", "set").owner == "T1"
    assert table.find_attr("T3", "a") == "T1"


# -- expression universe ------------------------------------------------------------


def test_universe_is_prefix_closed():
    u = build_expr_universe(parse_program(
        "main local x, a: C do x.f (a) x.g.h := Void x := Void end "
        "class C feature g: C h: C f (o: C) do skip end end"
    ))
    # a call's receiver and actuals, not its routine name; Void is no path
    assert u == (("a",), ("x",), ("x", "g"), ("x", "g", "h"))
    big = build_expr_universe(parse_program(LIST_COPY))
    assert list(big) == sorted(set(big))
    assert all(p[:i] in big for p in big for i in range(1, len(p)))


def test_universe_collects_and_prefix_closes():
    u = build_expr_universe(parse_program(LIST_COPY))
    assert ("L", "tl") in u
    assert ("L",) in u  # prefix closure
    assert ("Result", "hd") in u
    assert ("t2",) in u
    assert ("X",) in u


def test_universe_sees_condition_operands_and_actuals():
    u = build_expr_universe(parse_program("main local a: C do if a.b = Void then f (a.c) end end f (v: C) do skip end class C feature b: C c: C end"))
    assert ("a", "b") in u
    assert ("a", "c") in u


def test_a_procedure_call_is_no_value():
    text = """
    class C feature
      n: C
      p (x: C) do n := x end
      f (x: C): C do Result := x end
    end
    main local a: C b: C do b := a.%s (a) end
    """
    # reported at the call, which starts at its receiver
    assert [d.render() for d in diags(text % "p")] == ["<input>:7:34: error: 'p' is a procedure; it returns no value to assign"]
    assert diags(text % "f") == []
