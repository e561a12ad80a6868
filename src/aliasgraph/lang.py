"""Parser, class table and static checks for the analyzed mini-language.

The language covers exactly what the analysis rules speak about: reference
assignment, object creation, sequencing, conditionals, non-deterministic
choice, condition-blind loops, and unqualified/qualified calls over a
single-inheritance class system with routine redefinition.

Concrete grammar (keyword-driven; newlines are insignificant, and so are
the ';'s that may separate instructions, members, routines and decls, at
most one after each formal decl):

    program   ::=  (class_decl | routine)*
    class_decl::=  "class" NAME ["inherit" NAME ["redefine" names "end"]]
                   "feature" (decl | routine)* "end"
    decl      ::=  names ":" NAME     -- attributes, formals and locals
    names     ::=  NAME {"," NAME}
    routine   ::=  NAME ["(" {decl [";"]} ")"] [":" NAME] ["local" decl*] "do" body "end"
    body      ::=  instr*
    instr     ::=  [NAME ":"] core          -- program-point label prefix
    core      ::=  "create" NAME
                |  path ":=" ("Void" | path | call)
                |  "if" cond "then" body
                   {"elseif" cond "then" body} ["else" body] "end"
                |  "then" body "else" body {"else" body} "end"  -- free choice
                |  "loop" body ["until" cond] "end"
                |  "skip"
                |  call                                   -- as a statement
    cond      ::=  "not" cond | operand ("=" | "/=") operand
    operand   ::=  "Void" | path
    path      ::=  NAME {"." NAME}           -- Current allowed as first name
    call      ::=  path ["(" [operand {"," operand}] ")"]

One class, one formal list or one local list declares a name at most
once.  Branching has one form.  An `if` parses into a `Choice` of guarded
branches, (condition, body) pairs: each arm keeps its own condition, and
the else (an empty body when absent) is guarded by the negation of the
last condition.  A free choice is the same node with every guard None.
Top-level routines (outside any class) are allowed; they form the implicit
program scope that `--entry` can name directly.  Loop exit conditions are
parsed but deliberately ignored by the analysis (a warning says so).
Function calls may appear only as a whole right-hand side; nesting them
inside paths is a syntax error by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from aliasgraph.diagram import NamePath

KEYWORDS = {
    "class", "inherit", "redefine", "feature", "end", "do", "local",
    "create", "if", "then", "elseif", "else", "loop", "until", "not",
    "skip", "Void", "Current",
}

# Other whitespace, then a newline, a comment, a token or one bad non-space:
# none gives whitespace back, and the matches cover all but trailing space.
_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*
    (?:
      (?P<newline>\n)
    | (?P<comment>--[^\n]*)
    | (?P<assign>:=)
    | (?P<neq>/=)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[().,;:=])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


class Pos(NamedTuple):
    line: int
    col: int

    def __str__(self):
        return "%d:%d" % self


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    message: str
    pos: Optional[Pos] = None
    source: str = "<input>"

    def render(self) -> str:
        where = "%s:%s" % (self.source, self.pos) if self.pos else self.source
        return "%s: %s: %s" % (where, self.severity, self.message)


class Diagnostics(list):
    """The diagnostics of one program, in the order first reported, each
    (severity, message, pos) once: an if's else guard repeats its last
    condition, a path can be checked more than once, and a fixpoint
    repeats its passes."""

    def __init__(self, source):
        super().__init__()
        self.source = source
        self._seen = set()

    def add(self, severity, message, pos=None):
        key = (severity, message, pos)
        if key not in self._seen:
            self._seen.add(key)
            self.append(Diagnostic(severity, message, pos, self.source))


class ParseError(Exception):
    def __init__(self, message, pos, source):
        self.diagnostic = Diagnostic("error", message, pos, source)
        super().__init__(self.diagnostic.render())


def tokenize(text, source="<input>"):
    """The tokens of text as plain tuples (kind, text, line, col), kind one
    of "name", "punct", "assign", "neq", and last ("eof", "", line, col).
    Whitespace and comments make none; each whitespace character is one
    column, and only "\\n" starts a line."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "comment":
            lexeme = m[kind]
            col = m.end() - len(lexeme) - line_start + 1
            if kind == "bad":
                raise ParseError("unexpected character %r" % lexeme, Pos(line, col), source)
            tokens.append((kind, lexeme, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# Right-hand sides and condition operands: a NamePath, or None meaning Void.
Operand = Optional[NamePath]


@dataclass
class CallExpr:
    target: Operand  # None for unqualified calls; a path for x.f(...)
    name: str
    actuals: List[Operand] = field(default_factory=list)
    pos: Optional[Pos] = None


@dataclass
class Assign:
    target: NamePath
    source: Union[None, NamePath, CallExpr]  # None = Void
    pos: Optional[Pos] = None
    point: Optional[str] = None


@dataclass
class Create:
    target: str
    pos: Optional[Pos] = None
    point: Optional[str] = None


@dataclass
class Compound:
    instrs: List["Instr"] = field(default_factory=list)
    pos: Optional[Pos] = None
    point: Optional[str] = None


@dataclass
class Choice:
    # (guard, body) pairs; a None guard never blocks its branch
    branches: List[Tuple[Optional["Cond"], Compound]]
    pos: Optional[Pos] = None
    point: Optional[str] = None


@dataclass
class Loop:
    body: Compound
    until: Optional["Cond"] = None
    pos: Optional[Pos] = None
    point: Optional[str] = None


@dataclass
class CallInstr:
    call: CallExpr
    pos: Optional[Pos] = None
    point: Optional[str] = None


Instr = Union[Assign, Create, Compound, Choice, Loop, CallInstr]


@dataclass
class Cond:
    """``left = right``, or its negation when ``negated`` is set ("/="
    and each "not" flip it)."""

    left: Operand
    right: Operand
    negated: bool = False
    pos: Optional[Pos] = None


@dataclass
class RoutineDecl:
    name: str
    formals: List[Tuple[str, str]] = field(default_factory=list)
    result_type: Optional[str] = None
    locals: Dict[str, str] = field(default_factory=dict)
    body: Compound = field(default_factory=Compound)
    owner: Optional[str] = None  # class name; None for top-level routines
    pos: Optional[Pos] = None

    def is_function(self):
        return self.result_type is not None

    def formal_names(self):
        return [n for n, _ in self.formals]

    def var_types(self):
        """Declared type of every formal, local and Result; a local that
        collides with a formal wins."""
        types = dict(self.formals)
        types.update(self.locals)
        if self.result_type is not None:
            types["Result"] = self.result_type
        return types


@dataclass
class ClassDecl:
    name: str
    parent: Optional[str] = None
    redefines: List[str] = field(default_factory=list)
    attrs: Dict[str, str] = field(default_factory=dict)
    routines: Dict[str, RoutineDecl] = field(default_factory=dict)
    pos: Optional[Pos] = None


@dataclass
class Program:
    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    routines: Dict[str, RoutineDecl] = field(default_factory=dict)  # top-level
    source: str = "<input>"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, source):
        self.tokens = tokens
        self.source = source
        self.i = 0

    # -- token plumbing.  Only eof has the empty text: no caller asks
    # at() for it, and advance() follows a check that passed.  A caller
    # looks ``ahead`` only past tokens it has seen are not eof.

    def at(self, text, ahead=0):
        return self.tokens[self.i + ahead][1] == text

    def at_name(self, ahead=0):
        kind, text, _, _ = self.tokens[self.i + ahead]
        return kind == "name" and text not in KEYWORDS

    def pos(self):
        _, _, line, col = self.tokens[self.i]
        return Pos(line, col)

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1][1]

    def expect(self, text, what=None):
        if self.tokens[self.i][1] != text:
            raise self.fail("expected %r%s, found %r" % (text, " (%s)" % what if what else "", self.tokens[self.i][1] or "end of input"))
        self.i += 1

    def expect_name(self, what="a name"):
        if not self.at_name():
            raise self.fail("expected %s, found %r" % (what, self.tokens[self.i][1] or "end of input"))
        return self.advance()

    def names(self, what, more=None):
        """NAME {"," NAME}: the first name is ``what``, each later one
        ``more`` (by default ``what`` too)."""
        found = [self.expect_name(what)]
        while self.at(","):
            self.advance()
            found.append(self.expect_name(more or what))
        return found

    def declare(self, into, name, duplicate, others=(), first=None):
        """names ":" TYPE, the one shape of attribute, formal and local
        declarations: puts each name into the dict ``into`` with its
        type.  ``name`` says what each name is ("a local name"), and
        ``first`` what the first one is when that differs.  A name
        already in ``into`` or ``others`` fails with ``duplicate`` (a
        message with one %r) after the type."""
        names = self.names(first or name, name)
        self.expect(":", "after %s(s)" % name.split(" ", 1)[1])
        type_name = self.expect_name("a type name")
        for n in names:
            if n in into or n in others:
                raise self.fail(duplicate % n)
            into[n] = type_name

    def fail(self, message, pos=None):
        """The parse error to raise: message at pos, by default at the
        current token."""
        return ParseError(message, pos or self.pos(), self.source)

    def skip_semis(self):
        while self.tokens[self.i][1] == ";":
            self.i += 1

    # -- grammar: program ::= (class_decl | routine)*

    def parse_program(self):
        prog = Program(source=self.source)
        self.skip_semis()
        while self.tokens[self.i][0] != "eof":
            if self.at("class"):
                c = self.parse_class()
                if c.name in prog.classes:
                    raise self.fail("duplicate class %r" % c.name, c.pos)
                prog.classes[c.name] = c
            elif self.at_name():
                r = self.parse_routine(owner=None)
                if r.name in prog.routines:
                    raise self.fail("duplicate routine %r" % r.name, r.pos)
                prog.routines[r.name] = r
            else:
                raise self.fail("expected a class or routine declaration, found %r" % self.tokens[self.i][1])
            self.skip_semis()
        return prog

    # -- class_decl ::= "class" NAME [inherit ...] "feature" members "end"

    def parse_class(self):
        pos = self.pos()
        self.expect("class")
        name = self.expect_name("a class name")
        decl = ClassDecl(name=name, pos=pos)
        if self.at("inherit"):
            self.advance()
            decl.parent = self.expect_name("a parent class name")
            if self.at("redefine"):
                self.advance()
                decl.redefines = self.names("a routine name")
                self.expect("end", "closing the redefine clause")
        self.expect("feature", "starting the class body")
        self.skip_semis()
        while not self.at("end"):
            self.parse_member(decl)
            self.skip_semis()
        self.expect("end", "closing class %r" % name)
        return decl

    # A member is a routine when its name is followed by '(', "do" or
    # "local", or by ':' TYPE and then "do" or "local" (a function), and
    # a declaration of attributes otherwise.

    def parse_member(self, decl):
        duplicate = "duplicate declaration of %%r in class %r" % decl.name
        after = self.at_name() and self.tokens[self.i + 1][1]
        if after in ("(", "do", "local") or (
            after == ":" and self.at_name(2) and self.tokens[self.i + 3][1] in ("do", "local")
        ):
            r = self.parse_routine(owner=decl.name)
            if r.name in decl.routines or r.name in decl.attrs:
                raise self.fail(duplicate % r.name, r.pos)
            decl.routines[r.name] = r
        else:
            self.declare(decl.attrs, "an attribute name", duplicate, decl.routines, "an attribute or routine name")

    # -- routine ::= NAME ["(" {decl [";"]} ")"] [":" TYPE] ["local" decl*] "do" body "end"

    def parse_routine(self, owner):
        pos = self.pos()
        r = RoutineDecl(name=self.expect_name("a routine name"), owner=owner, pos=pos)
        if self.at("("):
            self.advance()
            formals = {}
            while not self.at(")"):
                self.declare(formals, "a formal name", "duplicate formal %r")
                if self.at(";"):
                    self.advance()
            self.advance()
            r.formals = list(formals.items())
        if self.at(":"):
            self.advance()
            r.result_type = self.expect_name("a result type")
        if self.at("local"):
            self.advance()
            while self.at_name():
                self.declare(r.locals, "a local name", "duplicate local %r")
                self.skip_semis()
        self.expect("do", "starting the routine body")
        r.body = self.parse_body(("end",))
        self.expect("end", "closing routine %r" % r.name)
        return r

    # -- body ::= instr* ; stops before any of the given closers

    def parse_body(self, closers):
        body = Compound(pos=self.pos())
        self.skip_semis()
        while not (self.tokens[self.i][0] == "eof" or self.tokens[self.i][1] in closers):
            body.instrs.append(self.parse_instr())
            self.skip_semis()
        return body

    def parse_instr(self):
        point = None
        # a label is NAME ':' not followed by '=' (which would be ':=',
        # already one token) and not a declaration context
        if self.at_name() and self.at(":", 1):
            point = self.advance()
            self.advance()
        instr = self.parse_core()
        instr.point = point
        return instr

    def parse_core(self):
        pos = self.pos()
        text = self.tokens[self.i][1]
        if text == "skip":
            self.advance()
            return Compound(pos=pos)
        if text == "create":
            self.advance()
            if not self.at_name():
                raise self.fail("expected a variable name after 'create'")
            return Create(target=self.advance(), pos=pos)
        if text in ("if", "then"):
            return self.parse_choice(pos)
        if text == "loop":
            return self.parse_loop(pos)
        if text == "Current" or self.at_name():
            path = self.parse_path()
            if self.at(":="):
                self.advance()
                return Assign(target=path, source=self.parse_rhs(), pos=pos)
            return CallInstr(call=self.parse_call(path, pos), pos=pos)
        raise self.fail("expected an instruction, found %r" % (text or "end of input"))

    # -- Both choices, in one rule: an "if" opens its first arm and
    # "elseif" each later one, a free choice "then" its first arm and
    # "else" each later one.  An "if" parses straight into a choice of
    # guarded branches.  Each arm keeps its own condition only, and the
    # else (a skip when absent) is guarded by the negation of the last
    # one.  Dropping the earlier arms' negations from later guards can
    # only add executions, which is safe for a may-analysis.  The rule
    # calls parse_body itself: a helper between them would cost one
    # more Python frame per nesting level.

    def parse_choice(self, pos):
        guarded = self.at("if")
        arm = "elseif" if guarded else "else"
        branches = []
        while not branches or self.at(arm):
            self.advance()
            cond = None
            if guarded:
                cond = self.parse_cond()
                self.expect("then")
            branches.append((cond, self.parse_body((arm, "else", "end"))))
        if guarded:
            else_body = Compound(pos=pos)
            if self.at("else"):
                self.advance()
                else_body = self.parse_body(("end",))
            branches.append((replace(cond, negated=not cond.negated), else_body))
        self.expect("end", "closing the if" if guarded else "closing the choice")
        if len(branches) < 2:
            raise self.fail("a choice needs at least two branches", pos)
        return Choice(branches=branches, pos=pos)

    def parse_loop(self, pos):
        self.advance()
        body = self.parse_body(("until", "end"))
        until = None
        if self.at("until"):
            self.advance()
            until = self.parse_cond()
        self.expect("end", "closing the loop")
        return Loop(body=body, until=until, pos=pos)

    def parse_rhs(self):
        pos = self.pos()
        operand = self.parse_operand()
        if operand is not None and self.at("("):
            return self.parse_call(operand, pos)
        return operand

    def parse_call(self, path, pos):
        """call ::= path ["(" [operand {"," operand}] ")"], after its path."""
        # `Current` alone names no routine
        if not path:
            raise self.fail("expected a routine name to call, found 'Current'", pos)
        call = CallExpr(target=path[:-1] or None, name=path[-1], pos=pos)
        if self.at("("):
            self.advance()
            if not self.at(")"):
                call.actuals.append(self.parse_operand())
                while self.at(","):
                    self.advance()
                    call.actuals.append(self.parse_operand())
                if not self.at(")"):
                    raise self.fail("expected ',' or ')' in the argument list")
            self.advance()
        return call

    def parse_operand(self):
        if self.at("Void"):
            self.advance()
            return None
        return self.parse_path()

    def parse_path(self):
        segs = []
        if self.at("Current"):
            self.advance()
        else:
            segs.append(self.expect_name("a name"))
        while self.at("."):
            self.advance()
            segs.append(self.expect_name("a name after '.'"))
        return tuple(segs)

    def parse_cond(self):
        if self.at("not"):
            self.advance()
            inner = self.parse_cond()
            return replace(inner, negated=not inner.negated)
        pos = self.pos()
        left = self.parse_operand()
        if self.at("=") or self.at("/="):
            negated = self.advance() == "/="
            return Cond(left=left, right=self.parse_operand(), negated=negated, pos=pos)
        raise self.fail("expected '=' or '/=' in a condition")


def parse_program(text, source="<input>"):
    """Parse source text into a Program.  Raises ParseError, also at the
    token where the program nests past the parser's recursion."""
    parser = _Parser(tokenize(text, source), source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.fail("the program nests too deeply to parse") from None


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), source=str(path))


# ---------------------------------------------------------------------------
# Class table and static checks
# ---------------------------------------------------------------------------


class ClassTable:
    """Resolved view of a program: inheritance-aware lookup tables."""

    def __init__(self, program):
        self.program = program
        self.classes = program.classes

    def ancestry(self, cname):
        """cname and its ancestors, nearest first; an inheritance cycle
        ends the chain where it repeats a class."""
        chain = []
        seen = set()
        while cname is not None and cname in self.classes and cname not in seen:
            seen.add(cname)
            chain.append(cname)
            cname = self.classes[cname].parent
        return chain

    def _nearest(self, cname, members, name):
        """The nearest class's entry for name among its ``members``
        ("attrs" or "routines"), from cname up its parents; None when
        no class there declares one."""
        for c in self.ancestry(cname):
            found = getattr(self.classes[c], members).get(name)
            if found is not None:
                return found
        return None

    def find_attr(self, cname, attr):
        """The type of attr visible on cname, walking up the parents."""
        return self._nearest(cname, "attrs", attr)

    def find_routine(self, cname, rname):
        """The version of rname visible on cname, walking up the parents."""
        return self._nearest(cname, "routines", rname)

    def descendants(self, cname):
        """Proper descendants in deterministic order: by distance, then name.
        An inheritance cycle through cname does not make it its own."""
        out, seen = [], {cname}
        frontier = [cname]
        while frontier:
            frontier = sorted(c.name for c in self.classes.values() if c.parent in frontier and c.name not in seen)
            seen.update(frontier)
            out.extend(frontier)
        return out

    def dispatch_versions(self, cname, rname):
        """All routine bodies a call on a static type may land in.

        The static type's own (possibly inherited) version first, then
        each descendant's redefinition, nearest generation first and
        alphabetical within one generation.
        """
        versions = []
        base = self.find_routine(cname, rname)
        if base is not None:
            versions.append(base)
        for d in self.descendants(cname):
            decl = self.classes[d]
            if rname in decl.redefines and rname in decl.routines:
                versions.append(decl.routines[rname])
        return versions

    def path_type(self, routine, path):
        """The static type of a name path inside routine, as (type, None),
        or (None, why) when the path has none: its head names nothing, it
        follows an opaque type (one no class declares), or a class lacks
        the next attribute.  A path may end on an opaque type."""
        if not path:
            return routine.owner, None
        t = routine.var_types().get(path[0])
        if t is None and routine.owner is not None:
            t = self.find_attr(routine.owner, path[0])
        if t is None:
            return None, "unknown name %r" % path[0]
        for seg in path[1:]:
            if t not in self.classes:
                return None, "cannot follow %r: type %r is opaque (no class declaration)" % (seg, t)
            nxt = self.find_attr(t, seg)
            if nxt is None:
                return None, "type %r has no attribute %r" % (t, seg)
            t = nxt
        return t, None

    def callees(self, routine, call):
        """The routine versions a call inside routine may land in, as
        (versions, None), or (None, why) when it names none.  An
        unqualified call names the owner's own, possibly inherited,
        version, else the top-level routine of that name; a qualified
        one every version its receiver's static type admits, that
        type's own first."""
        if call.target is None:
            version = self.find_routine(routine.owner, call.name) or self.program.routines.get(call.name)
            if version is None:
                return None, "unknown routine %r" % call.name
            return [version], None
        t, why = self.path_type(routine, call.target)
        if why is not None:
            return None, why
        if t not in self.classes:
            return None, "cannot call %r on opaque type %r" % (call.name, t)
        if self.find_routine(t, call.name) is None:
            return None, "type %r has no routine %r" % (t, call.name)
        return self.dispatch_versions(t, call.name), None


def _walk_instrs(body):
    for instr in body.instrs:
        yield instr
        if isinstance(instr, Compound):
            yield from _walk_instrs(instr)
        elif isinstance(instr, Choice):
            for _, b in instr.branches:
                yield from _walk_instrs(b)
        elif isinstance(instr, Loop):
            yield from _walk_instrs(instr.body)


def _all_routines(program):
    for r in program.routines.values():
        yield r
    for c in program.classes.values():
        for r in c.routines.values():
            yield r


class Resolver:
    """Static checks; collects diagnostics instead of raising.

    Checks are name-based, not a full type system: every used name must
    be declared somewhere sensible, inheritance must be acyclic, redefines
    must override something, formals must stay read-only, and paths must
    follow declared attributes.  Class names used only as types (never
    looked into) may stay undeclared: they are opaque.
    """

    def __init__(self, program):
        self.program = program
        self.table = ClassTable(program)
        self.diagnostics = Diagnostics(program.source)

    def run(self):
        self.check_inheritance()
        for routine in _all_routines(self.program):
            self.check_routine(routine)
        return self.diagnostics

    def check_inheritance(self):
        for c in self.program.classes.values():
            # on a cycle exactly when its parent's ancestry leads back to it
            if c.name in self.table.ancestry(c.parent):
                self.diagnostics.add("error", "inheritance cycle through class %r" % c.name, c.pos)
            if c.parent is not None and c.parent not in self.program.classes:
                self.diagnostics.add("error", "class %r inherits unknown class %r" % (c.name, c.parent), c.pos)
            for rname in c.redefines:
                parent_version = self.table.find_routine(c.parent, rname) if c.parent else None
                if parent_version is None:
                    self.diagnostics.add("error", "class %r redefines %r, which no ancestor declares" % (c.name, rname), c.pos)
                elif rname not in c.routines:
                    self.diagnostics.add("error", "class %r lists %r under redefine but gives no body" % (c.name, rname), c.pos)

    # -- per-routine checks

    def check_routine(self, routine):
        types = routine.var_types()
        formals = set(routine.formal_names())
        for n in routine.locals:
            if n in formals:
                self.diagnostics.add("error", "local %r of %r collides with a formal" % (n, routine.name), routine.pos)
        if routine.owner is not None:
            for n in types:
                if n != "Result" and self.table.find_attr(routine.owner, n) is not None:
                    self.diagnostics.add("error", "%r in routine %r hides an attribute of class %r" % (n, routine.name, routine.owner), routine.pos)
        points = set()
        for instr in _walk_instrs(routine.body):
            if instr.point is not None:
                if instr.point in points:
                    self.diagnostics.add("error", "duplicate program point %r in %r" % (instr.point, routine.name), instr.pos)
                points.add(instr.point)
            self.check_instr(instr, routine, formals)

    def check_instr(self, instr, routine, formals):
        if isinstance(instr, Assign):
            self.check_target(instr.target, routine, formals, instr.pos)
            if isinstance(instr.source, CallExpr):
                self.check_call(instr.source, routine)
            elif instr.source is not None:
                self.check_path(instr.source, routine, instr.pos)
        elif isinstance(instr, Create):
            name = instr.target
            if name in formals:
                self.diagnostics.add("error", "cannot create into formal %r" % name, instr.pos)
            elif self.table.path_type(routine, (name,))[1] is not None:
                self.diagnostics.add("error", "unknown variable %r in create" % name, instr.pos)
        elif isinstance(instr, Choice):
            for c, _ in instr.branches:
                if c is not None:
                    self.check_cond(c, routine)
        elif isinstance(instr, Loop):
            if instr.until is not None:
                self.diagnostics.add("warning", "loop exit condition is ignored by the analysis", instr.pos)
                self.check_cond(instr.until, routine)
        elif isinstance(instr, CallInstr):
            self.check_call(instr.call, routine)

    def check_cond(self, cond, routine):
        for side in (cond.left, cond.right):
            if side is not None:
                self.check_path(side, routine, cond.pos)

    def check_target(self, path, routine, formals, pos):
        if len(path) == 0:
            self.diagnostics.add("error", "cannot assign to Current", pos)
            return
        if len(path) == 1 and path[0] in formals:
            self.diagnostics.add("error", "formals are read-only; cannot assign to %r" % path[0], pos)
            return
        self.check_path(path, routine, pos)

    def check_path(self, path, routine, pos):
        why = self.table.path_type(routine, path)[1]
        if why is not None:
            self.diagnostics.add("error", why, pos)

    def check_call(self, call, routine):
        versions, why = self.table.callees(routine, call)
        if why is not None:
            self.diagnostics.add("error", why, call.pos)
        for a in call.actuals:
            if a is not None:
                self.check_path(a, routine, call.pos)
        if versions is not None and len(call.actuals) != len(versions[0].formals):
            self.diagnostics.add(
                "error",
                "call to %r passes %d argument(s), expected %d"
                % (call.name, len(call.actuals), len(versions[0].formals)),
                call.pos,
            )


def resolve(program):
    """Run all static checks; returns the diagnostics list."""
    return Resolver(program).run()


# ---------------------------------------------------------------------------
# Expression universe
# ---------------------------------------------------------------------------


def _operands(instr):
    """The name paths one instruction names itself, outside its nested
    bodies: targets, sources, condition operands, call receivers and
    actuals.  None stands for Void, or for an unqualified call's
    receiver; a routine name is no path."""
    parts = []
    if isinstance(instr, Assign):
        parts = [instr.target, instr.source]
    elif isinstance(instr, Create):
        parts = [(instr.target,)]
    elif isinstance(instr, CallInstr):
        parts = [instr.call]
    elif isinstance(instr, Choice):
        parts = [c for c, _ in instr.branches]
    elif isinstance(instr, Loop):
        parts = [instr.until]
    for part in parts:
        if isinstance(part, CallExpr):
            yield part.target
            yield from part.actuals
        elif isinstance(part, Cond):
            yield part.left
            yield part.right
        else:
            yield part


def build_expr_universe(program):
    """Every dotted path the program text mentions, prefix-closed, as a
    sorted tuple."""
    return tuple(sorted({
        path[:i]
        for routine in _all_routines(program)
        for instr in _walk_instrs(routine.body)
        for path in _operands(instr)
        if path
        for i in range(1, len(path) + 1)
    }))
