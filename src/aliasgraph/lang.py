"""Parser, class table and static checks for the analyzed mini-language.

The language covers exactly what the analysis rules speak about: reference
assignment, object creation, sequencing, conditionals, non-deterministic
choice, condition-blind loops, and unqualified/qualified calls over a
single-inheritance class system with routine redefinition.

Concrete grammar (keyword-driven; newlines and ';' are insignificant):

    program   ::=  (class_decl | routine_decl)*
    class_decl::=  "class" NAME ["inherit" NAME ["redefine" names "end"]]
                   "feature" (attr_decl | routine_decl)* "end"
    attr_decl ::=  names ":" NAME
    routine   ::=  NAME ["(" params ")"] [":" NAME] ["local" decl*] "do" body "end"
    params    ::=  names ":" NAME (";" names ":" NAME)*
    body      ::=  instr*
    instr     ::=  [NAME ":"] core          -- program-point label prefix
    core      ::=  "create" NAME
                |  path ":=" ("Void" | path | call)
                |  "if" cond "then" body
                   {"elseif" cond "then" body} ["else" body] "end"
                |  "then" body {"else" body} "end"       -- free choice
                |  "loop" body ["until" cond] "end"
                |  "skip"
                |  call                                   -- as a statement
    cond      ::=  "not" cond | operand ("=" | "/=") operand
    operand   ::=  "Void" | path
    path      ::=  NAME {"." NAME}           -- Current allowed as first name
    call      ::=  path ["(" [operand {"," operand}] ")"]

Branching has one form.  An `if` parses into a `Choice` of guarded
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


class ParseError(Exception):
    def __init__(self, diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


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
                raise ParseError(Diagnostic("error", "unexpected character %r" % lexeme, Pos(line, col), source))
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
    # at() for it, and advance() follows a check that passed.

    def at(self, text):
        return self.tokens[self.i][1] == text

    def at_name(self):
        kind, text, _, _ = self.tokens[self.i]
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

    def fail(self, message):
        return ParseError(Diagnostic("error", message, self.pos(), self.source))

    def skip_semis(self):
        while self.tokens[self.i][1] == ";":
            self.i += 1

    # -- grammar: program ::= (class_decl | routine_decl)*

    def parse_program(self):
        prog = Program(source=self.source)
        self.skip_semis()
        while self.tokens[self.i][0] != "eof":
            if self.at("class"):
                c = self.parse_class()
                if c.name in prog.classes:
                    raise ParseError(Diagnostic("error", "duplicate class %r" % c.name, c.pos, self.source))
                prog.classes[c.name] = c
            elif self.at_name():
                r = self.parse_routine(owner=None)
                if r.name in prog.routines:
                    raise ParseError(Diagnostic("error", "duplicate routine %r" % r.name, r.pos, self.source))
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

    # A member is an attribute (names ":" TYPE) or a routine.  Both start
    # with a name; the routine forms are told apart by what follows:
    # '(' opens formals, and "do"/"local", or ':' TYPE then "do"/"local",
    # mean a body follows.

    def parse_member(self, decl):
        start = self.i
        names = self.names("an attribute or routine name", "an attribute name")
        if len(names) == 1:
            if self.at("(") or self.at("do") or self.at("local"):
                self.i = start
                r = self.parse_routine(owner=decl.name)
                self._declare_routine(decl, r)
                return
            if self.at(":"):
                # could still be `name : TYPE do` (a function)
                save = self.i
                self.advance()
                self.expect_name("a type name")
                if self.at("do") or self.at("local"):
                    self.i = start
                    r = self.parse_routine(owner=decl.name)
                    self._declare_routine(decl, r)
                    return
                self.i = save
        self.expect(":", "after attribute name(s)")
        type_name = self.expect_name("a type name")
        for n in names:
            if n in decl.attrs or n in decl.routines:
                raise self.fail("duplicate declaration of %r in class %r" % (n, decl.name))
            decl.attrs[n] = type_name

    def _declare_routine(self, decl, r):
        if r.name in decl.routines or r.name in decl.attrs:
            raise ParseError(Diagnostic("error", "duplicate declaration of %r in class %r" % (r.name, decl.name), r.pos, self.source))
        decl.routines[r.name] = r

    # -- routine ::= NAME ["(" params ")"] [":" TYPE] ["local" decls] "do" body "end"

    def parse_routine(self, owner):
        pos = self.pos()
        r = RoutineDecl(name=self.expect_name("a routine name"), owner=owner, pos=pos)
        if self.at("("):
            self.advance()
            while not self.at(")"):
                names = self.names("a formal name")
                self.expect(":", "after formal name(s)")
                type_name = self.expect_name("a type name")
                for n in names:
                    r.formals.append((n, type_name))
                if self.at(";"):
                    self.advance()
            self.expect(")")
        if self.at(":"):
            self.advance()
            r.result_type = self.expect_name("a result type")
        if self.at("local"):
            self.advance()
            while self.at_name():
                names = self.names("a local name")
                self.expect(":", "after local name(s)")
                type_name = self.expect_name("a type name")
                for n in names:
                    if n in r.locals:
                        raise self.fail("duplicate local %r" % n)
                    r.locals[n] = type_name
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
        if self.at_name() and self.tokens[self.i + 1][1] == ":":
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
        if text == "if":
            return self.parse_if(pos)
        if text == "then":
            return self.parse_choice(pos)
        if text == "loop":
            return self.parse_loop(pos)
        if text == "Current" or self.at_name():
            path = self.parse_path()
            if self.at(":="):
                self.advance()
                return Assign(target=path, source=self.parse_rhs(), pos=pos)
            if self.at("("):
                return CallInstr(call=self.finish_call(path, pos), pos=pos)
            # bare call statement: `f` or `x.f`
            return CallInstr(call=self.call_expr(path, pos), pos=pos)
        raise self.fail("expected an instruction, found %r" % (text or "end of input"))

    # -- "if" parses straight into a choice of guarded branches.  Each
    # arm keeps its own condition only, and the else (a skip when absent)
    # is guarded by the negation of the last one.  Dropping the earlier
    # arms' negations from later guards can only add executions, which
    # is safe for a may-analysis.

    def parse_if(self, pos):
        self.advance()
        cond = self.parse_cond()
        self.expect("then")
        branches = [(cond, self.parse_body(("elseif", "else", "end")))]
        while self.at("elseif"):
            self.advance()
            cond = self.parse_cond()
            self.expect("then")
            branches.append((cond, self.parse_body(("elseif", "else", "end"))))
        else_body = Compound(pos=pos)
        if self.at("else"):
            self.advance()
            else_body = self.parse_body(("end",))
        self.expect("end", "closing the if")
        branches.append((replace(cond, negated=not cond.negated), else_body))
        return Choice(branches=branches, pos=pos)

    # -- "then" body {"else" body} "end": free (condition-less) choice

    def parse_choice(self, pos):
        self.advance()
        branches = [(None, self.parse_body(("else", "end")))]
        while self.at("else"):
            self.advance()
            branches.append((None, self.parse_body(("else", "end"))))
        self.expect("end", "closing the choice")
        if len(branches) < 2:
            raise ParseError(Diagnostic("error", "a choice needs at least two branches", pos, self.source))
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
        if self.at("Void"):
            self.advance()
            return None
        pos = self.pos()
        path = self.parse_path()
        if self.at("("):
            return self.finish_call(path, pos)
        return path

    def call_expr(self, path, pos):
        # `Current` alone names no routine
        if not path:
            raise ParseError(Diagnostic("error", "expected a routine name to call, found 'Current'", pos, self.source))
        return CallExpr(target=path[:-1] or None, name=path[-1], pos=pos)

    def finish_call(self, path, pos):
        call = self.call_expr(path, pos)
        self.expect("(")
        while not self.at(")"):
            call.actuals.append(self.parse_operand())
            if self.at(","):
                self.advance()
            elif not self.at(")"):
                raise self.fail("expected ',' or ')' in the argument list")
        self.expect(")")
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
    """Parse source text into a Program.  Raises ParseError."""
    parser = _Parser(tokenize(text, source), source)
    return parser.parse_program()


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

    def find_attr(self, cname, attr):
        for c in self.ancestry(cname):
            if attr in self.classes[c].attrs:
                return self.classes[c].attrs[attr]
        return None

    def find_routine(self, cname, rname):
        """The version of rname visible on cname, walking up the parents."""
        for c in self.ancestry(cname):
            if rname in self.classes[c].routines:
                return self.classes[c].routines[rname]
        return None

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

    def find_callee(self, owner, rname):
        """The routine an unqualified call from a routine of class owner
        (None at top level) names: the class's own, possibly inherited,
        version, else the top-level routine of that name."""
        version = self.find_routine(owner, rname)
        if version is None:
            version = self.program.routines.get(rname)
        return version

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
        self.diagnostics = []
        self._seen = set()

    def _report(self, severity, message, pos):
        # once per (severity, message, pos): an if's else guard repeats
        # its last condition, and a path can be checked more than once
        d = Diagnostic(severity, message, pos, self.program.source)
        if d not in self._seen:
            self._seen.add(d)
            self.diagnostics.append(d)

    def error(self, message, pos=None):
        self._report("error", message, pos)

    def warning(self, message, pos=None):
        self._report("warning", message, pos)

    def run(self):
        self.check_inheritance()
        for routine in _all_routines(self.program):
            self.check_routine(routine)
        return self.diagnostics

    def check_inheritance(self):
        for c in self.program.classes.values():
            # on a cycle exactly when its parent's ancestry leads back to it
            if c.name in self.table.ancestry(c.parent):
                self.error("inheritance cycle through class %r" % c.name, c.pos)
            if c.parent is not None and c.parent not in self.program.classes:
                self.error("class %r inherits unknown class %r" % (c.name, c.parent), c.pos)
            for rname in c.redefines:
                parent_version = self.table.find_routine(c.parent, rname) if c.parent else None
                if parent_version is None:
                    self.error("class %r redefines %r, which no ancestor declares" % (c.name, rname), c.pos)
                elif rname not in c.routines:
                    self.error("class %r lists %r under redefine but gives no body" % (c.name, rname), c.pos)

    # -- per-routine checks

    def check_routine(self, routine):
        types = routine.var_types()
        formals = set(routine.formal_names())
        for n in routine.locals:
            if n in formals:
                self.error("local %r of %r collides with a formal" % (n, routine.name), routine.pos)
        if routine.owner is not None:
            for n in types:
                if n != "Result" and self.table.find_attr(routine.owner, n) is not None:
                    self.error("%r in routine %r hides an attribute of class %r" % (n, routine.name, routine.owner), routine.pos)
        points = set()
        for instr in _walk_instrs(routine.body):
            if instr.point is not None:
                if instr.point in points:
                    self.error("duplicate program point %r in %r" % (instr.point, routine.name), instr.pos)
                points.add(instr.point)
            self.check_instr(instr, routine, types, formals)

    def check_instr(self, instr, routine, types, formals):
        if isinstance(instr, Assign):
            self.check_target(instr.target, routine, formals, instr.pos)
            if isinstance(instr.source, CallExpr):
                self.check_call(instr.source, routine)
            elif instr.source is not None:
                self.check_path(instr.source, routine, instr.pos)
        elif isinstance(instr, Create):
            name = instr.target
            if name in formals:
                self.error("cannot create into formal %r" % name, instr.pos)
            elif name not in types and (routine.owner is None or self.table.find_attr(routine.owner, name) is None):
                self.error("unknown variable %r in create" % name, instr.pos)
        elif isinstance(instr, Choice):
            for c, _ in instr.branches:
                if c is not None:
                    self.check_cond(c, routine)
        elif isinstance(instr, Loop):
            if instr.until is not None:
                self.warning("loop exit condition is ignored by the analysis", instr.pos)
                self.check_cond(instr.until, routine)
        elif isinstance(instr, CallInstr):
            self.check_call(instr.call, routine)

    def check_cond(self, cond, routine):
        for side in (cond.left, cond.right):
            if side is not None:
                self.check_path(side, routine, cond.pos)

    def check_target(self, path, routine, formals, pos):
        if len(path) == 0:
            self.error("cannot assign to Current", pos)
            return
        if len(path) == 1 and path[0] in formals:
            self.error("formals are read-only; cannot assign to %r" % path[0], pos)
            return
        self.check_path(path, routine, pos)

    def check_path(self, path, routine, pos):
        """The static type of the path, or None after reporting why it
        has none."""
        t, why = self.table.path_type(routine, path)
        if why is not None:
            self.error(why, pos)
        return t

    def check_call(self, call, routine):
        if call.target is None:
            version = self.table.find_callee(routine.owner, call.name)
            if version is None:
                self.error("unknown routine %r" % call.name, call.pos)
        else:
            t = self.check_path(call.target, routine, call.pos)
            if t is None:
                version = None
            elif t not in self.program.classes:
                self.error("cannot call %r on opaque type %r" % (call.name, t), call.pos)
                version = None
            else:
                version = self.table.find_routine(t, call.name)
                if version is None:
                    self.error("type %r has no routine %r" % (t, call.name), call.pos)
        for a in call.actuals:
            if a is not None:
                self.check_path(a, routine, call.pos)
        if version is not None and len(call.actuals) != len(version.formals):
            self.error(
                "call to %r passes %d argument(s), expected %d"
                % (call.name, len(call.actuals), len(version.formals)),
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
