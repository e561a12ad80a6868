"""Shared helpers and fixture programs for the test suite."""

from aliasgraph.calculus import AnalysisConfig, Engine
from aliasgraph.diagram import AliasDiagram, Label
from aliasgraph.lang import parse_program, resolve

from oracles import canonical_form, may_alias

# The list-copy benchmark: a recursive structural copy of a linked list,
# with the program points the reports and property checks refer to.
DEUTSCH_SRC = """
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

# Two routine versions for the same call: the analysis must keep one
# world per version.
DISPATCH_SRC = """
class T1 feature
  b: T1
  c: T1
  set (o: T1) do b := o end
end
class T2 inherit T1 redefine set end feature
  set (o: T1) do c := o end
end
main local t: T1 a: T1 u: T1 v: T1 do
  create t create u create v create a
  t.c := u
  t.b := v
  u := Void
  v := Void
  t.set (a)
end
"""

# Exactly one branch assigns in each world.
FLOW_SRC = """
class C feature end
main local a: C x: C b: C do
  create a
  create x
  create b
  then a := x else b := x end
end
"""


def run(source, entry="main", engine=Engine, **config_kwargs):
    """Parse, resolve, and analyze with an ``engine`` class (``Engine``, or
    ``oracles.CloningEngine`` for the cloning reference); fail the test on
    static errors, or when the final diagram or a point's snapshot breaks
    the diagram's invariants."""
    prog = parse_program(source)
    diags = resolve(prog)
    errors = [d for d in diags if d.severity == "error"]
    assert not errors, "static errors: %s" % [d.render() for d in errors]
    e = engine(prog, AnalysisConfig(**config_kwargs) if config_kwargs else None)
    e.analyze(entry)
    e.diagram.check_invariants()
    for snapshot, _ in e.snapshots.values():
        snapshot.check_invariants()
    return e


def build(roots, edges):
    """Expected-diagram builder with explicit node ids."""
    d = AliasDiagram()
    for n in roots:
        d.ensure_node(n)
        d.roots.add(n)
    for lbl, s, t in edges:
        d.ensure_node(s)
        d.ensure_node(t)
        d.add_edge(Label(lbl), s, t)
    return d


def path(expr):
    """'a.b.c' -> label tuple, in entry-scope terms."""
    return tuple(Label(seg) for seg in expr.split("."))


def aliased(engine, p, q):
    return may_alias(engine.diagram, path(p), path(q))


def values(engine, p):
    return engine.diagram.value_set(path(p))


def same_shape(engine, expected):
    got = canonical_form(engine.diagram)
    want = canonical_form(expected)
    assert got == want, "diagram shape differs:\n  got:  %r\n  want: %r" % (got, want)
