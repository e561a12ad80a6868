"""The instruction rules: how each construct transforms an alias diagram.

The engine walks a routine body and rewrites one shared diagram in place:

  * assignment relinks the target's edges, per root, to the source's
    per-root value sets (strong update: an old value that is not a new
    one loses its edge; only the edges that change are written);
  * creation adds an isolated node and relinks the target to it;
  * a conditional or free choice analyzes every live branch and keeps
    the union of all branch outcomes, realized by delta replay (below);
  * loops iterate the body until the state revisits one already seen,
    then keep the union of all iteration-boundary states, so the result
    covers every iteration count including zero;
  * calls bind formals once per activation, to the actuals' value sets
    taken at the call site in each world, analyze the callee body in
    that fresh activation, then scope its names back out.  A qualified
    call also binds the activation's ``Current`` from each root to that
    world's receivers, and the callee's field names resolve through it
    (the paper's rule makes the receivers the roots instead), so every
    world keeps its own root through the call;
  * dynamically bound calls become a choice over every routine version
    the receiver's static type admits.

Choice handling never copies whole diagrams.  Each branch runs against
the shared diagram while the diagram records the branch's net added and
removed edges (``AliasDiagram.record``); the branch is then rolled back,
and its new roots are the ones the root set gained.  Branch one stays
in place; every further branch gets fresh clones of the roots (and of
any other touched node).  Replay then reads, off the restored state and
before any write, every edge each clone takes from its original: the
out-edges re-targeted into the clone's world and the in-edges of
unmapped parents.  Only then does it write: those edges, then branch
one's delta in place and every further delta re-keyed onto its clones,
so no world's clone copies another world's wiring.  Nodes untouched by
any branch stay shared between the worlds, which is what keeps the
representation small.

A fixpoint, like a branch, runs under its own delta, which names each
iteration-boundary state by the edges it gained and lost since entry;
the fixpoint then rolls back and keeps the entry plus every edge a
boundary state added.  Termination rests on three policies: iteration
stops when the live state repeats (the step is deterministic, so a
repeat closes the orbit and the boundary union is complete), each
creation site may mint at most `cap` fresh nodes per outermost fixpoint
(then its last one is reused), and branch clones made inside a
fixpoint are memoized per (choice, branch, root) so re-executions reuse
them instead of minting more.  Nested loops and recursions share the
outermost fixpoint's scope, which holds both.

Recursive calls descend while their context is new.  A context is the
routine plus its receivers plus the actuals' value sets.  An unqualified
call's receivers are its caller's: the caller's ``Current`` label, or
the root objects while that is unbound.  Which worlds exist is not part
of the context, so a call made after a join still finds its own frame.
When an identical context is already on the stack (or the per-routine
unroll allowance runs out), the engine adds the receivers and actuals
to that frame's bindings, returns its accumulated result values, and
marks it dirty: when the dirty frame's own body finishes, it is
re-analyzed to a fixpoint, on the bindings the diagram holds.  That
first pass is the fixpoint's pass zero: every clone the first pass
forks outside fixpoints goes into the scope the frame holds, and a
recursion fixpoint that opens the outermost scope opens that one, so
its passes re-find those worlds instead of minting duplicates.  No
other fixpoint sees the scope.

A routine's names are edge labels tagged with its activation's depth on
the call stack.  Live activations have distinct depths, and a returning
activation sweeps its labels from the roots, so no two live activations
share a tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from aliasgraph.diagram import AliasDiagram, Label, NodeId, label_path
from aliasgraph.lang import (
    Assign,
    CallExpr,
    CallInstr,
    Choice,
    ClassTable,
    Compound,
    Create,
    Diagnostics,
    Loop,
    Program,
    RoutineDecl,
    build_expr_universe,
)

# distinct-context recursion depth per routine
UNROLL_LIMIT = 4

# a clone's world identity: its chain's first node and the (site, branch)
# of each choice passed (``Engine._branch_clone``)
WorldId = Tuple[NodeId, FrozenSet[Tuple[int, int]]]


@dataclass
class AnalysisConfig:
    cap: int = 1  # creation allowance per site per outermost fixpoint
    max_iters: int = 1000  # fixpoint iteration ceiling
    record_points: bool = True

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("the creation cap must be at least 1, got %r" % (self.cap,))
        if self.max_iters < 1:
            raise ValueError("the iteration ceiling must be at least 1, got %r" % (self.max_iters,))


class AnalysisError(Exception):
    """Raised when the entry names no routine (an unknown routine or class,
    or a class without that routine) or the program nests too deeply."""


@dataclass
class _FixpointScope:
    """The outermost fixpoint's bookkeeping, shared by every fixpoint
    nested in it: the nodes each creation site minted, and the world
    registry that keeps re-executed choices stable."""

    # a callee's pass-zero clone identities, read before ``Engine.lineage``
    lineage: Dict[NodeId, WorldId] = field(default_factory=dict)
    minted: Dict[int, List[NodeId]] = field(default_factory=dict)
    clone_memo: Dict[WorldId, NodeId] = field(default_factory=dict)


@dataclass
class _Frame:
    """One activation on the call stack.  Its formals are bound once, as it opens; cut-offs add to them."""

    version: RoutineDecl
    context_key: Optional[tuple]
    act: int  # the tag of its names: its depth on the call stack
    # the ``Current`` fields resolve through: a qualified call's own,
    # else the caller's; None while the current object is the root
    current: Optional[Label] = None
    acc: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)  # root -> results so far
    dirty: bool = False
    # the scope its recursion fixpoint opens if outermost, filled with
    # the worlds its first pass forks outside every fixpoint (pass zero)
    worlds: _FixpointScope = field(default_factory=_FixpointScope)
    # the routine's own names, tagged with this activation
    scope: Dict[str, Label] = field(init=False)

    def __post_init__(self):
        self.scope = {name: Label(name, self.act) for name in self.version.var_types()}
        if self.current is not None:
            self.scope["Current"] = self.current


class Engine:
    """Analyzes one entry routine over one shared diagram."""

    def __init__(self, program: Program, config: Optional[AnalysisConfig] = None):
        self.program = program
        self.config = config or AnalysisConfig()
        self.table = ClassTable(program)
        self.diagram = AliasDiagram()
        self.universe = build_expr_universe(program)
        self.diagnostics = Diagnostics(program.source)
        self.snapshots: Dict[str, Tuple[AliasDiagram, Dict[str, Label]]] = {}
        self.snapshot_order: List[str] = []
        # the outermost running fixpoint's scope; None outside fixpoints
        self.fixpoint: Optional[_FixpointScope] = None
        self.call_stack: List[_Frame] = []
        # clone -> its world identity (``_branch_clone``); later fixpoints read it too
        self.lineage: Dict[NodeId, WorldId] = {}
        self._next_act = 0  # activations opened so far
        self.entry_name: Optional[str] = None
        self.entry_frame: Optional[_Frame] = None

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def has_errors(self):
        return any(d.severity == "error" for d in self.diagnostics)

    # ------------------------------------------------------------------
    # guards, over merged value sets
    # ------------------------------------------------------------------

    def may_hold(self, cond, frame):
        """False only when the guard is provably false in every world."""
        equal = self._equality(cond.left, cond.right, frame)
        return equal is None or equal != cond.negated

    def _equality(self, left, right, frame):
        """True or False when the two operands are provably the same or
        provably different objects, None when they may be either."""
        if left == right:
            # same expression, including Void = Void
            return True
        if left is None or right is None:
            path = right if left is None else left
            return True if not self.diagram.value_set(label_path(path, frame.scope)) else None
        lv = self.diagram.value_set(label_path(left, frame.scope))
        rv = self.diagram.value_set(label_path(right, frame.scope))
        if lv and rv and not (lv & rv):
            # over-approximated value sets that cannot meet prove the
            # objects differ; emptiness on either side proves nothing
            # definite about equality
            return False
        return None

    # ------------------------------------------------------------------
    # instruction dispatch
    # ------------------------------------------------------------------

    def exec_instr(self, instr, frame):
        if isinstance(instr, Assign):
            self.apply_assign(instr, frame)
        elif isinstance(instr, Create):
            self.apply_create(instr, frame)
        elif isinstance(instr, Compound):
            self.apply_compound(instr, frame)
        elif isinstance(instr, Choice):
            self.apply_choice(instr, frame)
        elif isinstance(instr, Loop):
            self.apply_loop(instr, frame)
        elif isinstance(instr, CallInstr):
            self._run_call(instr.call, frame, assign_target=None)
        else:
            raise AssertionError("unhandled instruction %r" % (instr,))
        if instr.point is not None and self.config.record_points:
            self._record_point(instr.point, frame)

    def apply_compound(self, instr, frame):
        for sub in instr.instrs:
            self.exec_instr(sub, frame)

    def _record_point(self, point, frame):
        if point not in self.snapshots:
            self.snapshot_order.append(point)
        self.snapshots[point] = (self.diagram.snapshot(), dict(frame.scope))

    # ------------------------------------------------------------------
    # assignment and creation
    # ------------------------------------------------------------------

    def apply_assign(self, instr, frame):
        if isinstance(instr.source, CallExpr):
            self._run_call(instr.source, frame, assign_target=instr.target, pos=instr.pos)
            return
        # a root missing from ``per_root`` gets no value: ``Void``
        per_root = {} if instr.source is None else self._read(instr.source, frame, instr.pos)
        self._relink_target(instr.target, per_root, frame, instr.pos)

    def _read(self, names, frame, pos):
        """Each root's values of the name path ``names``, after warning
        when a strict prefix of it is definitely void."""
        labels = label_path(names, frame.scope)
        # a strict prefix with an empty value set means the tail
        # dereferences a definitely void reference.  ``labels`` may start
        # with the receiver's ``Current``, which ``names`` leaves implicit
        skip = len(labels) - len(names)
        for i in range(1, len(names)):
            if not self.diagram.value_set(labels[: skip + i]):
                self.diagnostics.add(
                    "warning",
                    "'%s' is definitely void here; '%s' has no value" % (".".join(names[:i]), ".".join(names)),
                    pos,
                )
                break
        return self.diagram.value_sets_by_root(labels)

    def _relink_target(self, target_names, per_root_vals, frame, pos):
        labels = label_path(target_names, frame.scope)
        if len(labels) == 1:
            lbl = labels[0]
            for r in self.diagram.roots:
                self._set_targets(lbl, r, per_root_vals.get(r, ()))
            return
        # x.a := s  --  strong update at every object x may denote.
        # Roots can disagree on both halves of that sentence: which
        # objects x denotes, and what s evaluates to.  A shared owner
        # node must not be overwritten with one world's values while
        # another world still reads the old ones through it, so roots
        # are grouped by update intent and each group writes through
        # private copies of whatever part of its view is also visible
        # elsewhere (copy on write).  All copying happens against the
        # pre-update graph; the overwrites land afterwards.  Where a
        # private copy cannot be made (the owner is another world's
        # root, or we are iterating a fixpoint and fresh copies would
        # keep the state from ever repeating), the contested owner is
        # updated weakly instead: new values join the old ones, and
        # the removals that make the update strong are skipped.
        prefix, attr = labels[:-1], labels[-1]
        owners_by_root = self.diagram.value_sets_by_root(prefix)
        if not any(owners_by_root.values()):
            self.diagnostics.add("warning", "assignment target '%s' is definitely void; no effect" % ".".join(target_names), pos)
            return
        classes: Dict[tuple, List[NodeId]] = {}
        for r in sorted(self.diagram.roots):
            intent = (
                frozenset(owners_by_root.get(r, ())),
                frozenset(per_root_vals.get(r, ())),
            )
            classes.setdefault(intent, []).append(r)
        # the groups are disjoint and were filled in root order, so they
        # are privatized (and their copies allocated) in that order
        plans = [
            (owners, vals) + self._privatize(owners, class_roots)
            for (owners, vals), class_roots in classes.items()
            if owners
        ]
        for owners, vals, copies, weak in plans:
            targets = {copies.get(v, v) for v in vals}
            for o in owners:
                self._set_targets(attr, copies.get(o, o), targets, o in weak)

    def _set_targets(self, label, source, targets, weak=False):
        """The field-write rule: make ``targets`` the whole target set of
        (label, source), writing only the edges that change.  A weak
        write keeps the old targets: it only adds the missing ones."""
        g = self.diagram
        old = g.successors(source, label)
        if not weak:
            for t in [t for t in old if t not in targets]:
                g.remove_edge(label, source, t)
        for t in targets:
            # ``old`` is the live set (emptied, not refilled, once its
            # last target goes), so the test reads the current edges
            if t not in old:
                g.add_edge(label, source, t)

    def _privatize(self, owners, class_roots):
        """Give one group of roots private copies of the shared part of
        the region it is about to overwrite.

        Returns (copies, weak): the original-to-copy map, and the owners
        that stay shared and therefore only tolerate a weak update.
        Both are empty when no other world sees the owners, so the whole
        update can land in place.

        The copied region is the forkable owners' cone: every node on a
        path from a group root to such an owner, which is the group's
        reach within their ancestors.  Every node the group reaches
        that feeds a cone node is itself in the cone, so moving the
        roots' and cone-internal edges onto the copies carries the whole
        region over in one pass; nothing outside the cone can point into
        it from the group's side, and every other root keeps the
        originals untouched.

        Every path from a root into an owner runs through the owners'
        ancestors, so the other roots' reach is walked inside that set
        only.

        No copies are made while a fixpoint is running: a fresh copy per
        pass would keep the state from ever repeating, so the iteration
        could not close.  Contested owners are then all reported weak;
        edge growth is monotone over a fixed node supply and the
        iteration still terminates.
        """
        g = self.diagram
        roots_outside = g.roots - set(class_roots)
        if not roots_outside:
            return {}, frozenset()
        reach_others = g.reach_within(roots_outside, g.ancestors(owners))
        contested = {o for o in owners if o in reach_others}
        forkable = {o for o in contested if o not in g.roots}
        if self.fixpoint is not None or not forkable:
            return {}, frozenset(contested)
        cone = g.reach_within(class_roots, g.ancestors(forkable))
        shared = {n for n in cone if n in reach_others and n not in g.roots}
        # sorted: the copies are allocated in this order
        copies = {orig: g.fresh_node() for orig in sorted(shared)}
        for orig, copy in copies.items():
            for l, t in g.out_edges(orig):
                g.add_edge(l, copy, copies.get(t, t))
        # entry edges: a source that feeds a copied node is in the cone
        # exactly when the group reaches it; if it was not copied it is
        # either a group root or private to the group, so rerouting it
        # in place is invisible to every other world.  Roots of other
        # worlds are never rerouted even when reachable.
        entries = [
            (l, s, t)
            for t in copies
            for l, s in g.in_edges(t)
            if s in cone and s not in copies and s not in roots_outside
        ]
        for (l, s, t) in entries:
            g.remove_edge(l, s, t)
            g.add_edge(l, s, copies[t])
        return copies, frozenset(contested - forkable)

    def apply_create(self, instr, frame):
        node = self._creation_node(id(instr))
        per_root = {r: frozenset({node}) for r in self.diagram.roots}
        self._relink_target((instr.target,), per_root, frame, instr.pos)

    def _creation_node(self, site):
        scope = self.fixpoint
        if scope is None:
            return self.diagram.fresh_node()
        minted = scope.minted.setdefault(site, [])
        if len(minted) < self.config.cap:
            minted.append(self.diagram.fresh_node())
        # over allowance, the site's last node is reused, so iteration
        # cannot mint fresh objects forever
        return minted[-1]

    # ------------------------------------------------------------------
    # choices
    # ------------------------------------------------------------------

    def apply_choice(self, instr, frame):
        # guards are evaluated once, against the state before the choice
        self._run_branches(id(instr), [
            (lambda body=body: self.apply_compound(body, frame))
            for cond, body in instr.branches
            if cond is None or self.may_hold(cond, frame)
        ])

    def _run_branches(self, site, live):
        # never empty: an if's else guard negates its last condition, so
        # one of the two is live, and dispatch has at least one version
        if len(live) == 1:
            live[0]()
        else:
            self._branches_by_replay(site, live)

    # -- delta replay

    def _branches_by_replay(self, site, live):
        g = self.diagram
        pre_roots = set(g.roots)
        watermark = g._next_id
        runs = []  # per branch: its delta, its new roots, the older nodes it touched
        for thunk in live:
            delta = g.record()
            thunk()
            # roll back: the next branch starts from the same state, and
            # replay below re-applies the net effects and the new roots
            g.rollback(delta)
            assert pre_roots <= g.roots, "a branch removed a root"
            touched = {s for (_, s, _) in delta.added | delta.removed if s < watermark}
            runs.append((delta, g.roots - pre_roots, touched))
            g.roots &= pre_roots

        # branch one stays in place; each other branch forks the roots and
        # every older node it or branch one touched, cloned in sorted order
        mappings = [{}] + [
            {orig: self._branch_clone(site, b, orig) for orig in sorted(pre_roots | touched | runs[0][2])}
            for b, (_, _, touched) in enumerate(runs[1:], 1)
        ]
        # read every clone's wiring off the restored state before any
        # write: its original's out-edges re-targeted into its world, and
        # the in-edges of unmapped parents, so that effects behind a
        # shared node reach every world's version
        wiring = [
            edge
            for mapping in mappings
            for orig, copy in mapping.items()
            if copy != orig
            for edge in [(l, copy, mapping.get(t, t)) for l, t in g.out_edges(orig)]
            + [(l, s, copy) for l, s in g.in_edges(orig) if s not in mapping]
        ]
        # add_edge skips what a clone memoized by the fixpoint holds already
        for edge in wiring:
            g.add_edge(*edge)
        for (delta, roots, _), mapping in zip(runs, mappings):
            for (l, s, t) in delta.added:
                g.add_edge(l, mapping.get(s, s), mapping.get(t, t))
            for (l, s, t) in delta.removed:
                g.remove_edge(l, mapping.get(s, s), mapping.get(t, t))
            g.roots.update(mapping.get(r, r) for r in roots)

    def _branch_clone(self, site, b, orig):
        # Inside a fixpoint a re-executed choice must not keep growing the
        # diagram, so clones carry a world identity: the node their chain
        # started from plus one (site, branch) entry per choice passed
        # through, the newest entry per site winning.  Forking a node at a
        # site already on its record lands on an identity that exists, so
        # the fork reuses that world's node instead of chaining a fresh one
        # (two choices forking each other's clones would otherwise
        # alternate new worlds every pass).  Nested fixpoints share the
        # outermost one's registry, so an inner loop re-run on each outer
        # iteration finds its worlds again.  A callee's first pass is its
        # recursion fixpoint's pass zero: outside every fixpoint it forks
        # fresh nodes into each open callee's scope, which that callee's
        # fixpoint opens if it runs.  The entry's choices never run again.
        scope = self.fixpoint
        if scope is None:
            clone = self.diagram.fresh_node()
            for fr in self.call_stack[1:]:
                key = self._fork_identity(fr.worlds.lineage, site, b, orig)[1]
                fr.worlds.lineage[clone] = key
                fr.worlds.clone_memo[key] = clone
        else:
            old, key = self._fork_identity(scope.lineage, site, b, orig)
            if key == old:
                return orig
            clone = scope.clone_memo.get(key)
            if clone is None:
                clone = scope.clone_memo[key] = self.diagram.fresh_node()
                self.lineage[clone] = key
        if orig in self.diagram.roots:
            self.diagram.roots.add(clone)
        return clone

    def _fork_identity(self, known, site, b, orig):
        # ``orig``'s world identity, read in ``known`` before ``lineage``,
        # and the identity of its fork at (site, b)
        base, anc = known.get(orig) or self.lineage.get(orig, (orig, frozenset()))
        return (base, anc), (base, frozenset(p for p in anc if p[0] != site) | {(site, b)})

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------

    def apply_loop(self, instr, frame):
        self._fixpoint(
            lambda: self.apply_compound(instr.body, frame),
            "loop fixpoint exceeded %d iterations; result may be partial" % self.config.max_iters,
            instr.pos,
        )

    def _fixpoint(self, step, overflow_message, pos, scope=None):
        """Run ``step`` until the live state revisits one seen before,
        then restore the union of every iteration-boundary state.

        The step is deterministic, so a revisit closes the orbit: every
        further iteration replays edges the union already has.  (A plain
        "unchanged since last pass" check can quit one pass early when
        the step oscillates between states whose union looks stable.)
        Like a branch, the fixpoint runs under its own ``Delta``, which
        names each boundary state: the edges it gained and lost since entry.

        The outermost fixpoint opens the scope that every fixpoint
        nested in it shares (a callee's recursion fixpoint hands in the
        one its pass zero filled), and closes it when it ends.
        """
        outermost = self.fixpoint is None
        if outermost:
            self.fixpoint = scope or _FixpointScope()
        delta = self.diagram.record()
        seen = {self._state_key(delta)}
        for _ in range(self.config.max_iters):
            step()
            key = self._state_key(delta)
            if key in seen:
                break
            seen.add(key)
        else:
            self.diagnostics.add("error", overflow_message, pos)
        if outermost:
            self.fixpoint = None
        self._restore_union(seen, delta)

    def _state_key(self, delta):
        # Given the entry state, the delta names the edge set exactly.
        # Node identity matters: a fresh creation changes the key for
        # good, so orbit detection can only trigger once per-site caps
        # have made the step stationary.  No rule removes a node, so the
        # node count identifies the node set.
        g = self.diagram
        return frozenset(delta.added), frozenset(delta.removed), len(g.nodes), frozenset(g.roots)

    def _restore_union(self, states, delta):
        # the result is the union over all iteration counts: the entry
        # state (a boundary state too) plus every edge a boundary state
        # (a key in ``states``) added; the enclosing delta, if any, notes
        # them.  Edges that only lived mid-pass do not come back: no
        # iteration count ever exhibits them.  Every boundary state was
        # taken on this call stack, after each activation the step opened
        # had closed and swept its names, so no edge names a closed one.
        self.diagram.rollback(delta)
        for (l, s, t) in frozenset().union(*(key[0] for key in states)):
            self.diagram.add_edge(l, s, t)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _run_call(self, call, frame, assign_target, pos=None):
        pos = pos or call.pos
        versions, why = self.table.callees(frame.version, call)
        if why is not None:
            self.diagnostics.add("error", why, pos)
        elif call.target is None:
            self._call(versions[0], call, frame, None, assign_target, pos)
        else:
            self._qualified_call(versions, call, frame, assign_target, pos)

    def _qualified_call(self, versions, call, frame, assign_target, pos):
        # every branch below starts from this state, so the receivers
        # are read once, before dispatch
        receivers = self._read(call.target, frame, pos)
        if not any(receivers.values()):
            self.diagnostics.add("error", "call target '%s' is definitely void" % ".".join(call.target), pos)
            return
        # dynamic binding: one branch per version the receiver may carry
        self._run_branches(id(call), [
            (lambda v=v: self._call(v, call, frame, receivers, assign_target, pos))
            for v in versions
        ])

    def _call(self, version, call, frame, receivers, assign_target, pos):
        result = self._call_on_targets(version, call, frame, receivers, pos)
        if assign_target is not None:
            self._relink_target(assign_target, result, frame, pos)

    def _call_on_targets(self, version, call, frame, receivers, pos):
        """Analyze one routine version in every world: on each root's
        ``receivers``, or, for an unqualified call (None), on the
        caller's current object.  Returns the frame's per-root result
        value sets (empty for procedures), for the caller to read.
        """
        # each actual's values per world, taken once, here; a world whose
        # receiver is Void does not run the call: it binds nothing and
        # gets no result
        worlds = [r for r in self.diagram.roots if receivers is None or receivers[r]]
        actuals = [None if a is None else self._read(a, frame, pos) for a in call.actuals]
        actuals = [m if m is None else {r: m[r] for r in worlds} for m in actuals]
        actuals_key = tuple(None if m is None else frozenset().union(*m.values()) for m in actuals)
        current = frame.current
        who = current if receivers is None else frozenset().union(*receivers.values())
        context_key = (id(version), who, actuals_key)
        bindings = [receivers] + actuals

        for fr in reversed(self.call_stack):
            if fr.context_key == context_key:
                return self._recursive_cutoff(fr, current, bindings)
        same_routine = [fr for fr in self.call_stack if fr.version is version]
        # a frame whose current object is the root cannot absorb a call
        # that has a receiver; descending once more yields one that can
        has_receiver = receivers is not None or current is not None
        if len(same_routine) >= UNROLL_LIMIT and (same_routine[-1].current is not None or not has_receiver):
            return self._recursive_cutoff(same_routine[-1], current, bindings)

        self._next_act += 1
        act = len(self.call_stack)
        new_frame = _Frame(
            version=version,
            context_key=context_key,
            act=act,
            current=current if receivers is None else Label("Current", act),
        )
        self.call_stack.append(new_frame)
        self._bind_formals(new_frame, bindings)
        self._frame_pass(new_frame)
        if new_frame.dirty:
            self._frame_fixpoint(new_frame)
        self._unbind_activation(new_frame)
        self.call_stack.pop()
        return new_frame.acc

    def _recursive_cutoff(self, fr, current, bindings):
        # an already-active context absorbs the call: add the new
        # receivers and actuals to its bindings and answer with what it
        # has produced so far.  An unqualified call whose caller has
        # another receiver than the frame brings that receiver along.
        fr.dirty = True
        if bindings[0] is None and current != fr.current:
            bindings = [self.diagram.value_sets_by_root((current,))] + bindings[1:]
        self._bind_formals(fr, bindings)
        return fr.acc

    def _bind_formals(self, fr, bindings):
        # the receivers (None: kept) bind to ``Current``, the actuals to
        # the formals, per root as the call site read them; edges only add
        names = ["Current"] + fr.version.formal_names()
        for name, bound in zip(names, bindings):
            if bound is None:
                continue
            label = fr.scope[name]
            for r, vals in bound.items():
                for v in vals:
                    self.diagram.add_edge(label, r, v)

    def _frame_pass(self, fr):
        """Run the frame's body and add each world's result to what the
        frame has returned so far."""
        self.apply_compound(fr.version.body, fr)
        if not fr.version.is_function():
            return
        rl = fr.scope["Result"]
        for r in self.diagram.roots:
            # a world without a receiver does not run the call
            if fr.current is None or self.diagram.successors(r, fr.current):
                fr.acc.setdefault(r, set()).update(self.diagram.successors(r, rl))

    def _frame_fixpoint(self, fr):
        self._fixpoint(
            lambda: self._frame_pass(fr),
            "recursion fixpoint for %r exceeded %d iterations" % (fr.version.name, self.config.max_iters),
            fr.version.pos,
            fr.worlds,
        )

    def _unbind_activation(self, fr):
        # the frame's own names leave the roots only (see ``diagram``)
        own = [l for l in fr.scope.values() if l.tag == fr.act]
        doomed = [(l, r, t) for r in self.diagram.roots for l in own for t in self.diagram.successors(r, l)]
        for (l, s, t) in doomed:
            self.diagram.remove_edge(l, s, t)

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------

    def _find_entry(self, name):
        if "." in name:
            cname, rname = name.split(".", 1)
            if cname not in self.program.classes:
                raise AnalysisError("unknown class %r in entry %r" % (cname, name))
            version = self.table.find_routine(cname, rname)
            if version is None:
                raise AnalysisError("class %r has no routine %r" % (cname, rname))
            return version
        version = self.program.routines.get(name)
        if version is None:
            for c in sorted(self.program.classes):
                if name in self.program.classes[c].routines:
                    raise AnalysisError(
                        "routine %r belongs to class %r; use --entry %s.%s" % (name, c, c, name)
                    )
            raise AnalysisError("unknown entry routine %r" % name)
        return version

    def analyze(self, entry_name):
        """Run the analysis from the named entry routine."""
        version = self._find_entry(entry_name)
        self.entry_name = entry_name
        self.diagram.add_root()
        # no call may match the entry's context: nothing re-analyzes it
        frame = _Frame(version=version, context_key=None, act=0)
        if version.formals:
            self.diagnostics.add("warning", "entry routine %r has formals; they start unbound" % version.name, version.pos)
        self.call_stack.append(frame)
        try:
            self.apply_compound(version.body, frame)
        except RecursionError:
            raise AnalysisError("%s: the program nests too deeply to analyze" % self.program.source) from None
        # the entry scope deliberately stays bound: final reports speak
        # about its locals
        self.call_stack.pop()
        self.entry_frame = frame
        return self

    def report_scope(self):
        """Name-to-label view for queries against the final diagram."""
        return dict(self.entry_frame.scope) if self.entry_frame is not None else {}


def analyze_program(program, entry, config=None):
    """Convenience wrapper: build an engine and run it."""
    engine = Engine(program, config)
    engine.analyze(entry)
    return engine
