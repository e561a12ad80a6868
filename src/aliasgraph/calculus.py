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
  * calls bind formals to the actuals' value sets, taken once at the
    call site in each world, analyze the callee body in a fresh
    activation, then scope the callee's names back out.  A qualified
    call also binds the activation's ``Current`` from each root to that
    world's receivers, and the callee's field names resolve through it
    (the paper's rule makes the receivers the roots instead), so every
    world keeps its own root through the call;
  * dynamically bound calls become a choice over every routine version
    the receiver's static type admits.

Choice handling never copies whole diagrams.  Each branch runs against
the shared diagram while a delta frame records its net added and removed
edges; the branch is then rolled back.  Replay applies branch one in
place and, for every further branch, re-keys its delta onto fresh clones
of the roots (and of any other touched node), first copying onto those
clones the restored state's edges they lack.  Nodes untouched by any
branch stay shared between the worlds, which is what keeps the
representation small.

Termination of loop and recursion fixpoints rests on three policies:
iteration stops when the live state repeats (the step is deterministic,
so a repeat closes the orbit and the boundary union is complete), each
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
unroll allowance runs out), the engine binds the receivers and actuals
into that frame, returns its accumulated result values, and marks it
dirty: when the dirty frame's own body finishes, it is re-analyzed to a
fixpoint.

A routine's names are edge labels tagged with its activation's depth on
the call stack.  Live activations have distinct depths, and a returning
activation sweeps its labels from the roots, so no two live activations
share a tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from aliasgraph.diagram import AliasDiagram, Edge, Label, NodeId, label_path
from aliasgraph.lang import (
    Assign,
    CallExpr,
    CallInstr,
    Choice,
    ClassTable,
    Compound,
    Create,
    Diagnostic,
    Loop,
    Program,
    RoutineDecl,
    build_expr_universe,
)

# distinct-context recursion depth per routine
UNROLL_LIMIT = 4


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
    """Raised when the entry names no routine: an unknown entry routine,
    an unknown class, or a class without that routine."""


@dataclass
class _DeltaFrame:
    """Net edge effects of one choice branch, with cancellation."""

    added: Set[Edge] = field(default_factory=set)
    removed: Set[Edge] = field(default_factory=set)
    roots_added: Set[NodeId] = field(default_factory=set)

    def record_add(self, e):
        if e in self.removed:
            self.removed.discard(e)
        else:
            self.added.add(e)

    def record_remove(self, e):
        if e in self.added:
            self.added.discard(e)
        else:
            self.removed.add(e)


@dataclass
class _FixpointScope:
    """The outermost fixpoint's bookkeeping, shared by every fixpoint
    nested in it: the nodes each creation site minted, and the world
    registry that keeps re-executed choices stable."""

    minted: Dict[int, List[NodeId]] = field(default_factory=dict)
    clone_memo: Dict[Tuple[NodeId, FrozenSet[Tuple[int, int]]], NodeId] = field(default_factory=dict)


@dataclass
class _Frame:
    """One activation on the analysis call stack."""

    version: RoutineDecl
    context_key: Optional[tuple]
    act: int  # the tag of its names: its depth on the call stack
    # the ``Current`` fields resolve through: a qualified call's own,
    # else the caller's; None while the current object is the root
    current: Optional[Label] = None
    # root -> values: the receivers (None: kept), then each actual's
    bindings: List[Optional[Dict[NodeId, FrozenSet[NodeId]]]] = field(default_factory=list)
    acc: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    dirty: bool = False
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
        self.diagnostics: List[Diagnostic] = []
        self._diag_seen = set()
        self.snapshots: Dict[str, Tuple[AliasDiagram, Dict[str, Label]]] = {}
        self.snapshot_order: List[str] = []
        self.delta_stack: List[_DeltaFrame] = []
        # the outermost running fixpoint's scope; None outside fixpoints
        self.fixpoint: Optional[_FixpointScope] = None
        self.call_stack: List[_Frame] = []
        # clone -> its world identity (``_branch_clone``); later fixpoints read it too
        self.lineage: Dict[NodeId, Tuple[NodeId, FrozenSet[Tuple[int, int]]]] = {}
        self._next_act = 0  # activations opened so far
        self.entry_name: Optional[str] = None
        self.entry_frame: Optional[_Frame] = None

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def _diag(self, severity, message, pos=None):
        key = (severity, message, pos)
        if key in self._diag_seen:
            return
        self._diag_seen.add(key)
        self.diagnostics.append(Diagnostic(severity, message, pos, self.program.source))

    def has_errors(self):
        return any(d.severity == "error" for d in self.diagnostics)

    # ------------------------------------------------------------------
    # the single mutation funnel: every semantic edge change goes through
    # ``_add`` and ``_remove`` (``_set_targets`` writes through them) so
    # delta frames stay trustworthy
    # ------------------------------------------------------------------

    def _add(self, label, s, t):
        if self.diagram.add_edge(label, s, t) and self.delta_stack:
            self.delta_stack[-1].record_add((label, s, t))

    def _remove(self, label, s, t):
        if self.diagram.remove_edge(label, s, t) and self.delta_stack:
            self.delta_stack[-1].record_remove((label, s, t))

    def _set_targets(self, label, source, targets):
        """Make ``targets`` the whole target set of (label, source),
        writing only the edges that change."""
        old = self.diagram.successors(source, label)
        for t in [t for t in old if t not in targets]:
            self._remove(label, source, t)
        for t in targets:
            # ``old`` is the live set (emptied, not refilled, once its
            # last target goes), so the test reads the current edges
            if t not in old:
                self._add(label, source, t)

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
        if instr.source is None:
            per_root = {r: frozenset() for r in self.diagram.roots}
        else:
            src = label_path(instr.source, frame.scope)
            self._check_void_prefix(instr.source, src, instr.pos)
            per_root = self.diagram.value_sets_by_root(src)
        self._relink_target(instr.target, per_root, frame, instr.pos)

    def _check_void_prefix(self, names, labels, pos):
        # a strict prefix with an empty value set means the tail
        # dereferences a definitely void reference.  ``labels`` may start
        # with the receiver's ``Current``, which ``names`` leaves implicit
        skip = len(labels) - len(names)
        for i in range(1, len(names)):
            if not self.diagram.value_set(labels[: skip + i]):
                self._diag(
                    "warning",
                    "'%s' is definitely void here; '%s' has no value" % (".".join(names[:i]), ".".join(names)),
                    pos,
                )
                return

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
            self._diag(
                "warning",
                "assignment target '%s' is definitely void; no effect" % ".".join(target_names),
                pos,
            )
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
                mine = copies.get(o, o)
                if o in weak:
                    for t in targets:
                        self._add(attr, mine, t)
                else:
                    self._set_targets(attr, mine, targets)

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
        if not contested:
            return {}, frozenset()
        forkable = {o for o in contested if o not in g.roots}
        if self.fixpoint is not None or not forkable:
            return {}, frozenset(contested)
        cone = g.reach_within(class_roots, g.ancestors(forkable))
        shared = {n for n in cone if n in reach_others and n not in g.roots}
        # sorted: the copies are allocated in this order
        copies = {orig: g.fresh_node() for orig in sorted(shared)}
        for orig, copy in copies.items():
            for l, t in g.out_edges(orig):
                self._add(l, copy, copies.get(t, t))
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
            self._remove(l, s, t)
            self._add(l, s, copies[t])
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
        pre_roots = set(self.diagram.roots)
        watermark = self.diagram._next_id
        frames: List[_DeltaFrame] = []
        for thunk in live:
            frame = _DeltaFrame()
            self.delta_stack.append(frame)
            thunk()
            self.delta_stack.pop()
            # roll back, off the record: the next branch starts from the
            # same state, and replay below re-applies the net effects
            for (l, s, t) in frame.added:
                self.diagram.remove_edge(l, s, t)
            for (l, s, t) in frame.removed:
                self.diagram.add_edge(l, s, t)
            for r in frame.roots_added:
                self.diagram.roots.discard(r)
            assert self.diagram.roots == pre_roots, "a branch left the root set unbalanced"
            frames.append(frame)

        touched_first = {s for (_, s, _) in frames[0].added | frames[0].removed}
        mappings: List[Dict[NodeId, NodeId]] = []
        for b, frame in enumerate(frames[1:], 1):
            touched = {s for (_, s, _) in frame.added | frame.removed}
            clone_sources = pre_roots | {s for s in (touched | touched_first) if s < watermark}
            # sorted: clones are allocated in this order
            mappings.append({orig: self._branch_clone(site, b, orig) for orig in sorted(clone_sources)})

        # copy the restored state onto the clones before any branch
        # effect lands; clone-to-clone references stay inside the world
        for mapping in mappings:
            for orig, copy in mapping.items():
                if copy != orig:
                    self._copy_onto_clone(orig, copy, mapping)

        # branch one applies in place, the rest through their mappings
        for frame, mapping in zip(frames, [{}] + mappings):
            for (l, s, t) in frame.added:
                self._add(l, mapping.get(s, s), mapping.get(t, t))
            for (l, s, t) in frame.removed:
                self._remove(l, mapping.get(s, s), mapping.get(t, t))
            for r in frame.roots_added:
                self._add_root(mapping.get(r, r))

    def _copy_onto_clone(self, orig, copy, mapping):
        """Give ``copy`` the edges of ``orig`` it lacks: its out-edges,
        re-targeted through ``mapping``, and the in-edges of its unmapped
        parents.  A clone memoized by the running fixpoint already holds
        most of them from an earlier pass."""
        g = self.diagram
        for l, t in g.out_edges(orig):
            t = mapping.get(t, t)
            if t not in g.successors(copy, l):
                self._add(l, copy, t)
        # unmapped parents must reach this world's version too,
        # otherwise effects behind a shared node would be lost
        for l, s in g.in_edges(orig):
            if s not in mapping and copy not in g.successors(s, l):
                self._add(l, s, copy)

    def _branch_clone(self, site, b, orig):
        is_root = orig in self.diagram.roots
        scope = self.fixpoint
        if scope is None:
            clone = self.diagram.fresh_node()
        else:
            # Inside a fixpoint a re-executed choice must not keep growing
            # the diagram, so clones carry a world identity: the node their
            # chain started from plus one (site, branch) entry per choice
            # passed through, the newest entry per site winning.  Forking a
            # node at a site already on its record lands on an identity
            # that exists, so the fork reuses that world's node instead of
            # chaining a fresh one (two choices forking each other's clones
            # would otherwise alternate new worlds every pass).  Nested
            # fixpoints share the outermost one's registry, so an inner
            # loop re-run on each outer iteration finds its worlds again.
            base, anc = self.lineage.get(orig, (orig, frozenset()))
            key = (base, frozenset(p for p in anc if p[0] != site) | {(site, b)})
            if key == (base, anc):
                return orig
            clone = scope.clone_memo.get(key)
            if clone is None:
                clone = scope.clone_memo[key] = self.diagram.fresh_node()
                self.lineage[clone] = key
        if is_root:
            self._add_root(clone)
        return clone

    def _add_root(self, node):
        if node not in self.diagram.roots:
            self.diagram.roots.add(node)
            if self.delta_stack:
                self.delta_stack[-1].roots_added.add(node)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------

    def apply_loop(self, instr, frame):
        self._fixpoint(
            lambda: self.apply_compound(instr.body, frame),
            "loop fixpoint exceeded %d iterations; result may be partial" % self.config.max_iters,
            instr.pos,
        )

    def _fixpoint(self, step, overflow_message, pos):
        """Run ``step`` until the live state revisits one seen before,
        then restore the union of every iteration-boundary state.

        The step is deterministic, so a revisit closes the orbit: every
        further iteration replays edges the union already has.  (A plain
        "unchanged since last pass" check can quit one pass early when
        the step oscillates between states whose union looks stable.)

        The outermost fixpoint opens the scope that every fixpoint
        nested in it shares, and closes it when it ends.
        """
        outermost = self.fixpoint is None
        if outermost:
            self.fixpoint = _FixpointScope()
        seen = {self._state_key()}
        for _ in range(self.config.max_iters):
            step()
            key = self._state_key()
            if key in seen:
                break
            seen.add(key)
        else:
            self._diag("error", overflow_message, pos)
        if outermost:
            self.fixpoint = None
        self._restore_union(seen)

    def _state_key(self):
        # Node identity matters: a fresh creation changes the key for
        # good, so orbit detection can only trigger once per-site caps
        # have made the step stationary.  No rule removes a node, so the
        # node count identifies the node set.
        return (
            self.diagram.edge_set(),
            len(self.diagram.nodes),
            frozenset(self.diagram.roots),
        )

    def _restore_union(self, states):
        # the result is the union over all iteration counts, so edges an
        # iteration-boundary state (a key in ``states``) had come back.
        # Edges that only lived mid-pass do not: no iteration count ever
        # exhibits them.  Every boundary state was taken on this call
        # stack, after each activation the step opened had closed and
        # swept its names, so no edge here names a closed activation.
        missing = frozenset().union(*(key[0] for key in states)) - self.diagram.edge_set()
        for (l, s, t) in missing:
            self._add(l, s, t)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _run_call(self, call, frame, assign_target, pos=None):
        pos = pos or call.pos
        if call.target is not None:
            self._qualified_call(call, frame, assign_target, pos)
            return
        version = self.table.find_callee(frame.version.owner, call.name)
        if version is None:
            self._diag("error", "unknown routine %r" % call.name, pos)
            return
        result = self._call_on_targets(version, call, frame, None, pos)
        if assign_target is not None:
            self._relink_target(assign_target, result, frame, pos)

    def _qualified_call(self, call, frame, assign_target, pos):
        static_t, _ = self.table.path_type(frame.version, call.target)
        versions = self.table.dispatch_versions(static_t, call.name) if static_t else []
        if not versions:
            self._diag("error", "cannot resolve call %r on %r" % (call.name, ".".join(call.target)), pos)
            return
        # dynamic binding: one branch per version the receiver may carry
        thunks = [
            (lambda v=v: self._qualified_one(v, call, frame, assign_target, pos))
            for v in versions
        ]
        self._run_branches(id(call), thunks)

    def _qualified_one(self, version, call, frame, assign_target, pos):
        target_labels = label_path(call.target, frame.scope)
        self._check_void_prefix(call.target, target_labels, pos)
        receivers = self.diagram.value_sets_by_root(target_labels)
        if not any(receivers.values()):
            self._diag("error", "call target '%s' is definitely void" % ".".join(call.target), pos)
            return
        result = self._call_on_targets(version, call, frame, receivers, pos)
        if assign_target is not None:
            self._relink_target(assign_target, result, frame, pos)

    def _call_on_targets(self, version, call, frame, receivers, pos):
        """Analyze one routine version in every world: on each root's
        ``receivers``, or, for an unqualified call (None), on the
        caller's current object.  Returns the per-root result value sets
        (empty for procedures).
        """
        # each actual's values per world, taken once, here; a world whose
        # receiver is Void does not run the call: it binds nothing and
        # gets no result
        worlds = [r for r in self.diagram.roots if receivers is None or receivers[r]]
        actuals = []
        for a in call.actuals:
            if a is None:
                actuals.append(None)
                continue
            labels = label_path(a, frame.scope)
            self._check_void_prefix(a, labels, pos)
            actuals.append({r: self.diagram.value_set(labels, start=(r,)) for r in worlds})
        actuals_key = tuple(None if m is None else frozenset().union(*m.values()) for m in actuals)
        current = frame.current
        if receivers is None:
            context_key = (id(version), current, actuals_key)
        else:
            context_key = (id(version), frozenset().union(*receivers.values()), actuals_key)
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
            bindings=bindings,
        )
        self.call_stack.append(new_frame)
        self._bind_formals(new_frame)
        self.apply_compound(version.body, new_frame)
        self._accumulate_result(new_frame)
        if new_frame.dirty:
            self._frame_fixpoint(new_frame)
        result = {r: frozenset(vs) for r, vs in new_frame.acc.items()}
        self._unbind_activation(new_frame)
        self.call_stack.pop()
        return result

    def _recursive_cutoff(self, fr, current, bindings):
        # an already-active context absorbs the call: feed it the new
        # receivers and actuals (additively) and answer with what it has
        # produced so far.  An unqualified call whose caller has another
        # receiver than the frame brings that receiver along.
        fr.dirty = True
        if bindings[0] is None and current != fr.current:
            bindings = [self.diagram.value_sets_by_root((current,))] + bindings[1:]
        self._bind_formals(fr, bindings)
        return {r: frozenset(fr.acc.get(r, ())) for r in self.diagram.roots}

    def _bind_formals(self, fr, bindings=None):
        # the receivers bind to the frame's ``Current``, the actuals to
        # its formals; the values were taken at the call site, per root
        names = ["Current"] + fr.version.formal_names()
        for name, bound in zip(names, fr.bindings if bindings is None else bindings):
            if bound is None:
                continue
            label = fr.scope[name]
            for r, vals in bound.items():
                for v in vals:
                    self._add(label, r, v)

    def _accumulate_result(self, fr):
        if not fr.version.is_function():
            return
        rl = fr.scope["Result"]
        for r in self.diagram.roots:
            # a world without a receiver does not run the call
            if fr.current is None or self.diagram.successors(r, fr.current):
                fr.acc.setdefault(r, set()).update(self.diagram.successors(r, rl))

    def _frame_fixpoint(self, fr):
        def step():
            self._bind_formals(fr)
            self.apply_compound(fr.version.body, fr)
            self._accumulate_result(fr)

        self._fixpoint(
            step,
            "recursion fixpoint for %r exceeded %d iterations" % (fr.version.name, self.config.max_iters),
            fr.version.pos,
        )

    def _unbind_activation(self, fr):
        # the frame's own names leave the roots only (see ``diagram``)
        own = [l for l in fr.scope.values() if l.tag == fr.act]
        doomed = [(l, r, t) for r in self.diagram.roots for l in own for t in self.diagram.successors(r, l)]
        for (l, s, t) in doomed:
            self._remove(l, s, t)

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
            self._diag(
                "warning",
                "entry routine %r has formals; they start unbound" % version.name,
                version.pos,
            )
        self.call_stack.append(frame)
        self.apply_compound(version.body, frame)
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
