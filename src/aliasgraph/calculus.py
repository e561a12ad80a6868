"""The instruction rules: how each construct transforms an alias diagram.

The engine walks a routine body and rewrites one shared diagram in place:

  * assignment relinks the target's edges, per root, to the source's
    per-root value sets (strong update: the old edges go away);
  * creation adds an isolated node and relinks the target to it;
  * a conditional or free choice analyzes every live branch and keeps
    the union of all branch outcomes, realized by delta replay (below);
  * loops iterate the body until the state revisits one already seen,
    then keep the union of all iteration-boundary states, so the result
    covers every iteration count including zero;
  * calls bind formals to the actuals' value sets, analyze the callee
    body in a fresh activation, then scope the callee's names back out;
    qualified calls reroot the diagram into the target objects first and
    restore the caller's roots on exit.  Actuals are evaluated once, at
    the call site, per world: a callee root gets the values of the
    caller worlds whose receiver it is, so no back-pointer edges are
    needed and binding does not merge the caller's worlds.  The caller
    worlds' roots and receivers stay on a stack for the call's duration,
    so copy on write inside the callee still sees which worlds read a
    node it overwrites;
  * dynamically bound calls become a choice over every routine version
    the receiver's static type admits.

Choice handling never copies whole diagrams.  Each branch runs against
the shared diagram while a delta frame records its net added and removed
edges; the branch is then rolled back.  Replay applies branch one in
place and, for every further branch, re-keys its delta onto fresh clones
of the roots (and of any other touched node), first copying the restored
state's edges onto those clones.  Nodes untouched by any branch stay
shared between the worlds, which is what keeps the representation small.

Termination of loop and recursion fixpoints rests on three policies:
iteration stops when the live state repeats (the step is deterministic,
so a repeat closes the orbit and the boundary union is complete), each
creation site may mint at most `cap` fresh nodes per enclosing fixpoint
(then its capped node is reused), and branch clones made inside a
fixpoint are memoized per (choice, branch, root) so re-executions reuse
them instead of minting more.

Recursive calls descend while their context is new.  A context is the
routine plus its target objects plus the actuals' value sets; when an
identical context is already on the stack (or the per-routine unroll
allowance runs out), the engine binds the actuals into that frame,
returns its accumulated result values, and marks it dirty: when the
dirty frame's own body finishes, it is re-analyzed to a fixpoint.
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

# three-valued condition verdicts
TRUE = "definitely-true"
FALSE = "definitely-false"
UNKNOWN = "unknown"

# distinct-context recursion depth per routine
UNROLL_LIMIT = 4


@dataclass
class AnalysisConfig:
    cap: int = 1  # creation allowance per site per enclosing fixpoint
    max_iters: int = 1000  # fixpoint iteration ceiling
    record_points: bool = True

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("the creation cap must be at least 1, got %r" % (self.cap,))
        if self.max_iters < 1:
            raise ValueError("the iteration ceiling must be at least 1, got %r" % (self.max_iters,))


class AnalysisError(Exception):
    """Raised for unusable inputs (unknown entry, unresolved program)."""


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
    """Per-fixpoint bookkeeping: the union of iteration-boundary
    states, creation counters, and the world registry that keeps
    re-executed choices stable."""

    union_edges: Set[Edge] = field(default_factory=set)
    counters: Dict[int, int] = field(default_factory=dict)
    capped: Dict[int, NodeId] = field(default_factory=dict)
    clone_memo: Dict[Tuple[NodeId, FrozenSet[Tuple[int, int]]], NodeId] = field(default_factory=dict)
    iterations: int = 0


@dataclass
class _CallerWorlds:
    """The caller side of one active qualified call: its target path, in
    the caller's scope, and each caller root's receiver objects at the
    call.  The keys are the roots the call reroots back onto."""

    target: Tuple[Label, ...]
    receivers: Dict[NodeId, FrozenSet[NodeId]]


@dataclass
class _Frame:
    """One activation on the analysis call stack."""

    version: RoutineDecl
    context_key: tuple
    act: int
    targets: FrozenSet[NodeId]
    # per actual: callee root -> the actual's values there (None: Void)
    actuals: List[Optional[Dict[NodeId, FrozenSet[NodeId]]]]
    acc: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    dirty: bool = False
    # the routine's own names, tagged with this activation
    scope: Dict[str, Label] = field(init=False)

    def __post_init__(self):
        self.scope = {name: Label(name, self.act) for name in self.version.var_types()}


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
        self.fix_stack: List[_FixpointScope] = []
        self.call_stack: List[_Frame] = []
        self.lineage: Dict[NodeId, Tuple[NodeId, FrozenSet[Tuple[int, int]]]] = {}
        # one entry per active qualified call, innermost last
        self.caller_roots: List[_CallerWorlds] = []
        self._next_act = 0
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
    # here so delta frames stay trustworthy
    # ------------------------------------------------------------------

    def _add(self, label, s, t):
        if self.diagram.add_edge(label, s, t) and self.delta_stack:
            self.delta_stack[-1].record_add((label, s, t))

    def _remove(self, label, s, t):
        if self.diagram.remove_edge(label, s, t) and self.delta_stack:
            self.delta_stack[-1].record_remove((label, s, t))

    def _remove_all(self, label, source):
        for t in sorted(self.diagram.successors(source, label)):
            self._remove(label, source, t)

    # ------------------------------------------------------------------
    # name resolution at analysis time
    # ------------------------------------------------------------------

    def _static_type(self, names, frame):
        routine = frame.version
        if not names:
            return routine.owner
        t = routine.var_types().get(names[0])
        if t is None and routine.owner is not None:
            t = self.table.find_attr(routine.owner, names[0])
        for seg in names[1:]:
            if t is None or t not in self.program.classes:
                return None
            t = self.table.find_attr(t, seg)
        return t

    # ------------------------------------------------------------------
    # conditions (three-valued, over merged value sets)
    # ------------------------------------------------------------------

    def eval_cond(self, cond, frame):
        verdict = self._eval_eq(cond.left, cond.right, frame)
        if cond.negated and verdict != UNKNOWN:
            return FALSE if verdict == TRUE else TRUE
        return verdict

    def _eval_eq(self, left, right, frame):
        if left == right:
            # same expression, including Void = Void
            return TRUE
        if left is None or right is None:
            path = right if left is None else left
            vals = self.diagram.value_set(label_path(path, frame.scope))
            return TRUE if not vals else UNKNOWN
        lv = self.diagram.value_set(label_path(left, frame.scope))
        rv = self.diagram.value_set(label_path(right, frame.scope))
        if lv and rv and not (lv & rv):
            # over-approximated value sets that cannot meet prove the
            # objects differ; emptiness on either side proves nothing
            # definite about equality, so stay Unknown
            return FALSE
        return UNKNOWN

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
        # dereferences a definitely void reference
        for i in range(1, len(labels)):
            if not self.diagram.value_set(labels[:i]):
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
            for r in sorted(self.diagram.roots):
                self._remove_all(lbl, r)
                for v in sorted(per_root_vals.get(r, ())):
                    self._add(lbl, r, v)
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
        updating = sorted(
            ((owners, vals, roots) for (owners, vals), roots in classes.items() if owners),
            key=lambda c: c[2],
        )
        plans = []
        for owners, vals, class_roots in updating:
            copies, weak = self._privatize(owners, class_roots)
            plans.append((owners, vals, copies, weak))
        for owners, vals, copies, weak in plans:
            for o in sorted(owners):
                mine = copies.get(o, o)
                if o not in weak:
                    self._remove_all(attr, mine)
                for v in sorted(vals):
                    self._add(attr, mine, copies.get(v, v))

    def _privatize(self, owners, class_roots):
        """Give one group of roots private copies of the shared part of
        the region it is about to overwrite.

        Returns (copies, weak): the original-to-copy map, and the owners
        that stay shared and therefore only tolerate a weak update.
        Both are empty when no other world sees the owners, so the whole
        update can land in place.

        The copied region is the contested owners' ancestor cone inside
        the group's own reach: every node on a path from a group root to
        such an owner.  The cone is closed under in-edges taken within
        that reach, so moving the roots' and cone-internal edges onto
        the copies carries the whole region over in one pass; nothing
        outside the cone can point into it from the group's side, and
        every other root keeps the originals untouched.

        Inside a qualified call the caller's worlds are not roots, yet
        they read the heap the callee writes.  Their roots join the
        walks by the side they take (see ``_caller_sides``): those whose
        worlds all make this update walk with the group, the others
        with the other worlds, and the mixed ones with both.  A caller
        root is never rewired, since the call cannot fork its world, so
        when one of the group's caller roots points straight into the
        region to copy, the contested owners are updated weakly.

        Every path from a root into an owner runs through the owners'
        ancestors, so both reaches are walked inside that set only.

        No copies are made while a fixpoint is running: a fresh copy per
        pass would keep the state from ever repeating, so the iteration
        could not close.  Contested owners are then all reported weak;
        edge growth is monotone over a fixed node supply and the
        iteration still terminates.
        """
        g = self.diagram
        ancestors = g.ancestors(owners)
        mine, mixed, others = self._caller_sides(class_roots, ancestors)
        roots_outside = (g.roots - set(class_roots)) | mixed | others
        reach_others = g.reach_within(roots_outside, ancestors)
        contested = {o for o in owners if o in reach_others}
        if not contested:
            return {}, frozenset()
        all_roots = g.roots | mine | mixed | others
        forkable = {o for o in contested if o not in all_roots}
        if self.fix_stack or not forkable:
            return {}, frozenset(contested)
        reach_mine = g.reach_within(set(class_roots) | mine | mixed, ancestors)
        cone = set(forkable)
        work = list(forkable)
        while work:
            for _, s in g.in_edges(work.pop()):
                if s in reach_mine and s not in cone:
                    cone.add(s)
                    work.append(s)
        shared = {n for n in cone if n in reach_others and n not in all_roots}
        if any(s in mine or s in mixed for n in shared for _, s in g.in_edges(n)):
            return {}, frozenset(contested)
        copies = {}
        for orig in sorted(shared):
            copies[orig] = g.fresh_node()
        for orig in sorted(shared):
            for l, t in sorted(g.out_edges(orig)):
                self._add(l, copies[orig], copies.get(t, t))
        # entry edges: a source inside the group's reach that feeds a
        # copied node is, by cone closure, itself in the cone; if it was
        # not copied it is either a group root or private to the group,
        # so rerouting it in place is invisible to every other world.
        # Roots of other worlds are never rerouted even when reachable.
        entries = sorted(
            (l, s, t)
            for t in copies
            for l, s in g.in_edges(t)
            if s in reach_mine and s not in copies and s not in roots_outside
        )
        for (l, s, t) in entries:
            self._remove(l, s, t)
            self._add(l, s, copies[t])
        return copies, frozenset(contested - forkable)

    def _caller_sides(self, class_roots, ancestors):
        """Sort the roots of the caller worlds of every active qualified
        call by whether their worlds make the update ``class_roots`` are
        about to make: (mine, mixed, others).

        A caller root's worlds are its receivers one level in: the ones
        it had at the call, and those its target path reaches now (a
        choice inside the callee clones receivers, and the clones
        inherit the caller's edges).  It is mine when every one of them
        makes the update, other when none does (a void receiver makes
        none), and mixed otherwise.  Outer calls sort their roots by the
        sides of the next call's roots.  Only caller roots among the
        owners' ancestors can reach an owner, so with none there the
        walk is skipped.
        """
        g = self.diagram
        if not any(r in ancestors for c in self.caller_roots for r in c.receivers):
            return set(), set(), set()
        mine, mixed, others = set(), set(), set()
        inner, inner_mine, inner_mixed = g.roots, set(class_roots), set()
        for c in reversed(self.caller_roots):
            level_mine, level_mixed = set(), set()
            for r, at_call in c.receivers.items():
                worlds = (at_call | g.value_set(c.target, start=(r,))) & inner
                if worlds and worlds <= inner_mine:
                    level_mine.add(r)
                elif worlds & (inner_mine | inner_mixed):
                    level_mixed.add(r)
                else:
                    others.add(r)
            mine |= level_mine
            mixed |= level_mixed
            inner, inner_mine, inner_mixed = set(c.receivers), level_mine, level_mixed
        return mine, mixed, others

    def apply_create(self, instr, frame):
        node = self._creation_node(id(instr))
        per_root = {r: frozenset({node}) for r in self.diagram.roots}
        self._relink_target((instr.target,), per_root, frame, instr.pos)

    def _creation_node(self, site):
        if not self.fix_stack:
            return self.diagram.fresh_node()
        for scope in self.fix_stack:
            scope.counters[site] = scope.counters.get(site, 0) + 1
        if any(scope.counters[site] > self.config.cap for scope in self.fix_stack):
            # over allowance: reuse the site's capped node so iteration
            # cannot mint fresh objects forever.  An outer scope has counted
            # every creation an inner one has, so the outermost scope is
            # over the cap whenever any is, and it recorded its capped node
            # when it reached the cap.
            for scope in reversed(self.fix_stack):
                if scope.counters[site] > self.config.cap and site in scope.capped:
                    return scope.capped[site]
            raise AssertionError("creation counter exceeded with no capped node")
        node = self.diagram.fresh_node()
        for scope in self.fix_stack:
            if scope.counters[site] == self.config.cap:
                scope.capped[site] = node
        return node

    # ------------------------------------------------------------------
    # choices
    # ------------------------------------------------------------------

    def apply_choice(self, instr, frame):
        # guards are evaluated once, against the state before the choice
        live = [
            (lambda body=body: self.apply_compound(body, frame))
            for cond, body in instr.branches
            if cond is None or self.eval_cond(cond, frame) != FALSE
        ]
        self._run_branches(id(instr), live)

    def _run_branches(self, site, live):
        # never empty: an if's else guard negates its last condition, so
        # one of the two is live, and dispatch has at least one version
        if len(live) == 1:
            live[0]()
        else:
            self._branches_by_replay(site, live)

    # -- delta replay

    def _branches_by_replay(self, site, live):
        pre_roots = sorted(self.diagram.roots)
        watermark = self.diagram._next_id
        frames: List[_DeltaFrame] = []
        for thunk in live:
            frame = _DeltaFrame()
            self.delta_stack.append(frame)
            thunk()
            self.delta_stack.pop()
            # roots introduced but later dropped again (a rerooting call
            # returned) are not part of the branch's net effect
            frame.roots_added &= self.diagram.roots
            # roll back, off the record: the next branch starts from the
            # same state, and replay below re-applies the net effects
            for (l, s, t) in frame.added:
                self.diagram.remove_edge(l, s, t)
            for (l, s, t) in frame.removed:
                self.diagram.add_edge(l, s, t)
            for r in frame.roots_added:
                self.diagram.roots.discard(r)
            assert self.diagram.roots == set(pre_roots), "a branch left the root set unbalanced"
            frames.append(frame)

        in_fixpoint = bool(self.fix_stack)
        touched_first = {s for (_, s, _) in frames[0].added | frames[0].removed}
        mappings: List[Dict[NodeId, NodeId]] = []
        for b in range(1, len(frames)):
            frame = frames[b]
            mapping: Dict[NodeId, NodeId] = {}
            touched = {s for (_, s, _) in frame.added | frame.removed}
            clone_sources = set(pre_roots) | {
                s for s in (touched | touched_first) if s < watermark and s not in pre_roots
            }
            for orig in sorted(clone_sources):
                mapping[orig] = self._branch_clone(site, b, orig, in_fixpoint, is_root=orig in self.diagram.roots)
            mappings.append(mapping)

        # copy the restored state onto the clones before any branch
        # effect lands; clone-to-clone references stay inside the world
        for mapping in mappings:
            for orig in sorted(mapping):
                copy = mapping[orig]
                if copy == orig:
                    continue
                for l, t in sorted(self.diagram.out_edges(orig)):
                    self._add(l, copy, mapping.get(t, t))
                # unmapped parents must reach this world's version too,
                # otherwise effects behind a shared node would be lost
                for l, s in sorted(self.diagram.in_edges(orig)):
                    if s not in mapping:
                        self._add(l, s, copy)

        # branch one applies in place
        for (l, s, t) in sorted(frames[0].added):
            self._add(l, s, t)
        for (l, s, t) in sorted(frames[0].removed):
            self._remove(l, s, t)
        for r in sorted(frames[0].roots_added):
            self._add_root(r)
        # the rest apply through their mappings
        for b in range(1, len(frames)):
            frame, mapping = frames[b], mappings[b - 1]
            for (l, s, t) in sorted(frame.added):
                self._add(l, mapping.get(s, s), mapping.get(t, t))
            for (l, s, t) in sorted(frame.removed):
                self._remove(l, mapping.get(s, s), mapping.get(t, t))
            for r in sorted(frame.roots_added):
                self._add_root(mapping.get(r, r))

    def _branch_clone(self, site, b, orig, in_fixpoint, is_root):
        if not in_fixpoint:
            clone = self.diagram.fresh_node()
            if is_root:
                self._add_root(clone)
            return clone
        # Inside a fixpoint a re-executed choice must not keep growing
        # the diagram, so clones carry a world identity: the node their
        # chain started from plus one (site, branch) entry per choice
        # passed through, the newest entry per site winning.  Forking a
        # node at a site already on its record lands on an identity that
        # exists, so the fork reuses that world's node instead of
        # chaining a fresh one (two choices forking each other's clones
        # would otherwise alternate new worlds every pass).  The registry
        # is consulted across every enclosing fixpoint: an inner loop's
        # scope is fresh on each outer iteration, so the outer scope
        # must remember the worlds too.
        base, anc = self.lineage.get(orig, (orig, frozenset()))
        key = (base, frozenset(p for p in anc if p[0] != site) | {(site, b)})
        if key == (base, anc):
            return orig
        for scope in reversed(self.fix_stack):
            if key in scope.clone_memo:
                clone = scope.clone_memo[key]
                if is_root:
                    self._add_root(clone)
                return clone
        clone = self.diagram.fresh_node()
        self.lineage[clone] = key
        for scope in self.fix_stack:
            scope.clone_memo[key] = clone
        if is_root:
            self._add_root(clone)
        return clone

    def _add_root(self, node):
        self.diagram.ensure_node(node)
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
        """
        scope = _FixpointScope()
        self.fix_stack.append(scope)
        key = self._state_key()
        scope.union_edges |= key[0]
        seen = {key}
        while True:
            if scope.iterations == self.config.max_iters:
                self._diag("error", overflow_message, pos)
                break
            scope.iterations += 1
            step()
            key = self._state_key()
            scope.union_edges |= key[0]
            if key in seen:
                break
            seen.add(key)
        self.fix_stack.pop()
        self._restore_union(scope)

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

    def _restore_union(self, scope):
        # the result is the union over all iteration counts, so edges an
        # iteration-boundary state had come back.  Edges that only lived
        # mid-pass do not: no iteration count ever exhibits them.  Names
        # of activations that closed meanwhile stay out (their scopes no
        # longer exist); every activation opened inside the fixpoint has
        # closed by now, so those are the tags no live frame carries.
        live = {fr.act for fr in self.call_stack}
        missing = scope.union_edges - self.diagram.edge_set()
        for (l, s, t) in sorted(missing):
            if l.tag and l.tag not in live:
                continue
            self._add(l, s, t)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _run_call(self, call, frame, assign_target, pos=None):
        pos = pos or call.pos
        if call.target is None:
            version = self.table.find_callee(frame.version.owner, call.name)
            if version is None:
                self._diag("error", "unknown routine %r" % call.name, pos)
                return
            roots = frozenset(self.diagram.roots)
            actuals = self._caller_actuals(call, frame, pos, {r: (r,) for r in roots})
            result = self._call_on_targets(version, actuals, roots, pos)
            if assign_target is not None:
                self._relink_target(assign_target, result, frame, pos)
            return
        self._qualified_call(call, frame, assign_target, pos)

    def _caller_actuals(self, call, frame, pos, receivers):
        """Each actual's values per callee root: the union of its value
        sets in the caller worlds whose ``receivers`` hold that root."""
        maps = []
        for a in call.actuals:
            if a is None:
                maps.append(None)
                continue
            labels = label_path(a, frame.scope)
            self._check_void_prefix(a, labels, pos)
            per_root = self.diagram.value_sets_by_root(labels)
            bound: Dict[NodeId, FrozenSet[NodeId]] = {}
            for r, objs in receivers.items():
                for o in objs:
                    bound[o] = bound.get(o, frozenset()) | per_root[r]
            maps.append(bound)
        return maps

    def _qualified_call(self, call, frame, assign_target, pos):
        static_t = self._static_type(call.target, frame)
        versions = self.table.dispatch_versions(static_t, call.name) if static_t else []
        if not versions:
            self._diag("error", "cannot resolve call %r on %r" % (call.name, ".".join(call.target)), pos)
            return
        if len(versions) == 1:
            self._qualified_one(versions[0], call, frame, assign_target, pos)
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
        owners_by_root = self.diagram.value_sets_by_root(target_labels)
        callee_roots = set()
        for owners in owners_by_root.values():
            callee_roots |= owners
        if not callee_roots:
            self._diag("error", "call target '%s' is definitely void" % ".".join(call.target), pos)
            return
        actuals = self._caller_actuals(call, frame, pos, owners_by_root)
        self.diagram.reroot(callee_roots)
        self.caller_roots.append(_CallerWorlds(target_labels, owners_by_root))
        result = self._call_on_targets(version, actuals, frozenset(callee_roots), pos)
        self.diagram.reroot(self.caller_roots.pop().receivers)
        if assign_target is not None:
            # re-read the target's owners: choices inside the callee may
            # have grown them with branch clones carrying result values
            owners_post = self.diagram.value_sets_by_root(target_labels)
            caller_result = {}
            for r in sorted(self.diagram.roots):
                vals = set()
                for o in owners_post.get(r, frozenset()):
                    vals |= result.get(o, set())
                caller_result[r] = frozenset(vals)
            self._relink_target(assign_target, caller_result, frame, pos)

    def _call_on_targets(self, version, actuals, targets, pos):
        """Analyze one routine version against the current roots.

        Returns the per-root result value sets (empty for procedures).
        """
        actuals_key = tuple(None if m is None else frozenset().union(*m.values()) for m in actuals)
        context_key = (id(version), targets, actuals_key)

        for fr in reversed(self.call_stack):
            if fr.context_key == context_key:
                return self._recursive_cutoff(fr, actuals)
        same_routine = [fr for fr in self.call_stack if fr.version is version]
        if len(same_routine) >= UNROLL_LIMIT:
            return self._recursive_cutoff(same_routine[-1], actuals)

        self._next_act += 1
        act = self._next_act
        new_frame = _Frame(
            version=version,
            context_key=context_key,
            act=act,
            targets=targets,
            actuals=actuals,
        )
        self.call_stack.append(new_frame)
        self._bind_formals(new_frame)
        self.apply_compound(version.body, new_frame)
        self._accumulate_result(new_frame)
        if new_frame.dirty:
            self._frame_fixpoint(new_frame)
        result = {r: frozenset(vs) for r, vs in new_frame.acc.items()}
        self._unbind_activation(act)
        self.call_stack.pop()
        return result

    def _recursive_cutoff(self, fr, actuals):
        # an already-active context absorbs the call: feed it the new
        # actuals (additively) and answer with what it has produced so far
        fr.dirty = True
        self._bind_formals(fr, actuals)
        return {r: frozenset(fr.acc.get(r, ())) for r in self.diagram.roots}

    def _bind_formals(self, fr, actuals=None):
        # the values were taken at the call site, keyed by the call's
        # target roots, which are roots for as long as the call runs
        for (fname, _), bound in zip(fr.version.formals, fr.actuals if actuals is None else actuals):
            if bound is None:
                continue
            flabel = Label(fname, fr.act)
            for r in sorted(bound):
                for v in sorted(bound[r]):
                    self._add(flabel, r, v)

    def _accumulate_result(self, fr):
        if not fr.version.is_function():
            return
        rl = fr.scope["Result"]
        for r in self.diagram.roots:
            fr.acc.setdefault(r, set()).update(self.diagram.value_set((rl,), start=(r,)))

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

    def _unbind_activation(self, act):
        doomed = sorted(
            (l, s, t) for l in self.diagram.edge_labels() if l.tag == act for s, t in self.diagram.label_edges(l)
        )
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
        root = self.diagram.add_root()
        frame = _Frame(
            version=version,
            context_key=(id(version), frozenset({root}), ()),
            act=0,
            targets=frozenset({root}),
            actuals=[],
        )
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
