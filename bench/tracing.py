"""Spans around the library's layer boundaries, for the traced run only.

``Tracer.install`` replaces module functions and class methods of
``lang``, ``calculus``, ``diagram``, ``query`` (and every module that
imported one of those functions by name) with wrappers that record one
span per call: name, start, end, parent span and operation id, plus up
to two counts taken from the call.  Spans are kept in flat arrays in
memory and written out when the run ends.  Nothing here is imported by
a process that reports untraced timings.

A wrapped name that no longer exists is skipped; the metrics built on
it are then absent from the output.

The spans' self times must sum to the time the benchmark takes outside
the tracer around its operations and gate calls, within
``SELF_TIME_TOLERANCE`` of it.  A wrapped call made outside every root
span, or a span left open, breaks that.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

import aliasgraph
from aliasgraph import calculus, cli, diagram, lang, query

MODULES = (aliasgraph, lang, calculus, diagram, query, cli)
SELF_TIME_TOLERANCE = 0.01
Engine = calculus.Engine
Diagram = diagram.AliasDiagram


def _privatize_counts(args, result, before):
    copies, weak = result
    return (1 if weak else 0), len(copies)


def _node_count(args):
    return len(args[0].diagram.nodes)


def _cap_reuse(args, result, before):
    return (1 if len(args[0].diagram.nodes) == before else 0), 0


def _roots_after(args, result, before):
    return len(args[0].diagram.roots), 0


# span name, owner, attribute, pre hook, post hook (-> counts a, b)
TARGETS = [
    ("lang.parse", lang, "parse_program", None, None),
    ("lang.resolve", lang, "resolve", None, None),
    ("calculus.analyze", Engine, "analyze", None, None),
    ("calculus.replay", Engine, "_branches_by_replay", None, _roots_after),
    ("calculus.privatize", Engine, "_privatize", None, _privatize_counts),
    ("calculus.loop", Engine, "apply_loop", None, None),
    ("calculus.rec_fixpoint", Engine, "_frame_fixpoint", None, None),
    ("calculus.state_key", Engine, "_state_key", None, None),
    ("calculus.restore_union", Engine, "_restore_union", None, None),
    ("calculus.call", Engine, "_call_on_targets", None, None),
    ("calculus.cutoff", Engine, "_recursive_cutoff", None, None),
    ("calculus.qualified", Engine, "_qualified_call", None, None),
    ("calculus.unbind", Engine, "_unbind_activation", None, None),
    ("calculus.create", Engine, "_creation_node", _node_count, _cap_reuse),
    ("calculus.record_point", Engine, "_record_point", None, None),
    ("diagram.edge_set", Diagram, "edge_set", None, None),
    ("diagram.value_set", Diagram, "value_set", None, None),
    ("diagram.add_edge", Diagram, "add_edge", None, None),
    ("diagram.remove_edge", Diagram, "remove_edge", None, None),
    ("diagram.snapshot", Diagram, "snapshot", None, None),
    ("query.build_report", query, "build_report", None, None),
    ("query.alias_pairs", query, "alias_pairs", None, None),
    ("query.query_alias", query, "query_alias", None, None),
    ("query.deutsch", query, "deutsch_report", None, None),
    ("query.emit_json", query, "emit_json", None, None),
    ("query.emit_dot", query, "emit_dot", None, None),
]

# per-layer metric -> (statistic, span name).  "a" and "b" sum the
# counts the span's post hook took.
LAYER_METRICS = [
    ("lang.parse.self_s", "self", "lang.parse"),
    ("lang.resolve.self_s", "self", "lang.resolve"),
    ("calculus.analyze.self_s", "self", "calculus.analyze"),
    ("calculus.replay.self_s", "self", "calculus.replay"),
    ("calculus.replay.calls", "calls", "calculus.replay"),
    ("calculus.privatize.self_s", "self", "calculus.privatize"),
    ("calculus.privatize.calls", "calls", "calculus.privatize"),
    ("calculus.privatize.weak", "a", "calculus.privatize"),
    ("calculus.privatize.copies", "b", "calculus.privatize"),
    ("calculus.loop.self_s", "self", "calculus.loop"),
    ("calculus.loop.calls", "calls", "calculus.loop"),
    ("calculus.rec_fixpoint.self_s", "self", "calculus.rec_fixpoint"),
    ("calculus.rec_fixpoint.calls", "calls", "calculus.rec_fixpoint"),
    ("calculus.state_key.self_s", "self", "calculus.state_key"),
    ("calculus.restore_union.self_s", "self", "calculus.restore_union"),
    ("calculus.call.self_s", "self", "calculus.call"),
    ("calculus.call.calls", "calls", "calculus.call"),
    ("calculus.call.cutoffs", "calls", "calculus.cutoff"),
    ("calculus.qualified.calls", "calls", "calculus.qualified"),
    ("calculus.unbind.self_s", "self", "calculus.unbind"),
    ("calculus.create.cap_reuses", "a", "calculus.create"),
    ("calculus.record_point.self_s", "self", "calculus.record_point"),
    ("diagram.edge_set.self_s", "self", "diagram.edge_set"),
    ("diagram.edge_set.calls", "calls", "diagram.edge_set"),
    ("diagram.value_set.self_s", "self", "diagram.value_set"),
    ("diagram.value_set.calls", "calls", "diagram.value_set"),
    ("diagram.add_edge.calls", "calls", "diagram.add_edge"),
    ("diagram.remove_edge.calls", "calls", "diagram.remove_edge"),
    ("diagram.snapshot.self_s", "self", "diagram.snapshot"),
    ("query.build_report.self_s", "self", "query.build_report"),
    ("query.alias_pairs.self_s", "self", "query.alias_pairs"),
    ("query.alias_pairs.calls", "calls", "query.alias_pairs"),
    ("query.query_alias.self_s", "self", "query.query_alias"),
    ("query.query_alias.calls", "calls", "query.query_alias"),
    ("query.deutsch.self_s", "self", "query.deutsch"),
    ("query.emit_json.self_s", "self", "query.emit_json"),
    ("query.emit_dot.self_s", "self", "query.emit_dot"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.stack = [-1]
        self.current_op = -1
        self.missing = set()
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.a.append(0)
        self.b.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name, op):
        """A root span opened by the benchmark around one operation."""
        return _RootSpan(self, self.name_id(name), op)

    def _wrap(self, nid, fn, pre, post):
        open_, close = self._open, self._close
        counts_a, counts_b = self.a, self.b

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                counts_a[idx], counts_b[idx] = post(args, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        for name, owner, attr, pre, post in TARGETS:
            nid = self.name_id(name)
            if isinstance(owner, type):
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(nid, fn, pre, post))
                self._undo.append((owner, attr, fn))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(nid, fn, pre, post)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def aggregate(self):
        """Per span name: self time, calls and summed counts."""
        k = len(self.names)
        self_s, calls, a, b = [0.0] * k, [0] * k, [0] * k, [0] * k
        names, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            d = end[i] - start[i]
            nid = names[i]
            self_s[nid] += d
            calls[nid] += 1
            a[nid] += self.a[i]
            b[nid] += self.b[i]
            p = parent[i]
            if p >= 0:
                self_s[names[p]] -= d
        return {n: {"self": self_s[i], "calls": calls[i], "a": a[i], "b": b[i]} for i, n in enumerate(self.names)}

    def max_a(self, name):
        nid = self._ids.get(name)
        return max((self.a[i] for i in range(len(self.name)) if self.name[i] == nid), default=0)

    def write(self, path):
        """All spans as gzipped TSV, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart_ns\tend_ns\ta\tb\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n" % (
                    i, self.op[i], self.names[self.name[i]], self.parent[i],
                    round((self.start[i] - t0) * 1e9), round((self.end[i] - t0) * 1e9), self.a[i], self.b[i]))


class _RootSpan:
    def __init__(self, tracer, nid, op):
        self.tracer, self.nid, self.op = tracer, nid, op

    def __enter__(self):
        self.tracer.current_op = self.op
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        self.tracer.current_op = -1
        return False


def layer_metrics(tracer):
    """The per-layer metrics the spans give, and the sum of every span's
    self time."""
    stats = tracer.aggregate()
    out = {}
    for metric, stat, span in LAYER_METRICS:
        if span in tracer.missing:
            continue
        value = stats.get(span, {"self": 0.0, "calls": 0, "a": 0, "b": 0})[stat]
        out[metric] = (value, "s" if stat == "self" else "count")
    entries = {"calculus.state_key", "calculus.loop", "calculus.rec_fixpoint"}
    if not entries & tracer.missing:
        iters = stats["calculus.state_key"]["calls"] - stats["calculus.loop"]["calls"] - stats["calculus.rec_fixpoint"]["calls"]
        out["calculus.fixpoint.iters"] = (iters, "count")
    self_sum = sum(s["self"] for s in stats.values())
    return out, self_sum
