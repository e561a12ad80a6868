"""The benchmark's correctness gate and tracer catch what they must."""

import json
from time import perf_counter

import tracing
import workloads
from aliasgraph import calculus


def test_worlds_check_flags_a_lost_pair():
    w = workloads.Worlds(workloads.DEFAULT_SEED)
    got = workloads.digest_analysis(workloads.analyze_op(w.programs[5]))
    assert w.check(5, got) == []
    doc = json.loads(got.blob)
    doc["final"]["pairs"] = doc["final"]["pairs"][1:]
    broken = workloads.Digest(got.errors, json.dumps(doc).encode(), got.roots, got.nodes, got.edges)
    assert w.check(5, broken)


def test_worlds_check_flags_an_error_diagnostic():
    w = workloads.Worlds(workloads.DEFAULT_SEED)
    got = workloads.digest_analysis(workloads.analyze_op(w.programs[0]))
    got.errors.append("x.oo:1:1: error: injected")
    assert w.check(0, got)


def test_fixpoints_rings_are_checked_on_every_seed():
    w = workloads.Fixpoints(7)
    rings = [i for i, p in enumerate(w.programs) if p.name.startswith("ring")]
    loops = [i for i, p in enumerate(w.programs) if p.name.startswith("loop")]
    assert all(w.frozen[i] is not None for i in rings)
    assert all(w.frozen[i] is None for i in loops)
    assert w.frozen[-1] is not None  # the list copy
    i = rings[-1]
    got = workloads.digest_analysis(workloads.analyze_op(w.programs[i]))
    assert w.check(i, got) == []
    doc = json.loads(got.blob)
    doc["final"]["pairs"] = doc["final"]["pairs"][1:]
    broken = workloads.Digest(got.errors, json.dumps(doc).encode(), got.roots, got.nodes, got.edges)
    assert w.check(i, broken)


def test_queries_check_agrees_with_query_alias_and_flags_a_wrong_answer():
    w = workloads.Queries(workloads.DEFAULT_SEED)
    w.prepare()
    ops = w.ops()
    for i in range(0, len(ops) - 1, 37):
        got = ops[i].run()
        assert w.check(i, got) == [], ops[i].label
        assert w.check(i, got | {"no_such_path"})
    assert w.check(len(ops) - 1, ops[-1].run()) == []
    assert w.check(len(ops) - 1, dict(workloads.DEUTSCH_PROPERTIES, P3=False))


def traced_ring(stray_call=False):
    """Analyze a ring(2) on two objects (tens of ms) in one root span;
    with ``stray_call`` also once outside it.  Returns the tracer and
    the root span's time taken outside the tracer."""
    program = next(p for p in workloads.Fixpoints(workloads.DEFAULT_SEED).programs if p.name.startswith("ring2-c2"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        with tracer.span("bench.op", 0):
            workloads.analyze_op(program)
        wall = perf_counter() - t0
        if stray_call:
            workloads.analyze_op(program)
    finally:
        tracer.uninstall()
    return tracer, wall


def test_tracer_skips_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("x.gone", calculus.Engine, "_gone", None, None)])
    monkeypatch.setattr(tracing, "LAYER_METRICS", tracing.LAYER_METRICS + [("x.gone.self_s", "self", "x.gone")])
    tracer, wall = traced_ring()
    metrics, self_sum = tracing.layer_metrics(tracer)
    assert "x.gone.self_s" not in metrics
    assert metrics["calculus.call.calls"][0] > 0
    assert abs(self_sum - wall) <= tracing.SELF_TIME_TOLERANCE * wall
    assert not hasattr(calculus.Engine.analyze, "__wrapped__")


def test_self_times_exceed_the_operation_time_after_a_call_outside_it():
    tracer, wall = traced_ring(stray_call=True)
    _, self_sum = tracing.layer_metrics(tracer)
    assert self_sum - wall > tracing.SELF_TIME_TOLERANCE * wall
