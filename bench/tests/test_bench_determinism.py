"""Two traced runs of one seed give identical counts.

Later changes may rest a claim on a count only because of this test.
Each traced run is a fresh worker process, started as the benchmark
starts it.
"""

import argparse
import json

import pytest

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def traced(workload, seed):
    return run.worker(argparse.Namespace(workload=workload, seed=seed, seconds=0), "traced")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = {name: first["layer"][name][0] for name in COUNTS if name in first["layer"]}
    assert counts == {name: second["layer"][name][0] for name in counts}
    assert set(COUNTS) <= set(first["layer"])
    assert counts["diagram.value_set.calls"] > 0
    # self times account for the traced time taken outside the tracer
    for result in (first, second):
        assert abs(result["self_sum_s"] - result["wall_s"]) <= tracing.SELF_TIME_TOLERANCE * result["wall_s"]
