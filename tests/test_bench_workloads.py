"""The benchmark's workloads still run on the library.

``bench/workloads.py`` calls the library's public functions by name: it
analyzes programs, asks alias queries with and without a depth bound,
and asks for the list-copy properties.  A function that a change deletes
or renames would break the benchmark, and only the benchmark's own
suite would see it.  Here one operation of each kind runs, and the
workload's own check must find no problem with its answer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["worlds", "fixpoints", "queries"])
def test_operations_pass_their_workloads_check(workloads, name):
    workload = workloads.WORKLOADS[name](1)
    workload.prepare()
    ops = workload.ops()
    picks = [0]
    if name == "queries":
        # one depth-bounded query, and the list-copy properties (last)
        picks += [next(i for i, (_, _, _, depth) in enumerate(workload.queries) if depth is not None), len(ops) - 1]
    for i in picks:
        got = workload.digest(i, ops[i].run())
        assert workload.check(i, got) == [], ops[i].label
