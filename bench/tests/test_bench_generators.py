"""The benchmark's generators: reproducible, and every program is valid."""

import pytest

import workloads
from aliasgraph import lang

SEEDS = (workloads.DEFAULT_SEED, 7)


def sources(name, seed):
    w = workloads.WORKLOADS[name](seed)
    return [(p.name, p.source) for p in w.programs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_byte_identical_programs(name, seed):
    first, second = sources(name, seed), sources(name, seed)
    assert [s.encode("utf-8") for _, s in first] == [s.encode("utf-8") for _, s in second]


@pytest.mark.parametrize("name", ["worlds", "fixpoints", "queries"])
def test_seed_changes_the_programs(name):
    assert sources(name, 1) != sources(name, 2)


def test_generators_repeat_for_a_seed():
    assert workloads.ladder(5, 7) == workloads.ladder(5, 7)
    assert workloads.ladder(5, 7, spread_fields=True) == workloads.ladder(5, 7, spread_fields=True)
    assert workloads.loop_program(5) == workloads.loop_program(5)
    assert workloads.ring(5, 2, 2) == workloads.ring(5, 2, 2)


def test_ring_seeds_cover_every_variant():
    assert len({workloads.ring(v, 2, 2) for v in range(16)}) == 16
    assert workloads.ring(16, 2, 2) == workloads.ring(0, 2, 2)


def test_ladder_shape():
    nv, block = workloads.ladder(3, 6)
    assert nv == 8
    assert block[:8] == [("create", i) for i in range(8)]
    choices = block[8:]
    assert len(choices) == 6
    for kind, (write,), (read,) in choices:
        assert kind == "choice" and write[0] == "write" and read[0] == "read"
        assert write[1] == read[2]  # then vi.n := vj else vl := vi.n end


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_program_resolves_without_errors(name, seed):
    for program_name, source in sources(name, seed):
        diags = lang.resolve(lang.parse_program(source, program_name))
        errors = [d.render() for d in diags if d.severity == "error"]
        assert not errors, (program_name, errors)


def test_query_programs_carry_labelled_points():
    w = workloads.Queries(workloads.DEFAULT_SEED)
    for p in w.programs:
        assert ": " in p.source.split("do", 1)[1], p.name
