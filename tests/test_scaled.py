"""Same answers beyond the corpus: scaled programs against frozen pairs.

``scaled/`` holds copies of four programs from the benchmark generators
in ``bench/workloads.py`` and the final alias pairs an analysis gave for
them before the diagram was indexed, when the four together took about
23 s.  A fifth, from ``oracles.wide_ring``, has 64 roots and 400 paths;
its pairs were frozen before alias pairs were computed with root masks,
when its report took about 1.2 s.  A sixth, ladder(seed=1, k=14), has
16,384 roots; its pairs were frozen before edge writes skipped the
edges a node already has, when it analyzed in about 1.1 s, so a cost
that grows faster than the root count shows here.  A seventh,
ring(seed=0, n=6, cycle=2), took about 4 s and 330 activations while a
recursive call's context held the root set, so every join re-descended;
its entry bounds the activation count well below that.  Each entry of
``frozen.json`` names its generator call.  Each program's sha256 is frozen with its pairs, so
a changed copy fails instead of being checked against answers for
another program.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aliasgraph.calculus import AnalysisConfig, Engine
from aliasgraph.lang import parse_program, resolve
from aliasgraph.query import build_report

SCALED_DIR = Path(__file__).resolve().parent / "scaled"
FROZEN = json.loads((SCALED_DIR / "frozen.json").read_text(encoding="utf-8"))["programs"]


@pytest.mark.parametrize("entry", FROZEN, ids=[e["file"] for e in FROZEN])
def test_scaled_program_keeps_its_frozen_pairs(entry):
    text = (SCALED_DIR / entry["file"]).read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["sha256"]
    program = parse_program(text, entry["file"])
    assert not [d for d in resolve(program) if d.severity == "error"]
    engine = Engine(program, AnalysisConfig(record_points=False))
    engine.analyze(entry["entry"])
    assert not engine.has_errors()
    if "max_activations" in entry:
        assert engine._next_act <= entry["max_activations"]
    got = build_report(engine)["final"]["pairs"]
    assert got == entry["pairs"]
