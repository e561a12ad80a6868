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

``answer_digests.py`` prints the same-answers digests a refactor is
checked with; its run on the corpus is tested here so it cannot rot.
"""

import hashlib
import json
import os
import subprocess
import sys
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


def test_answer_digests_print_one_stable_line_per_corpus_program():
    """The script names each corpus program relative to the repository
    root, and its digests do not depend on the hash seed."""
    script = Path(__file__).resolve().parent / "answer_digests.py"
    runs = [
        subprocess.run(
            [sys.executable, str(script), "corpus"],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout
        for seed in ("0", "5")
    ]
    assert runs[0] == runs[1]
    corpus = sorted(p.name for p in (SCALED_DIR.parent / "corpus").glob("*.oo"))
    lines = [line.split() for line in runs[0].splitlines()]
    assert [name for _, _, name in lines] == ["tests/corpus/" + name for name in corpus]
    digests = [digest for answers, shape, _ in lines for digest in (answers, shape)]
    assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef") for digest in digests)


def test_a_sweep_program_past_its_cpu_limit_prints_timeout(monkeypatch, capsys):
    """The ``sweep`` set runs only when named, and a program that uses up
    its CPU time prints ``timeout`` in place of both digests."""
    import answer_digests

    assert "sweep" not in answer_digests.DEFAULT_SETS
    # call program 2 finishes at once; call program 3 takes seconds
    monkeypatch.setattr(answer_digests, "SWEEP_SEEDS", (2, 3))
    monkeypatch.setitem(answer_digests.CPU_LIMITS, "sweep", 0.2)
    assert answer_digests.main(["sweep"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, _, name in lines] == ["sweep/seed2", "sweep/seed3"]
    assert len(lines[0][0]) == 64 and lines[1][:2] == ["timeout", "timeout"]
