"""Generated call programs keep every frozen alias pair.

``calls/frozen.json`` holds, for 200 seeds of ``oracles.gen_call_program``
(the first ones whose analysis took under 50 ms), the final alias pairs
the analysis gave while a recursive call's context still held the root
set.  A context key that absorbs more calls may only add pairs: losing
one means a cut-off dropped an effect some descent had.  Each entry is
keyed by its program's sha256, so a changed generator fails instead of
being checked against answers for other programs.
"""

import hashlib
import json
from pathlib import Path

from aliasgraph.query import build_report

from oracles import gen_call_program
from util import run

FROZEN = json.loads((Path(__file__).resolve().parent / "calls" / "frozen.json").read_text(encoding="utf-8"))


def test_generated_call_programs_keep_their_frozen_pairs():
    lost = {}
    for sha, entry in FROZEN["programs"].items():
        text = gen_call_program(entry["seed"])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha, entry["seed"]
        engine = run(text, entry=FROZEN["entry"], record_points=False)
        missing = {tuple(p) for p in entry["pairs"]} - set(build_report(engine).final_pairs)
        if missing:
            lost[entry["seed"]] = sorted(missing)
    assert lost == {}
