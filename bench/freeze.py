"""Record the alias answers of the default seed's analysis workloads.

    python3 bench/freeze.py

Writes ``frozen/<workload>-seed<N>.json`` for the default seed N: the
final alias pairs of every program in the pool, with the sha256 of its
text.  A run of any seed then fails an operation whose program text is
listed there and whose answer differs.  Re-run it only when a change is meant to change
answers, and say so in the change.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[1:1] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import workloads  # noqa: E402


def freeze(name):
    seed = workloads.DEFAULT_SEED
    workload = workloads.WORKLOADS[name](seed)
    entries = []
    for program in workload.programs:
        got = workloads.digest_analysis(workloads.analyze_op(program))
        if got.errors:
            raise SystemExit("%s does not analyze cleanly: %s" % (program.name, got.errors))
        entries.append({"name": program.name, "sha256": workloads.source_key(program.source),
                        "pairs": sorted(workloads.final_pairs(got.blob))})
    path = workloads.FROZEN / ("%s-seed%d.json" % (name, seed))
    path.parent.mkdir(exist_ok=True)
    lines = [json.dumps(e, sort_keys=True) for e in entries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"workload": "%s", "seed": %d, "programs": [\n%s\n]}\n' % (name, seed, ",\n".join(lines)))
    return path


if __name__ == "__main__":
    for name in ("worlds", "fixpoints"):
        print(freeze(name))
