"""Run the linked-list copy benchmark and check its sharing properties.

Usage: python3 demos/list_copy.py
"""

import time

from aliasgraph import analyze_program, parse_program
from aliasgraph.query import AliasQuery, deutsch_report, query_alias

SRC = """
class LST feature
  hd: T
  tl: LST
end

copy_ (L: LST): LST
  local
    t1: LST
  do
    if L = Void then
      create Result
    else
      create Result
      t1 := L.tl
      Result.tl := copy_ (t1)
      Result.hd := L.hd
    end
  end

main
  local
    X: LST
    Y: LST
    t2: LST
  do
    L0: create X
    L1: t2 := X
    L2: Y := copy_ (t2)
    L3: create X
  end
"""

LEGEND = {
    "P1": "neither list loops back on itself within k links",
    "P2": "Y's successive heads are pairwise distinct",
    "P3": "X's tail spine and Y's tail spine are disjoint",
    "P4": "no X head is aliased to any Y head",
    "P5": "after X is re-created, Y shares nothing with anything",
}


def main():
    engine = analyze_program(parse_program(SRC), "main")
    t0 = time.perf_counter()
    report = deutsch_report(engine, k=3)
    elapsed = time.perf_counter() - t0
    print("list-copy benchmark, k=%d" % report["k"])
    for key in ("P1", "P2", "P3", "P4", "P5"):
        print("  %s: %-3s  (%s)" % (key, "yes" if report[key] else "no", LEGEND[key]))
    print("  some world keeps X and Y fully apart: %s" % ("yes" if report["no_share_root"] else "no"))
    print("  checked in %.1f ms" % (elapsed * 1000))
    print()
    for q in ("Y", "Y.tl", "X.hd"):
        hits = query_alias(engine, AliasQuery(q))
        print("  alias(%s) = {%s}" % (q, ", ".join(sorted(hits))))


if __name__ == "__main__":
    main()
