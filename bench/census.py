"""Cliff census: the five ROADMAP item-1 cliff cases, each under a budget.

Usage (from the repository root):

    python3 bench/census.py

Runs outside the repeated workloads and reports no end-to-end metric.  Each
case prints its time, or "over budget" when it has not finished within
BUDGET_S (SIGALRM, in-process), so the items that target these cliffs have a
before number.  The last line is a JSON object with one entry per case.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

BUDGET_S = 10.0


def scrambled(steps):
    """h-closure:3,1,2,2 scrambled with r1,r2,r3,oc,v^n:3,v(n):3, seed 11."""
    import wld
    return wld.scramble(wld.named("h-closure:3,1,2,2"),
                        wld.parse_kinds("r1,r2,r3,oc,v^n:3,v(n):3"), steps, 11)


def grown_figure8(crossings=193, seed=11):
    """figure8 grown by seeded expand-biased welded moves to ``crossings``."""
    import random
    import wld
    expand = [wld.make_kind("r1", direction="expand"),
              wld.make_kind("r2", direction="expand"),
              wld.make_kind("r3"), wld.make_kind("oc")]
    rng = random.Random(seed)
    cur = wld.named("figure8")
    while cur.crossing_count < crossings:
        kinds = expand if crossings - cur.crossing_count >= 2 else expand[:1]
        cur = wld.scramble(cur, kinds, 1, rng.randrange(1 << 30))
    return cur


def cases():
    """(name, diagram builder, operation on the diagram)."""
    from wld import invariants as inv
    return [
        ("hom_count into S4, h-closure:3,1,2,2 scrambled 100 steps",
         lambda: scrambled(100),
         lambda d: inv.hom_count(inv.welded_group(d), inv.builtin_group("s4"))),
        ("elementary_ideals(k<=3), same scrambled 300 steps",
         lambda: scrambled(300),
         lambda d: inv.elementary_ideals(d, 3)),
        ("hom_count into S3, same scrambled 300 steps",
         lambda: scrambled(300),
         lambda d: inv.hom_count(inv.welded_group(d), inv.builtin_group("s3"))),
        ("elementary_ideals(k<=1) (unit-pivot elimination), figure8 grown",
         grown_figure8,
         lambda d: inv.elementary_ideals(d, 1)),
        ("coloring_count(n=3), figure8 grown",
         grown_figure8,
         lambda d: inv.coloring_count(d, 3)),
    ]


def main():
    if not os.path.isfile(os.path.join(run.SRC, "wld", "__init__.py")):
        print(f"error: no wld sources under {run.SRC}", file=sys.stderr)
        return 2
    run.import_wld()
    signal.signal(signal.SIGALRM, run._alarm)
    results = []
    for name, build, operation in cases():
        d = build()
        seconds, _out, err = run.run_one(lambda: operation(d), BUDGET_S)
        entry = {"case": name, "crossings": d.crossing_count,
                 "seconds": seconds, "over_budget": err == "over-budget"}
        if err not in (None, "over-budget"):
            entry["error"] = err
        results.append(entry)
        status = (f"over budget ({BUDGET_S} s)" if entry["over_budget"]
                  else err or f"{seconds:.3f} s")
        print(f"{name} [{d.crossing_count} crossings]: {status}")
    print(json.dumps({"budget_s": BUDGET_S, "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
