"""Compare two result files written by suite.py (A = before, B = after).

    python3 perfbench/compare.py perfbench/out/parent.jsonl perfbench/out/change.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, then a verdict against the metric's
bound in BENCHMARK.json:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better than A's by more than A's own quartile
  distance, or every run of B beats every run of A;
* ``unresolved``: neither, and either side's spread (quartile distance
  over median) is wider than the bound, so no change can be ruled out;
* ``within``: neither, and both spreads fit the bound.

It also prints both sides' operations attempted and failed.  A workload
fails outright when B has a run without a result, fewer runs with a result
than A, a run that is not correct, or a larger share of failed operations
than A; its ``better`` verdicts are then withheld.  Exit status is 1 when a
workload fails, a metric of A is missing from B, or a metric is worse,
else 0.
"""
from __future__ import annotations

import argparse
import json
import sys

from suite import load_spec, quartiles


def load(path):
    """Untraced run records per workload, those without a result included."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def faults(before, after):
    """Reasons the after side of a workload fails, whatever its timings."""
    a = [r["result"] for r in before if r["result"]]
    b = [r["result"] for r in after if r["result"]]
    out = []
    if len(b) < len(after):
        out.append(f"{len(after) - len(b)} run(s) without a result")
    if len(b) < len(a):
        out.append(f"{len(b)} runs with a result against {len(a)} before")
    if not all(r["correct"] for r in b):
        out.append("a run is not correct")
    a_fail, a_att = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
    b_fail, b_att = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
    if b_att and a_att and b_fail * a_att > a_fail * b_att:
        out.append(f"failed share {b_fail}/{b_att} above {a_fail}/{a_att}")
    return out


def verdict(a_vals, b_vals, better, bound):
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    sign = 1.0 if better == "lower" else -1.0
    # how much worse B's median is than A's, as a share of A's median
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    gain = -change * abs(a_med)
    if better == "lower":
        beats_all = max(b_vals) < min(a_vals)
    else:
        beats_all = min(b_vals) > max(a_vals)
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    if change > bound:
        return "worse", change
    if beats_all or (gain > 0.0 and gain > a_q3 - a_q1):
        return "better", change
    if spread > bound:
        return "unresolved", change
    return "within", change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    spec = load_spec()
    a_runs, b_runs = load(args.before), load(args.after)
    failed = False
    for wl in [w["name"] for w in spec["workloads"]]:
        a_recs, b_recs = a_runs.get(wl, []), b_runs.get(wl, [])
        a = [r["result"] for r in a_recs if r["result"]]
        b = [r["result"] for r in b_recs if r["result"]]
        print(f"\n== {wl}: {len(a)} runs before, {len(b)} after")
        for tag, runs in (("before", a), ("after", b)):
            print(f"   {tag:6s} attempted {sum(r['attempted'] for r in runs)}, "
                  f"failed {sum(r['failed'] for r in runs)}, correct "
                  f"{all(r['correct'] for r in runs)}")
        reasons = faults(a_recs, b_recs)
        for reason in reasons:
            print(f"   FAILED: {reason}")
        failed |= bool(reasons)
        if not a or not b:
            continue
        print(f"   {'metric':14s} {'before: median [q1, q3]':>36s} "
              f"{'after: median [q1, q3]':>36s} {'change':>8s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            av = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not av or not bv:
                print(f"   {name:14s} missing on one side")
                failed |= bool(av)
                continue
            word, change = verdict(av, bv, m["better"], m["bound"])
            failed |= word == "worse"
            if reasons and word == "better":
                word = "better withheld (workload failed)"
            qa, qb = quartiles(av), quartiles(bv)
            print(f"   {name:14s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{100 * change:+7.2f}%  {word} (bound {m['bound']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
