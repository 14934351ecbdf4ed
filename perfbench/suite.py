"""Run every workload over several seeds and write one result file.

    python3 perfbench/suite.py                      # 3 workloads x seeds 1..10
    python3 perfbench/suite.py --seeds 1,2,3 --workloads grouped-desk
    python3 perfbench/suite.py --seeds 1 --trace    # one untraced + one traced run each

Each run is a fresh process (``run.py``) that measures for the run length
BENCHMARK.json fixes, so every result file holds runs of one length.  The
result file holds one JSON object per run: workload, seed, trace flag, the
run's printed result and its comment lines.  The table printed at the end gives, per workload and
metric, the median, the quartiles and the spread (quartile distance over
median) against the bound in BENCHMARK.json, plus operations attempted and
failed.  With ``--trace`` each seed also gets a traced run, and the table
adds the per-layer medians and the tracing overhead (traced over untraced
fit_s, minus one).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": bool(trace),
              "exit": done.returncode, "wall_s": wall,
              "comments": [ln for ln in lines if ln.startswith("#")],
              "result": None}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def _traced_fit(record):
    for line in record["comments"]:
        for tok in line.split():
            if tok.startswith("fit_s="):
                return float(tok.split("=", 1)[1])
    return None


def summarize(records, spec, out=sys.stdout):
    by_wl = {}
    for rec in records:
        by_wl.setdefault(rec["workload"], []).append(rec)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for wl, recs in by_wl.items():
        plain = [r for r in recs if not r["trace"] and r["result"]]
        traced = [r for r in recs if r["trace"] and r["result"]]
        bad = [r for r in recs if not r["result"]]
        print(f"\n== {wl}: {len(plain)} runs, {len(traced)} traced, "
              f"{len(bad)} without a result", file=out)
        for r in bad:
            print(f"   seed {r['seed']} exit {r['exit']}: "
                  f"{r.get('stderr', '').strip().splitlines()[-1:]}", file=out)
        if plain:
            att = [r["result"]["attempted"] for r in plain]
            fail = [r["result"]["failed"] for r in plain]
            ok = all(r["result"]["correct"] for r in plain)
            print(f"   operations attempted {sum(att)}, failed {sum(fail)} "
                  f"(per run {sorted(set(zip(att, fail)))}); correct={ok}",
                  file=out)
            print(f"   {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>7s} {'bound':>6s}", file=out)
            for name, m in bounds.items():
                vals = [r["result"]["metrics"][name]["value"] for r in plain
                        if name in r["result"]["metrics"]]
                if not vals:
                    print(f"   {name:16s} missing", file=out)
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flag = "" if spread <= m["bound"] / 3 else (
                    "  > bound/3" if spread <= m["bound"] else "  > BOUND")
                print(f"   {name:16s} {m['unit']:6s} {q2:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.4f} {m['bound']:6.2f}{flag}",
                      file=out)
        if traced:
            print("   per layer (median of traced runs; '-' = no calls here):",
                  file=out)
            for m in spec["per_layer"]:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in traced if m["name"] in r["result"]["metrics"]]
                mod = m["name"].split(".")[0]
                calls = [r["result"]["metrics"].get(f"{mod}.calls", {}).get("value", 1)
                         for r in traced]
                shown = "-" if not vals or not any(calls) else \
                    f"{statistics.median(vals):.6g}"
                print(f"     {m['name']:36s} {shown:>14s} {m['unit']}", file=out)
            pairs = [(_traced_fit(t), p["result"]["metrics"]["fit_s"]["value"])
                     for t in traced for p in plain if p["seed"] == t["seed"]]
            pairs = [(a, b) for a, b in pairs if a]
            if pairs:
                over = statistics.median([a / b - 1.0 for a, b in pairs])
                print(f"   tracing overhead on fit_s: {100 * over:+.2f}% "
                      f"(median of {len(pairs)} seed pairs)", file=out)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))),
                    help="comma list (default 1..10)")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per seed")
    ap.add_argument("--out", default=None, help="result file (JSON lines)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = args.out or os.path.join(
        HERE, "out", time.strftime("results-%Y%m%d-%H%M%S.jsonl"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    records = []
    with open(out, "w") as fh:
        for wl in args.workloads.split(","):
            for seed in seeds:
                for trace in ((False, True) if args.trace else (False,)):
                    rec = run_once(wl, seed, spec["run_seconds"], trace)
                    records.append(rec)
                    fh.write(json.dumps(rec) + "\n")
                    fh.flush()
                    print(f"{wl} seed {seed}{' traced' if trace else ''}: "
                          f"exit {rec['exit']} in {rec['wall_s']:.1f}s",
                          file=sys.stderr)
    summarize(records, spec)
    print(f"\nresults: {out}")
    return 0 if all(r["result"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
