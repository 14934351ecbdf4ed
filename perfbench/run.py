"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload grouped-desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout this file sits in, so nothing needs installing.  The last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separate traced run (``--trace 1``).  Rounds of the workload's operations
repeat: a new round starts while it would end, at the median length of the
rounds so far, less than half a round past ``--seconds``.  At least one
round runs and every round runs whole.  Times are reported at the
reference speed that ``workloads.reference_loop`` readings around each
timed operation give (the wall-clock medians are on the ``#`` line).  Exit
status is 0 when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out", "work")

# BLAS runs single-threaded so that the thread count of a grid is the only
# parallelism in a run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# set-up is repeated this many times per run and its median reported
SETUP_SAMPLES = 5

IMPORT_PROBE = ("import time; t = time.perf_counter(); import bivas; "
                "print(repr(time.perf_counter() - t))")

WORKLOAD_NAMES = ("grouped-desk", "multitask-wide", "cli-wide")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """``import bivas`` timed inside a fresh interpreter (a process can
    import a module only once, so each set-up sample needs its own)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bivas", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import bivas  # noqa: F401  (first import; also writes the bytecode cache)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = remove = None
    if args.trace:
        import layers
        import spans
        tracer = spans.Tracer()
        remove = layers.install(tracer)
        wl.span = tracer.call

    setup, setup_raw, loops = [], [], [workloads.reference_loop()]
    for _ in range(SETUP_SAMPLES):
        took = import_seconds() + wl.build()
        loops.append(workloads.reference_loop())
        setup_raw.append(took)
        setup.append(workloads.at_reference_speed(took, *loops[-2:]))

    once = wl.warm_up()
    rounds, took = [], []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(took) / 2 < args.seconds):
        t0 = time.perf_counter()
        rounds.append(wl.run_round())
        took.append(time.perf_counter() - t0)
    if remove is not None:
        remove()

    every = rounds + ([once] if once else [])
    errors = sorted({e for r in every for e in r.errors})
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)

    def med(key, field="times"):
        return statistics.median([getattr(r, field)[key] for r in rounds])

    # wall-clock medians, for reading next to the reference-speed ones
    raw = [f"raw_{k}={med(k, 'raw'):.6g}" for k in sorted(rounds[0].raw)]
    raw += [f"raw_setup_s={statistics.median(setup_raw):.6g}",
            f"ref_loop_s={statistics.median(loops):.6g}"]

    once_times = sorted(once.times.items()) if once else []

    if args.trace:
        missing = [name for name in wl.expected if not tracer.calls.get(name)]
        if missing:
            print(f"perfbench: traced run saw no call of {missing}; a layer "
                  "was renamed or bypassed", file=sys.stderr)
            return 1
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layers.per_layer(tracer, wl, len(rounds)).items()}
        print(f"# traced {wl.name}: rounds={len(rounds)} "
              + " ".join([f"{k}={med(k):.6g}" for k in sorted(rounds[0].times)]
                         + [f"{k}={v:.6g}" for k, v in once_times] + raw))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "fit_s": {"value": med("fit_s"), "unit": "s"},
            "predict_s": {"value": med("predict_s"), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        if all(r.quality for r in rounds):
            for key in ("var_auc", "group_auc"):
                metrics[key] = {"value": med(key, "quality"), "unit": "1"}
        # figures printed for reading but not compared: fit_2t_s exists on
        # one workload only, coef_mse varies too much from draw to draw, and
        # the wall-clock times move with the machine's speed
        extra = [f"{k}={med(k):.6g}" for k in sorted(rounds[0].times)
                 if k not in metrics] + [f"{k}={v:.6g}" for k, v in once_times]
        if all(r.quality for r in rounds):
            extra.append(f"coef_mse={med('coef_mse', 'quality'):.6g}")
        print(f"# {wl.name}: rounds={len(rounds)} " + " ".join(extra + raw))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
