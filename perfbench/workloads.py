"""The benchmark's workloads: their inputs, timed operations and checks.

Every call into the program goes through a module attribute
(``grid.run_grid``, ``cli.main``, ...) so the traced run can replace it.
Checks and scores run outside the timed regions and use only
``reference``, never the program's own ``metrics`` or ``oracle``.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import inputs
import reference as ref
from bivas import cli, designs, grid

# the in-process prediction is sub-millisecond; its time is the median of
# this many calls
PREDICT_CALLS = 1001
# `bivas predict` runs this many times per cli-wide round, against one fit
PREDICT_COMMANDS = 2


# Every reported time is scaled to one reference speed of the machine, so
# that a stretch in which the shared host runs the process slower does not
# read as a slower program.  A fixed pure-Python loop is timed right before
# and right after each timed operation, and a time t measured between loop
# readings c0 and c1 is reported as t * REF_LOOP_S / ((c0 + c1) / 2):
# seconds at the speed at which the loop takes REF_LOOP_S, about this
# machine's usual speed (README.md, "Timings at reference speed").
REF_LOOP_N = 3_500_000
REF_LOOP_S = 0.23


def reference_loop() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds, loop_before, loop_after):
    return seconds * REF_LOOP_S / ((loop_before + loop_after) / 2)


@dataclass
class Round:
    """One round's timing samples, scores and operation tally."""

    times: dict = field(default_factory=dict)     # at reference speed
    raw: dict = field(default_factory=dict)       # wall clock
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    loop: float = None      # the latest reference-loop reading

    def record(self, key, fn, *args, **kwargs):
        """Run ``fn``, which returns (result, seconds), between two
        reference-loop readings (the first shared with the previous
        record); keep its seconds under ``raw[key]`` and at reference
        speed under ``times[key]``; return the result."""
        before = self.loop if self.loop is not None else reference_loop()
        out, seconds = fn(*args, **kwargs)
        self.loop = reference_loop()
        self.raw[key] = seconds
        self.times[key] = at_reference_speed(seconds, before, self.loop)
        return out

    def op(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def expect(self, ok: bool, message: str):
        if not ok:
            self.errors.append(message)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _median_call(calls, fn, *args):
    """The last result of ``calls`` calls and their median time."""
    times = []
    for _ in range(calls):
        out, took = _timed(fn, *args)
        times.append(took)
    return out, statistics.median(times)


def _scores(pi_tilde, alpha_tilde, effect, coef, active, group_of, rnd,
            floors):
    """var_auc, group_auc and coef_mse against the generated truth."""
    if group_of is None:
        var_scores = np.asarray(pi_tilde)[:, None] * alpha_tilde
    else:
        var_scores = np.asarray(pi_tilde)[group_of] * alpha_tilde
    q = {
        "var_auc": ref.rank_auc(var_scores, np.asarray(coef) != 0.0),
        "group_auc": ref.rank_auc(pi_tilde, active),
        "coef_mse": float(np.mean((np.asarray(effect) - coef) ** 2)),
    }
    for name, floor in floors.items():
        rnd.expect(q[name] >= floor, f"{name} {q[name]:.4f} below floor {floor}")
    rnd.quality = q


def _point_ops(gf, rnd):
    """One operation per grid point: it converged and its bound never fell."""
    for res in gf.results:
        rnd.op(bool(res.converged) and ref.monotone(res.elbo_trace))


def _check_grid(gf, summary, group_of, rnd, tag):
    """The grid-level output checks."""
    elbos = [float(res.elbo) for res in gf.results]
    w = ref.grid_weights(elbos)
    rnd.expect(ref.close(gf.elbos, elbos, 0.0), f"{tag}: grid bounds differ from the runs' bounds")
    rnd.expect(ref.close(gf.weights, w, 1e-12), f"{tag}: weights differ from exp(elbo - max) / sum")
    for name, attr in (("pi_tilde", "pi_k"), ("alpha_tilde", "alpha_jk"), ("mu_tilde", "mu")):
        expect = ref.weighted_average(w, [getattr(r.state, attr) for r in gf.results])
        rnd.expect(ref.close(getattr(summary, name), expect, 1e-10),
                   f"{tag}: {name} differs from the weight-averaged states")
    effect = ref.effect_size(summary.pi_tilde, summary.alpha_tilde, summary.mu_tilde, group_of)
    rnd.expect(ref.close(summary.effect, effect, 1e-12), f"{tag}: effect differs from pi~ alpha~ mu~")


def _check_same(a_fit, a_sum, b_fit, b_sum, rnd):
    """threads=2 reproduces threads=1."""
    pairs = [(a_fit.elbos, b_fit.elbos), (a_fit.weights, b_fit.weights)]
    pairs += [(getattr(a_sum, f), getattr(b_sum, f))
              for f in ("pi_tilde", "alpha_tilde", "mu_tilde", "effect")]
    rnd.expect(all(ref.close(b, a, 1e-12) for a, b in pairs),
               "threads=2 result differs from threads=1")


class Workload:
    """A workload draws its inputs in __init__ (untimed); ``build`` returns
    the seconds spent building the program's data object, ``warm_up`` runs
    and checks what a run does once, and ``run_round`` runs and checks one
    round of operations."""

    name = ""
    expected = ()            # span names the traced run must see
    coefs_per_sweep = 0      # coefficient updates in one E-step sweep
    table_cells = 0          # cells one load_design call parses

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        # the traced run swaps in Tracer.call to open spans of its own
        self.span = lambda name, fn, *args: fn(*args)

    def build(self) -> float:
        return 0.0

    def warm_up(self) -> Round | None:
        """Operations run once, before the timed rounds."""
        return None

    def run_round(self) -> Round:
        raise NotImplementedError


class GroupedDesk(Workload):
    """In-process grid on the desk-scale grouped shape.

    The threads=2 grid runs once, before the timed rounds, and also warms
    the process up; each round runs the threads=1 grid and checks it
    against the threads=2 one.
    """

    name = "grouped-desk"
    shape = dict(n=500, p=1000, K=50, rho=0.0, pi=0.1, alpha=0.4, snr=2.0)
    h = 20
    floors = {"var_auc": 0.95, "group_auc": 0.9}
    expected = ("designs.GroupedDesign", "grid.run_grid", "grid.aggregate",
                "grid.predict", "group_fit.em_fit", "group_fit.estep_sweep",
                "group_fit.mstep_update", "group_fit.elbo",
                "designs.refresh_residual")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inp = inputs.grouped(seed, **self.shape)
        self.coefs_per_sweep = self.shape["p"]
        self.design = None
        self.fit_2t = None

    def build(self):
        inp = self.inp
        self.design, took = _timed(designs.GroupedDesign, inp.y, inp.Z, inp.X, inp.group_of)
        return took

    def _fit(self, threads):
        t0 = time.perf_counter()
        gf = grid.run_grid(self.design, grid.make_pi_grid(self.design.K, self.h),
                           threads=threads)
        summary = grid.aggregate(gf)
        return (gf, summary), time.perf_counter() - t0

    def warm_up(self):
        rnd = Round()
        self.fit_2t = rnd.record("fit_2t_s", self._fit, 2)
        _point_ops(self.fit_2t[0], rnd)
        _check_grid(*self.fit_2t, self.inp.group_of, rnd, "threads=2")
        return rnd

    def run_round(self):
        rnd = Round()
        inp = self.inp
        gf, summary = rnd.record("fit_s", self._fit, 1)
        yhat = rnd.record("predict_s", _median_call, PREDICT_CALLS,
                          grid.predict, summary, inp.Z, inp.X)

        _point_ops(gf, rnd)
        _check_grid(gf, summary, inp.group_of, rnd, "threads=1")
        _check_same(gf, summary, *self.fit_2t, rnd)
        expect = inp.Z @ summary.params.omega + inp.X @ summary.effect
        ok = ref.close(yhat, expect, 1e-10)
        rnd.op(ok)
        rnd.expect(ok, "predict differs from Z omega + X effect")
        _scores(summary.pi_tilde, summary.alpha_tilde, summary.effect,
                inp.coef, inp.active_groups, inp.group_of, rnd, self.floors)
        return rnd


class MultitaskWide(Workload):
    """In-process multi-task grid at threads=1, three tasks with p > n.

    The draw is fixed at DATA_SEED whatever the run's seed: at this draw the
    program leaves one grid point at max_iter, and a failure the benchmark
    keeps must repeat in every run.
    """

    name = "multitask-wide"
    DATA_SEED = 8000
    sizes = (200, 170, 130)
    shape = dict(K=600, rho=0.0, pi=0.05, alpha=0.8, snr=2.0)
    h = 10
    floors = {"var_auc": 0.9, "group_auc": 0.9}
    expected = ("designs.MultiTaskData", "grid.run_grid", "grid.aggregate",
                "grid.predict", "multitask_fit.mt_em_fit",
                "multitask_fit.mt_estep_sweep", "multitask_fit.mt_mstep_update",
                "multitask_fit.mt_elbo", "designs.mt_refresh_residual")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tasks, self.coef, self.active = inputs.multitask(
            self.DATA_SEED, sizes=self.sizes, **self.shape)
        self.coefs_per_sweep = self.shape["K"] * len(self.sizes)
        self.data = None

    def build(self):
        triples = [(t.y, t.Z, t.X) for t in self.tasks]
        self.data, took = _timed(designs.MultiTaskData, triples)
        return took

    def _fit(self, pis):
        gf = grid.run_grid(self.data, pis, threads=1)
        return gf, grid.aggregate(gf)

    def _predict_all(self, summary):
        return [grid.predict(summary, t.Z, t.X, task=j)
                for j, t in enumerate(self.tasks)]

    def run_round(self):
        rnd = Round()
        pis = grid.make_pi_grid(self.data.K, self.h)
        gf, summary = rnd.record("fit_s", _timed, self._fit, pis)
        yhat = rnd.record("predict_s", _median_call, PREDICT_CALLS,
                          self._predict_all, summary)

        _point_ops(gf, rnd)
        _check_grid(gf, summary, None, rnd, "threads=1")
        ok = all(ref.close(yh, t.Z @ summary.params.omega[j] + t.X @ summary.effect[:, j], 1e-10)
                 for j, (yh, t) in enumerate(zip(yhat, self.tasks)))
        rnd.op(ok)
        rnd.expect(ok, "predict differs from Z omega + X effect")
        _scores(summary.pi_tilde, summary.alpha_tilde, summary.effect,
                self.coef, self.active, None, rnd, self.floors)
        return rnd


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class CliWide(Workload):
    """``bivas fit --threads 1`` and ``bivas predict`` on a CSV table.

    The draw is fixed at DATA_SEED whatever the run's seed: on some draws of
    this shape the top grid points take 50 or more EM iterations instead of
    about 7, which doubles the grid's time from one seed to the next and
    would bury the table parsing this workload is for.
    """

    name = "cli-wide"
    DATA_SEED = 1
    shape = dict(n=400, p=4000, K=8, rho=0.5, pi=0.3, alpha=0.3, snr=2.0)
    h = 10
    floors = {"var_auc": 0.7, "group_auc": 0.9}
    expected = ("cli.fit", "cli.predict", "io.load_design", "io.read_json",
                "io.write_json", "io.write_posterior_csv", "io.write_groups_csv",
                "io.write_predictions_csv", "designs.GroupedDesign",
                "grid.run_grid", "grid.aggregate", "group_fit.em_fit",
                "group_fit.estep_sweep", "group_fit.mstep_update",
                "group_fit.elbo", "designs.refresh_residual")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inp = inp = inputs.grouped(self.DATA_SEED, **self.shape)
        self.coefs_per_sweep = self.shape["p"]
        self.table_cells = self.shape["n"] * (self.shape["p"] + 1)
        self.data = os.path.join(workdir, "data.csv")
        self.groups = os.path.join(workdir, "groups.csv")
        self.names = inputs.write_table(self.data, inp)
        inputs.write_group_map(self.groups, self.names, inp.group_of)
        # `bivas fit` looks run_grid up on the cli module; a pass-through
        # there keeps the GridFit, so that the per-point runs, which
        # model.json does not hold, can be checked after the command
        self.kept = None
        inner = cli.run_grid

        def keep(*args, **kwargs):
            self.kept = inner(*args, **kwargs)
            return self.kept
        cli.run_grid = keep

    @staticmethod
    def _main(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2

    def _fit(self, out):
        return self.span("cli.fit", self._main, [
            "fit", "--data", self.data, "--groups", self.groups,
            "--standardize", "--grid-size", str(self.h), "--threads", "1",
            "--out", out])

    def run_round(self):
        rnd = Round()
        out = os.path.join(self.workdir, "fit")
        pred = os.path.join(self.workdir, "predictions.csv")
        shutil.rmtree(out, ignore_errors=True)
        code = rnd.record("fit_s", _timed, self._fit, out)
        rnd.expect(code == 0, f"fit exited {code}")
        rnd.op(code == 0)
        model_path = os.path.join(out, "model.json")
        times, raw = [], []
        for _ in range(PREDICT_COMMANDS):
            if os.path.exists(pred):
                os.remove(pred)
            pcode = rnd.record("predict_s", _timed, self.span, "cli.predict", self._main,
                               ["predict", "--model", model_path, "--data", self.data,
                                "--groups", self.groups, "--out", pred])
            times.append(rnd.times["predict_s"])
            raw.append(rnd.raw["predict_s"])
            rnd.expect(pcode == 0, f"predict exited {pcode}")
            rnd.op(pcode == 0)
        rnd.times["predict_s"] = statistics.median(times)
        rnd.raw["predict_s"] = statistics.median(raw)
        model = _read_json(model_path) if code == 0 else None
        gf, self.kept = self.kept, None
        if gf is None:                  # the grid never ran: all its points fail
            for _ in range(self.h):
                rnd.op(False)
        else:
            _point_ops(gf, rnd)
        if model is None:
            return rnd
        self._check_fit(out, model, rnd)
        if gf is not None:
            self._check_points(gf, model, rnd)
        if pcode == 0:
            self._check_predictions(model, pred, rnd)
        post = model["posterior"]
        scale = np.asarray(model["standardize"]["scale"], float)
        _scores(np.asarray(post["pi_tilde"]), np.asarray(post["alpha_tilde"]),
                np.asarray(post["effect"]) / scale, self.inp.coef,
                self.inp.active_groups, self.inp.group_of, rnd, self.floors)
        return rnd

    def _check_fit(self, out, model, rnd):
        tag = os.path.basename(out)
        elbos = [row["elbo"] for row in model["grid"]]
        rnd.expect(ref.close([row["weight"] for row in model["grid"]],
                             ref.grid_weights(elbos), 1e-12),
                   f"{tag}: weights differ from exp(elbo - max) / sum")
        X = self.inp.X
        std = model["standardize"]
        rnd.expect(ref.close(std["center"], X.mean(axis=0), 1e-12)
                   and ref.close(std["scale"], X.std(axis=0), 1e-12),
                   f"{tag}: standardization differs from the column mean and sd")

        selection = _read_json(os.path.join(out, "selection.json"))
        thr = selection["threshold"]
        header, rows = _read_csv(os.path.join(out, "posterior.csv"))
        col = header.index("var_fdr")
        want_vars = [r[0] for r in rows if float(r[col]) < thr]
        header, rows = _read_csv(os.path.join(out, "groups.csv"))
        col = header.index("fdr")
        want_groups = [r[0] for r in rows if float(r[col]) < thr]
        rnd.expect([v["predictor"] for v in selection["variables"]] == want_vars
                   and [g["group"] for g in selection["groups"]] == want_groups,
                   f"{tag}: selection.json disagrees with the fdr columns")

    def _check_points(self, gf, model, rnd):
        """model.json's grid table and posterior against the kept runs."""
        post = model["posterior"]
        summary = SimpleNamespace(**{k: np.asarray(post[k], float) for k in
                                     ("pi_tilde", "alpha_tilde", "mu_tilde", "effect")})
        _check_grid(gf, summary, np.asarray(model["group_of"]), rnd, "fit")
        rows = model["grid"]
        rnd.expect(ref.close([row["elbo"] for row in rows], gf.elbos, 0.0)
                   and [row["converged"] for row in rows]
                   == [bool(r.converged) for r in gf.results],
                   "fit: model.json grid table differs from the runs")

    def _check_predictions(self, model, path, rnd):
        header, rows = _read_csv(path)
        got = np.array([float(r[0]) for r in rows])
        std = model["standardize"]
        Xs = (self.inp.X - np.asarray(std["center"])) / np.asarray(std["scale"])
        order = [self.names.index(nm) for nm in model["predictors"]]
        omega = np.asarray(model["params"]["omega"], float)
        expect = self.inp.Z @ omega + Xs[:, order] @ np.asarray(model["posterior"]["effect"])
        rnd.expect(model["covariates"] == ["intercept"] and ref.close(got, expect, 1e-10),
                   "predictions.csv differs from Z omega + standardized X effect")


WORKLOADS = {w.name: w for w in (GroupedDesk, MultitaskWide, CliWide)}
