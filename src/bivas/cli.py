"""Command-line front end: fit, multifit, simulate, evaluate, predict, report.

Exit codes: 0 on success, 1 on validation errors (bad values, shapes,
rank-deficient covariates), 2 on IO and usage errors (missing flags or
files, files that do not decode as text or as JSON).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as bio
from .designs import GroupedDesign
from .exceptions import (
    BivasError,
    DegenerateLabels,
    InvalidCount,
    InvalidThreshold,
    NonNumeric,
)
from .grid import aggregate, make_pi_grid, predict, run_grid, select
from .group_fit import EmOptions
from .metrics import auc, coef_mse, fdr_power
from .simulate import SimConfig, gen_multitask, simulate_dataset


def _fit_settings(args) -> EmOptions:
    """Check the fit flags before any data is read or written, and
    return the EM options."""
    if not 0.0 < args.fdr < 1.0:
        raise InvalidThreshold(f"--fdr must be in (0, 1), got {args.fdr}")
    if args.max_iter < 1:
        raise InvalidCount(f"--max-iter must be >= 1, got {args.max_iter}")
    if not args.tol > 0.0:
        raise BivasError(f"--tol must be > 0, got {args.tol}")
    if args.grid_size < 1:
        raise InvalidCount(f"grid size must be >= 1, got {args.grid_size}")
    if args.threads < 1:
        raise InvalidCount(f"threads must be >= 1, got {args.threads}")
    return EmOptions(max_iter=args.max_iter, rel_tol=args.tol)


def _add_fit_flags(sub):
    sub.add_argument("--grid-size", type=int, default=20,
                     help="number of group-sparsity grid points (default 20)")
    sub.add_argument("--threads", type=int, default=1,
                     help="no effect: the grid runs in one thread; kept for "
                          "existing scripts, and checked >= 1 (default 1)")
    sub.add_argument("--fdr", type=float, default=0.05,
                     help="local fdr selection threshold (default 0.05)")
    sub.add_argument("--tol", type=float, default=1e-5,
                     help="relative bound change between kept EM steps that "
                          "declares convergence (default 1e-5)")
    sub.add_argument("--max-iter", type=int, default=200,
                     help="coordinate sweeps per grid point, those of "
                          "rejected extrapolations included (default 200)")
    sub.add_argument("--out", default=".", help="output directory")


def _fit_and_write(args, data, em_options, **options) -> int:
    """Fit the grid on either container and write its artifacts to
    ``args.out``; ``options`` go into model.json after the fit flags."""
    gridfit = run_grid(data, make_pi_grid(data.K, args.grid_size), em_options)
    os.makedirs(args.out, exist_ok=True)
    summary = aggregate(gridfit)
    report = select(summary, args.fdr)
    options = {"grid_size": args.grid_size, "fdr": args.fdr, "tol": args.tol,
               "max_iter": args.max_iter, **options}
    bio.write_json(os.path.join(args.out, "model.json"),
                   bio.model_to_dict(gridfit, summary, data, options))
    bio.write_json(os.path.join(args.out, "selection.json"),
                   bio.selection_to_dict(report, summary, data))
    if not gridfit.multitask:
        bio.write_posterior_csv(os.path.join(args.out, "posterior.csv"),
                                summary, data)
        bio.write_groups_csv(os.path.join(args.out, "groups.csv"),
                             summary, data)
    return 0


def cmd_fit(args) -> int:
    em_options = _fit_settings(args)
    design = bio.load_design(args.data, args.groups, response=args.response,
                             standardize=args.standardize)
    return _fit_and_write(args, design, em_options,
                          standardize=bool(args.standardize),
                          response=args.response)


def cmd_multifit(args) -> int:
    em_options = _fit_settings(args)
    data = bio.load_multitask(args.task_data, response=args.response)
    return _fit_and_write(args, data, em_options,
                          response=args.response, tasks=len(args.task_data))


def _simulate_settings(args) -> list[int]:
    """Check the simulate flags before ``--out`` is created (SimConfig's
    own checks raise ValueErrors, and later); returns the sample sizes."""
    try:
        sizes = [int(v) for v in str(args.n).split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 2:
        raise BivasError(f"--n must be integers >= 2, got {args.n!r}")
    if args.k_groups < 1:
        raise InvalidCount(f"--k-groups must be >= 1, got {args.k_groups}")
    if len(sizes) == 1 and (args.p < 1 or args.p % args.k_groups):
        raise BivasError(f"--p must be a positive multiple of --k-groups, "
                         f"got {args.p}")
    for flag, value, ok, bounds in (
            ("--rho", args.rho, -1.0 < args.rho < 1.0, "(-1, 1)"),
            ("--snr", args.snr, 0.0 < args.snr < math.inf, "(0, inf)"),
            ("--pi", args.pi, 0.0 <= args.pi <= 1.0, "[0, 1]"),
            ("--alpha", args.alpha, 0.0 <= args.alpha <= 1.0, "[0, 1]")):
        if not ok:
            raise BivasError(f"{flag} must lie in {bounds}, got {value}")
    return sizes


def cmd_simulate(args) -> int:
    sizes = _simulate_settings(args)
    os.makedirs(args.out, exist_ok=True)
    if len(sizes) > 1:
        cfg = SimConfig(n=sizes, p=args.k_groups, K=args.k_groups,
                        rho=args.rho, pi_true=args.pi, alpha_true=args.alpha,
                        snr=args.snr, seed=args.seed)
        data, truth = gen_multitask(cfg)
        for j in range(data.L):
            d = GroupedDesign(data.y[j], data.Z[j], data.X[j],
                              np.arange(data.K),
                              predictor_names=data.predictor_names)
            bio.write_design_csv(os.path.join(args.out, f"task{j}.csv"), d)
        bio.write_json(os.path.join(args.out, "truth.json"),
                       bio.truth_to_dict(truth, {"tasks": data.L}))
    else:
        cfg = SimConfig(n=sizes[0], p=args.p, K=args.k_groups, rho=args.rho,
                        pi_true=args.pi, alpha_true=args.alpha, snr=args.snr,
                        seed=args.seed)
        design, truth = simulate_dataset(cfg)
        bio.write_design_csv(os.path.join(args.out, "data.csv"), design)
        bio.write_group_map(os.path.join(args.out, "groups.csv"), design)
        bio.write_json(os.path.join(args.out, "truth.json"),
                       bio.truth_to_dict(truth, {
                           "group_of": design.group_of.tolist(),
                           "predictors": design.predictor_names,
                       }))
    return 0


def _align_predictors(table, names, data_path):
    """Reorder the table's predictor columns to the model's order; a model
    predictor the table lacks fails, naming the first one."""
    if table.predictor_names == names:
        return table.X
    column = {nm: j for j, nm in enumerate(table.predictor_names)}
    lacking = next((nm for nm in names if nm not in column), None)
    if lacking is not None:
        raise BivasError(f"{data_path}: no predictor column {lacking!r}, "
                         f"which the model needs")
    return table.X[:, [column[nm] for nm in names]]


def cmd_predict(args) -> int:
    model = bio.read_model(args.model)
    table = bio.read_design_table(args.data, args.groups,
                                  response=args.response,
                                  require_response=False)
    # a matrix product rounds by the layout of its operands, and a design
    # holds its columns in Fortran order: predict from the same layout
    X = np.array(_align_predictors(table, model["predictors"], args.data),
                 order="F")
    std = model.get("standardize")
    if std is not None:
        X -= np.asarray(std["center"])
        X /= np.asarray(std["scale"])
    yhat = predict(bio.summary_from_model(model), np.asfortranarray(table.Z),
                   X, task=args.task)
    bio.write_predictions_csv(args.out, yhat)
    return 0


# metrics that `evaluate` leaves empty when a replicate's truth makes them
# undefined; an empty cell in any other column is a broken file
OPTIONAL_METRICS = ("auc", "group_auc")


def _defined_auc(scores, labels):
    """The AUC, or None (an empty cell) when the labels are all of one kind."""
    try:
        return auc(scores, labels)
    except DegenerateLabels:
        return None


def cmd_evaluate(args) -> int:
    model = bio.read_model(os.path.join(args.fit, "model.json"))
    summary = bio.summary_from_model(model)
    selection_path = os.path.join(args.fit, "selection.json")
    selection = bio.read_json(selection_path, ("variables",))
    name_idx = {nm: j for j, nm in enumerate(model["predictors"])}
    tasks = len(summary.params.omega) if summary.multitask else 0
    selected = np.zeros(summary.group_of.shape, bool)
    for v in selection["variables"]:
        bio.require_keys(selection_path, v, ("predictor", "task")
                         if summary.multitask else ("predictor",), "variables[].")
        if v["predictor"] not in name_idx:
            raise BivasError(f"{selection_path}: predictor {v['predictor']!r} "
                             "is not in model.json")
        task = v.get("task")
        if summary.multitask and (type(task) is not int or not 0 <= task < tasks):
            raise BivasError(f"{selection_path}: task {task!r} is not an "
                             f"integer in [0, {tasks})")
        j = name_idx[v["predictor"]]
        selected[(j, task) if summary.multitask else j] = True
    truth = bio.read_json(args.truth, ("coef", "eta"))
    want = (summary.group_of.shape, summary.pi_tilde.shape)
    try:
        coef, eta = (np.asarray(truth[key], float) for key in ("coef", "eta"))
        if (coef.shape, eta.shape) != want:
            raise ValueError(f"want coef of shape {want[0]} and eta of shape "
                             f"{want[1]}; got {coef.shape} and {eta.shape}")
    except (TypeError, ValueError) as exc:
        raise BivasError(f"{args.truth}: malformed truth: {exc}") from None
    pi_tilde, effect = summary.pi_tilde, summary.effect
    nonzero = coef != 0.0
    fdr, power = fdr_power(selected, nonzero)
    row = {
        "auc": _defined_auc(pi_tilde[summary.group_of] * summary.alpha_tilde,
                            nonzero),
        "group_auc": _defined_auc(pi_tilde, eta > 0),
        "fdr": fdr,
        "power": power,
        "mse": coef_mse(effect, coef),
    }
    if summary.multitask:
        for j in range(coef.shape[1]):
            row[f"mse_task{j}"] = coef_mse(effect[:, j], coef[:, j])
    bio.append_metrics_csv(args.out, row)
    return 0


def cmd_report(args) -> int:
    """Aggregate replicate metrics files into a mean/sd table.  An empty
    AUC cell (undefined for its replicate) is skipped, so ``n`` counts the
    rows that hold a value."""
    import csv as _csv

    values: dict[str, list[float]] = {}
    order: list[str] = []
    for path in args.metrics:
        with open(path, newline="") as fh, bio.decoding(path):
            reader = _csv.DictReader(fh)
            for row in reader:
                for key, val in row.items():
                    if key not in values:
                        values[key] = []
                        order.append(key)
                    if val == "" and key in OPTIONAL_METRICS:
                        continue
                    try:
                        values[key].append(float(val))
                    except (TypeError, ValueError):
                        raise NonNumeric(
                            f"{path}: line {reader.line_num}, column {key!r} "
                            f"holds {val!r}, not a number") from None
    with open(args.out, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["metric", "mean", "sd", "n"])
        for key in order:
            arr = np.asarray(values[key])
            if arr.size == 0:
                writer.writerow([key, "", "", 0])
                continue
            writer.writerow([key, repr(float(arr.mean())),
                             repr(float(arr.std(ddof=1) if arr.size > 1 else 0.0)),
                             arr.size])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivas",
        description="Bi-level variable selection for grouped and "
                    "multi-task regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the grouped model")
    fit.add_argument("--data", required=True, help="CSV/TSV data table")
    fit.add_argument("--groups", default=None,
                     help="sidecar group map (omit if the table has an "
                          "inline group row)")
    fit.add_argument("--response", default="y")
    fit.add_argument("--standardize", action="store_true",
                     help="center and scale predictor columns before fitting")
    _add_fit_flags(fit)
    fit.set_defaults(func=cmd_fit)

    mfit = sub.add_parser("multifit", help="fit the multi-task model")
    mfit.add_argument("--task-data", action="append", required=True,
                      help="data table for one task; repeat per task")
    mfit.add_argument("--response", default="y")
    _add_fit_flags(mfit)
    mfit.set_defaults(func=cmd_multifit)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim.add_argument("--n", required=True,
                     help="sample size, or comma list for multi-task tasks")
    sim.add_argument("--p", type=int, default=100,
                     help="predictor count (grouped model)")
    sim.add_argument("--k-groups", type=int, default=10, dest="k_groups",
                     help="group count (or shared feature count)")
    sim.add_argument("--rho", type=float, default=0.0)
    sim.add_argument("--pi", type=float, default=0.1)
    sim.add_argument("--alpha", type=float, default=0.4)
    sim.add_argument("--snr", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")
    sim.set_defaults(func=cmd_simulate)

    pred = sub.add_parser("predict", help="predict on new data")
    pred.add_argument("--model", required=True, help="model.json from fit")
    pred.add_argument("--data", required=True)
    pred.add_argument("--groups", default=None)
    pred.add_argument("--response", default="y")
    pred.add_argument("--task", type=int, default=None)
    pred.add_argument("--out", default="predictions.csv")
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="score a fit against truth.json")
    ev.add_argument("--fit", required=True, help="directory written by fit")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", default="metrics.csv")
    ev.set_defaults(func=cmd_evaluate)

    rep = sub.add_parser("report", help="mean/sd table from metrics files")
    rep.add_argument("--metrics", nargs="+", required=True)
    rep.add_argument("--out", default="report.csv")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BivasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
