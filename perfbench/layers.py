"""The traced run: where wrappers go, and the per-layer metrics.

Each wrapper sits at the name its caller looks the function up by, so the
program runs unchanged apart from one span per call.  Nothing
per-coefficient is wrapped: the finest spans are whole E-step sweeps.
"""
from __future__ import annotations

import os
import statistics

import numpy as np

import reference as ref
from bivas import cli, designs, grid, group_fit, io, multitask_fit

# (module or class, attribute, span name)
PATCHES = [
    (cli, "run_grid", "grid.run_grid"),
    (cli, "aggregate", "grid.aggregate"),
    (cli, "make_pi_grid", "grid.make_pi_grid"),
    (cli, "select", "grid.select"),
    (grid, "run_grid", "grid.run_grid"),
    (grid, "aggregate", "grid.aggregate"),
    (grid, "make_pi_grid", "grid.make_pi_grid"),
    (grid, "predict", "grid.predict"),
    (grid, "em_fit", "group_fit.em_fit"),
    (grid, "mt_em_fit", "multitask_fit.mt_em_fit"),
    (group_fit, "estep_sweep", "group_fit.estep_sweep"),
    (group_fit, "mstep_update", "group_fit.mstep_update"),
    (group_fit, "elbo", "group_fit.elbo"),
    (group_fit, "refresh_residual", "designs.refresh_residual"),
    (multitask_fit, "mt_estep_sweep", "multitask_fit.mt_estep_sweep"),
    (multitask_fit, "mt_mstep_update", "multitask_fit.mt_mstep_update"),
    (multitask_fit, "mt_elbo", "multitask_fit.mt_elbo"),
    (multitask_fit, "mt_refresh_residual", "designs.mt_refresh_residual"),
    (designs.GroupedDesign, "__init__", "designs.GroupedDesign"),
    (designs.MultiTaskData, "__init__", "designs.MultiTaskData"),
    (io, "validate_design", "designs.validate_design"),
    (io, "load_design", "io.load_design"),
    (io, "read_json", "io.read_json"),
    (io, "model_to_dict", "io.model_to_dict"),
    (io, "selection_to_dict", "io.selection_to_dict"),
]
WRITERS = ["write_json", "write_posterior_csv", "write_groups_csv",
           "write_predictions_csv"]
BUILDS = ("designs.GroupedDesign", "designs.MultiTaskData",
          "designs.validate_design")
MODULES = ("cli", "io", "designs", "grid", "group_fit", "multitask_fit")


def install(tracer):
    """Install every wrapper; returns a function that removes them."""
    undo = [tracer.patch(owner, attr, name) for owner, attr, name in PATCHES]
    # artifact writers keep the size of the file they wrote
    for attr in WRITERS:
        undo.append(tracer.patch(io, attr, f"io.{attr}", note=_file_size))

    def remove():
        for fn in reversed(undo):
            fn()
    return remove


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _dur(spans):
    return [s.end - s.start for s in spans]


def _med(values, scale=1.0):
    """Median times ``scale``; 0.0 for a layer that saw no calls (its
    ``<module>.calls`` count then reads 0 too)."""
    return statistics.median(values) * scale if values else 0.0


def _threads(span):
    return span.kwargs.get("threads", 1)


def per_layer(tracer, workload, rounds: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    t = tracer
    rounds = max(1, rounds)
    out = {}

    # cli
    out["cli.fit_self_s"] = (_med([t.self_time(i) for i, s in enumerate(t.spans)
                                   if s.name == "cli.fit"]), "s")
    out["cli.predict_self_s"] = (_med([t.self_time(i) for i, s in enumerate(t.spans)
                                       if s.name == "cli.predict"]), "s")

    # io
    loads = [i for i, s in enumerate(t.spans) if s.name == "io.load_design"]
    load_self = [t.self_time(i) for i in loads]
    out["io.load_design_s"] = (_med(load_self), "s")
    cells = workload.table_cells * len(loads)
    out["io.cells_per_s"] = (cells / sum(load_self) if load_self else 0.0, "1/s")
    writes = [s for s in t.spans if s.name in {f"io.{w}" for w in WRITERS}]
    out["io.write_s"] = (sum(_dur(writes)) / rounds, "s")
    out["io.bytes_written"] = (sum(int(s.result) for s in writes) / rounds, "bytes")
    out["io.read_json_s"] = (_med(_dur(t.named("io.read_json"))), "s")

    # designs: a build span nested in another build span is not counted twice
    builds = [s for s in t.spans if s.name in BUILDS
              and (s.parent is None or t.spans[s.parent].name not in BUILDS)]
    out["designs.build_s"] = (_med(_dur(builds)), "s")
    out["designs.refresh_residual_ms"] = (_med(_dur(t.named("designs.refresh_residual")), 1e3), "ms")
    out["designs.mt_refresh_residual_ms"] = (_med(_dur(t.named("designs.mt_refresh_residual")), 1e3), "ms")

    # the two EM engines
    fits = {1: [], 2: []}
    for i, s in enumerate(t.spans):
        if s.name == "grid.run_grid":
            fits.setdefault(_threads(s), []).append(i)
    for mod, fit, prefix in (("group_fit", "em_fit", ""), ("multitask_fit", "mt_em_fit", "mt_")):
        sweeps = _dur(t.named(f"{mod}.{prefix}estep_sweep"))
        runs = t.named(f"{mod}.{fit}")
        out[f"{mod}.estep_sweep_ms"] = (_med(sweeps, 1e3), "ms")
        out[f"{mod}.coef_updates_per_s"] = (
            workload.coefs_per_sweep * len(sweeps) / sum(sweeps) if sweeps else 0.0, "1/s")
        out[f"{mod}.mstep_update_ms"] = (_med(_dur(t.named(f"{mod}.{prefix}mstep_update")), 1e3), "ms")
        out[f"{mod}.elbo_ms"] = (_med(_dur(t.named(f"{mod}.{prefix}elbo")), 1e3), "ms")
        out[f"{mod}.em_iters"] = (float(np.mean([s.result.iterations for s in runs])) if runs else 0.0, "count")
        grids = [t.spans[i] for i in fits[1] if t.within(i, f"{mod}.{fit}")]
        out[f"{mod}.unconverged"] = (
            float(np.mean([sum(not r.converged for r in g.result.results) for g in grids]))
            if grids else 0.0, "count")
        if mod == "group_fit":
            out["group_fit.em_fit_s_max"] = (_med([max(_dur(t.within(i, "group_fit.em_fit")))
                                                   for i in fits[1]
                                                   if t.within(i, "group_fit.em_fit")]), "s")
        else:
            out["multitask_fit.unconverged_weight"] = (
                float(np.mean([sum(w for w, r in zip(g.result.weights, g.result.results)
                                   if not r.converged) for g in grids]))
                if grids else 0.0, "share")

    # grid
    out["grid.run_grid_s"] = (_med(_dur([t.spans[i] for i in fits[1]])), "s")
    out["grid.run_grid_2t_s"] = (_med(_dur([t.spans[i] for i in fits[2]])), "s")
    out["grid.aggregate_ms"] = (_med(_dur(t.named("grid.aggregate")), 1e3), "ms")
    busy = []
    for i in fits[2]:
        span = t.spans[i]
        inner = t.within(i, "group_fit.em_fit") + t.within(i, "multitask_fit.mt_em_fit")
        busy.append(sum(_dur(inner)) / (2.0 * (span.end - span.start)))
    out["grid.pool_busy_share"] = (_med(busy), "share")
    out["grid.weight_ess"] = (_med([ref.ess(t.spans[i].result.weights) for i in fits[1]]), "count")

    for mod in MODULES:
        out[f"{mod}.calls"] = (sum(n for name, n in t.calls.items()
                                   if name.split(".")[0] == mod), "count")
    return out
