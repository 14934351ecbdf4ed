"""Bi-level variable selection for grouped and multi-task linear regression.

The model places spike-and-slab structure at two levels -- groups of
predictors and variables within groups -- and is fit by a variational EM
whose posterior factorizes hierarchically over groups.  Because the
group-sparsity prior is hard to pin down from one run, the fit is repeated
over a grid of prior values and the runs are averaged with weights
proportional to the exponentiated evidence lower bound.

Typical use::

    from bivas import simulate, make_pi_grid, run_grid, aggregate, select

    design, truth = simulate.simulate_dataset(simulate.SimConfig(
        n=500, p=1000, K=50, snr=2.0, seed=1))
    fit = run_grid(design, make_pi_grid(design.K, 20))
    summary = aggregate(fit)
    report = select(summary, threshold=0.05)
"""

from . import exceptions, metrics, oracle, simulate
from .designs import (
    GroupedDesign,
    ModelParams,
    MultiTaskData,
    MultiTaskParams,
    Posterior,
    VariationalState,
    refresh_residual,
    validate_design,
)
from .grid import (
    GridFit,
    PosteriorSummary,
    SelectionReport,
    aggregate,
    make_pi_grid,
    normalize_weights,
    predict,
    run_grid,
    select,
)
from .group_fit import (
    EmOptions,
    EmResult,
    elbo,
    em_fit,
    estep_sweep,
    initial_params,
    mstep_update,
)
from .multitask_fit import mt_em_fit

__version__ = "0.1.0"

__all__ = [
    "EmOptions",
    "EmResult",
    "GridFit",
    "GroupedDesign",
    "ModelParams",
    "MultiTaskData",
    "MultiTaskParams",
    "Posterior",
    "PosteriorSummary",
    "SelectionReport",
    "VariationalState",
    "aggregate",
    "elbo",
    "em_fit",
    "estep_sweep",
    "exceptions",
    "initial_params",
    "make_pi_grid",
    "metrics",
    "mstep_update",
    "mt_em_fit",
    "normalize_weights",
    "oracle",
    "predict",
    "refresh_residual",
    "run_grid",
    "select",
    "simulate",
    "validate_design",
]
