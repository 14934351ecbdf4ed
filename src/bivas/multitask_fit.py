"""Variational EM for multi-task regression with shared feature indicators.

Each of the K shared features carries one coefficient per task; the
group-level indicator couples all L tasks while slab means, variances and
noise levels stay task-specific.  A feature is a group with one member per
task, so the grouped engine (:mod:`bivas.group_fit`) fits this model, its
start, M-step and bound taking the tasks in turn; this module names its
steps for the multi-task model.  One task is a design of singleton groups.
"""
from __future__ import annotations

from .designs import (
    MultiTaskData,
    MultiTaskParams,
    Posterior,
    VariationalState,
    refresh_residual,
)
from .group_fit import (
    EmOptions,
    EmResult,
    _swept_fit_pass,
    elbo,
    estep_sweep,
    mstep_update,
    run_em,
)

# the engine's steps under this engine's names, so that mt_em_fit calls
# its own (a tracer can then time the two engines apart)
mt_estep_sweep = estep_sweep
mt_refresh_residual = refresh_residual
mt_mstep_update = mstep_update
mt_elbo = elbo


def mt_em_fit(data: MultiTaskData, init: MultiTaskParams,
              opts: EmOptions | None = None,
              start: Posterior | None = None) -> EmResult:
    """The grouped engine's loop (:func:`~bivas.group_fit.run_em`) over the
    multi-task steps, from the zero-mean start or a copy of the posterior
    ``start`` (:meth:`~bivas.designs.VariationalState.initial`); monotone
    bound trace."""
    return run_em(data, init, VariationalState.initial(data, init, start),
                  opts, mt_estep_sweep, _swept_fit_pass, mt_mstep_update,
                  mt_refresh_residual, mt_elbo)
