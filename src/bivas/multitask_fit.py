"""Variational EM for multi-task regression with shared feature indicators.

Each of the K shared features carries one coefficient per task; the
group-level indicator couples all L tasks while slab means, variances and
noise levels stay task-specific.  A feature is a group with one member per
task, so this engine runs the grouped engine's sweep, fit pass, refresh
and state, and keeps only its per-task M-step and bound.  With a single
task it is the grouped engine on a design of singleton groups.
"""
from __future__ import annotations

from functools import partial

from .designs import (
    GroupFits,
    MultiTaskData,
    MultiTaskParams,
    VariationalState,
    fit_pass,
    refresh_residual,
)
from .group_fit import (
    EmOptions,
    EmResult,
    _indicator_kl,
    _moments,
    _ols_start,
    _prior_means,
    _task_bound,
    _task_mstep,
    estep_sweep,
    run_em,
)

# the engine's steps under their own names, so each engine's loop calls
# its own (a tracer can then time the two engines apart)
mt_estep_sweep = estep_sweep
mt_refresh_residual = refresh_residual


def mt_initial_params(data: MultiTaskData, pi: float,
                      alpha: float = 0.1) -> MultiTaskParams:
    """The grouped engine's OLS start (:func:`~bivas.group_fit._ols_start`)
    in every task."""
    omega, sigma_e2, sigma_beta2 = zip(*(
        _ols_start(data.y[j], data.Z[j], partial(data.solve_z_gram, j),
                   data.xtx[:, j], pi, alpha) for j in range(data.L)))
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=list(omega))


def _task_moments(state: VariationalState):
    """Each task's column of the coefficient moments
    (:func:`~bivas.group_fit._moments`)."""
    moments = _moments(state, state.pi_k[:, None])
    return [[m[:, j] for m in moments] for j in range(state.mu.shape[1])]


def mt_elbo(state: VariationalState, data: MultiTaskData,
            params: MultiTaskParams, *, fits: GroupFits | None = None) -> float:
    """Multi-task evidence lower bound, evaluated from scratch: the grouped
    engine's per-task terms (:func:`~bivas.group_fit._task_bound`, with
    task j's fit X_j pw_j and cross term from ``fits``, the iteration's
    :func:`~bivas.designs.fit_pass`, run here when None) summed over
    tasks, plus the shared indicator KL terms."""
    fits = fit_pass(state, data) if fits is None else fits
    out = _indicator_kl(state, params)
    for j, moments in enumerate(_task_moments(state)):
        out += _task_bound(data.y[j], data.Z[j], fits.fit[j], data.xtx[:, j],
                           params.omega[j], params.sigma_e2[j],
                           params.sigma_beta2[j], moments, fits.cross[j])
    return out


def mt_mstep_update(state: VariationalState, data: MultiTaskData,
                    params: MultiTaskParams, opts: EmOptions, *,
                    fits: GroupFits | None = None) -> MultiTaskParams:
    """The grouped engine's per-task updates
    (:func:`~bivas.group_fit._task_mstep`, fit and cross term from
    ``fits`` as in :func:`mt_elbo`) in every task; the shared priors
    average over K*L (variable level) and K (group level) posterior
    probabilities."""
    fits = fit_pass(state, data) if fits is None else fits
    omega, sigma_e2, sigma_beta2 = zip(*(
        _task_mstep(data.y[j], data.Z[j], fits.fit[j],
                    partial(data.solve_z_gram, j), data.xtx[:, j], moments,
                    params.sigma_beta2[j], fits.cross[j])
        for j, moments in enumerate(_task_moments(state))))
    alpha, pi = _prior_means(state, params, opts.fix_pi)
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=list(omega))


def mt_em_fit(data: MultiTaskData, init: MultiTaskParams,
              opts: EmOptions | None = None) -> EmResult:
    """The grouped engine's loop (:func:`~bivas.group_fit.run_em`) over the
    multi-task steps; monotone bound trace."""
    return run_em(data, init, VariationalState.initial(data, init), opts,
                  mt_estep_sweep, fit_pass, mt_mstep_update,
                  mt_refresh_residual, mt_elbo)
