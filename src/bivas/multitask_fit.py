"""Variational EM for multi-task regression with shared feature indicators.

Each of the K shared features carries one coefficient per task; the
group-level indicator couples all L tasks while slab means, variances and
noise levels stay task-specific.  With a single task the updates coincide
exactly with the grouped engine on a design of singleton groups.
"""
from __future__ import annotations

import ctypes
from functools import partial

from scipy.linalg.blas import daxpy, ddot

from . import _sweep
from .designs import (
    MtVariationalState,
    MultiTaskData,
    MultiTaskParams,
    mt_fit_pass,
    mt_refresh_residual,
)
from .group_fit import (
    EmOptions,
    EmResult,
    _indicator_kl,
    _logit,
    _moments,
    _ols_start,
    _prior_means,
    _slab_terms,
    _task_bound,
    _task_mstep,
    run_em,
    sigmoid,
)


def mt_initial_params(data: MultiTaskData, pi: float,
                      alpha: float = 0.1) -> MultiTaskParams:
    """The grouped engine's OLS start (:func:`~bivas.group_fit._ols_start`)
    in every task."""
    omega, sigma_e2, sigma_beta2 = zip(*(
        _ols_start(data.y[j], data.Z[j], partial(data.solve_z_gram, j),
                   data.xtx[:, j], pi, alpha) for j in range(data.L)))
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=list(omega))


def mt_estep_sweep(state: MtVariationalState, data: MultiTaskData,
                   params: MultiTaskParams) -> MtVariationalState:
    """One coordinate sweep: per feature, update every task then pi_k.

    Runs the compiled sweep (``_sweep.c``) when it could be built or
    loaded and :func:`mt_estep_sweep_python`, its reference, otherwise
    (see :func:`~bivas.group_fit.estep_sweep`).
    """
    lib = _sweep.kernel()
    if lib is None:
        return mt_estep_sweep_python(state, data, params)
    s2, log_ratio = _slab_terms(state, data, params)
    K, L = data.K, data.L
    _sweep.check(lib.multitask_sweep(
        L, K, (ctypes.c_int64 * L)(*data.n),
        (ctypes.c_void_p * L)(*(X.ctypes.data for X in data.X)),
        data.xtx.ctypes.data, s2.ctypes.data, log_ratio.ctypes.data,
        _sweep.address(params.sigma_e2, (L,)), _logit(params.alpha),
        _logit(params.pi), _sweep.address(state.mu, (K, L)),
        _sweep.address(state.alpha_jk, (K, L)),
        _sweep.address(state.pi_k, (K,)),
        (ctypes.c_void_p * L)(*(_sweep.address(r, (n,)) for r, n
                                in zip(state.residual, data.n, strict=True)))))
    return state


def mt_estep_sweep_python(state: MtVariationalState, data: MultiTaskData,
                          params: MultiTaskParams) -> MtVariationalState:
    """The multi-task sweep in Python, updating ``state`` in place.

    A feature contributes a single column per task, so the slab-mean
    numerator is x_kj'r_j + b_kj x_kj'x_kj against task j's residual r_j
    (one ddot), where b = pi_k alpha_kj mu_kj are the weighted
    coefficients at the feature's start; there is no within-group
    same-task coupling to subtract.  Feature k updates every task, then
    pi_k, and then r_j -= (b_kj_new - b_kj_old) x_kj in every task (one
    daxpy each).
    """
    logit_alpha = _logit(params.alpha)
    logit_pi = _logit(params.pi)
    sigma_e2 = params.sigma_e2.tolist()
    tasks = range(data.L)

    s2, log_ratio = _slab_terms(state, data, params)

    mu = state.mu
    ajk = state.alpha_jk
    pi_k = state.pi_k
    r = state.residual
    # row k of each (K, L) array as a list, read and written per feature
    mu_t = mu.tolist()
    a_t = ajk.tolist()
    pi_t = pi_k.tolist()
    x2_t = data.xtx.tolist()
    s2_t = s2.tolist()
    lr_t = log_ratio.tolist()

    # feature k's column in every task (rows of the C-order X_j')
    for k, cols in enumerate(zip(*(X.T for X in data.X))):
        pk = pi_t[k]
        x2_k, s2_k, lr_k = x2_t[k], s2_t[k], lr_t[k]
        b_old = [pk * (a * m) for a, m in zip(a_t[k], mu_t[k])]
        mu_k = []
        a_k = []
        bracket_sum = 0.0    # sum_j alpha_kj (log(s^2/sigma_beta2) + mu^2/s^2)
        for j in tasks:
            x2 = x2_k[j]
            s2_j = s2_k[j]
            if x2 > 0.0:
                num = ddot(cols[j], r[j]) + b_old[j] * x2
                mu_new = num * s2_j / sigma_e2[j]
            else:
                mu_new = 0.0
            bracket = lr_k[j] + mu_new * mu_new / s2_j
            a_new = sigmoid(logit_alpha + 0.5 * pk * bracket)
            mu_k.append(mu_new)
            a_k.append(a_new)
            bracket_sum += a_new * bracket
        p_new = sigmoid(logit_pi + 0.5 * bracket_sum)
        for j in tasks:
            daxpy(cols[j], r[j], a=-(p_new * (a_k[j] * mu_k[j]) - b_old[j]))
        mu_t[k] = mu_k
        a_t[k] = a_k
        pi_t[k] = p_new

    mu[:] = mu_t
    ajk[:] = a_t
    pi_k[:] = pi_t
    return state


def _task_moments(state: MtVariationalState):
    """Each task's column of the coefficient moments
    (:func:`~bivas.group_fit._moments`)."""
    moments = _moments(state, state.pi_k[:, None])
    return [[m[:, j] for m in moments] for j in range(state.mu.shape[1])]


def mt_elbo(state: MtVariationalState, data: MultiTaskData,
            params: MultiTaskParams, *, fits: list | None = None) -> float:
    """Multi-task evidence lower bound, evaluated from scratch: the grouped
    engine's per-task terms (:func:`~bivas.group_fit._task_bound`, fit
    X_j pw_j from ``fits``, the iteration's
    :func:`~bivas.designs.mt_fit_pass`, run here when None; no cross
    term) summed over tasks, plus the shared indicator KL terms."""
    fits = mt_fit_pass(state, data) if fits is None else fits
    out = _indicator_kl(state, params)
    for j, moments in enumerate(_task_moments(state)):
        out += _task_bound(data.y[j], data.Z[j], fits[j], data.xtx[:, j],
                           params.omega[j], params.sigma_e2[j],
                           params.sigma_beta2[j], moments)
    return out


def mt_mstep_update(state: MtVariationalState, data: MultiTaskData,
                    params: MultiTaskParams, opts: EmOptions, *,
                    fits: list | None = None) -> MultiTaskParams:
    """The grouped engine's per-task updates
    (:func:`~bivas.group_fit._task_mstep`, fit X_j pw_j from ``fits`` as
    in :func:`mt_elbo`, no cross term) in every task; the shared priors
    average over K*L (variable level) and K (group level) posterior
    probabilities."""
    fits = mt_fit_pass(state, data) if fits is None else fits
    omega, sigma_e2, sigma_beta2 = zip(*(
        _task_mstep(data.y[j], data.Z[j], fits[j],
                    partial(data.solve_z_gram, j), data.xtx[:, j], moments,
                    params.sigma_beta2[j])
        for j, moments in enumerate(_task_moments(state))))
    alpha, pi = _prior_means(state, params, opts.fix_pi)
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=list(omega))


def mt_em_fit(data: MultiTaskData, init: MultiTaskParams,
              opts: EmOptions | None = None) -> EmResult:
    """The grouped engine's loop (:func:`~bivas.group_fit.run_em`) over the
    multi-task steps; monotone bound trace."""
    return run_em(data, init, MtVariationalState.initial(data, init), opts,
                  mt_estep_sweep, mt_fit_pass, mt_mstep_update,
                  mt_refresh_residual, mt_elbo)
