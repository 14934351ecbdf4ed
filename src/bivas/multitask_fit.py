"""Variational EM for multi-task regression with shared feature indicators.

Each of the K shared features carries one coefficient per task; the
group-level indicator couples all L tasks while slab means, variances and
noise levels stay task-specific.  With a single task the updates coincide
exactly with the grouped engine on a design of singleton groups.
"""
from __future__ import annotations

import ctypes
from functools import partial
from itertools import pairwise

from . import _sweep
from .designs import (
    MtVariationalState,
    MultiTaskData,
    MultiTaskParams,
    gram_views,
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
        L, data.tile_ptr.shape[0] - 1, (ctypes.c_int64 * L)(*data.n),
        (ctypes.c_void_p * L)(*(X.ctypes.data for X in data.X)),
        data.xtx.ctypes.data, s2.ctypes.data, log_ratio.ctypes.data,
        data.tile_ptr.ctypes.data, data.tile_grams.ctypes.data,
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
    numerator is x_k'r_j + b_jk x_k'x_k against task j's residual r_j,
    where b_j = pi alpha_j mu_j are the task's weighted coefficients;
    there is no within-group same-task coupling to subtract.  The sweep
    runs over the shared feature tiles (the packed arrays of
    :class:`~bivas.designs.MultiTaskData`) with the "covariance update" of
    :func:`~bivas.group_fit.estep_sweep_python`.  For each tile t, with
    task j's columns X_jt, Gram block G_jt and tile-start coefficients
    b_j_start,

        c_j = X_jt' r_j + G_jt b_j_start

    is formed once per task, and the numerator of feature k in task j is

        c_j[k] - G_jt[k] . b_j + b_j[k] x_k'x_k,

    a dot product of length m_t over the tile's current b_j.  The pi_k
    update only rewrites b_j[k] = pi_k alpha_kj mu_kj, and after the tile
    r_j -= X_jt (b_j - b_j_start) in one gemv per task.
    """
    logit_alpha = _logit(params.alpha)
    logit_pi = _logit(params.pi)
    sigma_e2 = params.sigma_e2.tolist()
    tasks = range(data.L)

    s2, log_ratio = _slab_terms(state, data, params)
    xtx = data.xtx

    mu = state.mu
    ajk = state.alpha_jk
    pi_k = state.pi_k

    grams = iter(gram_views(data.tile_grams, data.tile_ptr, data.L))
    for start, stop in pairwise(data.tile_ptr.tolist()):
        members = slice(start, stop)
        cols = [X[:, members] for X in data.X]
        gram = [next(grams) for _ in tasks]
        b_tile = pi_k[members, None] * (ajk[members] * mu[members])
        b_start = [b_tile[:, j].copy() for j in tasks]
        b = [bs.copy() for bs in b_start]
        c = [(cols[j].T @ state.residual[j] + gram[j] @ b_start[j]).tolist()
             for j in tasks]
        b_t = b_tile.tolist()    # b_j[k] until feature k's own update
        x2_t = xtx[members].tolist()
        s2_t = s2[members].tolist()
        lr_t = log_ratio[members].tolist()
        pi_t = pi_k[members].tolist()
        mu_t = []
        a_t = []
        for kk, g_rows in enumerate(zip(*gram)):
            pk = pi_t[kk]
            b_k, x2_k, s2_k, lr_k = b_t[kk], x2_t[kk], s2_t[kk], lr_t[kk]
            mu_k = []
            a_k = []
            bracket_sum = 0.0    # sum_j alpha_kj (log(s^2/sigma_beta2) + mu^2/s^2)
            for j in tasks:
                x2 = x2_k[j]
                s2_j = s2_k[j]
                if x2 > 0.0:
                    num = c[j][kk] - float(g_rows[j].dot(b[j])) + b_k[j] * x2
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
                b[j][kk] = p_new * (a_k[j] * mu_k[j])
            pi_t[kk] = p_new
            mu_t.append(mu_k)
            a_t.append(a_k)
        mu[members] = mu_t
        ajk[members] = a_t
        pi_k[members] = pi_t
        for j in tasks:
            state.residual[j] -= cols[j] @ (b[j] - b_start[j])

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
