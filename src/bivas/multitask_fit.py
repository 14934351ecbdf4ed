"""Variational EM for multi-task regression with shared feature indicators.

Each of the K shared features carries one coefficient per task; the
group-level indicator couples all L tasks while slab means, variances and
noise levels stay task-specific.  With a single task the updates coincide
exactly with the grouped engine on a design of singleton groups.
"""
from __future__ import annotations

import math

import numpy as np

from .designs import (
    MtVariationalState,
    MultiTaskData,
    MultiTaskParams,
    mt_refresh_residual,
    mt_slab_variances,
)
from .group_fit import LOG_2PI, EmOptions, EmResult, _logit, run_em, sigmoid


def mt_initial_params(data: MultiTaskData, pi: float,
                      alpha: float = 0.1) -> MultiTaskParams:
    """Per-task OLS start mirroring the grouped initializer."""
    omegas, sigma_e2, sigma_beta2 = [], [], []
    for j in range(data.L):
        w = data.solve_z_gram(j, data.Z[j].T @ data.y[j])
        resid = data.y[j] - data.Z[j] @ w
        se2 = float(np.var(resid))
        if se2 <= 0.0:
            se2 = 1e-6
        sum_xtx = float(data.xtx[j].sum())
        sb2 = se2 * data.n[j] / (pi * alpha * sum_xtx) if sum_xtx > 0.0 else se2
        omegas.append(w)
        sigma_e2.append(se2)
        sigma_beta2.append(sb2)
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=omegas)


def mt_estep_sweep(state: MtVariationalState, data: MultiTaskData,
                   params: MultiTaskParams) -> MtVariationalState:
    """One coordinate sweep: per feature, update every task then pi_k.

    A feature contributes a single column per task, so the slab-mean
    numerator is x_k'r_j + b_jk x_k'x_k against task j's residual r_j,
    where b_j = pi alpha_j mu_j are the task's weighted coefficients;
    there is no within-group same-task coupling to subtract.  The sweep
    runs over the shared feature tiles of :attr:`MultiTaskData.task_tiles`
    (the "covariance update" of :func:`~bivas.group_fit.estep_sweep`).
    For each tile t, with task j's columns X_jt, Gram block G_jt and
    tile-start coefficients b_j_start,

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

    s2 = mt_slab_variances(data, params)
    state.s2[:] = s2
    log_ratio = np.log(s2 / params.sigma_beta2[None, :])
    xtx = np.stack(data.xtx, axis=1)

    mu = state.mu
    ajk = state.alpha_jk
    pi_k = state.pi_k

    for tiles in zip(*data.task_tiles):
        members = tiles[0].members
        b_tile = pi_k[members, None] * (ajk[members] * mu[members])
        b_start = [b_tile[:, j].copy() for j in tasks]
        b = [bs.copy() for bs in b_start]
        c = [(tile.cols.T @ state.residual[j] + tile.gram @ b_start[j]).tolist()
             for j, tile in enumerate(tiles)]
        b_t = b_tile.tolist()    # b_j[k] until feature k's own update
        x2_t = xtx[members].tolist()
        s2_t = s2[members].tolist()
        lr_t = log_ratio[members].tolist()
        pi_t = pi_k[members].tolist()
        mu_t = []
        a_t = []
        for kk, g_rows in enumerate(zip(*(tile.gram for tile in tiles))):
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
        for j, tile in enumerate(tiles):
            state.residual[j] -= tile.cols @ (b[j] - b_start[j])

    return state


def mt_elbo(state: MtVariationalState, data: MultiTaskData,
            params: MultiTaskParams) -> float:
    """Multi-task evidence lower bound, evaluated from scratch."""
    K, L = data.K, data.L
    p = K * L
    pa = state.pi_k[:, None] * state.alpha_jk          # (K, L)
    w = state.alpha_jk * state.mu
    pw = state.pi_k[:, None] * w
    second_moment = state.s2 + state.mu ** 2

    out = 0.0
    for j in range(L):
        se2 = params.sigma_e2[j]
        resid = data.y[j] - data.Z[j] @ params.omega[j] - data.X[j] @ pw[:, j]
        out -= 0.5 * data.n[j] * (LOG_2PI + math.log(se2))
        out -= 0.5 * float(resid @ resid) / se2
        var_term = float(((pa[:, j] * second_moment[:, j] - pw[:, j] ** 2)
                          * data.xtx[j]).sum())
        out -= 0.5 * var_term / se2

    for j in range(L):
        sb2 = params.sigma_beta2[j]
        e_beta2 = pa[:, j] * second_moment[:, j] + (1.0 - pa[:, j]) * sb2
        out -= 0.5 * K * (LOG_2PI + math.log(sb2))
        out -= 0.5 * float(e_beta2.sum()) / sb2

    a = state.alpha_jk
    out += float((a * (math.log(params.alpha) - np.log(a))).sum())
    out += float(((1.0 - a) * (math.log1p(-params.alpha) - np.log1p(-a))).sum())
    pk = state.pi_k
    out += float((pk * (math.log(params.pi) - np.log(pk))).sum())
    out += float(((1.0 - pk) * (math.log1p(-params.pi) - np.log1p(-pk))).sum())

    out += 0.5 * float((pa * np.log(state.s2 / params.sigma_beta2[None, :])).sum())
    out += 0.5 * K * float(np.log(params.sigma_beta2).sum())
    out += 0.5 * p * (1.0 + LOG_2PI)
    return out


def mt_mstep_update(state: MtVariationalState, data: MultiTaskData,
                    params: MultiTaskParams, opts: EmOptions) -> MultiTaskParams:
    """Per-task closed-form updates; the shared priors average over K*L
    (variable level) and K (group level) posterior probabilities."""
    pa = state.pi_k[:, None] * state.alpha_jk
    w = state.alpha_jk * state.mu
    pw = state.pi_k[:, None] * w
    second_moment = state.s2 + state.mu ** 2

    omegas, sigma_e2, sigma_beta2 = [], [], []
    for j in range(data.L):
        fit = data.X[j] @ pw[:, j]
        om = data.solve_z_gram(j, data.Z[j].T @ (data.y[j] - fit))
        resid = data.y[j] - data.Z[j] @ om - fit
        var_term = float(((pa[:, j] * second_moment[:, j] - pw[:, j] ** 2)
                          * data.xtx[j]).sum())
        se2 = (float(resid @ resid) + var_term) / data.n[j]
        pa_sum = float(pa[:, j].sum())
        if pa_sum > 0.0:
            sb2 = float((pa[:, j] * second_moment[:, j]).sum()) / pa_sum
        else:
            sb2 = params.sigma_beta2[j]
        omegas.append(om)
        sigma_e2.append(se2)
        sigma_beta2.append(sb2)

    alpha = float(state.alpha_jk.mean())
    pi = params.pi if opts.fix_pi else float(state.pi_k.mean())
    return MultiTaskParams(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                           sigma_e2=sigma_e2, omega=omegas)


def mt_em_fit(data: MultiTaskData, init: MultiTaskParams,
              opts: EmOptions | None = None) -> EmResult:
    """The grouped engine's loop (:func:`~bivas.group_fit.run_em`) over the
    multi-task steps; monotone bound trace."""
    return run_em(data, init, MtVariationalState.initial(data, init), opts,
                  mt_estep_sweep, mt_mstep_update, mt_refresh_residual, mt_elbo)
