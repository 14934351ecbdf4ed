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
    numerator reduces to x'r_j + pi_k alpha_jk mu_jk x'x against the
    maintained per-task residual; there is no within-group same-task
    coupling to subtract.
    """
    logit_alpha = _logit(params.alpha)
    logit_pi = _logit(params.pi)
    L, K = data.L, data.K

    s2 = state.s2
    s2[:] = mt_slab_variances(data, params)
    log_ratio = np.log(s2 / params.sigma_beta2[None, :])

    mu = state.mu
    ajk = state.alpha_jk
    pi_k = state.pi_k

    for k in range(K):
        pk = pi_k[k]
        for j in range(L):
            col = data.X[j][:, k]
            r = state.residual[j]
            xtx = data.xtx[j][k]
            w_old = ajk[k, j] * mu[k, j]
            num = (col @ r) + pk * w_old * xtx
            mu_new = num * s2[k, j] / params.sigma_e2[j] if xtx > 0.0 else 0.0
            v = logit_alpha + 0.5 * pk * (log_ratio[k, j]
                                          + mu_new * mu_new / s2[k, j])
            a_new = sigmoid(v)
            mu[k, j] = mu_new
            ajk[k, j] = a_new
            delta = a_new * mu_new - w_old
            if delta != 0.0:
                r -= (pk * delta) * col

        bracket = log_ratio[k, :] + mu[k, :] ** 2 / s2[k, :]
        u = logit_pi + 0.5 * float(ajk[k, :] @ bracket)
        p_new = sigmoid(u)
        dpi = p_new - pk
        if dpi != 0.0:
            for j in range(L):
                w = ajk[k, j] * mu[k, j]
                if w != 0.0:
                    state.residual[j] -= (dpi * w) * data.X[j][:, k]
        pi_k[k] = p_new

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
