"""Exact enumeration of the spike-and-slab marginal likelihood and posteriors.

Only feasible on tiny instances: all 2^(K+p) indicator configurations are
enumerated once (:func:`_configurations`), and for each one the slab
coefficients integrate out to a closed-form Gaussian marginal.  Used as
ground truth when testing the variational bound and posterior quality.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .designs import GroupedDesign, ModelParams, _cho_factor, _solve_cho
from .exceptions import TooLarge
from .grid import normalize_weights

MAX_CONFIGS = 4096
MAX_N = 64


def _check_budget(data: GroupedDesign):
    if data.n > MAX_N:
        raise TooLarge(f"n={data.n} exceeds the enumeration bound {MAX_N}")
    if data.K + data.p > int(math.log2(MAX_CONFIGS)):
        raise TooLarge(
            f"2^(K+p) = 2^{data.K + data.p} exceeds {MAX_CONFIGS} configurations"
        )


def _configurations(data: GroupedDesign, params: ModelParams):
    """Yield (log prior + log likelihood, eta, gamma, E[eta gamma beta | y,
    eta, gamma]) over all (eta, gamma).

    Given a configuration, y is Gaussian with mean Z omega and covariance
    sigma_e2 I + sigma_beta2 X_active X_active'; one (inverse) Cholesky
    factor of it gives both the likelihood and the posterior mean of the
    active slabs.
    """
    _check_budget(data)
    resid = data.y - data.Z @ params.omega
    base = params.sigma_e2 * np.eye(data.n)
    log_2pi_n = data.n * math.log(2.0 * math.pi)
    log_pi = math.log(params.pi)
    log_1mpi = math.log1p(-params.pi)
    log_a = math.log(params.alpha)
    log_1ma = math.log1p(-params.alpha)
    for eta in itertools.product((0, 1), repeat=data.K):
        lp_eta = sum(log_pi if e else log_1mpi for e in eta)
        for gamma in itertools.product((0, 1), repeat=data.p):
            lp = lp_eta + sum(log_a if g else log_1ma for g in gamma)
            active = [j for j in range(data.p)
                      if gamma[j] and eta[data.group_of[j]]]
            Xa = data.X[:, active]
            cov = base + params.sigma_beta2 * (Xa @ Xa.T) if active else base
            cho = _cho_factor(cov)
            solved = _solve_cho(cho, resid)
            logdet = -2.0 * float(np.log(np.diag(cho)).sum())
            mean = np.zeros(data.p)
            mean[active] = params.sigma_beta2 * (Xa.T @ solved)
            yield (lp - 0.5 * (log_2pi_n + logdet + float(resid @ solved)),
                   eta, gamma, mean)


def exact_log_marginal(data: GroupedDesign, params: ModelParams) -> float:
    """log of the exact marginal likelihood, summed over all configurations."""
    log_w = np.array([lw for lw, *_ in _configurations(data, params)])
    top = log_w.max()
    return float(top + np.log(np.exp(log_w - top).sum()))


def exact_posteriors(data: GroupedDesign, params: ModelParams):
    """Exact Pr(eta_k = 1 | y), Pr(gamma_jk = 1 | y) and E[eta gamma beta | y].

    Bayes-rule ratios over the configurations of
    :func:`exact_log_marginal`.  Returns (group_prob, variable_prob,
    effect_mean) with shapes (K,), (p,), (p,).
    """
    log_w, etas, gammas, means = (
        np.asarray(col, float) for col in zip(*_configurations(data, params)))
    w = normalize_weights(log_w)
    return w @ etas, w @ gammas, w @ means
