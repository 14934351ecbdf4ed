"""Synthetic data generation for grouped and multi-task sparse regression.

Predictor columns follow an AR(1) process across column index, so column j
and j' correlate as rho^|j-j'| with unit marginal variance.  Coefficients
are drawn from the bi-level prior (group indicator, variable indicator,
standard normal slab) and the noise variance is set from a target
signal-to-noise ratio var(X beta) / sigma_e2.  Grouped and multi-task
draws go through one truth draw (:func:`_draw_truth`) and one noise step
(:func:`_respond`), in the shape of the model's ``group_of``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import GroupedDesign, MultiTaskData
from .exceptions import DimensionMismatch


@dataclass
class SimConfig:
    """Simulation settings.

    ``n`` is the sample size, or a list of per-task sample sizes for
    :func:`gen_multitask` (in which case K counts the shared predictors
    and p is ignored).  Groups are equal-sized blocks of p / K columns.
    """

    n: int | list
    p: int
    K: int
    rho: float = 0.0
    pi_true: float = 0.1
    alpha_true: float = 0.4
    snr: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if not 0.0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite")
        if not isinstance(self.n, (list, tuple)) and self.p % self.K != 0:
            raise DimensionMismatch(
                f"p={self.p} not divisible by K={self.K} for equal groups"
            )

    def streams(self):
        """Three independent child generators: design, coefficients, noise."""
        seqs = np.random.SeedSequence(self.seed).spawn(3)
        return tuple(np.random.default_rng(s) for s in seqs)


@dataclass
class SimTruth:
    """Ground truth realized by one simulation draw."""

    eta: np.ndarray          # (K,)
    gamma: np.ndarray        # (p,) or (K, L)
    beta: np.ndarray         # (p,) or (K, L)
    coef: np.ndarray         # eta[group_of] * gamma * beta, beta's shape
    sigma_e2: float | np.ndarray


def _ar1_matrix(n: int, p: int, rho: float, rng) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with Sigma[j, j'] = rho^|j-j'| via the
    recursion x_j = rho x_{j-1} + sqrt(1 - rho^2) eps_j."""
    eps = rng.standard_normal((n, p))
    if rho == 0.0 or p == 1:
        return eps
    X = np.empty((n, p))
    X[:, 0] = eps[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * eps[:, j]
    return X


def _equal_groups(cfg: SimConfig) -> np.ndarray:
    """Each column's group: K equal contiguous blocks of p / K columns."""
    return np.repeat(np.arange(cfg.K), cfg.p // cfg.K)


def gen_design(cfg: SimConfig, rng=None) -> GroupedDesign:
    """AR(1) predictors in equal contiguous groups; Z is an intercept column.

    The response is a zero placeholder until :func:`gen_response` fills it.
    """
    if rng is None:
        rng = cfg.streams()[0]
    n = int(cfg.n)
    X = _ar1_matrix(n, cfg.p, cfg.rho, rng)
    return GroupedDesign(np.zeros(n), np.ones((n, 1)), X, _equal_groups(cfg))


def _draw_truth(cfg: SimConfig, group_of: np.ndarray, rng) -> SimTruth:
    """Draw (eta, gamma, beta) from the bi-level prior, gamma and beta in
    ``group_of``'s shape, (p,) or (K, L); coef = eta[group_of] gamma beta."""
    eta = (rng.random(cfg.K) < cfg.pi_true).astype(float)
    gamma = (rng.random(group_of.shape) < cfg.alpha_true).astype(float)
    beta = rng.standard_normal(group_of.shape)
    return SimTruth(eta=eta, gamma=gamma, beta=beta,
                    coef=eta[group_of] * gamma * beta, sigma_e2=0.0)


def _respond(X: np.ndarray, coef: np.ndarray, snr: float, rng):
    """(X coef + noise, sigma_e2) with sigma_e2 = var(X coef) / snr; an
    all-zero signal falls back to sigma_e2 = 1."""
    signal = X @ coef
    var_signal = float(np.var(signal))
    sigma_e2 = var_signal / snr if var_signal > 0.0 else 1.0
    return signal + rng.normal(0.0, np.sqrt(sigma_e2), X.shape[0]), sigma_e2


def gen_coefficients(cfg: SimConfig, rng=None) -> SimTruth:
    """Draw the truth of a grouped design (:func:`_draw_truth`)."""
    if rng is None:
        rng = cfg.streams()[1]
    return _draw_truth(cfg, _equal_groups(cfg), rng)


def gen_response(design: GroupedDesign, truth: SimTruth, snr: float, rng=None):
    """y = X coef + noise (:func:`_respond`).  Returns (y, sigma_e2) and
    records sigma_e2 on the truth."""
    if rng is None:
        rng = np.random.default_rng(0)
    y, truth.sigma_e2 = _respond(design.X, truth.coef, snr, rng)
    return y, truth.sigma_e2


def simulate_dataset(cfg: SimConfig):
    """Full grouped draw: returns (GroupedDesign with response, SimTruth)."""
    design_rng, coef_rng, noise_rng = cfg.streams()
    design = gen_design(cfg, design_rng)
    truth = gen_coefficients(cfg, coef_rng)
    y, _ = gen_response(design, truth, cfg.snr, noise_rng)
    return design.with_response(y), truth


def gen_multitask(cfg: SimConfig):
    """Multi-task draw with a shared group indicator across tasks.

    ``cfg.n`` must be the list of per-task sample sizes; each task gets its
    own AR(1) design over the K shared features, its own variable
    indicators and slab draws, and its own noise level targeting ``snr``.
    Returns (MultiTaskData, SimTruth) with (K, L) coefficient arrays.
    """
    if not isinstance(cfg.n, (list, tuple)):
        raise DimensionMismatch("gen_multitask needs a list of sample sizes")
    design_rng, coef_rng, noise_rng = cfg.streams()
    truth = _draw_truth(cfg, np.indices((cfg.K, len(cfg.n)))[0], coef_rng)
    tasks, sigma_e2 = [], []
    for j, nj in enumerate(map(int, cfg.n)):
        Xj = _ar1_matrix(nj, cfg.K, cfg.rho, design_rng)
        yj, s2 = _respond(Xj, truth.coef[:, j], cfg.snr, noise_rng)
        tasks.append((yj, np.ones((nj, 1)), Xj))
        sigma_e2.append(s2)
    truth.sigma_e2 = np.array(sigma_e2)
    return MultiTaskData(tasks), truth
