"""Seeded input generator for the benchmark workloads.

It follows the simulation protocol of the paper but is independent of
``bivas.simulate``, so a change to the program cannot alter a workload:

* predictors are AR(1) across column index, corr(x_j, x_j') = rho^|j-j'|,
  with unit marginal variance;
* groups are equal contiguous blocks of p / K columns;
* bi-level indicators over an N(0, 1) slab;
* noise variance is var(X coef) / snr, and Z is an intercept column.

``grouped`` stratifies its draw so that every seed gives positives and
negatives at both levels and the difficulty varies little with the seed:
exactly max(1, round(pi K)) groups are active, exactly max(1, round(alpha
m)) of the m members of each active group are active, and the active
coefficients are the slab's quantiles at (i + 1/2) / N in random order.
``multitask`` is the plain Bernoulli protocol, drawn once at a fixed seed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass
class Inputs:
    """One task's arrays plus the truth they were drawn from."""

    y: np.ndarray
    Z: np.ndarray
    X: np.ndarray
    group_of: np.ndarray     # (p,) dense group ids
    coef: np.ndarray         # (p,) true coefficients
    active_groups: np.ndarray  # (K,) bool


def _streams(seed: int):
    """Independent generators for design, coefficients and noise."""
    seqs = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(s) for s in seqs)


def ar1(n: int, p: int, rho: float, rng) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma), Sigma[j, j'] = rho^|j-j'|."""
    X = rng.standard_normal((n, p))
    if rho != 0.0:
        scale = np.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            X[:, j] = rho * X[:, j - 1] + scale * X[:, j]
    return X


def _choose(rng, total: int, share: float) -> np.ndarray:
    """Boolean mask with exactly max(1, round(share * total)) set entries
    (at most total - 1, so both classes are present when total > 1)."""
    count = max(1, int(round(share * total)))
    if total > 1:
        count = min(count, total - 1)
    mask = np.zeros(total, dtype=bool)
    mask[rng.choice(total, size=count, replace=False)] = True
    return mask


def slab_quantiles(count: int) -> np.ndarray:
    """The N(0, 1) quantiles at (i + 1/2) / count: a stratified draw from the
    slab, so the spread of effect sizes is the same in every draw."""
    dist = NormalDist()
    return np.array([dist.inv_cdf((i + 0.5) / count) for i in range(count)])


def _response(X, coef, snr, rng):
    signal = X @ coef
    var_signal = float(np.var(signal))
    sigma_e2 = var_signal / snr if var_signal > 0.0 else 1.0
    return signal + rng.normal(0.0, np.sqrt(sigma_e2), X.shape[0])


def grouped(seed: int, *, n: int, p: int, K: int, rho: float, pi: float,
            alpha: float, snr: float) -> Inputs:
    """One grouped regression drawn from the bi-level protocol."""
    if p % K:
        raise ValueError(f"p={p} is not a multiple of K={K}")
    design_rng, coef_rng, noise_rng = _streams(seed)
    m = p // K
    X = ar1(n, p, rho, design_rng)
    group_of = np.repeat(np.arange(K), m)
    active_groups = _choose(coef_rng, K, pi)
    nonzero = np.zeros(p, dtype=bool)
    for k in np.nonzero(active_groups)[0]:
        nonzero[k * m:(k + 1) * m] = _choose(coef_rng, m, alpha)
    coef = np.zeros(p)
    coef[nonzero] = coef_rng.permutation(slab_quantiles(int(nonzero.sum())))
    y = _response(X, coef, snr, noise_rng)
    return Inputs(y=y, Z=np.ones((n, 1)), X=X, group_of=group_of, coef=coef,
                  active_groups=active_groups)


def multitask(seed: int, *, sizes, K: int, rho: float, pi: float,
              alpha: float, snr: float):
    """L tasks over K shared features; returns (list of Inputs, coef (K, L),
    active features (K,)).

    This is the paper's plain Bernoulli protocol: feature k is active with
    probability pi, and (k, task) with probability alpha inside an active
    feature.  The workload that uses it draws once, at a fixed seed, so the
    draw can be checked for positives and negatives up front.
    """
    design_rng, coef_rng, noise_rng = _streams(seed)
    L = len(sizes)
    active = coef_rng.random(K) < pi
    gamma = coef_rng.random((K, L)) < alpha
    beta = coef_rng.standard_normal((K, L))
    coef = active[:, None] * gamma * beta
    out = []
    for j, n in enumerate(sizes):
        X = ar1(int(n), K, rho, design_rng)
        y = _response(X, coef[:, j], snr, noise_rng)
        out.append(Inputs(y=y, Z=np.ones((int(n), 1)), X=X,
                          group_of=np.arange(K), coef=coef[:, j].copy(),
                          active_groups=active))
    return out, coef, active


def write_table(path: str, inp: Inputs):
    """CSV with header ``y, x0..x{p-1}`` and values written by ``repr``.
    It has no covariate columns, so the program injects its intercept.
    Returns the predictor names."""
    names = [f"x{j}" for j in range(inp.X.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + names)
        for i in range(inp.X.shape[0]):
            writer.writerow([repr(float(inp.y[i]))]
                            + [repr(float(v)) for v in inp.X[i]])
    return names


def write_group_map(path: str, names, group_of):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predictor", "group"])
        for name, k in zip(names, group_of):
            writer.writerow([name, f"g{int(k)}"])
