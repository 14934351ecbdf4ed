"""The benchmark's own reference computations and output checks.

Nothing here imports ``bivas``: the scores and the checks of a workload are
computed apart from the program they judge.
"""
from __future__ import annotations

import numpy as np

# slack of the monotone-bound contract: L_{t+1} >= L_t - BOUND_SLACK (1 + |L_t|)
BOUND_SLACK = 1e-8


def rank_auc(scores, labels) -> float:
    """ROC area by the rank-sum formula, ties sharing their mean rank.

    Equals P(s+ > s-) + P(s+ = s-) / 2 over all positive-negative pairs.
    """
    scores = np.asarray(scores, float).ravel()
    labels = np.asarray(labels, bool).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def grid_weights(elbos) -> np.ndarray:
    """exp(elbo - max) / sum, from the per-point bounds."""
    elbos = np.asarray(elbos, float)
    w = np.exp(elbos - elbos.max())
    return w / w.sum()


def weighted_average(weights, arrays) -> np.ndarray:
    """sum_i w_i a_i, accumulated point by point in grid order."""
    out = np.zeros_like(np.asarray(arrays[0], float))
    for w, a in zip(weights, arrays):
        out = out + w * np.asarray(a, float)
    return out


def effect_size(pi_tilde, alpha_tilde, mu_tilde, group_of=None):
    """pi~ alpha~ mu~ per variable; pi~ is broadcast over each group's
    members (grouped) or over tasks (multi-task, (K, L) arrays)."""
    pi_tilde = np.asarray(pi_tilde, float)
    if group_of is None:
        return pi_tilde[:, None] * alpha_tilde * mu_tilde
    return pi_tilde[np.asarray(group_of)] * alpha_tilde * mu_tilde


def monotone(trace) -> bool:
    """Every step of an EM bound trace is non-decreasing within the slack."""
    trace = np.asarray(trace, float)
    for a, b in zip(trace[:-1], trace[1:]):
        if b < a - BOUND_SLACK * (1.0 + abs(a)):
            return False
    return True


def close(a, b, tol) -> bool:
    """Arrays equal within ``tol`` relative to max(1, |b|)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def ess(weights) -> float:
    """Effective sample size 1 / sum w^2 of normalized weights."""
    w = np.asarray(weights, float)
    return 1.0 / float(w @ w)

