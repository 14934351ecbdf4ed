"""Evaluation of fits against simulation truth.

A selection and a truth are scored as boolean masks of one shape, the
model's layout: (p,) for a grouped design and (K, L) for multi-task data.
"""
from __future__ import annotations

import numpy as np

from .exceptions import DegenerateLabels, DimensionMismatch


def auc(scores, labels) -> float:
    """Area under the ROC curve via rank sums (ties get half credit).

    Equals P(score+ > score-) + P(score+ = score-) / 2 over all
    positive-negative pairs.
    """
    scores = np.asarray(scores, float).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.shape != labels.shape:
        raise DimensionMismatch("scores and labels differ in length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative")
    if np.isnan(scores).any():      # NaN has no rank
        return float("nan")
    rank_sum = float(_average_ranks(scores)[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, each run of ties given its mean rank:
    a run filling sorted places start..end - 1 ranks (start + 1 + end) / 2."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def fdr_power(selected, truth_nonzero):
    """Empirical false discovery rate and power of a selection.

    ``selected`` and ``truth_nonzero`` are boolean masks of one shape.
    FDR = FP / max(1, FP + TP); power is TP over the true positives, 0.0
    when there are none.
    """
    selected, truth_nonzero = np.asarray(selected), np.asarray(truth_nonzero)
    if selected.shape != truth_nonzero.shape \
            or selected.dtype != bool or truth_nonzero.dtype != bool:
        raise DimensionMismatch(
            f"need two boolean masks of one shape, got {selected.dtype} "
            f"{selected.shape} and {truth_nonzero.dtype} {truth_nonzero.shape}")
    tp = int(np.sum(selected & truth_nonzero))
    fp = int(np.sum(selected)) - tp
    positives = int(np.sum(truth_nonzero))
    return fp / max(1, fp + tp), tp / positives if positives else 0.0


def coef_mse(estimated, true_coef) -> float:
    """Mean squared error between estimated effects and true coefficients."""
    estimated = np.asarray(estimated, float)
    true_coef = np.asarray(true_coef, float)
    if estimated.shape != true_coef.shape:
        raise DimensionMismatch(
            f"shape mismatch: {estimated.shape} vs {true_coef.shape}"
        )
    if estimated.size == 0:
        return 0.0
    return float(np.mean((estimated - true_coef) ** 2))
