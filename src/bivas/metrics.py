"""Evaluation of fits against simulation truth."""
from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

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
    ranks = rankdata(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def fdr_power(selected, truth_nonzero):
    """Empirical false discovery rate and power of a selected index set.

    ``selected`` and ``truth_nonzero`` are each an index array, an (m, d)
    array of index rows or a 1-D boolean mask.  FDR = FP / max(1, FP + TP);
    power counts the recovered fraction of true positives.
    """
    selected = np.asarray(selected)
    truth_nonzero = np.asarray(truth_nonzero)
    if selected.dtype == bool:
        selected = np.nonzero(selected)[0]
    if truth_nonzero.dtype == bool:
        truth_nonzero = np.nonzero(truth_nonzero)[0]
    # rows of an (m, d) array of index rows become tuples; an empty one,
    # (0, d), becomes the empty set
    sel = {tuple(i) if isinstance(i, list) else i for i in selected.tolist()}
    pos = {tuple(i) if isinstance(i, list) else i for i in truth_nonzero.tolist()}
    tp = len(sel & pos)
    fp = len(sel) - tp
    fdr = fp / max(1, fp + tp)
    power = tp / len(pos) if pos else 0.0
    return fdr, power


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
