"""Importance-weighted grid over the group-sparsity prior.

The group-level prior inclusion probability is hard to estimate from a
single EM run, so the model is fit once per grid value pi(i) (log10-odds
equally spaced on [-log10 K, 0]) with pi held fixed, and the per-run
posteriors are averaged under weights proportional to exp(elbo).  Only the
two endpoints are fit cold; every other point, and the far endpoint once
more, is one link of a chain of warm runs, each started from its
neighbour's fit (Carbonetto & Stephens 2012).  The runs follow one
another in the calling thread.  Grid points that stop at ``max_iter`` are
reported through the "bivas" logger.  A grid is the array of its pi
values; the fit and its summary keep the container's ``group_of``, whose
shape tells the two models apart.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .designs import MultiTaskData
from .exceptions import DimensionMismatch, InvalidCount, InvalidThreshold
from .group_fit import EmOptions, EmResult, em_fit, initial_params
from .multitask_fit import mt_em_fit

logger = logging.getLogger("bivas")


def make_pi_grid(K: int, h: int = 20) -> np.ndarray:
    """h prior values, increasing to 0.5, whose log10 odds are equally
    spaced on [-log10 K, 0].

    The endpoints have odds 1/K and 1 (i.e. pi = 1/(K+1) and pi = 0.5);
    h = 1 returns only the upper endpoint.  For K = 1 the interval is
    degenerate and every value equals 0.5.
    """
    if h < 1:
        raise InvalidCount(f"grid size must be >= 1, got {h}")
    if K < 1:
        raise InvalidCount(f"need at least one group, got K={K}")
    if h == 1:
        log_odds = np.array([0.0])
    else:
        log_odds = np.linspace(-np.log10(K), 0.0, h)
    odds = 10.0 ** log_odds
    # pin the endpoints so their odds are exactly 1/K and 1
    odds[-1] = 1.0
    if h > 1:
        odds[0] = 1.0 / K
    return odds / (1.0 + odds)


def normalize_weights(elbos) -> np.ndarray:
    """Importance weights exp(elbo - max elbo), normalized to sum to one.

    Subtracting the maximum before exponentiating keeps the computation
    stable for arbitrarily shifted bounds; dividing by the total makes the
    aggregated posteriors convex combinations of the per-run ones.
    """
    elbos = np.asarray(elbos, dtype=float)
    shifted = np.exp(elbos - elbos.max())
    return shifted / shifted.sum()


@dataclass
class GridFit:
    """Per-grid-point converged fits, their normalized weights and the
    container's ``group_of``, (p,) or (K, L) like the variable arrays."""

    pi_values: np.ndarray
    results: list            # EmResult per grid point: params and posterior
    elbos: np.ndarray
    weights: np.ndarray
    group_of: np.ndarray

    @property
    def multitask(self) -> bool:
        return self.group_of.ndim == 2


def run_grid(data, pi_values, opts: EmOptions | None = None,
             threads: int = 1) -> GridFit:
    """Fit the model once per pi in ``pi_values``, the group prior held fixed.

    The two endpoints are fit cold, from :func:`initial_params`.  One
    chain then walks from the endpoint with the higher bound (the low end
    on a tie) to the other: each point starts from a copy of the previous
    run's posterior, with its parameters and this point's pi.  At the far
    endpoint the run with the higher bound is kept, the cold one on a
    tie.  Every run is deterministic and runs in the calling thread;
    ``threads`` has no effect and is kept for existing callers, but must
    still be >= 1.  One DEBUG record on the "bivas" logger gives the
    chain's direction, the endpoint bounds and the sweeps of all runs,
    the discarded one included.  When any kept run stops at ``max_iter``
    without converging, one WARNING names those grid points, their pi
    values and the total weight they carry; the results are unchanged.
    A grid that is empty, not 1-D or holds a value that is not a number
    finite in (0, 1) is rejected before any fit.
    """
    if threads < 1:
        raise InvalidCount(f"threads must be >= 1, got {threads}")
    run_opts = replace(opts if opts is not None else EmOptions(), fix_pi=True)
    try:
        pi_values = np.asarray(pi_values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidThreshold(f"pi grid must hold numbers: {exc}") from None
    if pi_values.ndim != 1:
        raise DimensionMismatch(
            f"pi grid must be 1-D, got shape {pi_values.shape}")
    h = pi_values.shape[0]
    if h < 1:
        raise InvalidCount(f"grid size must be >= 1, got {h}")
    bad = np.flatnonzero(~((pi_values > 0.0) & (pi_values < 1.0)))
    if bad.size:
        raise InvalidThreshold(f"pi grid value {bad[0]} is "
                               f"{pi_values[bad[0]]}, not finite in (0, 1)")

    def fit_one(i: int, warm: EmResult | None = None) -> EmResult:
        fit = mt_em_fit if isinstance(data, MultiTaskData) else em_fit
        pi = float(pi_values[i])
        if warm is None:
            return fit(data, initial_params(data, pi), run_opts)
        return fit(data, replace(warm.params, pi=pi), run_opts,
                   start=warm.state)

    ends = sorted({0, h - 1})
    cold = [fit_one(i) for i in ends]
    results = [cold[0]] * h
    results[-1] = cold[-1]
    sweeps = sum(res.iterations for res in cold)
    up = cold[0].elbo >= cold[-1].elbo
    far = h - 1 if up else 0
    for i in range(1, h) if up else range(h - 2, -1, -1):
        run = fit_one(i, results[i - 1 if up else i + 1])
        sweeps += run.iterations
        if i != far or run.elbo > results[i].elbo:
            results[i] = run
    logger.debug(
        "grid of %d points: cold endpoint bounds %.6f (pi=%.6g) and %.6f "
        "(pi=%.6g); chain %s; %d sweeps in all runs",
        h, cold[0].elbo, pi_values[0], cold[-1].elbo, pi_values[-1],
        "up from the low end" if up else "down from the high end", sweeps)

    elbos = np.array([res.elbo for res in results])
    weights = normalize_weights(elbos)
    stalled = [i for i, res in enumerate(results) if not res.converged]
    if stalled:
        points = ", ".join(f"{i} (pi={pi_values[i]:.6g})" for i in stalled)
        logger.warning(
            "%d of %d grid points stopped at max_iter=%d without converging: "
            "grid indices %s; they carry %.6g of the grid weight",
            len(stalled), h, run_opts.max_iter, points,
            float(weights[stalled].sum()))
    return GridFit(pi_values=pi_values.copy(), results=results,
                   elbos=elbos, weights=weights,
                   group_of=data.group_of.copy())


@dataclass
class PosteriorSummary:
    """Weight-averaged posteriors, fdr values and aggregated parameters.

    Group arrays have length K, and variable arrays the shape of
    ``group_of``, each variable's group: (p,), or (K, L) with row k all k.
    ``effect``, pi_tilde[group_of] * alpha_tilde * mu_tilde, is the
    posterior mean effect size used for prediction.
    """

    pi_tilde: np.ndarray
    alpha_tilde: np.ndarray
    mu_tilde: np.ndarray
    effect: np.ndarray
    group_fdr: np.ndarray
    var_fdr: np.ndarray
    params: object           # ModelParams or MultiTaskParams (weight-averaged)
    group_of: np.ndarray

    multitask = GridFit.multitask    # group_of.ndim == 2


def _weighted_sum(w, values):
    """sum_i w_i values_i, elementwise through lists (per-task vectors)
    and tuples (posteriors)."""
    if isinstance(values[0], (list, tuple)):
        return [_weighted_sum(w, column) for column in zip(*values)]
    return sum(wi * v for wi, v in zip(w, values))


def aggregate(gridfit: GridFit) -> PosteriorSummary:
    """Average per-run posteriors and parameters under the grid weights."""
    w = gridfit.weights
    mu_tilde, _, alpha_tilde, pi_tilde = _weighted_sum(
        w, [res.state for res in gridfit.results])
    plist = [res.params for res in gridfit.results]
    params = type(plist[0])(**{
        f.name: _weighted_sum(w, [getattr(p, f.name) for p in plist])
        for f in fields(plist[0])})
    effect = pi_tilde[gridfit.group_of] * alpha_tilde * mu_tilde
    return PosteriorSummary(
        pi_tilde=pi_tilde, alpha_tilde=alpha_tilde, mu_tilde=mu_tilde,
        effect=effect, group_fdr=1.0 - pi_tilde, var_fdr=1.0 - alpha_tilde,
        params=params, group_of=gridfit.group_of.copy(),
    )


@dataclass
class SelectionReport:
    """What passes the local-fdr threshold, as boolean masks of the
    model's layout: ``groups`` is (K,), ``variables`` has the shape of
    ``group_of``, (p,) or (K, L)."""

    threshold: float
    groups: np.ndarray
    variables: np.ndarray


def select(summary: PosteriorSummary, threshold: float = 0.05) -> SelectionReport:
    """Groups and variables whose local fdr is strictly below ``threshold``."""
    if not 0.0 < threshold < 1.0:
        raise InvalidThreshold(f"threshold must be in (0, 1), got {threshold}")
    return SelectionReport(threshold=threshold,
                           groups=summary.group_fdr < threshold,
                           variables=summary.var_fdr < threshold)


def predict(summary: PosteriorSummary, Znew, Xnew, task: int | None = None):
    """Posterior-mean prediction Z omega + X effect on new data.

    For multi-task summaries ``task``, an index in [0, L), picks the task
    whose fixed effects (and effect column) apply to the supplied design;
    for grouped summaries it must be None.
    """
    Znew, Xnew = (a[:, None] if a.ndim == 1 else a for a in (
        np.asarray(Znew, float), np.asarray(Xnew, float)))
    if Znew.shape[0] != Xnew.shape[0]:
        raise DimensionMismatch("Znew and Xnew row counts disagree")

    omega, effect = summary.params.omega, summary.effect
    if summary.multitask:
        if task is None or not 0 <= task < len(omega):
            raise DimensionMismatch(
                f"multi-task prediction needs a task index in "
                f"[0, {len(omega)}), got {task}")
        omega, effect = omega[task], effect[:, task]
    elif task is not None:
        raise DimensionMismatch("task index only applies to multi-task fits")

    for name, new, coef in (("Znew", Znew, omega), ("Xnew", Xnew, effect)):
        if new.shape[1] != coef.shape[0]:
            raise DimensionMismatch(
                f"{name} has {new.shape[1]} columns, model has {coef.shape[0]}")
    return Znew @ omega + Xnew @ effect
