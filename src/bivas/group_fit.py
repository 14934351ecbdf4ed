"""Variational EM for the grouped spike-and-slab regression model.

One plain EM step is one full coordinate-ascent sweep over all
coefficients (:func:`estep_sweep`) followed by closed-form parameter
updates (:func:`mstep_update`).  Every individual update maximizes the
evidence lower bound over its own block with everything else held fixed,
so the bound is non-decreasing across steps up to floating-point noise.
The loop (:func:`run_em`) extrapolates every two plain steps (SQUAREM)
and keeps an extrapolation only when it does not lower the bound.

This is the one engine of both models: multi-task data is the grouped
model with one group per feature and one member per task (see
:mod:`bivas.multitask_fit`).  The sweep, the fit pass and the refresh
read the containers' shared layout; the start, the M-step and the bound
take the tasks in turn (a grouped design has one) and return the
container's parameter class.  The sweep is one call of a small C kernel
(``_sweep.c``, built and cached by :mod:`bivas._sweep`) that makes
:func:`estep_sweep_python`'s updates in the same order, outside the GIL.
It also leaves the fits X_k w_k of the groups with several members in the
state's ``group_fit``, formed anew as :func:`~bivas.designs.group_fits`
forms them, so the fit pass that the M-step, the bound and the refresh
share (:func:`run_em`) makes no pass over X of its own.  Without the
kernel the engine runs :func:`estep_sweep_python` and
:func:`~bivas.designs.group_fits_python`, the kernel's reference in the
tests, and logs one warning on the "bivas" logger.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _sweep, designs
from .designs import (
    PROB_EPS,
    GroupedDesign,
    GroupFits,
    ModelParams,
    Posterior,
    VariationalState,
    _solve_cho,
    fit_pass,
    refresh_residual,
    slab_variances,
)

LOG_2PI = math.log(2.0 * math.pi)
# the within-group prior inclusion probability every fit starts from
INITIAL_ALPHA = 0.1


def sigmoid(x: float) -> float:
    """Numerically safe logistic function clamped away from {0, 1}."""
    if x >= 0.0:
        out = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        out = e / (1.0 + e)
    if out < PROB_EPS:
        return PROB_EPS
    if out > 1.0 - PROB_EPS:
        return 1.0 - PROB_EPS
    return out


def _logit(x: float) -> float:
    return math.log(x) - math.log1p(-x)


# the logits of the probability clamp's bounds
_LOGIT_LO, _LOGIT_HI = _logit(PROB_EPS), _logit(1.0 - PROB_EPS)


@dataclass
class EmOptions:
    """Knobs for the EM loop.

    ``max_iter`` caps the coordinate sweeps, the sweeps of rejected
    extrapolations included.  ``fix_pi`` holds the group-level prior at
    its initial value (used by grid runs).
    """

    max_iter: int = 200
    rel_tol: float = 1e-5
    fix_pi: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be > 0")


@dataclass
class EmResult:
    """Converged parameters, posterior and the bound trajectory.

    ``state`` is the run's :class:`~bivas.designs.Posterior`: its working
    state's arrays, whose caches went with the run.  ``iterations``
    counts coordinate sweeps; ``elbo_trace`` holds the bounds of the
    steps the loop kept, so it may be shorter."""

    params: ModelParams
    state: Posterior
    elbo: float
    elbo_trace: np.ndarray
    iterations: int
    converged: bool


def _tasks(data, *more):
    """Each task's y, Z, Z'Z factor and xtx column, and its entry of each
    per-task sequence in ``more`` (a grouped design has one task)."""
    return zip(*(data.per_block(v) for v in (data.y, data.Z, data._z_cho,
                                             data.xtx.T)), *more, strict=True)


def _ols_start(y, Z, cho, xtx, pi, alpha):
    """One task's start -> (omega, sigma_e2, sigma_beta2).

    Fixed effects start at their OLS fit (``cho`` factors Z'Z), the noise
    variance at the OLS residual variance, and the slab variance is sized
    so the prior explained variance pi * alpha * sigma_beta2 * sum(x'x) / n
    is of order var(y).
    """
    omega = _solve_cho(cho, Z.T @ y)
    sigma_e2 = float(np.var(y - Z @ omega))
    if sigma_e2 <= 0.0:
        sigma_e2 = 1e-6
    sum_xtx = float(xtx.sum())
    if sum_xtx > 0.0:
        return omega, sigma_e2, sigma_e2 * y.shape[0] / (pi * alpha * sum_xtx)
    return omega, sigma_e2, sigma_e2


def initial_params(data, pi: float):
    """Deterministic, scale-aware starting parameters, :func:`_ols_start`
    in each task with alpha at ``INITIAL_ALPHA``, of the container's class
    (``data._params``)."""
    return data._params.from_tasks(INITIAL_ALPHA, pi, [
        _ols_start(*task, pi, INITIAL_ALPHA) for task in _tasks(data)])


def _slab_terms(state, data, params):
    """Store this sweep's slab variances in ``state.s2``; returns them with
    log(s^2 / sigma_beta2)."""
    s2 = slab_variances(data, params)
    state.s2[:] = s2
    return s2, np.log(s2 / params.sigma_beta2)


def estep_sweep(state: VariationalState, data, params) -> VariationalState:
    """One full coordinate-ascent sweep on either container, in place.

    Runs the compiled sweep (``_sweep.c``, one call per sweep, outside
    the GIL) when :func:`bivas._sweep.kernel` could build or load it, and
    :func:`estep_sweep_python`, the reference it is tested against,
    otherwise.  Both make the same updates in the same order; see
    :func:`estep_sweep_python` for the formulas.
    """
    lib = _sweep.kernel()
    if lib is None:
        return estep_sweep_python(state, data, params)
    s2, log_ratio = _slab_terms(state, data, params)
    Xs, rs = data.per_block(data.X), data.per_block(state.residual)
    L, K, shape = len(Xs), data.K, data.group_of.shape
    sigma_e2 = np.atleast_1d(params.sigma_e2)
    _sweep.check(lib.sweep(
        L, K, (ctypes.c_int64 * L)(*(X.shape[0] for X in Xs)),
        (ctypes.c_void_p * L)(*(X.ctypes.data for X in Xs)),
        data.block_of.ctypes.data, data.column_of.ctypes.data,
        data.xtx.ctypes.data, s2.ctypes.data, log_ratio.ctypes.data,
        data.members.ctypes.data, data.group_ptr.ctypes.data,
        data.fit_row.ctypes.data, _sweep.address(sigma_e2, (L,)),
        _logit(params.alpha), _logit(params.pi),
        _sweep.address(state.mu, shape), _sweep.address(state.alpha_jk, shape),
        _sweep.address(state.pi_k, (K,)),
        (ctypes.c_void_p * L)(*(_sweep.address(r, (X.shape[0],))
                                for r, X in zip(rs, Xs, strict=True))),
        _sweep.address(state.group_fit, (data.fit_groups.size, Xs[0].shape[0]))))
    return state


def estep_sweep_python(state: VariationalState, data, params) -> VariationalState:
    """The coordinate sweep in Python, updating ``state`` in place.

    Groups are visited in index order and members in ``members`` order
    within each group (column order on a grouped design, task order on
    multi-task data).  For coefficient c, column x of block b, the slab
    posterior is N(mu_c, s_c^2) with

        s_c^2 = sigma_e2_b / (x'x + sigma_e2_b / sigma_beta2_b)
        mu_c  = s_c^2 / sigma_e2_b * (x'(y_b - Z_b w_b)
                - sum over other groups of their weighted fits' overlap
                - sum over other members of this group's overlap)

    computed from the block's maintained residual r_b.  The variable logit
    is v = logit(alpha) + pi_k/2 (log(s^2/sigma_beta2) + mu^2/s^2), and the
    group logit sums the same bracket over members weighted by alpha_jk:

        u_k = logit(pi) + 1/2 sum_j alpha_jk (log(s^2/sigma_beta2)
              + mu^2/s^2) + P_k / (2 sigma_e2),
        P_k = sum_{j != j'} (alpha mu)_j (alpha mu)_j' x_j' x_j
            = |g_k|^2 - sum_j (alpha mu)_j^2 x_j'x_j,

    with g_k = X_k (alpha mu)_k the group's unweighted fit.  P_k sums over
    pairs of members in one block; it makes pi_k the exact maximizer of the
    bound over its coordinate (it vanishes for orthogonal within-group
    columns); without it the bound can decrease when group members
    correlate.  A group takes one of two paths:

    * at most one member per block (every multi-task feature and every
      singleton group): P_k = 0, and member j's numerator is
      x_j'r_b + b_j x_j'x_j (one dot), b = pi_k alpha mu being its
      weighted coefficient at the group's start.  After every member and
      pi_k, each member takes r_b -= (b_new - b_old) x_j (one axpy).
      The group keeps no fit.
    * several members in one block: the residual buffer first takes back
      the group's kept fit, r += pi_k g_k, and a work vector starts at
      e = r - g_k.  Member j's numerator is then x_j'e + w_j x_j'x_j
      (one dot), w = alpha mu, and after its update
      e -= (w_j_new - w_j_old) x_j (one axpy), so e stays r less the
      group's current fit.  After the members, r - e is that fit: it
      gives pi_k, and the residual gives back pi_k (r - e) with the new
      pi_k.  The group's row of ``group_fit`` then takes g_k = X_k w_k
      formed anew, as :func:`~bivas.designs.group_fits` forms it (here
      one gemv, as :func:`~bivas.designs.group_fits_python`), for the EM
      loop's fit pass to read (:func:`em_fit`).
    """
    logit_alpha = _logit(params.alpha)
    logit_pi = _logit(params.pi)
    sigma_e2 = np.atleast_1d(params.sigma_e2).tolist()

    s2, log_ratio = _slab_terms(state, data, params)

    # row j of X.T is column j of X, contiguous
    columns = [X.T for X in data.per_block(data.X)]
    rs = data.per_block(state.residual)
    pi_k = state.pi_k
    # every per-coefficient array as a flat list, read and written per member
    mu_t = state.mu.ravel().tolist()
    a_t = state.alpha_jk.ravel().tolist()
    x2_t, s2_t, lr_t, block, col = (a.ravel().tolist() for a in (
        data.xtx, s2, log_ratio, data.block_of, data.column_of))
    members, ptr = data.members.tolist(), data.group_ptr.tolist()

    for k, row in enumerate(data.fit_row.tolist()):
        group = members[ptr[k]:ptr[k + 1]]
        pk = float(pi_k[k])
        fit = row >= 0
        if fit:
            # exclude this group's weighted fit; r now holds
            # y - Zw - sum_{k'!=k}, and e is r less the group's fit
            b = block[group[0]]
            r, gk, se2 = rs[b], state.group_fit[row], sigma_e2[b]
            r += pk * gk
            e = r - gk
        bracket_sum = 0.0    # sum_j alpha_jk (log(s^2/sigma_beta2) + mu^2/s^2)
        diag_sum = 0.0       # sum_j (alpha mu)_j^2 x_j'x_j
        lone = []            # (c, x, r_b, b_old) of each member of a lone group
        for c in group:
            b, x2, s2_c = block[c], x2_t[c], s2_t[c]
            x = columns[b][col[c]]
            # against e, a fit group's member has w = alpha mu in its
            # numerator; against r_b, a lone member has b = pi_k w
            old = a_t[c] * mu_t[c] if fit else pk * (a_t[c] * mu_t[c])
            if x2 > 0.0:
                num = x.dot(e if fit else rs[b]) + old * x2
                mu_new = num * s2_c / sigma_e2[b]
            else:
                mu_new = 0.0
            bracket = lr_t[c] + mu_new * mu_new / s2_c
            a_new = sigmoid(logit_alpha + 0.5 * pk * bracket)
            mu_t[c] = mu_new
            a_t[c] = a_new
            bracket_sum += a_new * bracket
            if fit:
                w_new = a_new * mu_new
                diag_sum += w_new * w_new * x2
                e -= (w_new - old) * x
            else:
                lone.append((c, x, rs[b], old))
        if not fit:
            pi_k[k] = sigmoid(logit_pi + 0.5 * bracket_sum)
            for c, x, r_b, old in lone:
                r_b -= (pi_k[k] * (a_t[c] * mu_t[c]) - old) * x
            continue
        np.subtract(r, e, out=e)
        pi_k[k] = sigmoid(logit_pi + 0.5 * bracket_sum
                          + 0.5 * (float(e @ e) - diag_sum) / se2)
        r -= pi_k[k] * e
        idx = data.group_members[k]
        gk[:] = data.X[:, idx] @ np.multiply([a_t[c] for c in group],
                                             [mu_t[c] for c in group])

    state.mu[...] = np.reshape(mu_t, state.mu.shape)
    state.alpha_jk[...] = np.reshape(a_t, state.alpha_jk.shape)
    return state


def _moments(state, pi_of):
    """Per-coefficient moments under q: pa = E[eta gamma], pw = E[eta gamma
    beta], the slab's second moment s2 + mu^2, and s2; ``pi_of`` holds
    each coefficient's pi_k."""
    a, mu, s2 = state.alpha_jk, state.mu, state.s2
    return pi_of * a, pi_of * (a * mu), s2 + mu ** 2, s2


def _task_terms(state, data, params, fits):
    """The arguments of :func:`_task_bound` and :func:`_task_mstep`, task
    by task: the :func:`_tasks` entry, the coefficients' :func:`_moments`,
    the fit X pw and cross term from ``fits``, omega and the variances."""
    moments = _moments(state, state.pi_k[data.group_of])
    return _tasks(data, zip(*(data.per_block(m.T) for m in moments)),
                  fits.fit, fits.cross, *(data.per_block(v) for v in (
                      params.omega, params.sigma_e2, params.sigma_beta2)))


def _expected_sse(y, Z, omega, fit, xtx, moments, cross):
    """One task's E||y - Z omega - X (eta gamma beta)||^2, ``fit`` = X pw:
    the squared residual, the variance correction and the within-group
    cross term (:func:`~bivas.designs.fit_pass`; 0 for singleton groups)."""
    pa, pw, second_moment, _ = moments
    resid = y - Z @ omega - fit
    var_term = float(((pa * second_moment - pw ** 2) * xtx).sum())
    return float(resid @ resid) + var_term + cross


def _task_bound(y, Z, cho, xtx, moments, fit, cross, omega, sigma_e2,
                sigma_beta2):
    """One task's bound terms (a :func:`_task_terms` entry): the Gaussian
    data term, the slab prior over E[beta^2] and the Gaussian entropy
    block, whose log(2 pi sigma_beta2) normalizers cancel to p/2."""
    pa, pw, second_moment, s2 = moments
    n, p = y.shape[0], xtx.shape[0]
    out = -0.5 * n * (LOG_2PI + math.log(sigma_e2))
    out -= 0.5 * _expected_sse(y, Z, omega, fit, xtx, moments, cross) / sigma_e2
    e_beta2 = pa * second_moment + (1.0 - pa) * sigma_beta2
    out -= 0.5 * float(e_beta2.sum()) / sigma_beta2
    out += 0.5 * float((pa * np.log(s2 / sigma_beta2)).sum())
    return out + 0.5 * p


def _indicator_kl(state, params) -> float:
    """KL terms of both indicator levels (factors clamped away from 0/1)."""
    out = 0.0
    for q, prior in ((state.alpha_jk, params.alpha), (state.pi_k, params.pi)):
        out += float((q * (math.log(prior) - np.log(q))).sum())
        out += float(((1.0 - q) * (math.log1p(-prior) - np.log1p(-q))).sum())
    return out


def _task_mstep(y, Z, cho, xtx, moments, fit, cross, omega, sigma_e2,
                sigma_beta2):
    """One task's closed-form updates (a :func:`_task_terms` entry) ->
    (omega, sigma_e2, sigma_beta2).

    Fixed effects go first so the noise update sees the new residual; each
    update is exactly stationary for the bound.  sigma_beta2 is kept when
    no coefficient carries inclusion mass.
    """
    pa, _, second_moment, _ = moments
    omega = _solve_cho(cho, Z.T @ (y - fit))
    sigma_e2 = _expected_sse(y, Z, omega, fit, xtx, moments, cross) / y.shape[0]
    pa_sum = float(pa.sum())
    if pa_sum > 0.0:
        sigma_beta2 = float((pa * second_moment).sum()) / pa_sum
    return omega, sigma_e2, sigma_beta2


def _prior_means(state, params, fix_pi: bool):
    """alpha and pi updated to the means of alpha_jk and pi_k; each keeps
    its value when its array is empty, and pi also when ``fix_pi``."""
    alpha = float(state.alpha_jk.mean()) if state.alpha_jk.size else params.alpha
    pi = params.pi if fix_pi or not state.pi_k.size else float(state.pi_k.mean())
    return alpha, pi


def elbo(state: VariationalState, data, params, *,
         fits: GroupFits | None = None) -> float:
    """Evidence lower bound, evaluated from scratch (a pure function of
    the state when ``fits`` is None): the indicator KL terms plus each
    task's terms (:func:`_task_bound`, with the task's fit and
    within-group cross term from ``fits``, the iteration's
    :func:`~bivas.designs.fit_pass`, run here when None)."""
    fits = fit_pass(state, data) if fits is None else fits
    out = _indicator_kl(state, params)
    for task in _task_terms(state, data, params, fits):
        out += _task_bound(*task)
    return out


def mstep_update(state: VariationalState, data, params, opts: EmOptions, *,
                 fits: GroupFits | None = None):
    """Closed-form parameter updates at the current variational state, of
    the class of ``params``: each task's (:func:`_task_mstep`, fit and
    cross term from ``fits`` as in :func:`elbo`) and the shared priors'
    (:func:`_prior_means`)."""
    fits = fit_pass(state, data) if fits is None else fits
    alpha, pi = _prior_means(state, params, opts.fix_pi)
    return params.from_tasks(alpha, pi, [
        _task_mstep(*task) for task in _task_terms(state, data, params, fits)])


def _pack(state, theta):
    """theta = (mu, logit alpha_jk, logit pi_k), in place; each logit as
    :func:`_logit` takes it."""
    p = state.mu.size
    theta[:p] = state.mu.ravel()
    for x, q in ((theta[p:2 * p], state.alpha_jk.ravel()),
                 (theta[2 * p:], state.pi_k)):
        np.subtract(np.log(q), np.log1p(-q), out=x)


def _unpack(theta, state):
    """Load theta into ``state``: each logit is clipped to the logits of
    [PROB_EPS, 1 - PROB_EPS], so exp neither overflows nor underflows,
    and its probability is :func:`sigmoid`'s, clamped as
    :func:`~bivas.designs.clamp_prob` clamps."""
    p = state.mu.size
    state.mu[...] = theta[:p].reshape(state.mu.shape)
    for q, x in ((state.alpha_jk, theta[p:2 * p]), (state.pi_k, theta[2 * p:])):
        x = np.clip(x.reshape(q.shape), _LOGIT_LO, _LOGIT_HI)
        e = np.exp(-np.abs(x))
        np.divide(np.where(x >= 0.0, 1.0, e), 1.0 + e, out=q)
        np.clip(q, PROB_EPS, 1.0 - PROB_EPS, out=q)


def run_em(data, params, state, opts: EmOptions | None,
           sweep, fit_pass, mstep, refresh, bound) -> EmResult:
    """The EM loop shared by both engines, accelerated by SQUAREM.

    One plain step F is ``sweep`` (one coordinate sweep, in place),
    ``fit_pass`` (the fits X pw, formed once from (mu, alpha_jk, pi_k)
    and, where ``sweep`` leaves them, the group fits in
    ``state.group_fit``), ``mstep`` (new parameters), ``refresh``
    (residual caches recomputed from those fits) and ``bound`` (the
    evidence lower bound).  The last three share the one fit pass, passed
    as ``fits``: the fits depend on neither omega nor the variances, so
    the M-step leaves them as they are.

    Steps come in cycles (Varadhan & Roland 2008, scheme S3): from
    theta0 = (mu, logit alpha_jk, logit pi_k), two plain steps give
    theta1 and theta2; with r = theta1 - theta0, v = theta2 - 2 theta1 +
    theta0 and a = -|r| / |v| < -1 the state moves to theta0 - 2a r +
    a^2 v, where ``mstep`` and ``refresh`` run on one from-scratch
    :func:`~bivas.designs.fit_pass` (the sweep's group fits are stale
    there), and one stabilising plain step follows.  That step is kept
    when its bound is at least theta2's; otherwise theta2's (mu,
    alpha_jk, s2, pi_k) and parameters come back, and one from-scratch
    fit pass rebuilds its caches.  Both from-scratch passes form the
    group fits straight into ``state.group_fit``.  When a >= -1 (or
    v = 0) the cycle ends at theta2.  The trace holds the kept bounds
    only, so it rises as the plain steps do.  ``opts.max_iter`` caps the
    sweeps, rejected ones included, and ``iterations`` counts them.
    Convergence is declared when the relative change |dL| / (1 + |L|)
    between consecutive trace entries drops below ``opts.rel_tol``.  The
    run owns ``state``: the result's ``state`` is its
    :class:`~bivas.designs.Posterior`, the same arrays, and the caches are
    dropped with it.
    """
    opts = EmOptions() if opts is None else opts
    theta0, r, v = np.empty((3, 2 * state.mu.size + state.pi_k.size))
    raw = Posterior(state.mu, state.s2, state.alpha_jk, state.pi_k)
    kept = [a.copy() for a in raw]
    trace, sweeps, converged = [], 0, False

    def plain(params):
        nonlocal sweeps
        sweep(state, data, params)
        sweeps += 1
        fits = fit_pass(state, data)
        params = mstep(state, data, params, opts, fits=fits)
        refresh(state, data, params, fits=fits)
        return params, bound(state, data, params, fits=fits)

    def settle(params):     # its own frame: the fits go before the next sweep
        fits = designs.fit_pass(state, data, out=state.group_fit)
        params = mstep(state, data, params, opts, fits=fits)
        refresh(state, data, params, fits=fits)
        return params

    def stops(current):
        prev = trace[-1] if trace else -math.inf
        trace.append(current)
        return abs(current - prev) < opts.rel_tol * (1.0 + abs(current))

    while not converged and sweeps < opts.max_iter:
        _pack(state, theta0)
        for theta in (r, v):          # theta1 and theta2, for now
            params, current = plain(params)
            converged = stops(current)
            if converged or sweeps == opts.max_iter:
                break
            _pack(state, theta)
        else:
            r -= theta0
            v -= theta0
            v -= r
            v -= r
            norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
            if norm_v == 0.0 or norm_r <= norm_v:
                continue
            a = -norm_r / norm_v
            r *= -2.0 * a
            v *= a * a
            theta0 += r
            theta0 += v
            for saved, live in zip(kept, raw):
                np.copyto(saved, live)
            _unpack(theta0, state)
            stable, current = plain(settle(params))
            if current >= trace[-1]:
                params = stable
                converged = stops(current)
            else:
                for live, saved in zip(raw, kept):
                    np.copyto(live, saved)
                refresh(state, data, params, fits=designs.fit_pass(
                    state, data, out=state.group_fit))
    return EmResult(params=params, state=raw, elbo=trace[-1],
                    elbo_trace=np.asarray(trace), iterations=sweeps,
                    converged=converged)


def _swept_fit_pass(state, data):
    """:func:`~bivas.designs.fit_pass` over the group fits that the sweep
    has just left in ``state.group_fit``."""
    return fit_pass(state, data, state.group_fit)


def em_fit(data: GroupedDesign, init: ModelParams,
           opts: EmOptions | None = None,
           start: Posterior | None = None) -> EmResult:
    """Alternate coordinate sweeps and M-steps until the bound stalls
    (:func:`run_em`), from the zero-mean start or, when ``start`` is
    given, from a copy of that posterior
    (:meth:`~bivas.designs.VariationalState.initial`; a grid's warm runs
    pass the previous point's).  The fit pass reads the group fits
    the sweep leaves in ``state.group_fit``, bit for bit those of
    :func:`~bivas.designs.group_fits`, so it makes no pass over X of its
    own.  The returned trace is non-decreasing up to 1e-8 * (1 + |L|)
    slack.
    """
    return run_em(data, init, VariationalState.initial(data, init, start),
                  opts, estep_sweep, _swept_fit_pass, mstep_update,
                  refresh_residual, elbo)
