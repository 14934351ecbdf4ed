"""Shared generators and reference (no-caching) implementations for tests.

The reference sweeps recompute every update from the closed-form sums,
deliberately avoiding the residual caches used by the production code, so
they can serve as independent oracles for the cached path.
"""
import math
import shutil

import numpy as np
import pytest

from bivas import (
    EmOptions,
    GroupedDesign,
    MultiTaskData,
    Posterior,
    VariationalState,
    em_fit,
    initial_params,
    refresh_residual,
)
from bivas import _sweep
from bivas.designs import clamp_prob
from bivas.group_fit import _logit, sigmoid, slab_variances

HAVE_COMPILER = shutil.which(_sweep.COMPILER) is not None


def sweep_cases(compiled, python):
    """A sweep's compiled path (skipped when no C compiler is on PATH) and
    its Python reference, as parameters of one test."""
    return [pytest.param(compiled, id="compiled", marks=pytest.mark.skipif(
                not HAVE_COMPILER, reason="no C compiler")),
            pytest.param(python, id="python")]


@pytest.fixture(params=sweep_cases("compiled", "python"))
def kernel_path(request, monkeypatch):
    """Run a test on the compiled kernel, and again with the kernel marked
    unavailable, so every dispatcher takes its Python path."""
    if request.param == "python":
        monkeypatch.setattr(_sweep, "_loaded", False)
    return request.param


@pytest.fixture(scope="session", autouse=True)
def sweep_kernel():
    """Build or load the compiled sweeps before any test runs, so the one
    log line a missing compiler gives lands outside the tests' captures."""
    _sweep.kernel()


def random_grouped(rng, n=None, K=None, max_group=4, with_covariate=False,
                   rho=0.0, noise=1.0, active_frac=0.5, n_range=(15, 60),
                   K_range=(2, 6), sizes=None, interleave=False):
    """Random small GroupedDesign with a planted sparse signal.

    ``sizes`` fixes the group sizes (and so K); by default K and the sizes
    are drawn.  Groups are contiguous runs of columns unless ``interleave``
    shuffles the group ids across the columns.
    """
    if n is None:
        n = int(rng.integers(*n_range))
    if sizes is None:
        if K is None:
            K = int(rng.integers(*K_range))
        sizes = rng.integers(1, max_group + 1, K)
    sizes = np.asarray(sizes)
    K = len(sizes)
    p = int(sizes.sum())
    group_of = np.repeat(np.arange(K), sizes)
    if interleave:
        group_of = rng.permutation(group_of)
    if rho:
        eps = rng.standard_normal((n, p))
        X = np.empty((n, p))
        X[:, 0] = eps[:, 0]
        for j in range(1, p):
            X[:, j] = rho * X[:, j - 1] + math.sqrt(1 - rho * rho) * eps[:, j]
    else:
        X = rng.standard_normal((n, p))
    if with_covariate:
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    else:
        Z = np.ones((n, 1))
    coef = rng.standard_normal(p) * (rng.random(p) < active_frac)
    y = X @ coef + noise * rng.standard_normal(n)
    return GroupedDesign(y, Z, X, group_of)


def random_state(rng, design, params):
    """Arbitrary but valid variational state with consistent caches."""
    state = VariationalState.initial(design, params)
    state.mu[:] = 0.5 * rng.standard_normal(design.p)
    state.alpha_jk[:] = clamp_prob(rng.random(design.p))
    state.pi_k[:] = clamp_prob(rng.random(design.K))
    refresh_residual(state, design, params)
    return state


def random_multitask(rng, L=None, K=None, n_range=(8, 25)):
    """Random small MultiTaskData with a planted shared-support signal."""
    if L is None:
        L = int(rng.integers(2, 4))
    if K is None:
        K = int(rng.integers(2, 7))
    eta = rng.random(K) < 0.5
    tasks = []
    for _ in range(L):
        n = int(rng.integers(*n_range))
        X = rng.standard_normal((n, K))
        coef = eta * rng.standard_normal(K) * (rng.random(K) < 0.7)
        y = X @ coef + rng.standard_normal(n)
        tasks.append((y, np.ones((n, 1)), X))
    return MultiTaskData(tasks)


def direct_numerator(state, design, params, k, pos):
    """Slab-mean numerator from the full double sum, no residual caching."""
    x = design.X[:, pos]
    num = float(x @ (design.y - design.Z @ params.omega))
    for kp in range(design.K):
        for jp in design.group_members[kp]:
            if kp == k and jp == pos:
                continue
            weight = state.alpha_jk[jp] * state.mu[jp]
            if kp != k:
                weight *= state.pi_k[kp]
            num -= weight * float(x @ design.X[:, jp])
    return num


def direct_sweep(state, design, params):
    """Reference coordinate sweep computing every numerator directly."""
    s2 = slab_variances(design, params)
    state.s2[:] = s2
    log_ratio = np.log(s2 / params.sigma_beta2)
    la, lp = _logit(params.alpha), _logit(params.pi)
    for k in range(design.K):
        idx = design.group_members[k]
        for pos in idx:
            num = direct_numerator(state, design, params, k, pos)
            mu_new = num * s2[pos] / params.sigma_e2 \
                if design.xtx[pos] > 0.0 else 0.0
            v = la + 0.5 * state.pi_k[k] * (log_ratio[pos]
                                            + mu_new ** 2 / s2[pos])
            state.mu[pos] = mu_new
            state.alpha_jk[pos] = sigmoid(v)
        u = lp + 0.5 * sum(
            state.alpha_jk[j] * (log_ratio[j] + state.mu[j] ** 2 / s2[j])
            for j in idx)
        coupling = 0.0
        for j in idx:
            for jp in idx:
                if jp == j:
                    continue
                coupling += state.alpha_jk[j] * state.mu[j] \
                    * state.alpha_jk[jp] * state.mu[jp] \
                    * float(design.X[:, j] @ design.X[:, jp])
        u += 0.5 * coupling / params.sigma_e2
        state.pi_k[k] = sigmoid(u)
    return state


def mt_direct_sweep(state, data, params):
    """Reference multi-task sweep from the closed-form sums."""
    K, L = data.K, data.L
    for j in range(L):
        denom = data.xtx[:, j] + params.sigma_e2[j] / params.sigma_beta2[j]
        state.s2[:, j] = np.where(data.xtx[:, j] > 0.0,
                                  params.sigma_e2[j] / denom,
                                  params.sigma_beta2[j])
    la, lp = _logit(params.alpha), _logit(params.pi)
    for k in range(K):
        for j in range(L):
            x = data.X[j][:, k]
            num = float(x @ (data.y[j] - data.Z[j] @ params.omega[j]))
            for kp in range(K):
                if kp == k:
                    continue
                num -= state.pi_k[kp] * state.alpha_jk[kp, j] \
                    * state.mu[kp, j] * float(x @ data.X[j][:, kp])
            s2 = state.s2[k, j]
            mu_new = num * s2 / params.sigma_e2[j] \
                if data.xtx[:, j][k] > 0.0 else 0.0
            v = la + 0.5 * state.pi_k[k] * (
                math.log(s2 / params.sigma_beta2[j]) + mu_new ** 2 / s2)
            state.mu[k, j] = mu_new
            state.alpha_jk[k, j] = sigmoid(v)
        u = lp + 0.5 * sum(
            state.alpha_jk[k, j] * (
                math.log(state.s2[k, j] / params.sigma_beta2[j])
                + state.mu[k, j] ** 2 / state.s2[k, j])
            for j in range(L))
        state.pi_k[k] = sigmoid(u)
    return state


def converge_estep(state, design, params, sweeps=400):
    """Iterate coordinate sweeps at fixed parameters to a fixed point.

    Refreshes the caches first: the sweep's precondition is a residual
    consistent with ``params``, which a preceding M-step invalidates.
    """
    from bivas import estep_sweep

    refresh_residual(state, design, params)
    for _ in range(sweeps):
        prev = state.alpha_jk.copy()
        prev_mu = state.mu.copy()
        estep_sweep(state, design, params)
        if (np.abs(state.alpha_jk - prev).max() < 1e-14
                and np.abs(state.mu - prev_mu).max() < 1e-14):
            break
    refresh_residual(state, design, params)
    return state


def manual_em(data, params, state, opts, sweep, mstep, refresh, bound):
    """The EM loop over the public steps, each called without ``fits`` so
    that it runs its own fit pass; returns (params, state, trace)."""
    trace = []
    prev = -math.inf
    for _ in range(opts.max_iter):
        sweep(state, data, params)
        params = mstep(state, data, params, opts)
        refresh(state, data, params)
        current = bound(state, data, params)
        trace.append(current)
        if abs(current - prev) < opts.rel_tol * (1.0 + abs(current)):
            break
        prev = current
    return params, state, np.asarray(trace)


def own_fit_passes(sweep, mstep, refresh, bound):
    """``run_em``'s five steps with a fit pass that forms nothing and an
    M-step, refresh and bound that ignore ``fits``, each running its own
    fit pass, as :func:`manual_em`'s steps do."""
    return (sweep, lambda state, data: None,
            lambda state, data, params, opts, fits: mstep(state, data, params,
                                                          opts),
            lambda state, data, params, fits: refresh(state, data, params),
            lambda state, data, params, fits: bound(state, data, params))


def assert_same_fit(res, params, state, trace):
    """An EM result equals a loop's (params, state, trace) bit for bit:
    the trace, the posterior fields and the parameters, a per-task list
    compared task by task."""
    assert np.array_equal(res.elbo_trace, trace)
    for got, want, names in ((res.state, state, Posterior._fields),
                             (res.params, params, ("alpha", "pi", "sigma_beta2",
                                                   "sigma_e2", "omega"))):
        for name in names:
            a, b = getattr(got, name), getattr(want, name)
            for x, y in zip(a, b, strict=True) if isinstance(b, list) \
                    else [(a, b)]:
                assert np.array_equal(x, y), name


class Rejecting:
    """``run_em``'s steps with every extrapolation rejected.

    An M-step that no sweep preceded since the last bound runs at an
    extrapolated state; the bound of the stabilising step that follows it
    reads -inf, which no bound of a plain step is below.  ``rejected``
    counts those bounds, and ``last`` is the last bound returned.
    """

    def __init__(self, sweep, fit_pass, mstep, refresh, bound):
        self.steps = (self._sweep, fit_pass, self._mstep, refresh, self._bound)
        self.inner = (sweep, mstep, bound)
        self.swept = self.extrapolated = False
        self.rejected, self.last = 0, None

    def _sweep(self, state, data, params):
        self.swept = True
        return self.inner[0](state, data, params)

    def _mstep(self, state, data, params, opts, fits):
        self.extrapolated |= not self.swept
        return self.inner[1](state, data, params, opts, fits=fits)

    def _bound(self, state, data, params, fits):
        self.last = self.inner[2](state, data, params, fits=fits)
        self.swept = False
        if self.extrapolated:
            self.extrapolated = False
            self.rejected += 1
            self.last = -math.inf
        return self.last


def fitted_tiny(rng, **kwargs):
    """Random tiny instance fitted to tight convergence."""
    design = random_grouped(rng, **kwargs)
    init = initial_params(design, pi=float(rng.uniform(0.2, 0.6)))
    result = em_fit(design, init, EmOptions(max_iter=2000, rel_tol=1e-12))
    return design, result


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
