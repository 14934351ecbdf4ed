"""Differential checks of both engines over tiny degenerate designs.

Hypothesis draws designs of at most 12 rows and 12 columns with zero-norm
and duplicated columns, singleton and multi-member groups interleaved in
column order, and multi-task data of 1-3 tasks of unequal size.  The
draws are derandomized and no example database is kept, so the suite
sees the same examples on every run.
"""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivas import (
    EmOptions,
    GroupedDesign,
    MultiTaskData,
    MultiTaskParams,
    VariationalState,
    elbo,
    em_fit,
    estep_sweep,
    initial_params,
    make_pi_grid,
    mstep_update,
    mt_em_fit,
    refresh_residual,
)
from bivas.designs import clamp_prob, fit_pass, reindex_groups
from bivas.group_fit import estep_sweep_python, run_em
from bivas.multitask_fit import (
    mt_elbo,
    mt_estep_sweep,
    mt_mstep_update,
    mt_refresh_residual,
)
from bivas.oracle import exact_log_marginal

from conftest import HAVE_COMPILER

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@st.composite
def columns(draw, n, p):
    """(n, p) Gaussian columns; some zeroed, some copies of another."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, p))
    for op, j, src in draw(st.lists(st.tuples(
            st.sampled_from(["zero", "copy"]), st.integers(0, p - 1),
            st.integers(0, p - 1)), max_size=3)):
        X[:, j] = 0.0 if op == "zero" else X[:, src]
    return X, rng


def _response(rng, X):
    coef = rng.standard_normal(X.shape[1]) * (rng.random(X.shape[1]) < 0.5)
    return X @ coef + rng.standard_normal(X.shape[0])


@st.composite
def grouped_designs(draw, max_p=12, max_slots=12):
    """A design whose labels, drawn per column, make singleton and
    multi-member groups in any order; K + p stays within ``max_slots``."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, min(max_p, max_slots - 1)))
    labels = draw(st.lists(st.integers(0, min(p, max_slots - p) - 1),
                           min_size=p, max_size=p))
    X, rng = draw(columns(n, p))
    group_of, _ = reindex_groups(labels)
    return GroupedDesign(_response(rng, X), np.ones((n, 1)), X, group_of)


@st.composite
def multitask_data(draw, max_tasks=3):
    """1-3 tasks of unequal size sharing up to 12 features."""
    K = draw(st.integers(1, 12))
    ns = draw(st.lists(st.integers(3, 12), min_size=1, max_size=max_tasks,
                       unique=True))
    tasks = []
    for n in ns:
        X, rng = draw(columns(n, K))
        tasks.append((_response(rng, X), np.ones((n, 1)), X))
    return MultiTaskData(tasks)


def _random_state(data, params, seed):
    """Any valid state, its caches refreshed."""
    rng = np.random.default_rng(seed)
    state = VariationalState.initial(data, params)
    state.mu[:] = rng.standard_normal(state.mu.shape)
    state.alpha_jk[:] = clamp_prob(rng.random(state.mu.shape))
    state.pi_k[:] = clamp_prob(rng.random(data.K))
    refresh_residual(state, data, params)
    return state


def _close(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = 1.0 + np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= tol * scale


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
@SETTINGS
@given(data=st.one_of(grouped_designs(), multitask_data()),
       pi=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_and_python_sweeps_agree(data, pi, seed):
    params = initial_params(data, pi)
    compiled = _random_state(data, params, seed)
    python = copy.deepcopy(compiled)
    for _ in range(3):
        estep_sweep(compiled, data, params)
        estep_sweep_python(python, data, params)
    for field in ("mu", "s2", "alpha_jk", "pi_k", "group_fit"):
        _close(getattr(compiled, field), getattr(python, field), 1e-12)
    for got, want in zip(data.per_block(compiled.residual),
                         data.per_block(python.residual)):
        _close(got, want, 1e-12)


@SETTINGS
@given(design=grouped_designs(), pi=st.floats(0.05, 0.95))
def test_one_task_fit_equals_singleton_groups(design, pi):
    single = GroupedDesign(design.y, design.Z, design.X, np.arange(design.p))
    opts = EmOptions(max_iter=50)
    g = em_fit(single, initial_params(single, pi), opts)
    m = mt_em_fit(MultiTaskData([(design.y, design.Z, design.X)]),
                  initial_params(MultiTaskData(
                      [(design.y, design.Z, design.X)]), pi), opts)
    assert g.iterations == m.iterations
    _close(m.elbo_trace, g.elbo_trace, 1e-12)
    for field in ("mu", "alpha_jk"):
        _close(getattr(m.state, field)[:, 0], getattr(g.state, field), 1e-12)
    _close(m.state.pi_k, g.state.pi_k, 1e-12)


def _direct_residuals(state, data, params):
    """y - Z omega - X pw per block, straight from the state."""
    pw = state.pi_k[data.group_of] * state.alpha_jk * state.mu
    return [y - Z @ omega - X @ v for y, Z, X, omega, v in zip(
        data.per_block(data.y), data.per_block(data.Z), data.per_block(data.X),
        data.per_block(params.omega), data.per_block(pw.T))]


def _checked_fit(data, pi, fix_pi=False):
    """One fit through run_em, checking after every sweep and every refresh
    that each block's residual is y - Z omega - X pw and each kept group
    fit is X_k alpha mu."""
    multitask = isinstance(data, MultiTaskData)
    sweep = mt_estep_sweep if multitask else estep_sweep
    refresh = mt_refresh_residual if multitask else refresh_residual

    def check(state, params):
        for got, want in zip(data.per_block(state.residual),
                             _direct_residuals(state, data, params)):
            _close(got, want, 1e-10)
        w = state.alpha_jk * state.mu
        for k in data.fit_groups:
            idx = data.group_members[k]
            _close(state.group_fit[data.fit_row[k]], data.X[:, idx] @ w[idx],
                   1e-10)

    def checked_sweep(state, data, params):
        sweep(state, data, params)
        check(state, params)

    def checked_refresh(state, data, params, *, fits):
        refresh(state, data, params, fits=fits)
        check(state, params)

    init = initial_params(data, pi)
    return run_em(data, init, VariationalState.initial(data, init),
                  EmOptions(max_iter=100, fix_pi=fix_pi), checked_sweep,
                  fit_pass, mt_mstep_update if multitask else mstep_update,
                  checked_refresh, mt_elbo if multitask else elbo)


def _assert_monotone(trace):
    assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[1:])))


@SETTINGS
@given(data=st.one_of(grouped_designs(), multitask_data()),
       pi=st.floats(0.05, 0.95))
def test_residual_identity_and_monotone_trace(data, pi):
    _assert_monotone(_checked_fit(data, pi).elbo_trace)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(design=grouped_designs(max_p=7, max_slots=10), pi=st.floats(0.05, 0.95))
def test_bound_below_exact_marginal(design, pi):
    result = em_fit(design, initial_params(design, pi), EmOptions(max_iter=100))
    assert result.elbo <= exact_log_marginal(design, result.params) + 1e-8



@st.composite
def constant_response(draw):
    """A design whose response is one value in every row."""
    design = draw(grouped_designs(max_p=7, max_slots=10))
    value = draw(st.sampled_from([0.0, 1.0, -3.5]))
    return design.with_response(np.full(design.n, value))


@st.composite
def wide_one_group(draw):
    """More columns than rows, all in one group."""
    n = draw(st.integers(3, 6))
    p = draw(st.integers(n + 1, 9))
    X, rng = draw(columns(n, p))
    return GroupedDesign(_response(rng, X), np.ones((n, 1)), X,
                         np.zeros(p, int))


def _every_check(data, pi, fix_pi=False):
    """The residual identity, a monotone trace and, on a grouped design,
    the bound below the exact log marginal."""
    result = _checked_fit(data, pi, fix_pi)
    _assert_monotone(result.elbo_trace)
    if isinstance(data, GroupedDesign):
        assert result.elbo <= exact_log_marginal(data, result.params) + 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(design=st.one_of(constant_response(), wide_one_group()),
       pi=st.floats(0.05, 0.95))
def test_constant_response_and_wide_group(design, pi):
    _every_check(design, pi)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.one_of(grouped_designs(max_p=7, max_slots=10),
                      multitask_data()),
       top=st.booleans())
def test_pi_held_at_a_grid_endpoint(data, top):
    # the grid's first and last prior, 1/(K+1) and 1/2, held fixed as a
    # grid run holds it
    _every_check(data, make_pi_grid(data.K, 2)[-1 if top else 0],
                 fix_pi=True)


def _perturbed(params, multitask):
    """Copies of ``params`` with one of omega's entries, sigma_e2 or
    sigma_beta2 (one task's, on multi-task data) moved by +-1e-6 of
    itself (omega by 1e-6 (1 + |omega|))."""
    def copy(**fields):
        base = {name: getattr(params, name) for name in
                ("alpha", "pi", "sigma_beta2", "sigma_e2", "omega")}
        return type(params)(**{**base, **fields})

    omegas = params.omega if multitask else [params.omega]
    for sign in (1.0, -1.0):
        for j, omega in enumerate(omegas):
            for r in range(omega.size):
                moved = [w.copy() for w in omegas]
                moved[j][r] += sign * 1e-6 * (1.0 + abs(omega[r]))
                yield copy(omega=moved if multitask else moved[0])
        for name in ("sigma_e2", "sigma_beta2"):
            value = np.atleast_1d(getattr(params, name))
            for j in range(value.size):
                moved = value.copy()
                moved[j] *= 1.0 + sign * 1e-6
                yield copy(**{name: moved if multitask else moved[0]})


@SETTINGS
@given(data=st.one_of(grouped_designs(), multitask_data()),
       pi=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1))
def test_mstep_output_is_stationary(data, pi, seed):
    # omega, sigma_e2 and sigma_beta2 from the M-step maximize the bound at
    # the swept state: no small move of one of them raises it
    multitask = isinstance(data, MultiTaskData)
    sweep, mstep, bound = (mt_estep_sweep, mt_mstep_update, mt_elbo) \
        if multitask else (estep_sweep, mstep_update, elbo)
    params = initial_params(data, pi)
    state = _random_state(data, params, seed)
    sweep(state, data, params)
    params = mstep(state, data, params, EmOptions())
    best = bound(state, data, params)
    for moved in _perturbed(params, multitask):
        assert bound(state, data, moved) - best <= 1e-9 * (1.0 + abs(best))


def _permuted(data, params, rng, across):
    """The same model with its columns permuted, within groups (a grouped
    design's columns shuffled, each keeping its group; a multi-task
    feature's members, its tasks, reordered) or across them (the order of
    the groups, or of the multi-task features, shuffled).  Returns the
    permuted (data, params) and the original indices of its coefficient
    rows, its groups and its blocks."""
    if isinstance(data, MultiTaskData):
        rows = rng.permutation(data.K) if across else np.arange(data.K)
        blocks = np.arange(data.L) if across else rng.permutation(data.L)
        moved = MultiTaskData([(data.y[j], data.Z[j], data.X[j][:, rows])
                               for j in blocks])
        return moved, MultiTaskParams(
            alpha=params.alpha, pi=params.pi,
            sigma_beta2=params.sigma_beta2[blocks],
            sigma_e2=params.sigma_e2[blocks],
            omega=[params.omega[j] for j in blocks]), rows, rows, blocks
    rows = rng.permutation(data.p)
    relabel = rng.permutation(data.K) if across else np.arange(data.K)
    moved = GroupedDesign(data.y, data.Z, data.X[:, rows],
                          relabel[data.group_of[rows]])
    return moved, params, rows, np.argsort(relabel), np.zeros(1, int)


@SETTINGS
@given(data=st.one_of(grouped_designs(), multitask_data()),
       pi=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1),
       across=st.booleans())
def test_bound_and_mstep_invariant_under_permuted_columns(data, pi, seed,
                                                           across):
    # the bound, the M-step and the refreshed residual do not depend on the
    # order of the columns within a group, nor on the order of the groups
    multitask = isinstance(data, MultiTaskData)
    bound, mstep = (mt_elbo, mt_mstep_update) if multitask \
        else (elbo, mstep_update)
    params = initial_params(data, pi)
    state = _random_state(data, params, seed)
    moved, moved_params, rows, groups, blocks = _permuted(
        data, params, np.random.default_rng(seed), across)
    moved_state = VariationalState.initial(moved, moved_params)
    for field in ("mu", "s2", "alpha_jk"):
        value = getattr(state, field)[rows]
        getattr(moved_state, field)[:] = value[:, blocks] if multitask else value
    moved_state.pi_k[:] = state.pi_k[groups]
    refresh_residual(moved_state, moved, moved_params)

    _close(bound(moved_state, moved, moved_params),
           bound(state, data, params), 1e-10)
    got = mstep(moved_state, moved, moved_params, EmOptions())
    want = mstep(state, data, params, EmOptions())
    for field in ("alpha", "pi"):
        _close(getattr(got, field), getattr(want, field), 1e-10)
    for field in ("sigma_e2", "sigma_beta2"):
        _close(np.atleast_1d(getattr(got, field)),
               np.atleast_1d(getattr(want, field))[blocks], 1e-10)
    for b, j in enumerate(blocks):
        _close(moved.per_block(got.omega)[b], data.per_block(want.omega)[j],
               1e-10)
        _close(moved.per_block(moved_state.residual)[b],
               data.per_block(state.residual)[j], 1e-10)
