"""Multi-task engine: task-coupled sweeps, bound, M-step and the L=1 reduction."""
import copy
import math
import warnings

import numpy as np
import pytest

from bivas import (
    EmOptions,
    GroupedDesign,
    ModelParams,
    MultiTaskData,
    MultiTaskParams,
    VariationalState,
    elbo,
    em_fit,
    initial_params,
    mstep_update,
    mt_em_fit,
)
from bivas.designs import _solve_cho, clamp_prob
from bivas.group_fit import _swept_fit_pass, estep_sweep_python, run_em
from bivas.multitask_fit import (
    mt_elbo,
    mt_estep_sweep,
    mt_mstep_update,
    mt_refresh_residual,
)
from bivas.oracle import exact_log_marginal

from conftest import (
    Rejecting,
    assert_same_fit,
    manual_em,
    mt_direct_sweep,
    own_fit_passes,
    random_multitask,
    sweep_cases,
)

SWEEPS = sweep_cases(mt_estep_sweep, estep_sweep_python)



def _singleton_pair(rng, n=40, K=8):
    """A one-task dataset and its grouped twin with singleton groups."""
    X = rng.standard_normal((n, K))
    Z = np.ones((n, 1))
    coef = rng.standard_normal(K) * (rng.random(K) < 0.5)
    y = X @ coef + rng.standard_normal(n)
    return MultiTaskData([(y, Z, X)]), GroupedDesign(y, Z, X, np.arange(K))


class TestSingleTaskReduction:
    def test_single_sweep_matches_grouped(self, rng):
        mdata, gdesign = _singleton_pair(rng)
        pi0 = 0.3
        mparams = initial_params(mdata, pi=pi0)
        gparams = initial_params(gdesign, pi=pi0)
        mstate = VariationalState.initial(mdata, mparams)
        from bivas import estep_sweep
        gstate = VariationalState.initial(gdesign, gparams)
        mt_estep_sweep(mstate, mdata, mparams)
        estep_sweep(gstate, gdesign, gparams)
        assert np.abs(mstate.mu[:, 0] - gstate.mu).max() < 1e-12
        assert np.abs(mstate.alpha_jk[:, 0] - gstate.alpha_jk).max() < 1e-12
        assert np.abs(mstate.pi_k - gstate.pi_k).max() < 1e-12

    def test_full_fit_matches_grouped(self, rng):
        mdata, gdesign = _singleton_pair(rng)
        opts = EmOptions(max_iter=400, rel_tol=1e-10)
        m = mt_em_fit(mdata, initial_params(mdata, pi=0.3), opts)
        g = em_fit(gdesign, initial_params(gdesign, pi=0.3), opts)
        length = min(len(m.elbo_trace), len(g.elbo_trace))
        assert np.abs(m.elbo_trace[:length] - g.elbo_trace[:length]).max() \
            < 1e-10 * (1.0 + abs(g.elbo))
        assert np.abs(m.state.mu[:, 0] - g.state.mu).max() < 1e-10
        assert np.abs(m.state.alpha_jk[:, 0] - g.state.alpha_jk).max() < 1e-10
        assert np.abs(m.state.pi_k - g.state.pi_k).max() < 1e-10
        assert abs(m.elbo - g.elbo) < 1e-10 * (1.0 + abs(g.elbo))

    def test_elbo_matches_grouped_on_any_state(self, rng):
        mdata, gdesign = _singleton_pair(rng)
        mparams = initial_params(mdata, pi=0.4)
        gparams = ModelParams(alpha=mparams.alpha, pi=mparams.pi,
                              sigma_beta2=float(mparams.sigma_beta2[0]),
                              sigma_e2=float(mparams.sigma_e2[0]),
                              omega=mparams.omega[0])
        mstate = VariationalState.initial(mdata, mparams)
        mstate.mu[:, 0] = rng.standard_normal(mdata.K)
        mstate.alpha_jk[:, 0] = clamp_prob(rng.random(mdata.K))
        mstate.pi_k[:] = clamp_prob(rng.random(mdata.K))
        mt_refresh_residual(mstate, mdata, mparams)
        gstate = VariationalState.initial(gdesign, gparams)
        gstate.mu[:] = mstate.mu[:, 0]
        gstate.s2[:] = mstate.s2[:, 0]
        gstate.alpha_jk[:] = mstate.alpha_jk[:, 0]
        gstate.pi_k[:] = mstate.pi_k
        got = mt_elbo(mstate, mdata, mparams)
        want = elbo(gstate, gdesign, gparams)
        assert got == pytest.approx(want, rel=1e-12)


    def test_engine_steps_take_either_container(self, rng):
        # the start, the M-step and the bound are the grouped engine's own,
        # on a design's one task or on each task of multi-task data, and
        # give back the container's parameter class
        mdata, gdesign = _singleton_pair(rng)
        opts = EmOptions()
        got = {}
        for data, cls in ((mdata, MultiTaskParams), (gdesign, ModelParams)):
            params = initial_params(data, pi=0.3)
            assert type(params) is cls
            state = VariationalState.initial(data, params)
            state.mu[:] = np.reshape(np.linspace(-1.0, 1.0, mdata.K),
                                     state.mu.shape)
            state.alpha_jk[:] = np.reshape(np.linspace(0.1, 0.9, mdata.K),
                                           state.alpha_jk.shape)
            state.pi_k[:] = np.linspace(0.2, 0.8, mdata.K)
            new = mstep_update(state, data, params, opts)
            assert type(new) is cls
            got[cls] = [params, new, elbo(state, data, new)]
        (m0, m1, m_bound), (g0, g1, g_bound) = got.values()
        for m, g in ((m0, g0), (m1, g1)):
            assert (m.alpha, m.pi) == (g.alpha, g.pi)
            np.testing.assert_allclose(
                [m.sigma_e2[0], m.sigma_beta2[0], *m.omega[0]],
                [g.sigma_e2, g.sigma_beta2, *g.omega], rtol=1e-12, atol=1e-12)
        assert m_bound == pytest.approx(g_bound, rel=1e-12)


class TestMtEstep:
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_empty_evidence_returns_prior(self, sweep):
        # with the variable prior driven to zero every alpha_jk collapses,
        # the group logit's sum empties out, and pi_k returns the prior
        rng = np.random.default_rng(1)
        data = random_multitask(rng, L=2, K=3)
        base = initial_params(data, pi=0.27)
        params = MultiTaskParams(alpha=0.0, pi=0.27,
                                 sigma_beta2=base.sigma_beta2,
                                 sigma_e2=base.sigma_e2, omega=base.omega)
        state = VariationalState.initial(data, params)
        sweep(state, data, params)
        assert np.all(state.alpha_jk < 1e-9)
        np.testing.assert_allclose(state.pi_k, 0.27, atol=1e-9)

    @staticmethod
    def _wide_tasks(rng, sizes, K):
        """Tasks of unequal n with K > min n, one of them with a zero-norm
        column."""
        tasks = []
        for j, n in enumerate(sizes):
            X = rng.standard_normal((n, K))
            if j == 1:
                X[:, K // 2] = 0.0
            y = X @ (rng.standard_normal(K) * (rng.random(K) < 0.3)) \
                + rng.standard_normal(n)
            tasks.append((y, np.ones((n, 1)), X))
        return MultiTaskData(tasks)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_matches_direct_formula(self, rng, sweep):
        draws = [random_multitask(rng, L=3, K=5, n_range=(8, 13))
                 for _ in range(4)]
        draws += [self._wide_tasks(rng, (9, 13, 7), 31),
                  self._wide_tasks(rng, (12, 8), 17)]
        assert all(data.K > min(data.n) for data in draws[4:])
        for data in draws:
            params = initial_params(data, pi=float(rng.uniform(0.2, 0.6)))
            state = VariationalState.initial(data, params)
            state.mu[:] = 0.4 * rng.standard_normal((data.K, data.L))
            state.alpha_jk[:] = clamp_prob(rng.random((data.K, data.L)))
            state.pi_k[:] = clamp_prob(rng.random(data.K))
            mt_refresh_residual(state, data, params)
            reference = copy.deepcopy(state)
            sweep(state, data, params)
            mt_direct_sweep(reference, data, params)
            for got, want in ((state.mu, reference.mu),
                              (state.s2, reference.s2),
                              (state.alpha_jk, reference.alpha_jk),
                              (state.pi_k, reference.pi_k)):
                scale = 1.0 + np.abs(want).max()
                assert np.abs(got - want).max() / scale < 1e-10
            # the residuals the sweep maintained equal a fresh recompute
            incremental = [r.copy() for r in state.residual]
            mt_refresh_residual(state, data, params)
            for got, want in zip(incremental, state.residual):
                scale = 1.0 + np.abs(want).max()
                assert np.abs(got - want).max() / scale < 1e-10


class TestMtElbo:
    def test_no_features_reduces_to_gaussian_loglik(self):
        rng = np.random.default_rng(5)
        tasks = []
        expected = 0.0
        params_omega = []
        for n in (10, 14):
            Z = np.ones((n, 1))
            y = rng.standard_normal(n)
            tasks.append((y, Z, np.empty((n, 0))))
        data = MultiTaskData(tasks)
        omega = [_solve_cho(data._z_cho[j], data.Z[j].T @ data.y[j])
                 for j in range(data.L)]
        params = MultiTaskParams(alpha=0.2, pi=0.2, sigma_beta2=[1.0, 1.0],
                                 sigma_e2=[1.2, 0.7], omega=omega)
        state = VariationalState.initial(data, params)
        for j in range(data.L):
            resid = data.y[j] - data.Z[j] @ omega[j]
            expected += -0.5 * data.n[j] * math.log(
                2 * math.pi * params.sigma_e2[j]) \
                - float(resid @ resid) / (2 * params.sigma_e2[j])
        assert mt_elbo(state, data, params) == pytest.approx(expected, abs=1e-10)

    def test_bounded_by_exact_marginal_on_l1(self, rng):
        # the exact oracle covers the grouped model; use the L=1 reduction
        mdata, gdesign = _singleton_pair(rng, n=14, K=4)
        opts = EmOptions(max_iter=1000, rel_tol=1e-11)
        m = mt_em_fit(mdata, initial_params(mdata, pi=0.4), opts)
        gparams = ModelParams(alpha=m.params.alpha, pi=m.params.pi,
                              sigma_beta2=float(m.params.sigma_beta2[0]),
                              sigma_e2=float(m.params.sigma_e2[0]),
                              omega=m.params.omega[0])
        assert m.elbo <= exact_log_marginal(gdesign, gparams) + 1e-8


class TestMtMstep:
    def test_alpha_averages_over_all_entries(self, rng):
        data = random_multitask(rng, L=3, K=4)
        params = initial_params(data, pi=0.3)
        state = VariationalState.initial(data, params)
        state.alpha_jk[:] = 0.25
        mt_refresh_residual(state, data, params)
        new = mt_mstep_update(state, data, params, EmOptions())
        assert new.alpha == pytest.approx(0.25, abs=1e-12)

    def test_noise_floor(self, rng):
        # a perfectly explained task bottoms out at the variance floor
        n, K = 12, 3
        X = rng.standard_normal((n, K))
        coef = np.array([1.0, 0.0, 0.0])
        y = X @ coef
        data = MultiTaskData([(y, np.ones((n, 1)), X)])
        params = MultiTaskParams(alpha=0.5, pi=0.5, sigma_beta2=[1.0],
                                 sigma_e2=[1.0], omega=[np.zeros(1)])
        state = VariationalState.initial(data, params)
        state.mu[:, 0] = coef
        state.alpha_jk[:] = 1.0 - 1e-12
        state.pi_k[:] = 1.0 - 1e-12
        state.s2[:] = 0.0
        state.s2[:] = np.maximum(state.s2, 0.0)
        mt_refresh_residual(state, data, params)
        state.s2[:, 0] = 1e-300   # kill the variance correction
        new = mt_mstep_update(state, data, params, EmOptions())
        assert new.sigma_e2[0] >= 1e-10
        assert new.sigma_e2[0] < 1e-6

    def test_finite_difference_stationarity(self, rng):
        # stationarity of the update given the state; convergence not needed
        for _ in range(3):
            data = random_multitask(rng, L=2, K=4, n_range=(15, 25))
            res = mt_em_fit(data, initial_params(data, pi=0.4),
                            EmOptions(max_iter=15))
            state = VariationalState.initial(data, res.params,
                                             start=res.state)
            mt_estep_sweep(state, data, res.params)
            params = mt_mstep_update(state, data, res.params, EmOptions())
            base = mt_elbo(state, data, params)
            tol = 1e-4 * (1.0 + abs(base))

            def bound(j, field, value):
                kw = {"alpha": params.alpha, "pi": params.pi,
                      "sigma_beta2": params.sigma_beta2.copy(),
                      "sigma_e2": params.sigma_e2.copy(),
                      "omega": [w.copy() for w in params.omega]}
                if field == "omega":
                    kw["omega"][j] = value
                else:
                    kw[field][j] = value
                return mt_elbo(state, data, MultiTaskParams(**kw))

            for j in range(data.L):
                h = 1e-6 * params.sigma_e2[j]
                grad = (bound(j, "sigma_e2", params.sigma_e2[j] + h)
                        - bound(j, "sigma_e2", params.sigma_e2[j] - h)) / (2 * h)
                assert abs(grad) < tol
                h = 1e-6 * params.sigma_beta2[j]
                grad = (bound(j, "sigma_beta2", params.sigma_beta2[j] + h)
                        - bound(j, "sigma_beta2", params.sigma_beta2[j] - h)) \
                    / (2 * h)
                assert abs(grad) < tol
                for r in range(data.r[j]):
                    up = params.omega[j].copy()
                    dn = params.omega[j].copy()
                    up[r] += 1e-6
                    dn[r] -= 1e-6
                    grad = (bound(j, "omega", up) - bound(j, "omega", dn)) / 2e-6
                    assert abs(grad) < tol


class TestMtEmFit:
    @pytest.mark.parametrize("engine", ["multitask", "grouped"])
    def test_no_features_keeps_priors(self, engine):
        # with K = 0 (p = 0) there is nothing to average: alpha and pi keep
        # their initial values instead of turning into the mean of nothing
        rng = np.random.default_rng(9)
        y = rng.standard_normal(30)
        Z, X = np.ones((30, 1)), np.empty((30, 0))
        if engine == "multitask":
            data = MultiTaskData([(y, Z, X), (y[:20], Z[:20], X[:20])])
            fit, init = mt_em_fit, initial_params(data, pi=0.2)
        else:
            data = GroupedDesign(y, Z, X, np.empty(0, dtype=int))
            fit, init = em_fit, initial_params(data, pi=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit(data, init, EmOptions())
        assert res.params.alpha == init.alpha == 0.1
        assert res.params.pi == init.pi == 0.2
        assert np.isfinite(res.elbo)

    def test_trace_monotone(self, rng):
        for _ in range(4):
            data = random_multitask(rng)
            res = mt_em_fit(data, initial_params(data, pi=0.3), EmOptions())
            diffs = np.diff(res.elbo_trace)
            assert np.all(diffs >= -1e-8 * (1.0 + np.abs(res.elbo_trace[1:])))

    def test_matches_loop_of_public_steps(self, rng):
        # the shared fit pass gives bit for bit what each step computes on
        # its own, at the plain steps and at the extrapolated ones
        for data in (random_multitask(rng, L=3, K=6),
                     random_multitask(rng, L=2, K=30, n_range=(10, 20))):
            init = initial_params(data, pi=0.3)
            opts = EmOptions(max_iter=60)
            res = mt_em_fit(data, init, opts)
            own = run_em(data, init, VariationalState.initial(data, init),
                         opts, *own_fit_passes(mt_estep_sweep, mt_mstep_update,
                                               mt_refresh_residual, mt_elbo))
            assert res.iterations == own.iterations
            assert_same_fit(res, own.params, own.state, own.elbo_trace)

    def test_rejected_extrapolations_give_the_plain_loop(self, rng):
        # with every extrapolation rejected, the restored state and
        # parameters continue exactly as plain EM does
        for data in (random_multitask(rng, L=3, K=6),
                     random_multitask(rng, L=2, K=20, n_range=(40, 60))):
            init = initial_params(data, pi=0.3)
            opts = EmOptions(max_iter=500)
            steps = Rejecting(mt_estep_sweep, _swept_fit_pass, mt_mstep_update,
                              mt_refresh_residual, mt_elbo)
            res = run_em(data, init, VariationalState.initial(data, init),
                         opts, *steps.steps)
            params, state, trace = manual_em(
                data, init, VariationalState.initial(data, init), opts,
                mt_estep_sweep, mt_mstep_update, mt_refresh_residual, mt_elbo)
            assert res.converged and steps.rejected > 0
            assert res.iterations == trace.size + steps.rejected
            assert_same_fit(res, params, state, trace)

    def test_sweeps_capped_by_max_iter(self, rng):
        data = random_multitask(rng, L=2, K=20, n_range=(40, 60))
        for max_iter in range(1, 8):
            res = mt_em_fit(data, initial_params(data, pi=0.3),
                            EmOptions(max_iter=max_iter, rel_tol=1e-12))
            assert res.iterations <= max_iter
            assert 1 <= res.elbo_trace.size <= res.iterations
            assert res.elbo == res.elbo_trace[-1]

    def test_reaches_the_plain_bound_in_fewer_sweeps(self, rng):
        # pi held fixed, as a grid point holds it
        for _ in range(6):
            data = random_multitask(rng, L=2, K=20, n_range=(40, 60))
            init = initial_params(data, pi=0.3)
            opts = EmOptions(max_iter=5000, rel_tol=1e-10, fix_pi=True)
            res = mt_em_fit(data, init, opts)
            _, _, trace = manual_em(
                data, init, VariationalState.initial(data, init), opts,
                mt_estep_sweep, mt_mstep_update, mt_refresh_residual, mt_elbo)
            assert res.converged
            assert abs(res.elbo - trace[-1]) <= 1e-8 * (1.0 + abs(trace[-1]))
            assert res.iterations < trace.size

    def test_noise_only_stays_sparse(self):
        rng = np.random.default_rng(123)
        tasks = []
        for n in (80, 60):
            X = rng.standard_normal((n, 30))
            tasks.append((rng.standard_normal(n), np.ones((n, 1)), X))
        data = MultiTaskData(tasks)
        res = mt_em_fit(data, initial_params(data, pi=0.3), EmOptions())
        assert res.params.alpha * res.params.pi <= 0.1

    def test_shared_support_beats_lone_effect(self):
        # an effect present in every task earns a larger group posterior
        # than an equal one present in a single task
        rng = np.random.default_rng(31)
        L, K = 3, 20
        shared_k, lone_k = 2, 11
        tasks = []
        for n in (60, 55, 50):
            X = rng.standard_normal((n, K))
            y = 0.8 * X[:, shared_k] + rng.standard_normal(n)
            tasks.append([y, np.ones((n, 1)), X])
        tasks[0][0] = tasks[0][0] + 0.8 * tasks[0][2][:, lone_k]
        data = MultiTaskData([tuple(t) for t in tasks])
        res = mt_em_fit(data, initial_params(data, pi=0.2), EmOptions())
        assert res.state.pi_k[shared_k] > res.state.pi_k[lone_k]
