"""Sparsity grid construction, weights, the warm chain, aggregation,
selection."""
import copy
import logging
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivas import (
    EmOptions,
    GroupedDesign,
    MultiTaskData,
    aggregate,
    em_fit,
    make_pi_grid,
    mt_em_fit,
    normalize_weights,
    predict,
    run_grid,
    select,
)
from bivas import _sweep, grid as grid_module
from bivas.exceptions import DimensionMismatch, InvalidCount, InvalidThreshold
from bivas.simulate import SimConfig, gen_multitask, simulate_dataset

from conftest import assert_same_fit

class TestMakePiGrid:
    def test_endpoints_k10(self):
        grid = make_pi_grid(10, 2)
        # odds 0.1 and 1
        assert grid[0] == pytest.approx(0.1 / 1.1, abs=1e-15)
        assert grid[1] == 0.5

    def test_k250_h3_frozen_values(self):
        # frozen from the formula odds/(1+odds) at log10-odds
        # {-2.39794..., -1.19897..., 0}
        grid = make_pi_grid(250, 3)
        expected = [0.003984063745019921, 0.059483487151975496, 0.5]
        np.testing.assert_allclose(grid, expected, rtol=1e-14)

    def test_h1_returns_upper_endpoint(self):
        grid = make_pi_grid(100, 1)
        assert grid.tolist() == [0.5]

    def test_invalid_count(self):
        with pytest.raises(InvalidCount):
            make_pi_grid(10, 0)
        with pytest.raises(InvalidCount):
            make_pi_grid(0, 5)

    @given(K=st.integers(min_value=2, max_value=100000),
           h=st.integers(min_value=2, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, K, h):
        vals = make_pi_grid(K, h)
        assert np.all(np.diff(vals) > 0)
        assert 0.0 < vals[0] and vals[-1] == 0.5

    def test_odds_endpoints_exact(self):
        for K in (3, 50, 1000):
            vals = make_pi_grid(K, 7)
            odds = vals / (1.0 - vals)
            assert odds[0] == pytest.approx(1.0 / K, rel=1e-12)
            assert odds[-1] == pytest.approx(1.0, rel=1e-15)


class TestNormalizeWeights:
    def test_equal_elbos_uniform(self):
        w = normalize_weights([3.3, 3.3, 3.3, 3.3])
        np.testing.assert_allclose(w, 0.25, rtol=1e-15)

    def test_underflow_safe(self):
        w = normalize_weights([0.0, -1000.0])
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert w[1] >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_shift_invariance_frozen_case(self):
        base = normalize_weights([np.log(2.0), 0.0])
        shifted = normalize_weights([np.log(2.0) + 1e6, 1e6])
        np.testing.assert_allclose(base, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
        np.testing.assert_allclose(shifted, base, atol=1e-14)

    @given(st.lists(st.integers(min_value=-10_000_000, max_value=10_000_000),
                    min_size=1, max_size=30),
           st.integers(min_value=-2 ** 31, max_value=2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, grid_elbos, shift):
        # dyadic lattice values plus integer shifts add exactly in floats,
        # so any weight change is attributable to normalize_weights itself
        elbos = np.asarray(grid_elbos, float) / 1024.0
        base = normalize_weights(elbos)
        moved = normalize_weights(elbos + float(shift))
        assert np.abs(base - moved).max() <= 1e-14
        assert base.sum() == pytest.approx(1.0, abs=1e-12)
        assert base[np.argmax(elbos)] >= base.max() - 1e-15


@pytest.fixture(scope="module")
def design():
    d, _ = simulate_dataset(SimConfig(n=120, p=40, K=8, pi_true=0.3,
                                      alpha_true=0.5, snr=1.5, seed=21))
    return d


class TestRunGrid:
    def test_thread_count_invariance(self, design):
        grid = make_pi_grid(design.K, 6)
        fits = [run_grid(design, grid, EmOptions(), threads=t)
                for t in (1, 2, 4)]
        ref = fits[0]
        for other in fits[1:]:
            np.testing.assert_allclose(other.elbos, ref.elbos, atol=1e-12,
                                       rtol=0)
            np.testing.assert_allclose(other.weights, ref.weights, atol=1e-12,
                                       rtol=0)
            for a, b in zip(other.results, ref.results):
                assert np.abs(a.state.alpha_jk - b.state.alpha_jk).max() \
                    <= 1e-12
                assert np.abs(a.state.mu - b.state.mu).max() <= 1e-12

    def test_starts_no_thread(self, design, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"run_grid started thread {thread.name}")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        fit = run_grid(design, make_pi_grid(design.K, 4), EmOptions(),
                       threads=4)
        assert len(fit.results) == 4

    def test_single_point_grid(self, design):
        fit = run_grid(design, make_pi_grid(design.K, 1), EmOptions())
        assert len(fit.pi_values) == 1
        assert fit.weights.tolist() == [1.0]

    def test_pi_stays_fixed_per_run(self, design):
        grid = make_pi_grid(design.K, 4)
        fit = run_grid(design, grid, EmOptions())
        for pi_i, res in zip(grid, fit.results):
            assert res.params.pi == pytest.approx(pi_i, abs=1e-15)

    def test_invalid_threads(self, design):
        with pytest.raises(InvalidCount):
            run_grid(design, make_pi_grid(design.K, 2), threads=0)

    @pytest.mark.parametrize("pi_values, error, message", [
        ([], InvalidCount, r"^grid size must be >= 1, got 0$"),
        ([[0.2, 0.3]], DimensionMismatch,
         r"^pi grid must be 1-D, got shape \(1, 2\)$"),
        (0.3, DimensionMismatch, r"^pi grid must be 1-D, got shape \(\)$"),
        ([0.0, 0.5], InvalidThreshold, r"^pi grid value 0 is 0\.0, "),
        ([0.2, float("nan")], InvalidThreshold, r"^pi grid value 1 is nan, "),
        ([0.2, 0.5, 1.0, 2.0], InvalidThreshold, r"^pi grid value 2 is 1\.0, "),
        ([-float("inf"), 0.5], InvalidThreshold, r"^pi grid value 0 is -inf, "),
        ([0.5, float("inf")], InvalidThreshold,
         r"^pi grid value 1 is inf, not finite in \(0, 1\)$"),
        (["a", "b"], InvalidThreshold,
         r"^pi grid must hold numbers: could not convert string to float: "
         r"'a'$"),
        ([0.2, {}], InvalidThreshold, r"^pi grid must hold numbers: "),
    ])
    def test_bad_grid_rejected_before_any_fit(self, design, monkeypatch,
                                              pi_values, error, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")
        monkeypatch.setattr(grid_module, "em_fit", no_fit)
        with pytest.raises(error, match=message):
            run_grid(design, pi_values)

    def test_grid_keeps_no_caches(self):
        # the bytes a grid's result holds: a posterior (4 arrays of p
        # doubles) per point and small change, not each run's residual and
        # (M, n) group fits, which stay inside the run
        n, p, h = 400, 200, 10
        rng = np.random.default_rng(17)
        X = rng.standard_normal((n, p))
        y = X[:, :20] @ rng.standard_normal(20) + rng.standard_normal(n)
        d = GroupedDesign(y, np.ones((n, 1)), X,
                          np.repeat(np.arange(p // 10), 10))
        grid = make_pi_grid(d.K, h)
        run_grid(d, grid)          # first-call allocations
        tracemalloc.start()
        try:
            fit = run_grid(d, grid)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(fit.results) == h
        assert retained < 2 * h * (4 * p * 8)

    def test_max_weight_at_max_elbo(self, design):
        fit = run_grid(design, make_pi_grid(design.K, 6), EmOptions())
        assert np.argmax(fit.weights) == np.argmax(fit.elbos)

    def test_unconverged_points_logged_once(self, design, caplog):
        grid = make_pi_grid(design.K, 3)
        with caplog.at_level(logging.WARNING, logger="bivas"):
            fit = run_grid(design, grid, EmOptions(max_iter=2))
        stalled = [i for i, res in enumerate(fit.results) if not res.converged]
        assert stalled
        records = [r for r in caplog.records if r.name == "bivas"]
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        for i in stalled:
            assert f"{i} (pi={grid[i]:.6g})" in message
        assert f"{fit.weights[stalled].sum():.6g} of the grid weight" in message

    def test_converged_grid_logs_nothing(self, design, caplog):
        with caplog.at_level(logging.WARNING, logger="bivas"):
            fit = run_grid(design, make_pi_grid(design.K, 2), EmOptions())
        assert all(res.converged for res in fit.results)
        assert not [r for r in caplog.records if r.name == "bivas"]

    def test_python_sweeps_when_no_kernel(self, design, tmp_path,
                                          monkeypatch, caplog):
        # with no compiler and an empty cache both engines run their Python
        # sweeps, say so once, and reproduce the compiled grids
        multitask, _ = gen_multitask(SimConfig(n=[40, 30, 25], p=30, K=30,
                                               pi_true=0.3, alpha_true=0.6,
                                               snr=1.5, seed=5))
        cases = [(d, make_pi_grid(d.K, 4)) for d in (design, multitask)]
        compiled = [run_grid(d, grid, EmOptions()) for d, grid in cases]
        monkeypatch.setattr(_sweep, "COMPILER", str(tmp_path / "no-cc"))
        monkeypatch.setattr(_sweep, "cache_dirs",
                            lambda: [str(tmp_path / "cache")])
        monkeypatch.setattr(_sweep, "_loaded", None)
        with caplog.at_level(logging.WARNING, logger="bivas"):
            python = [run_grid(d, grid, EmOptions()) for d, grid in cases]
        records = [r for r in caplog.records if r.name == "bivas"]
        assert len(records) == 1
        assert "using the Python sweeps" in records[0].getMessage()
        assert _sweep.kernel() is None
        for want, got in zip(compiled, python):
            assert [r.iterations for r in got.results] \
                == [r.iterations for r in want.results]
            assert np.abs(got.elbos - want.elbos).max() \
                <= 1e-12 * np.abs(want.elbos).max()


def _grouped_low_wins():
    """A grouped draw whose low endpoint has the higher cold bound, and
    whose far endpoint's warm run beats its cold one."""
    return simulate_dataset(SimConfig(n=80, p=24, K=6, pi_true=0.4,
                                      alpha_true=0.5, snr=1.0, seed=2))[0]


def _multitask_high_wins():
    """A multi-task draw whose high endpoint has the higher cold bound, and
    whose far endpoint's warm run beats its cold one."""
    return gen_multitask(SimConfig(n=[40, 30, 25], p=30, K=30, pi_true=0.3,
                                   alpha_true=0.6, snr=1.5, seed=1))[0]


def _grouped_cold_wins():
    """A grouped draw whose far endpoint keeps its cold run."""
    return simulate_dataset(SimConfig(n=120, p=40, K=8, pi_true=0.3,
                                      alpha_true=0.5, snr=1.5, seed=21))[0]


def _multitask_cold_wins():
    """A multi-task draw whose far endpoint keeps its cold run."""
    return gen_multitask(SimConfig(n=[40, 30, 25], p=30, K=30, pi_true=0.3,
                                   alpha_true=0.6, snr=1.5, seed=2))[0]


class TestWarmChain:
    """Cold fits at the two endpoints, then one chain of warm runs from
    the endpoint with the higher bound to the other."""

    @staticmethod
    def _traced(monkeypatch, data, h, tamper=None):
        """run_grid with the engine it looks up wrapped: every run as
        (pi, start, result, a deep copy of the result as returned).
        ``tamper(pi, start, result)`` may replace what the grid gets."""
        name = "mt_em_fit" if isinstance(data, MultiTaskData) else "em_fit"
        inner, calls = getattr(grid_module, name), []

        def spy(data, init, opts=None, start=None):
            res = inner(data, init, opts, start=start)
            if tamper is not None:
                res = tamper(init.pi, start, res)
            calls.append((init.pi, start, res, copy.deepcopy(res)))
            return res
        monkeypatch.setattr(grid_module, name, spy)
        return run_grid(data, make_pi_grid(data.K, h)), calls

    @pytest.mark.parametrize("draw, up", [(_grouped_low_wins, True),
                                          (_multitask_high_wins, False)])
    def test_chain_runs_from_the_better_endpoint(self, monkeypatch, draw, up):
        data = draw()
        fit, calls = self._traced(monkeypatch, data, 5)
        pis = fit.pi_values
        order = range(1, 5) if up else range(3, -1, -1)
        assert [(pi, start is None) for pi, start, _, _ in calls] == \
            [(pis[0], True), (pis[4], True)] + [(pis[i], False) for i in order]
        assert (calls[0][2].elbo >= calls[1][2].elbo) == up

    @pytest.mark.parametrize("draw", [_grouped_low_wins, _multitask_high_wins])
    def test_warm_point_is_a_fit_from_its_neighbour(self, monkeypatch, draw):
        # each warm run equals a fresh engine run from a deep copy of the
        # previous kept run's state, its parameters with this point's pi
        data = draw()
        fit, calls = self._traced(monkeypatch, data, 5)
        engine = mt_em_fit if isinstance(data, MultiTaskData) else em_fit
        opts = EmOptions(fix_pi=True)
        up = calls[0][2].elbo >= calls[1][2].elbo
        for pi, start, res, _ in calls[2:]:
            i = int(np.flatnonzero(fit.pi_values == pi)[0])
            prev = fit.results[i - 1 if up else i + 1]
            assert start is prev.state
            fresh = engine(data, replace(prev.params, pi=pi), opts,
                           start=copy.deepcopy(prev.state))
            assert_same_fit(fresh, res.params, res.state, res.elbo_trace)
            assert (fresh.iterations, fresh.converged) \
                == (res.iterations, res.converged)

    @pytest.mark.parametrize("draw, warm_wins", [
        (_grouped_low_wins, True), (_multitask_high_wins, True),
        (_grouped_cold_wins, False), (_multitask_cold_wins, False)])
    def test_far_endpoint_keeps_the_higher_bound(self, monkeypatch, draw,
                                                 warm_wins):
        fit, calls = self._traced(monkeypatch, draw(), 4)
        (_, _, low, _), (_, _, high, _) = calls[:2]
        far = 3 if low.elbo >= high.elbo else 0
        cold, warm = (high if far else low), calls[-1][2]
        assert calls[-1][0] == fit.pi_values[far]
        assert (warm.elbo > cold.elbo) == warm_wins
        assert fit.results[far] is (warm if warm_wins else cold)
        assert fit.elbos[far] == max(warm.elbo, cold.elbo)

    @pytest.mark.parametrize("draw", [_grouped_low_wins, _multitask_high_wins])
    def test_runs_are_not_changed_by_later_steps(self, monkeypatch, draw):
        _, calls = self._traced(monkeypatch, draw(), 5)
        for _, _, res, as_returned in calls:
            assert_same_fit(res, as_returned.params, as_returned.state,
                            as_returned.elbo_trace)

    def test_one_point_is_one_cold_fit(self, monkeypatch):
        fit, calls = self._traced(monkeypatch, _grouped_low_wins(), 1)
        assert [(pi, start) for pi, start, _, _ in calls] == [(0.5, None)]
        assert fit.results == [calls[0][2]] and fit.weights.tolist() == [1.0]

    @pytest.mark.parametrize("draw", [_grouped_low_wins, _multitask_high_wins])
    def test_two_points(self, monkeypatch, draw):
        fit, calls = self._traced(monkeypatch, draw(), 2)
        (_, _, low, _), (_, _, high, _), (pi, start, warm, _) = calls
        near, far = (0, 1) if low.elbo >= high.elbo else (1, 0)
        assert pi == fit.pi_values[far]
        assert start is (low, high)[near].state
        assert fit.results[near] is (low, high)[near]
        assert fit.elbos[far] == max(warm.elbo, (low, high)[far].elbo)
        assert fit.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_max_iter_warning_names_kept_runs_only(self, monkeypatch, caplog):
        # the far endpoint's cold run is marked stalled and loses to the
        # warm run; point 2's warm run is marked stalled and is kept
        def tamper(pi, start, res):
            if start is None and pi == 0.5:
                return replace(res, converged=False, elbo=res.elbo - 1.0)
            if start is not None and pi == grid[2]:
                return replace(res, converged=False)
            return res
        data = _grouped_low_wins()
        grid = make_pi_grid(data.K, 5)
        with caplog.at_level(logging.WARNING, logger="bivas"):
            fit, _ = self._traced(monkeypatch, data, 5, tamper=tamper)
        assert [res.converged for res in fit.results] \
            == [True, True, False, True, True]
        records = [r for r in caplog.records if r.name == "bivas"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert message.startswith("1 of 5 grid points")
        assert f"grid indices 2 (pi={grid[2]:.6g});" in message

    @pytest.mark.parametrize("draw, direction", [
        (_grouped_low_wins, "up from the low end"),
        (_multitask_high_wins, "down from the high end")])
    def test_one_debug_record_per_grid(self, monkeypatch, caplog, draw,
                                       direction):
        with caplog.at_level(logging.DEBUG, logger="bivas"):
            fit, calls = self._traced(monkeypatch, draw(), 5)
        records = [r for r in caplog.records if r.name == "bivas"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        sweeps = sum(res.iterations for _, _, res, _ in calls)
        assert f"chain {direction}; {sweeps} sweeps in all runs" in message
        assert f"{calls[0][2].elbo:.6f} (pi={fit.pi_values[0]:.6g})" in message
        assert f"{calls[1][2].elbo:.6f} (pi=0.5)" in message


class TestAggregate:
    def _fit(self, h=4, seed=3):
        d, _ = simulate_dataset(SimConfig(n=80, p=24, K=6, pi_true=0.4,
                                          alpha_true=0.5, snr=1.0, seed=seed))
        return d, run_grid(d, make_pi_grid(d.K, h), EmOptions())

    def test_single_run_passthrough(self):
        d, fit = self._fit(h=1)
        s = aggregate(fit)
        st0 = fit.results[0].state
        np.testing.assert_array_equal(s.pi_tilde, st0.pi_k)
        np.testing.assert_array_equal(s.alpha_tilde, st0.alpha_jk)
        np.testing.assert_array_equal(s.mu_tilde, st0.mu)

    def test_weighted_average_arithmetic(self):
        d, fit = self._fit(h=2)
        fit.weights = np.array([0.25, 0.75])
        fit.results[0].state.pi_k[:] = 0.2
        fit.results[1].state.pi_k[:] = 0.6
        s = aggregate(fit)
        np.testing.assert_allclose(s.pi_tilde, 0.5, rtol=1e-15)

    def test_convex_bounds(self):
        # on either model: group_of is (p,) on a grouped fit and (K, L),
        # row k all k, on a multi-task one
        data, _ = gen_multitask(SimConfig(n=[40, 30], p=8, K=8, pi_true=0.4,
                                          alpha_true=0.5, snr=1.5, seed=4))
        fits = [self._fit(h=5)[1], run_grid(data, make_pi_grid(data.K, 5))]
        layouts = [np.repeat(np.arange(6), 4),
                   np.repeat(np.arange(8)[:, None], 2, axis=1)]
        for fit, group_of in zip(fits, layouts):
            s = aggregate(fit)
            lo = np.min([r.state.alpha_jk for r in fit.results], axis=0)
            hi = np.max([r.state.alpha_jk for r in fit.results], axis=0)
            assert np.all(s.alpha_tilde >= lo - 1e-12)
            assert np.all(s.alpha_tilde <= hi + 1e-12)
            assert np.array_equal(s.group_of, group_of)
            assert s.multitask == fit.multitask == (group_of.ndim == 2)
            assert np.all(s.effect == s.pi_tilde[s.group_of] * s.alpha_tilde
                          * s.mu_tilde)

    def test_identical_states_any_weights(self):
        d, fit = self._fit(h=2)
        clone = fit.results[0].state
        fit.results[1].state.mu[:] = clone.mu
        fit.results[1].state.alpha_jk[:] = clone.alpha_jk
        fit.results[1].state.pi_k[:] = clone.pi_k
        fit.weights = np.array([0.3, 0.7])
        s = aggregate(fit)
        np.testing.assert_allclose(s.mu_tilde, clone.mu, rtol=1e-15)
        np.testing.assert_allclose(s.pi_tilde, clone.pi_k, rtol=1e-15)


class TestSelect:
    def _summary(self):
        d, _ = simulate_dataset(SimConfig(n=60, p=12, K=4, pi_true=0.5,
                                          alpha_true=0.8, snr=2.0, seed=9))
        fit = run_grid(d, make_pi_grid(d.K, 3), EmOptions())
        return aggregate(fit)

    def test_strict_inequality_at_boundary(self):
        s = self._summary()
        s.group_fdr[:] = 0.5
        s.group_fdr[0] = 0.05       # exactly at threshold: excluded
        s.group_fdr[1] = 0.049999
        s.var_fdr[:] = 1.0
        report = select(s, 0.05)
        assert np.flatnonzero(report.groups).tolist() == [1]
        assert report.variables.shape == s.group_of.shape
        assert not report.variables.any()

    def test_high_posterior_group_selected(self):
        s = self._summary()
        s.group_fdr[:] = 1.0 - 0.5
        s.group_fdr[2] = 1.0 - 0.96
        report = select(s, 0.05)
        assert report.groups.shape == (4,) and report.groups[2]

    def test_monotone_in_threshold(self):
        s = self._summary()
        strict = select(s, 0.01)
        loose = select(s, 0.2)
        assert not (strict.groups & ~loose.groups).any()
        assert not (strict.variables & ~loose.variables).any()

    def test_invalid_threshold(self):
        s = self._summary()
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(InvalidThreshold):
                select(s, bad)

    def test_empty_design_empty_report(self):
        rng = np.random.default_rng(0)
        n = 10
        d = GroupedDesign(rng.standard_normal(n), np.ones((n, 1)),
                          np.empty((n, 0)), np.empty(0, dtype=int))
        fit = run_grid(d, make_pi_grid(1, 2), EmOptions())
        report = select(aggregate(fit), 0.05)
        assert report.groups.size == 0
        assert report.variables.size == 0

    def test_multitask_masks_take_the_model_layout(self):
        data, _ = gen_multitask(SimConfig(n=[30, 25], p=6, K=6, pi_true=0.5,
                                          alpha_true=0.8, snr=3.0, seed=4))
        s = aggregate(run_grid(data, make_pi_grid(data.K, 3), EmOptions()))
        report = select(s, 0.2)
        assert report.groups.shape == (6,)
        assert report.variables.shape == (6, 2)
        np.testing.assert_array_equal(report.variables, s.var_fdr < 0.2)


class TestPredict:
    def test_zero_effects_give_covariate_fit(self):
        d, _ = simulate_dataset(SimConfig(n=50, p=10, K=5, pi_true=0.5,
                                          alpha_true=0.5, snr=1.0, seed=2))
        fit = run_grid(d, make_pi_grid(d.K, 2), EmOptions())
        s = aggregate(fit)
        s.effect[:] = 0.0
        yhat = predict(s, d.Z, d.X)
        np.testing.assert_allclose(yhat, d.Z @ s.params.omega, atol=1e-12)

    def test_unit_effect_single_column(self):
        d, _ = simulate_dataset(SimConfig(n=30, p=4, K=2, pi_true=0.5,
                                          alpha_true=0.5, snr=1.0, seed=2))
        fit = run_grid(d, make_pi_grid(d.K, 1), EmOptions())
        s = aggregate(fit)
        s.effect[:] = 0.0
        s.effect[1] = 3.0
        yhat = predict(s, d.Z, d.X)
        np.testing.assert_allclose(
            yhat, d.Z @ s.params.omega + 3.0 * d.X[:, 1], atol=1e-12)

    def test_dimension_checks(self):
        d, _ = simulate_dataset(SimConfig(n=30, p=4, K=2, pi_true=0.5,
                                          alpha_true=0.5, snr=1.0, seed=2))
        fit = run_grid(d, make_pi_grid(d.K, 1), EmOptions())
        s = aggregate(fit)
        with pytest.raises(DimensionMismatch):
            predict(s, d.Z, d.X[:, :2])
        with pytest.raises(DimensionMismatch):
            predict(s, d.Z, d.X, task=0)

    def test_train_test_accuracy_vs_true_coefficients(self):
        # the fitted predictor should recover most of the accuracy of the
        # oracle predictor built from the true coefficients
        cfg = SimConfig(n=800, p=100, K=10, pi_true=0.3, alpha_true=0.6,
                        snr=2.0, seed=77)
        design, truth = simulate_dataset(cfg)
        train = slice(0, 500)
        test = slice(500, 800)
        d_train = GroupedDesign(design.y[train], design.Z[train],
                                design.X[train], design.group_of)
        fit = run_grid(d_train, make_pi_grid(d_train.K, 10), EmOptions())
        s = aggregate(fit)
        yhat = predict(s, design.Z[test], design.X[test])
        y_true = design.y[test]

        def r2(pred):
            ss_res = float(((y_true - pred) ** 2).sum())
            ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
            return 1.0 - ss_res / ss_tot

        oracle_pred = design.X[test] @ truth.coef
        assert r2(yhat) >= 0.8 * r2(oracle_pred)

    def test_multitask_predict_per_task(self):
        cfg = SimConfig(n=[60, 50], p=8, K=8, pi_true=0.4, alpha_true=0.8,
                        snr=2.0, seed=11)
        data, truth = gen_multitask(cfg)
        fit = run_grid(data, make_pi_grid(data.K, 3), EmOptions())
        s = aggregate(fit)
        for j in range(data.L):
            yhat = predict(s, data.Z[j], data.X[j], task=j)
            expected = data.Z[j] @ s.params.omega[j] \
                + data.X[j] @ s.effect[:, j]
            np.testing.assert_allclose(yhat, expected, atol=1e-12)
        with pytest.raises(DimensionMismatch):
            predict(s, data.Z[0], data.X[0])

    def test_multitask_task_outside_range_rejected(self):
        data, _ = gen_multitask(SimConfig(n=[40, 30], p=6, K=6, pi_true=0.4,
                                          alpha_true=0.8, snr=2.0, seed=12))
        s = aggregate(run_grid(data, make_pi_grid(data.K, 2), EmOptions()))
        for bad in (2, 5, -1):
            with pytest.raises(DimensionMismatch, match=r"\[0, 2\)"):
                predict(s, data.Z[0], data.X[0], task=bad)
