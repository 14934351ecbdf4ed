"""Coordinate sweep, bound evaluation, M-step and EM loop for the grouped model."""
import copy
import ctypes
import math
import re
import subprocess
import tracemalloc
import warnings

import numpy as np
import pytest

from bivas import (
    EmOptions,
    GroupedDesign,
    ModelParams,
    VariationalState,
    elbo,
    em_fit,
    estep_sweep,
    initial_params,
    mstep_update,
    refresh_residual,
)
from bivas import _sweep, designs, group_fit
from bivas.designs import PROB_EPS, clamp_prob
from bivas.group_fit import estep_sweep_python, run_em, sigmoid
from bivas.oracle import exact_log_marginal

from conftest import (
    HAVE_COMPILER,
    Rejecting,
    assert_same_fit,
    converge_estep,
    direct_numerator,
    direct_sweep,
    fitted_tiny,
    manual_em,
    own_fit_passes,
    random_grouped,
    random_multitask,
    random_state,
    sweep_cases,
)

SWEEPS = sweep_cases(estep_sweep, estep_sweep_python)


class TestSigmoid:
    def test_zero_gives_half(self):
        assert sigmoid(0.0) == 0.5

    def test_clamped_tails(self):
        assert sigmoid(1000.0) == 1.0 - PROB_EPS
        assert sigmoid(-1000.0) == PROB_EPS

    def test_symmetry(self):
        for x in (-7.3, -0.2, 0.9, 12.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


class TestSquaremTheta:
    """theta = (mu, logit alpha_jk, logit pi_k), the point SQUAREM moves."""

    @staticmethod
    def _theta(state):
        return np.empty(2 * state.mu.size + state.pi_k.size)

    @pytest.mark.parametrize("multitask", [False, True])
    def test_extreme_logits_unpack_clamped_without_warnings(self, rng,
                                                            multitask):
        d = random_multitask(rng) if multitask else random_grouped(rng)
        state = VariationalState.initial(d, initial_params(d, 0.3))
        theta = self._theta(state)
        theta[:] = np.where(rng.random(theta.size) < 0.5, -1e3, 1e3)
        p = state.mu.size    # both ends in each block of logits (K >= 2)
        theta[[p, 2 * p - 1, 2 * p, -1]] = -1e3, 1e3, -1e3, 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            group_fit._unpack(theta, state)
        for q in (state.alpha_jk, state.pi_k):
            assert PROB_EPS <= q.min() < 1e-11
            assert 1.0 - 1e-11 < q.max() <= 1.0 - PROB_EPS
        np.testing.assert_array_equal(state.mu.ravel(), theta[:state.mu.size])

    @pytest.mark.parametrize("multitask", [False, True])
    def test_pack_unpack_round_trip(self, rng, multitask):
        d = random_multitask(rng) if multitask else random_grouped(rng)
        state = VariationalState.initial(d, initial_params(d, 0.3))
        state.mu[:] = rng.standard_normal(state.mu.shape)
        for q in (state.alpha_jk, state.pi_k):
            q[:] = clamp_prob(rng.random(q.shape))
            q.flat[:2] = PROB_EPS, 1.0 - PROB_EPS
        theta = self._theta(state)
        group_fit._pack(state, theta)
        back = copy.deepcopy(state)
        for q in (back.mu, back.alpha_jk, back.pi_k):
            q[...] = 0.5
        group_fit._unpack(theta, back)
        for field in ("mu", "alpha_jk", "pi_k"):
            assert np.abs(getattr(back, field)
                          - getattr(state, field)).max() <= 1e-12


class TestKernelBindings:
    KINDS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    RESTYPES = {"int": ctypes.c_int, "void": None}

    def test_signatures_match_the_source(self):
        # a wrong argtypes count passes garbage silently where the kinds
        # of the leading arguments line up; every exported (non-static)
        # prototype of the source must match its binding
        with open(_sweep.SOURCE) as fh:
            prototypes = re.findall(r"^(int|void)\s+(\w+)\(([^)]*)\)\s*\{",
                                    fh.read(), re.M)
        assert {name for _, name, _ in prototypes} == set(_sweep._SIGNATURES)
        for ret, name, params in prototypes:
            restype, argtypes = _sweep._SIGNATURES[name]
            assert restype is self.RESTYPES[ret], name
            assert argtypes == [
                ctypes.c_void_p if "*" in param else self.KINDS[param.split()[-2]]
                for param in params.split(",")], name

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_source_compiles_without_warnings(self, tmp_path):
        # with the library's own flags: a signedness or narrowing slip in
        # the kernel's integer code fails here
        done = subprocess.run(
            [_sweep.COMPILER, *_sweep.FLAGS, "-Wall", "-Wextra",
             "-Wconversion", "-Werror", "-o", str(tmp_path / "gate.so"),
             _sweep.SOURCE, "-lm"], capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_optimized_build_changes_no_bit(self, rng, tmp_path, monkeypatch):
        # restrict and the vectorizer must round every element as the
        # unoptimized code does: the library built with the kernel's flags
        # and one built at -O0 give the same sweeps, group fits and parsed
        # cells, bit for bit
        path = str(tmp_path / "unoptimized.so")
        done = subprocess.run(
            [_sweep.COMPILER, "-O0", "-shared", "-fPIC", "-ffp-contract=off",
             "-o", path, _sweep.SOURCE, "-lm"], capture_output=True,
            text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        libs = (_sweep.kernel(), _sweep.open_library(path))
        grouped = random_grouped(rng, n=13, sizes=[9, 1, 6, 2, 5, 3, 1, 17],
                                 rho=0.5, interleave=True)
        for data in (grouped, random_multitask(rng, L=3, K=9)):
            params = initial_params(data, pi=0.3)
            state = VariationalState.initial(data, params)
            state.mu[:] = rng.standard_normal(state.mu.shape)
            state.alpha_jk[:] = clamp_prob(rng.random(state.mu.shape))
            state.pi_k[:] = clamp_prob(rng.random(data.K))
            refresh_residual(state, data, params)
            swept = [copy.deepcopy(state) for _ in libs]
            for lib, s in zip(libs, swept):
                monkeypatch.setattr(_sweep, "_loaded", lib)
                for _ in range(3):
                    estep_sweep(s, data, params)
            for field in ("mu", "alpha_jk", "pi_k", "group_fit"):
                assert np.array_equal(getattr(swept[0], field),
                                      getattr(swept[1], field)), field
            for got, want in zip(data.per_block(swept[0].residual),
                                 data.per_block(swept[1].residual)):
                assert np.array_equal(got, want)
        w = rng.standard_normal(grouped.p)
        fits = []
        for lib in libs:
            monkeypatch.setattr(_sweep, "_loaded", lib)
            fits.append(designs.group_fits(grouped, w))
        assert np.array_equal(*fits)

        # cells on both sides of the integer path's limits, as in
        # test_table_parse.TestExactConversion, and repr of any double
        cells = [repr(float(v)) for v in rng.standard_normal(3000)
                 * 10.0 ** rng.integers(-320, 300, 3000)]
        for j in range(5):
            for i in rng.integers(0, 2 ** 52, 1000):
                digits = str((2 ** 53 + 2 * int(i) + 1) * 5 ** j)
                cells += [f"{digits}e-{j}", f"{int(digits) + 1}e-{j}"]
        for q in rng.integers(-30, 31, 2000):
            digits = str(int(rng.integers(10 ** 18, 10 ** 19, dtype=np.uint64)))
            cells += [f"{digits}e{q}", f"-{digits}7e{q - 1}",
                      f"{digits[:3]}.{digits[3:]}E{q}"]
        raw = ",".join(cells).encode()
        parsed = []
        for lib in libs:
            out = np.empty(len(cells))
            assert lib.parse_row(raw, len(raw), ord(","), len(cells),
                                 out.ctypes.data) == 0
            parsed.append(out.tobytes())
        assert parsed[0] == parsed[1]


class TestEstepSweep:
    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_kernel_loads_with_a_compiler(self):
        # with a compiler present the sweeps must not fall back silently
        assert _sweep.kernel() is not None

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_kernel_cache_skips_a_directory_others_can_write(
            self, tmp_path, monkeypatch):
        shared, private = tmp_path / "shared", tmp_path / "private"
        shared.mkdir()
        shared.chmod(0o777)
        monkeypatch.setattr(_sweep, "cache_dirs",
                            lambda: [str(shared), str(private)])
        monkeypatch.setattr(_sweep, "_loaded", None)
        assert _sweep.kernel() is not None
        assert list(shared.iterdir()) == []
        assert [f.suffix for f in private.iterdir()] == [".so"]
        assert private.stat().st_mode & 0o777 == 0o700

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_build_prunes_only_the_package_cache(self, tmp_path, monkeypatch):
        # a build into the package's own cache removes the libraries of
        # earlier sources there; the per-user cache, which other installs
        # may share, keeps every library
        package, user = tmp_path / "package", tmp_path / "user"
        for cache in (package, user):
            cache.mkdir(mode=0o700)
            for stale in ("_sweep-0123456789abcdef.so", "_sweep-old.so.tmp",
                          "other.so"):
                (cache / stale).write_bytes(b"")
        monkeypatch.setattr(_sweep, "cache_dirs",
                            lambda: [str(package), str(user)])
        monkeypatch.setattr(_sweep, "_loaded", None)
        assert _sweep.kernel() is not None
        built = [f.name for f in package.glob("_sweep-*.so")]
        assert len(built) == 1 and built[0] != "_sweep-0123456789abcdef.so"
        assert sorted(f.name for f in package.iterdir()) \
            == sorted(built + ["_sweep-old.so.tmp", "other.so"])

        package.chmod(0o770)          # no longer private: build into user
        monkeypatch.setattr(_sweep, "_loaded", None)
        assert _sweep.kernel() is not None
        assert (user / "_sweep-0123456789abcdef.so").exists()
        assert (user / built[0]).exists()

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_kernel_rejects_arrays_it_cannot_update_in_place(self, rng):
        d = random_grouped(rng, n=20, sizes=[3, 2])
        params = initial_params(d, pi=0.4)
        state = random_state(rng, d, params)
        state.group_fit = np.asfortranarray(state.group_fit)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            estep_sweep(state, d, params)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_zero_norm_column(self, sweep):
        n = 12
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.standard_normal(n), np.zeros(n)])
        d = GroupedDesign(rng.standard_normal(n), np.ones((n, 1)), X,
                          np.array([0, 0]))
        params = ModelParams(alpha=0.3, pi=0.4, sigma_beta2=2.0, sigma_e2=1.0,
                             omega=np.zeros(1))
        state = VariationalState.initial(d, params)
        sweep(state, d, params)
        assert state.s2[1] == params.sigma_beta2
        assert state.mu[1] == 0.0
        # a dead column's inclusion stays at the prior
        assert state.alpha_jk[1] == pytest.approx(params.alpha, abs=1e-12)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_matches_direct_formula(self, rng, sweep):
        # the residual-updating sweep against the no-cache reference, over
        # small random groups, groups wider than n, singleton groups, a
        # zero-norm column and correlated columns
        cases = [dict(n=20, K=2, max_group=2) for _ in range(6)]
        cases += [dict(n=7, sizes=[16, 1, 9]),
                  dict(n=5, sizes=[11, 5, 6]),
                  dict(n=15, sizes=[1, 1, 1, 1]),
                  dict(n=12, sizes=[3, 4], zero_col=2),
                  dict(n=9, sizes=[20, 2], zero_col=5),
                  dict(n=20, sizes=[4, 3, 5], rho=0.5),
                  dict(n=20, sizes=[4, 3, 5], rho=-0.5),
                  dict(n=8, sizes=[19, 2], rho=0.5)]
        for case in cases:
            zero_col = case.pop("zero_col", None)
            d = random_grouped(rng, **case)
            if zero_col is not None:
                X = d.X.copy()
                X[:, zero_col] = 0.0
                d = GroupedDesign(d.y, d.Z, X, d.group_of)
            params = initial_params(d, pi=float(rng.uniform(0.2, 0.7)))
            state = random_state(rng, d, params)
            reference = copy.deepcopy(state)
            sweep(state, d, params)
            direct_sweep(reference, d, params)
            for got, want in ((state.mu, reference.mu),
                              (state.s2, reference.s2),
                              (state.alpha_jk, reference.alpha_jk),
                              (state.pi_k, reference.pi_k)):
                scale = 1.0 + np.abs(want).max()
                assert np.abs(got - want).max() / scale < 1e-10
            # the maintained caches equal a rebuild from the swept state
            swept = copy.deepcopy(state)
            refresh_residual(state, d, params)
            for got, want in ((swept.group_fit, state.group_fit),
                              (swept.residual, state.residual)):
                # group_fit has no rows on a design of singleton groups
                scale = 1.0 + np.abs(want).max(initial=0.0)
                assert np.abs(got - want).max(initial=0.0) / scale < 1e-10

    @pytest.mark.parametrize("sweep,fits,tol", [
        pytest.param(estep_sweep, designs.group_fits, 0.0, id="compiled",
                     marks=pytest.mark.skipif(not HAVE_COMPILER,
                                              reason="no C compiler")),
        pytest.param(estep_sweep_python, designs.group_fits_python, 1e-12,
                     id="python")])
    def test_sweep_leaves_fresh_group_fits(self, rng, sweep, fits, tol):
        # each kept group's row after a sweep is its fit formed anew from
        # the swept alpha mu, as the fit pass forms it: bit for bit on the
        # compiled path, over every group size mod 4, groups wider than n,
        # interleaved group ids and singleton groups
        cases = [dict(n=30, sizes=[2, 3, 4, 5, 6, 7, 8, 9, 1, 1]),
                 dict(n=6, sizes=[14, 1, 9, 2]),
                 dict(n=11, sizes=[5, 1, 8, 3, 1, 13], interleave=True),
                 dict(n=20, sizes=[6, 4, 7], rho=0.6)]
        for case in cases:
            d = random_grouped(rng, **case)
            params = initial_params(d, pi=0.4)
            state = random_state(rng, d, params)
            for _ in range(3):
                sweep(state, d, params)
                want = fits(d, state.alpha_jk * state.mu)
                scale = np.abs(want).max()
                assert np.abs(state.group_fit - want).max() <= tol * scale

    def test_residual_identity(self, rng):
        # cached numerator x'r + (pi_k - 1) x'g_k + alpha mu x'x equals the
        # direct double sum, including correlated designs
        for rho in (0.0, 0.5, -0.5):
            d = random_grouped(rng, n=30, rho=rho)
            params = initial_params(d, pi=0.4)
            state = random_state(rng, d, params)
            for k, idx in enumerate(d.group_members):
                gk = d.X[:, idx] @ (state.alpha_jk[idx] * state.mu[idx])
                for pos in idx:
                    x = d.X[:, pos]
                    cached = float(x @ state.residual) \
                        + (state.pi_k[k] - 1.0) * float(x @ gk) \
                        + state.alpha_jk[pos] * state.mu[pos] * d.xtx[pos]
                    direct = direct_numerator(state, d, params, k, pos)
                    assert abs(cached - direct) / (1.0 + abs(direct)) < 1e-10


class TestElbo:
    def test_no_predictors_reduces_to_gaussian_loglik(self):
        rng = np.random.default_rng(3)
        n = 25
        Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = Z @ np.array([1.0, -2.0]) + rng.standard_normal(n)
        d = GroupedDesign(y, Z, np.empty((n, 0)), np.empty(0, dtype=int))
        omega = designs._solve_cho(d._z_cho, Z.T @ y)
        params = ModelParams(alpha=0.2, pi=0.2, sigma_beta2=1.0, sigma_e2=1.3,
                             omega=omega)
        state = VariationalState.initial(d, params)
        resid = y - Z @ omega
        expected = -0.5 * n * math.log(2 * math.pi * params.sigma_e2) \
            - float(resid @ resid) / (2 * params.sigma_e2)
        assert elbo(state, d, params) == pytest.approx(expected, abs=1e-10)

    def test_prior_state_cancellation(self, rng):
        # with alpha_jk = alpha, pi_k = pi, mu = 0, s2 = sigma_beta2 the KL
        # and entropy-difference blocks vanish; only the data term with
        # pi alpha sigma_beta2 x'x variance corrections remains
        d = random_grouped(rng, n=30)
        params = ModelParams(alpha=0.25, pi=0.35, sigma_beta2=0.8,
                             sigma_e2=1.1, omega=np.zeros(d.r))
        state = VariationalState.initial(d, params)
        state.s2[:] = params.sigma_beta2
        refresh_residual(state, d, params)
        resid = d.y - d.Z @ params.omega
        expected = -0.5 * d.n * math.log(2 * math.pi * params.sigma_e2) \
            - float(resid @ resid) / (2 * params.sigma_e2) \
            - 0.5 * params.pi * params.alpha * params.sigma_beta2 \
            * float(d.xtx.sum()) / params.sigma_e2
        assert elbo(state, d, params) == pytest.approx(expected, rel=1e-12)

    def test_bound_and_mstep_read_no_cache(self, rng, kernel_path):
        # elbo and mstep_update are pure functions of (mu, s2, alpha_jk,
        # pi_k, params): the sweep's maintained caches are never read
        d = random_grouped(rng, n=8, sizes=[3, 1, 12, 2])
        params = initial_params(d, pi=0.4)
        state = random_state(rng, d, params)
        opts = EmOptions()
        bound = elbo(state, d, params)
        updated = mstep_update(state, d, params, opts)
        state.group_fit[:] = np.nan
        state.residual[:] = np.nan
        assert elbo(state, d, params) == bound
        again = mstep_update(state, d, params, opts)
        for field in ("alpha", "pi", "sigma_beta2", "sigma_e2", "omega"):
            assert np.array_equal(getattr(again, field), getattr(updated, field))

    def test_bounded_by_exact_marginal(self, rng):
        for _ in range(5):
            design, result = fitted_tiny(rng, n_range=(8, 14), K_range=(2, 3),
                                         max_group=2)
            exact = exact_log_marginal(design, result.params)
            assert result.elbo <= exact + 1e-8


class TestWithinGroupCross:
    def test_matches_group_fit_formula(self, rng, monkeypatch):
        # sum_k (pi_k - pi_k^2) (|X_k w_k|^2 - sum_j w_j^2 x_j'x_j), with
        # X_k w_k formed from the full design rather than the group views;
        # checked on the compiled kernel and again on the Python path
        for case in (dict(n=30), dict(n=30, rho=0.5),
                     dict(n=6, sizes=[14, 1, 4]), dict(n=10, sizes=[1, 1])):
            d = random_grouped(rng, **case)
            params = initial_params(d, pi=0.4)
            state = random_state(rng, d, params)
            w = state.alpha_jk * state.mu
            want = 0.0
            for k, idx in enumerate(d.group_members):
                gk = d.X[:, idx] @ w[idx]
                pairs = float(gk @ gk) - float((w[idx] ** 2 * d.xtx[idx]).sum())
                want += (state.pi_k[k] - state.pi_k[k] ** 2) * pairs
            for loaded in (_sweep._loaded, False):
                with monkeypatch.context() as m:
                    m.setattr(_sweep, "_loaded", loaded)
                    got = sum(designs.fit_pass(state, d).cross)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


class TestMstep:
    def test_prior_updates_are_averages(self, rng):
        d = random_grouped(rng)
        params = initial_params(d, pi=0.5)
        state = VariationalState.initial(d, params)
        state.alpha_jk[:] = 0.3
        state.pi_k[:] = 0.2
        refresh_residual(state, d, params)
        new = mstep_update(state, d, params, EmOptions())
        assert new.alpha == pytest.approx(0.3, abs=1e-12)
        assert new.pi == pytest.approx(0.2, abs=1e-12)

    def test_fixed_priors_are_kept(self, rng):
        d = random_grouped(rng)
        params = initial_params(d, pi=0.5)
        state = random_state(rng, d, params)
        new = mstep_update(state, d, params, EmOptions(fix_pi=True))
        assert new.pi == params.pi

    def test_slab_variance_weighted_mean_of_constant(self, rng):
        d = random_grouped(rng)
        params = initial_params(d, pi=0.5)
        state = VariationalState.initial(d, params)
        c = 1.7
        state.mu[:] = 0.0
        state.s2[:] = c
        state.alpha_jk[:] = 0.6
        state.pi_k[:] = 0.4
        refresh_residual(state, d, params)
        new = mstep_update(state, d, params, EmOptions())
        assert new.sigma_beta2 == pytest.approx(c, rel=1e-12)

    def test_slab_update_is_pi_scale_free(self, rng):
        # a common pi_k factor cancels between numerator and denominator
        d = random_grouped(rng)
        params = initial_params(d, pi=0.5)
        state = random_state(rng, d, params)
        expected = float((state.alpha_jk * (state.s2 + state.mu ** 2)).sum()
                         / state.alpha_jk.sum())
        for common in (PROB_EPS, 0.123, 0.9):
            state.pi_k[:] = common
            refresh_residual(state, d, params)
            new = mstep_update(state, d, params, EmOptions())
            assert new.sigma_beta2 == pytest.approx(expected, rel=1e-9)

    def test_finite_difference_stationarity(self, rng):
        # the update is the exact argmax given the state, so stationarity
        # holds at any fresh E-step state, converged or not
        for _ in range(4):
            d = random_grouped(rng, with_covariate=True)
            res = em_fit(d, initial_params(d, pi=0.4), EmOptions(max_iter=15))
            state = VariationalState.initial(d, res.params, start=res.state)
            estep_sweep(state, d, res.params)
            params = mstep_update(state, d, res.params, EmOptions())
            base = elbo(state, d, params)
            tol = 1e-4 * (1.0 + abs(base))

            def bound(sigma_e2=None, sigma_beta2=None, omega=None):
                return elbo(state, d, ModelParams(
                    alpha=params.alpha, pi=params.pi,
                    sigma_beta2=params.sigma_beta2 if sigma_beta2 is None
                    else sigma_beta2,
                    sigma_e2=params.sigma_e2 if sigma_e2 is None else sigma_e2,
                    omega=params.omega if omega is None else omega))

            h = 1e-6 * params.sigma_e2
            grad = (bound(sigma_e2=params.sigma_e2 + h)
                    - bound(sigma_e2=params.sigma_e2 - h)) / (2 * h)
            assert abs(grad) < tol
            h = 1e-6 * params.sigma_beta2
            grad = (bound(sigma_beta2=params.sigma_beta2 + h)
                    - bound(sigma_beta2=params.sigma_beta2 - h)) / (2 * h)
            assert abs(grad) < tol
            for r in range(d.r):
                up = params.omega.copy()
                dn = params.omega.copy()
                up[r] += 1e-6
                dn[r] -= 1e-6
                grad = (bound(omega=up) - bound(omega=dn)) / 2e-6
                assert abs(grad) < tol


class TestEmFit:
    def test_trace_monotone(self, rng):
        for _ in range(5):
            d = random_grouped(rng, with_covariate=True)
            res = em_fit(d, initial_params(d, pi=0.3), EmOptions())
            diffs = np.diff(res.elbo_trace)
            slack = -1e-8 * (1.0 + np.abs(res.elbo_trace[1:]))
            assert np.all(diffs >= slack)
            assert res.elbo == res.elbo_trace[-1]

    def test_pure_noise_leaves_model_empty(self):
        rng = np.random.default_rng(99)
        n, p, K = 200, 50, 10
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        d = GroupedDesign(y, np.ones((n, 1)), X, np.repeat(np.arange(K), p // K))
        res = em_fit(d, initial_params(d, pi=0.3), EmOptions())
        assert res.converged
        assert res.params.alpha * res.params.pi <= 0.1

    def test_huge_effect_is_captured(self):
        rng = np.random.default_rng(7)
        n, p = 150, 20
        X = rng.standard_normal((n, p))
        sigma_e = 1.0
        y = 10.0 * sigma_e * X[:, 4] + sigma_e * rng.standard_normal(n)
        d = GroupedDesign(y, np.ones((n, 1)), X, np.arange(p))
        res = em_fit(d, initial_params(d, pi=0.3), EmOptions())
        k = d.group_of[4]
        assert res.state.pi_k[k] * res.state.alpha_jk[4] >= 0.95

    def test_coordinate_optimality_at_fixed_point(self, rng):
        d, result = fitted_tiny(rng, n_range=(15, 30), K_range=(2, 4),
                                max_group=3)
        params = result.params
        state = converge_estep(
            VariationalState.initial(d, params, start=result.state), d, params)
        base = elbo(state, d, params)
        allowed = 1e-8 * (1.0 + abs(base))
        for j in range(d.p):
            for eps in (1e-3, -1e-3):
                pert = copy.deepcopy(state)
                pert.alpha_jk[j] = clamp_prob(state.alpha_jk[j] + eps)
                assert elbo(pert, d, params) - base <= allowed
                pert = copy.deepcopy(state)
                pert.mu[j] = state.mu[j] + eps
                assert elbo(pert, d, params) - base <= allowed
        for k in range(d.K):
            for eps in (1e-3, -1e-3):
                pert = copy.deepcopy(state)
                pert.pi_k[k] = clamp_prob(state.pi_k[k] + eps)
                assert elbo(pert, d, params) - base <= allowed

    def test_matches_loop_of_public_steps(self, rng, kernel_path):
        # the shared fit pass gives bit for bit what each step computes on
        # its own, at the plain steps and at the extrapolated ones
        for case in (dict(with_covariate=True), dict(n=12, sizes=[5, 1, 9]),
                     dict(n=30, rho=0.6, max_group=6)):
            d = random_grouped(rng, **case)
            init = initial_params(d, pi=0.3)
            opts = EmOptions(max_iter=60)
            res = em_fit(d, init, opts)
            own = run_em(d, init, VariationalState.initial(d, init), opts,
                         *own_fit_passes(estep_sweep, mstep_update,
                                         refresh_residual, elbo))
            assert res.iterations == own.iterations
            assert_same_fit(res, own.params, own.state, own.elbo_trace)

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_no_group_fits_pass_inside_em_fit(self, rng, monkeypatch):
        # the fit pass of each plain step reads the group fits the sweep
        # left; an extrapolation forms them once at the extrapolated state
        # and once more when it is rejected; the bound evaluated from
        # scratch afterwards forms them itself and gives the trace's last
        # value exactly
        events = []
        real_fits, real_sweep = designs.group_fits, group_fit.estep_sweep

        def counted(*args, **kwargs):
            events.append("G")
            return real_fits(*args, **kwargs)

        def sweep(*args):
            events.append("S")
            return real_sweep(*args)

        monkeypatch.setattr(designs, "group_fits", counted)
        monkeypatch.setattr(group_fit, "estep_sweep", sweep)
        d = random_grouped(rng, with_covariate=True, sizes=[4, 1, 3, 2])
        res = em_fit(d, initial_params(d, pi=0.3), EmOptions())
        assert _sweep.kernel() is not None
        assert res.iterations > 1
        log = "".join(events)
        assert log.count("S") == res.iterations
        assert "G" in log
        assert re.fullmatch(r"(SS(GSG?)?)*S?", log), log
        assert elbo(res.state, d, res.params) == res.elbo
        assert events[len(log):] == ["G"]

    def test_rejected_extrapolations_give_the_plain_loop(self, rng,
                                                          kernel_path):
        # with every extrapolation rejected, the restored state and
        # parameters continue exactly as plain EM does
        for case in (dict(with_covariate=True), dict(n=12, sizes=[5, 1, 9]),
                     dict(n=30, rho=0.6, max_group=6)):
            d = random_grouped(rng, **case)
            init = initial_params(d, pi=0.3)
            opts = EmOptions(max_iter=500)
            steps = Rejecting(estep_sweep, group_fit._swept_fit_pass,
                              mstep_update, refresh_residual, elbo)
            res = run_em(d, init, VariationalState.initial(d, init), opts,
                         *steps.steps)
            params, state, trace = manual_em(
                d, init, VariationalState.initial(d, init), opts,
                estep_sweep, mstep_update, refresh_residual, elbo)
            assert res.converged and steps.rejected > 0
            assert res.iterations == trace.size + steps.rejected
            assert_same_fit(res, params, state, trace)

    def test_run_ending_at_a_rejection_returns_the_restored_state(self, rng):
        # a run that max_iter stops right after a rejected extrapolation
        # returns the plain state, s2 included, and the bound it evaluates to
        d = random_grouped(rng, n=30, rho=0.6, sizes=[6, 1, 4])
        init = initial_params(d, pi=0.3)
        ends = 0
        for max_iter in range(1, 10):
            opts = EmOptions(max_iter=max_iter, rel_tol=1e-12)
            steps = Rejecting(estep_sweep, group_fit._swept_fit_pass,
                              mstep_update, refresh_residual, elbo)
            res = run_em(d, init, VariationalState.initial(d, init), opts,
                         *steps.steps)
            ends += steps.last == -math.inf
            params, state, trace = manual_em(
                d, init, VariationalState.initial(d, init),
                EmOptions(max_iter=res.elbo_trace.size, rel_tol=1e-12),
                estep_sweep, mstep_update, refresh_residual, elbo)
            assert_same_fit(res, params, state, trace)
            assert elbo(res.state, d, res.params) == res.elbo
        assert ends > 0

    def test_sweeps_capped_by_max_iter(self, rng):
        d = random_grouped(rng, n=30, rho=0.6, sizes=[6, 1, 4])
        for max_iter in range(1, 8):
            res = em_fit(d, initial_params(d, pi=0.3),
                         EmOptions(max_iter=max_iter, rel_tol=1e-12))
            assert res.iterations <= max_iter
            assert 1 <= res.elbo_trace.size <= res.iterations
            assert res.elbo == res.elbo_trace[-1]

    def test_reaches_the_plain_bound_in_fewer_sweeps(self, rng):
        # correlated columns and pi held fixed, as a grid point holds it
        for _ in range(6):
            d = random_grouped(rng, n=40, rho=0.8, max_group=5,
                               with_covariate=True)
            init = initial_params(d, pi=0.3)
            opts = EmOptions(max_iter=5000, rel_tol=1e-10, fix_pi=True)
            res = em_fit(d, init, opts)
            _, _, trace = manual_em(
                d, init, VariationalState.initial(d, init), opts,
                estep_sweep, mstep_update, refresh_residual, elbo)
            assert res.converged
            assert abs(res.elbo - trace[-1]) <= 1e-8 * (1.0 + abs(trace[-1]))
            assert res.iterations < trace.size

    def test_interleaved_groups_match_group_order(self, rng, kernel_path):
        # group ids interleaved in column order, two groups wider than n:
        # the same fit as on the columns permuted into group order, where
        # every group is a contiguous run
        d = random_grouped(rng, n=12, sizes=[30, 5, 18, 1], interleave=True)
        assert np.any(np.diff(d.group_of) < 0)
        perm = np.argsort(d.group_of, kind="stable")
        s = GroupedDesign(d.y, d.Z, d.X[:, perm], d.group_of[perm])
        opts = EmOptions(max_iter=100)
        got = em_fit(d, initial_params(d, pi=0.4), opts)
        want = em_fit(s, initial_params(s, pi=0.4), opts)
        assert got.iterations == want.iterations
        assert abs(got.elbo - want.elbo) <= 1e-12 * abs(want.elbo)
        for field in ("mu", "alpha_jk"):
            assert np.abs(getattr(got.state, field)[perm]
                          - getattr(want.state, field)).max() <= 1e-12
        w = rng.standard_normal(d.p)
        fits, ordered = designs.group_fits(d, w), designs.group_fits(s, w[perm])
        assert np.abs(fits - ordered).max() <= 1e-12 * np.abs(ordered).max()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            EmOptions(max_iter=0)
        with pytest.raises(ValueError):
            EmOptions(rel_tol=0.0)


class TestFitMemory:
    """The peak of one whole fit, its state and every buffer included,
    besides the design it reads."""

    @staticmethod
    def _peak(d):
        init = initial_params(d, pi=0.2)
        em_fit(d, init, EmOptions(max_iter=2))    # first-call allocations
        tracemalloc.start()
        try:
            em_fit(d, init, EmOptions(max_iter=20))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _design(group_of, n=200):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((n, group_of.size))
        y = X[:, :5].sum(axis=1) + rng.standard_normal(n)
        return GroupedDesign(y, np.ones((n, 1)), X, group_of)

    def test_singleton_groups_keep_no_group_fit(self):
        # O(p + n): nothing of size K * n = p * n
        n, p = 200, 1000
        d = self._design(np.arange(p), n)
        assert self._peak(d) <= 256 * (p + n)

    def test_mixed_groups_keep_one_row_per_multi_member_group(self):
        # 50 groups of four and 800 singletons, interleaved: one n-row per
        # group of several members, and O(p + n) besides
        n = 200
        group_of = np.concatenate([np.repeat(np.arange(50), 4),
                                   np.arange(50, 850)])
        group_of = np.random.default_rng(5).permutation(group_of)
        d = self._design(group_of, n)
        multi = int((np.bincount(d.group_of) > 1).sum())
        assert multi == 50
        assert self._peak(d) <= 8 * n * multi + 256 * (d.p + n)
