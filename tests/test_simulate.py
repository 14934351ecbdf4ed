"""Synthetic data generator: AR structure, sparsity draws, SNR control."""
import numpy as np
import pytest

from bivas.exceptions import DimensionMismatch
from bivas.simulate import (
    SimConfig,
    gen_coefficients,
    gen_design,
    gen_multitask,
    gen_response,
    simulate_dataset,
)


class TestGenDesign:
    def test_independent_columns_when_rho_zero(self):
        cfg = SimConfig(n=5000, p=20, K=4, rho=0.0, seed=1)
        d = gen_design(cfg)
        corr = np.corrcoef(d.X, rowvar=False)
        adjacent = np.diag(corr, k=1)
        assert np.abs(adjacent).max() < 3.0 / np.sqrt(cfg.n)

    def test_ar_correlations_at_lags_one_and_two(self):
        cfg = SimConfig(n=5000, p=30, K=5, rho=0.5, seed=2)
        d = gen_design(cfg)
        corr = np.corrcoef(d.X, rowvar=False)
        lag1 = np.diag(corr, k=1)
        lag2 = np.diag(corr, k=2)
        # each pair estimate has sd ~ (1 - rho^2)/sqrt(n) ~ 0.011; allow a
        # per-pair 3 sigma band and a much tighter one on the average
        assert abs(lag1.mean() - 0.5) < 0.01
        assert abs(lag2.mean() - 0.25) < 0.01
        assert np.abs(lag1 - 0.5).max() < 0.05
        assert np.abs(lag2 - 0.25).max() < 0.05

    def test_unit_marginal_variance(self):
        cfg = SimConfig(n=5000, p=25, K=5, rho=0.6, seed=3)
        d = gen_design(cfg)
        assert np.abs(d.X.var(axis=0) - 1.0).max() < 0.05

    def test_negative_rho(self):
        cfg = SimConfig(n=5000, p=10, K=2, rho=-0.5, seed=4)
        d = gen_design(cfg)
        corr = np.corrcoef(d.X, rowvar=False)
        assert np.abs(np.diag(corr, k=1) + 0.5).max() < 0.03

    def test_groups_are_equal_blocks(self):
        cfg = SimConfig(n=20, p=12, K=3, seed=0)
        d = gen_design(cfg)
        assert d.group_sizes.tolist() == [4, 4, 4]
        assert d.r == 1 and np.all(d.Z == 1.0)

    def test_indivisible_group_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(n=20, p=10, K=3)


class TestGenCoefficients:
    def test_dense_and_empty_extremes(self):
        cfg = SimConfig(n=10, p=40, K=4, pi_true=1.0, alpha_true=1.0, seed=5)
        truth = gen_coefficients(cfg)
        assert np.all(truth.coef != 0.0)
        cfg = SimConfig(n=10, p=40, K=4, pi_true=0.0, alpha_true=1.0, seed=5)
        truth = gen_coefficients(cfg)
        assert np.all(truth.coef == 0.0)

    def test_nonzero_count_in_binomial_band(self):
        cfg = SimConfig(n=10, p=5000, K=250, pi_true=0.1, alpha_true=0.4,
                        seed=6)
        truth = gen_coefficients(cfg)
        observed = int((truth.coef != 0.0).sum())
        expected = cfg.p * cfg.pi_true * cfg.alpha_true
        # the shared group indicator correlates counts within a group:
        # per group, count = eta * Binomial(l, alpha), so
        # var = pi l alpha (1 - alpha) + pi (1 - pi) (l alpha)^2
        size = cfg.p // cfg.K
        per_group = cfg.pi_true * size * cfg.alpha_true * (1 - cfg.alpha_true) \
            + cfg.pi_true * (1 - cfg.pi_true) * (size * cfg.alpha_true) ** 2
        band = 3.0 * np.sqrt(cfg.K * per_group)
        assert abs(observed - expected) < band

    def test_truth_bookkeeping(self):
        cfg = SimConfig(n=10, p=30, K=5, pi_true=0.5, alpha_true=0.5, seed=7)
        truth = gen_coefficients(cfg)
        group_of = np.repeat(np.arange(cfg.K), cfg.p // cfg.K)
        mask = (truth.eta[group_of] * truth.gamma) != 0.0
        np.testing.assert_array_equal(truth.coef != 0.0,
                                      mask & (truth.beta != 0.0))


class TestGenResponse:
    def test_snr_exact_by_construction(self):
        cfg = SimConfig(n=300, p=20, K=4, pi_true=0.8, alpha_true=0.8,
                        snr=1.0, seed=8)
        design = gen_design(cfg)
        truth = gen_coefficients(cfg)
        _, sigma_e2 = gen_response(design, truth, snr=1.0,
                                   rng=np.random.default_rng(0))
        signal = design.X @ truth.coef
        assert float(np.var(signal)) / sigma_e2 == pytest.approx(1.0,
                                                                 rel=1e-12)

    def test_zero_signal_fallback(self):
        cfg = SimConfig(n=50, p=10, K=2, pi_true=0.0, seed=9)
        design = gen_design(cfg)
        truth = gen_coefficients(cfg)
        y, sigma_e2 = gen_response(design, truth, snr=2.0,
                                   rng=np.random.default_rng(0))
        assert sigma_e2 == 1.0
        assert np.any(y != 0.0)

    def test_higher_snr_means_less_noise(self):
        cfg = SimConfig(n=100, p=10, K=2, pi_true=1.0, alpha_true=1.0, seed=10)
        design = gen_design(cfg)
        truth = gen_coefficients(cfg)
        _, s2_hi = gen_response(design, truth, snr=2.0,
                                rng=np.random.default_rng(0))
        _, s2_lo = gen_response(design, truth, snr=0.5,
                                rng=np.random.default_rng(0))
        assert s2_hi < s2_lo


class TestGenMultitask:
    def test_shapes_and_shared_support(self):
        cfg = SimConfig(n=[40, 30, 20], p=15, K=15, pi_true=0.4,
                        alpha_true=0.7, snr=2.0, seed=11)
        data, truth = gen_multitask(cfg)
        assert data.L == 3 and data.K == 15
        assert truth.coef.shape == (15, 3)
        inactive = truth.eta == 0.0
        assert np.all(truth.coef[inactive, :] == 0.0)

    def test_per_task_snr(self):
        cfg = SimConfig(n=[200, 150], p=10, K=10, pi_true=1.0,
                        alpha_true=1.0, snr=2.0, seed=12)
        data, truth = gen_multitask(cfg)
        for j in range(data.L):
            signal = data.X[j] @ truth.coef[:, j]
            assert float(np.var(signal)) / truth.sigma_e2[j] \
                == pytest.approx(2.0, rel=1e-12)

    def test_scalar_n_rejected(self):
        cfg = SimConfig(n=20, p=10, K=10, seed=0)
        with pytest.raises(DimensionMismatch):
            gen_multitask(cfg)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n=60, p=20, K=4, rho=0.3, pi_true=0.3,
                        alpha_true=0.5, snr=1.5, seed=13)
        d1, t1 = simulate_dataset(cfg)
        d2, t2 = simulate_dataset(cfg)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(t1.coef, t2.coef)

    def test_different_seeds_differ(self):
        cfg1 = SimConfig(n=60, p=20, K=4, seed=1)
        cfg2 = SimConfig(n=60, p=20, K=4, seed=2)
        d1, _ = simulate_dataset(cfg1)
        d2, _ = simulate_dataset(cfg2)
        assert not np.array_equal(d1.X, d2.X)

    def test_multitask_deterministic(self):
        cfg = SimConfig(n=[30, 25], p=8, K=8, seed=14)
        da, ta = gen_multitask(cfg)
        db, tb = gen_multitask(cfg)
        for j in range(da.L):
            np.testing.assert_array_equal(da.y[j], db.y[j])
        np.testing.assert_array_equal(ta.coef, tb.coef)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, p=10, K=2, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=10, K=2, snr=0.0)
