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
        assert np.bincount(d.group_of).tolist() == [4, 4, 4]
        assert d.r == 1 and np.all(d.Z == 1.0)

    def test_indivisible_group_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(n=20, p=10, K=3)

    @pytest.mark.parametrize("snr", [0.0, -1.0, float("inf"), float("nan")])
    def test_snr_outside_open_positive_range_rejected(self, snr):
        # an infinite snr would draw y without noise, sigma_e2 = 0
        with pytest.raises(ValueError, match="snr"):
            SimConfig(n=20, p=12, K=3, snr=snr)


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

    def test_grouped_draw_is_pinned(self):
        # the values this seed drew when the draws were pinned; a change to
        # the RNG calls or their order shows here
        d, t = simulate_dataset(SimConfig(n=4, p=4, K=2, rho=0.3, pi_true=0.6,
                                          alpha_true=0.6, snr=1.5, seed=6))
        np.testing.assert_array_equal(t.eta, [0.0, 1.0])
        np.testing.assert_array_equal(t.gamma, [0.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            t.coef, [0.0, 0.0, -1.0064938867904119, -0.25436586569303216],
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            d.y, [0.3782131301033745, 0.8025258432563174, 0.9904717129209035,
                  0.38873275874322877], rtol=0, atol=1e-12)
        np.testing.assert_allclose(d.X, [
            [0.9383214897051809, -0.48284660166987514, -0.12905798125375212,
             1.1355748859152315],
            [-2.1374845008729793, -1.2580756242098907, -0.6319168917843676,
             -1.1292438229362545],
            [-1.6546607998580711, 0.171381025400751, -0.9321870831526674,
             -0.7173111903789436],
            [-0.2637027926283394, -0.546106778724315, -0.35690939862910476,
             0.22704916023292032]], rtol=0, atol=1e-12)

    def test_multitask_draw_is_pinned(self):
        data, t = gen_multitask(SimConfig(n=[3, 2], p=3, K=3, rho=0.3,
                                          pi_true=0.6, alpha_true=0.6,
                                          snr=1.5, seed=5))
        np.testing.assert_array_equal(t.eta, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(t.gamma, [[1.0, 1.0], [0.0, 1.0],
                                                [1.0, 1.0]])
        np.testing.assert_allclose(
            t.coef, [[-0.19734787126916323, 1.0189589495734153],
                     [0.0, 0.68372992218822], [0.0, 0.0]], rtol=0, atol=1e-12)
        ys = [[0.024824304195291996, 0.0829064842244274, -0.023595068421560554],
              [-0.889256822524755, 4.2844270973081775]]
        Xs = [[[-0.15761234320110798, -0.021144765525361858, 0.2526495968168886],
               [-0.5118986506607516, 2.1005301308424977, 1.6079106668210428],
               [0.071815024331182, 0.8580989691072501, 0.7146071843784804]],
              [[0.007995235790625055, -0.7227152568331168, -1.595548893596744],
               [2.3053723743691226, 1.1738861535547171, -0.3871378052530651]]]
        for j in range(data.L):
            np.testing.assert_allclose(data.y[j], ys[j], rtol=0, atol=1e-12)
            np.testing.assert_allclose(data.X[j], Xs[j], rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, p=10, K=2, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=10, K=2, snr=0.0)
