"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All randomness is
seeded, so every criterion is deterministic.  The heavy criteria (5, 6
and 8) dominate the runtime; the whole module finishes in about two
minutes on a 2-vCPU machine (1 min 38 s to 2 min 40 s over three runs).
"""
import copy
import math
import os

import numpy as np

from bivas import (
    EmOptions,
    GroupedDesign,
    ModelParams,
    VariationalState,
    aggregate,
    elbo,
    em_fit,
    estep_sweep,
    initial_params,
    make_pi_grid,
    mstep_update,
    mt_em_fit,
    normalize_weights,
    predict,
    run_grid,
    select,
)
from bivas import io as bio
from bivas.cli import main as cli_main
from bivas.designs import clamp_prob
from bivas.metrics import auc, coef_mse, fdr_power
from bivas.oracle import exact_log_marginal
from bivas.simulate import SimConfig, gen_multitask, simulate_dataset

from conftest import (
    converge_estep,
    direct_numerator,
    random_grouped,
    random_multitask,
    random_state,
)

THREADS = min(4, os.cpu_count() or 1)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def stalled(fit):
    """A grid's points, its points stopped at max_iter, their weight, and
    the sweeps of its kept runs."""
    mask = np.array([not res.converged for res in fit.results])
    return (mask.size, int(mask.sum()), float(fit.weights[mask].sum()),
            sum(res.iterations for res in fit.results))


def stalled_detail(grids):
    """The :func:`stalled` rows of several grids, as one report phrase."""
    points, count, weight, sweeps = np.array(grids).T
    return (f"{int(count.sum())} of {int(points.sum())} grid points stopped "
            f"at max_iter (at most {weight.max():.3f} of a grid's weight), "
            f"{int(sweeps.sum())} sweeps in the kept runs")


def test_criterion_1_elbo_monotonicity():
    """Every EM trace non-decreasing within 1e-8 (1 + |L|), both engines."""
    rng = np.random.default_rng(101)
    traces = 0
    worst = math.inf

    def check(trace):
        nonlocal traces, worst
        diffs = np.diff(trace)
        slack = 1e-8 * (1.0 + np.abs(trace[1:]))
        margin = float((diffs + slack).min()) if diffs.size else math.inf
        worst = min(worst, margin)
        assert np.all(diffs >= -slack)
        traces += 1

    for _ in range(70):
        n = int(rng.integers(20, 201))
        K = int(rng.integers(2, 21))
        sizes = rng.integers(1, 21, K)
        while sizes.sum() > min(400, 2 * n):
            sizes = np.maximum(1, sizes // 2)
        group_of = np.repeat(np.arange(K), sizes)
        p = int(sizes.sum())
        X = rng.standard_normal((n, p))
        coef = rng.standard_normal(p) * (rng.random(p) < 0.3)
        y = X @ coef + rng.standard_normal(n)
        d = GroupedDesign(y, np.ones((n, 1)), X, group_of)
        res = em_fit(d, initial_params(d, pi=float(rng.uniform(0.05, 0.6))),
                     EmOptions(max_iter=25))
        check(res.elbo_trace)

    for _ in range(35):
        data = random_multitask(rng, L=int(rng.integers(2, 4)),
                                K=int(rng.integers(3, 30)),
                                n_range=(15, 120))
        res = mt_em_fit(data, initial_params(
            data, pi=float(rng.uniform(0.05, 0.6))), EmOptions(max_iter=25))
        check(res.elbo_trace)

    report(1, traces >= 100,
           f"{traces} traces monotone, worst slack margin {worst:.2e}")


def test_criterion_2_oracle_bound_and_l1_equivalence():
    """Converged ELBO below the exact log marginal; L=1 engines agree."""
    rng = np.random.default_rng(202)
    worst_gap = -math.inf
    instances = 0
    for _ in range(50):
        n = int(rng.integers(10, 21))
        K = int(rng.integers(1, 4))
        sizes = rng.integers(1, 3, K)
        p = int(sizes.sum())
        X = rng.standard_normal((n, p))
        coef = rng.standard_normal(p) * (rng.random(p) < 0.5)
        y = X @ coef + 0.8 * rng.standard_normal(n)
        d = GroupedDesign(y, np.ones((n, 1)), X,
                          np.repeat(np.arange(K), sizes))
        res = em_fit(d, initial_params(d, pi=float(rng.uniform(0.2, 0.6))),
                     EmOptions(max_iter=800, rel_tol=1e-9))
        gap = res.elbo - exact_log_marginal(d, res.params)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8
        instances += 1

    from bivas import MultiTaskData
    worst_eq = 0.0
    for _ in range(5):
        n, K = int(rng.integers(20, 40)), int(rng.integers(4, 10))
        X = rng.standard_normal((n, K))
        y = X @ (rng.standard_normal(K) * (rng.random(K) < 0.5)) \
            + rng.standard_normal(n)
        gd = GroupedDesign(y, np.ones((n, 1)), X, np.arange(K))
        md = MultiTaskData([(y, np.ones((n, 1)), X)])
        opts = EmOptions(max_iter=400, rel_tol=1e-10)
        g = em_fit(gd, initial_params(gd, pi=0.3), opts)
        m = mt_em_fit(md, initial_params(md, pi=0.3), opts)
        scale = 1.0 + abs(g.elbo)
        worst_eq = max(worst_eq,
                       abs(m.elbo - g.elbo) / scale,
                       float(np.abs(m.state.mu[:, 0] - g.state.mu).max()),
                       float(np.abs(m.state.pi_k - g.state.pi_k).max()))
        assert worst_eq <= 1e-10

    report(2, instances >= 50,
           f"{instances} oracle bounds (worst gap {worst_gap:.2e}), "
           f"L=1 equivalence within {worst_eq:.2e}")


def test_criterion_3_stationarity_and_coordinate_optimality():
    """M-step gradients vanish; E-step fixed points resist perturbation."""
    rng = np.random.default_rng(303)
    fd_worst = 0.0
    coord_worst = -math.inf
    for _ in range(20):
        d = random_grouped(rng, n_range=(20, 41), K_range=(2, 5),
                           max_group=3, with_covariate=True)
        warm = em_fit(d, initial_params(d, pi=0.4), EmOptions(max_iter=12))
        state = VariationalState.initial(d, warm.params, start=warm.state)
        estep_sweep(state, d, warm.params)
        params = mstep_update(state, d, warm.params, EmOptions())
        base = elbo(state, d, params)
        tol = 1e-4 * (1.0 + abs(base))

        def bound(**over):
            merged = dict(alpha=params.alpha, pi=params.pi,
                          sigma_beta2=params.sigma_beta2,
                          sigma_e2=params.sigma_e2, omega=params.omega)
            merged.update(over)
            return elbo(state, d, ModelParams(**merged))

        for name in ("sigma_e2", "sigma_beta2"):
            val = getattr(params, name)
            h = 1e-6 * val
            grad = (bound(**{name: val + h}) - bound(**{name: val - h})) \
                / (2 * h)
            fd_worst = max(fd_worst, abs(grad) / (1.0 + abs(base)))
            assert abs(grad) <= tol
        for r in range(d.r):
            up, dn = params.omega.copy(), params.omega.copy()
            up[r] += 1e-6
            dn[r] -= 1e-6
            grad = (bound(omega=up) - bound(omega=dn)) / 2e-6
            fd_worst = max(fd_worst, abs(grad) / (1.0 + abs(base)))
            assert abs(grad) <= tol

        # coordinate optimality at an E-step fixed point
        state = converge_estep(state, d, params)
        base = elbo(state, d, params)
        allowed = 1e-8 * (1.0 + abs(base))
        for j in range(d.p):
            for eps in (1e-3, -1e-3):
                pert = copy.deepcopy(state)
                pert.alpha_jk[j] = clamp_prob(state.alpha_jk[j] + eps)
                coord_worst = max(coord_worst, elbo(pert, d, params) - base)
                pert = copy.deepcopy(state)
                pert.mu[j] = state.mu[j] + eps
                coord_worst = max(coord_worst, elbo(pert, d, params) - base)
        for k in range(d.K):
            for eps in (1e-3, -1e-3):
                pert = copy.deepcopy(state)
                pert.pi_k[k] = clamp_prob(state.pi_k[k] + eps)
                coord_worst = max(coord_worst, elbo(pert, d, params) - base)
        assert coord_worst <= allowed

    report(3, True, f"FD gradient max {fd_worst:.2e} (tol 1e-4), "
                    f"perturbation gain max {coord_worst:.2e}")


def test_criterion_4_residual_identity():
    """Cached numerator equals the direct double sum to 1e-10 relative."""
    rng = np.random.default_rng(404)
    worst = 0.0
    checked = 0
    for i in range(20):
        rho = (0.0, 0.5, -0.5)[i % 3]
        d = random_grouped(rng, n_range=(20, 60), K_range=(2, 6),
                           max_group=4, rho=rho)
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
                rel = abs(cached - direct) / (1.0 + abs(direct))
                worst = max(worst, rel)
                assert rel <= 1e-10
                checked += 1
    report(4, True, f"{checked} coordinates on 20 designs, worst {worst:.2e}")


def test_criterion_5_desk_scale_fdr_power_auc():
    """Scaled selection study: FDR <= 0.15, power >= 0.5, AUCs >= 0.9."""
    rows, grids = [], []
    for rep in range(20):
        design, truth = simulate_dataset(SimConfig(
            n=500, p=1000, K=50, rho=0.0, pi_true=0.1, alpha_true=0.4,
            snr=2.0, seed=500 + rep))
        fit = run_grid(design, make_pi_grid(design.K, 20), EmOptions(),
                       threads=THREADS)
        grids.append(stalled(fit))
        summary = aggregate(fit)
        sel = select(summary, 0.05)
        nonzero = truth.coef != 0.0
        fdr, power = fdr_power(sel.variables, nonzero)
        score = summary.pi_tilde[design.group_of] * summary.alpha_tilde
        rows.append((fdr, power, auc(score, nonzero),
                     auc(summary.pi_tilde, truth.eta > 0)))
    mean_fdr, mean_power, mean_auc, mean_gauc = np.mean(rows, axis=0)
    ok = (mean_fdr <= 0.15 and mean_power >= 0.5
          and mean_auc >= 0.9 and mean_gauc >= 0.9)
    report(5, ok, f"mean FDR {mean_fdr:.3f} (<=0.15), "
                  f"power {mean_power:.3f} (>=0.5), "
                  f"variable AUC {mean_auc:.3f} (>=0.9), "
                  f"group AUC {mean_gauc:.3f} (>=0.9); "
                  + stalled_detail(grids))


def test_criterion_6_snr_monotonicity():
    """Mean coefficient MSE strictly decreases in SNR for both sparsity mixes."""
    detail, grids = [], []
    ok = True
    for pi_true, alpha_true in ((0.05, 0.8), (0.1, 0.4)):
        means = []
        for snr in (0.5, 1.0, 2.0):
            mses = []
            for rep in range(10):
                design, truth = simulate_dataset(SimConfig(
                    n=300, p=400, K=20, rho=0.0, pi_true=pi_true,
                    alpha_true=alpha_true, snr=snr, seed=6_000 + rep))
                fit = run_grid(design, make_pi_grid(design.K, 10),
                               EmOptions(), threads=THREADS)
                grids.append(stalled(fit))
                mses.append(coef_mse(aggregate(fit).effect, truth.coef))
            means.append(float(np.mean(mses)))
        ok = ok and means[0] > means[1] > means[2]
        detail.append(f"({pi_true},{alpha_true}): "
                      + " > ".join(f"{m:.4f}" for m in means))
    report(6, ok, "; ".join(detail + [stalled_detail(grids)]))


def test_criterion_7_grid_mechanics():
    """Exact grid endpoints, weight shift invariance, thread invariance."""
    endpoint_ok = True
    for K in (2, 10, 50, 1000):
        vals = make_pi_grid(K, 9)
        odds = vals / (1.0 - vals)
        endpoint_ok &= abs(odds[0] - 1.0 / K) <= 1e-15 / K
        endpoint_ok &= vals[-1] == 0.5

    elbos = np.arange(-12, 8, dtype=float) / 8.0   # dyadic, adds exactly
    shift_err = 0.0
    for shift in (1e6, -3e5, 2.0 ** 40):
        base = normalize_weights(elbos)
        moved = normalize_weights(elbos + shift)
        shift_err = max(shift_err, float(np.abs(base - moved).max()))
    shift_ok = shift_err <= 1e-14

    design, _ = simulate_dataset(SimConfig(n=150, p=60, K=10, pi_true=0.3,
                                           alpha_true=0.5, snr=1.5, seed=77))
    grid = make_pi_grid(design.K, 8)
    fits = [run_grid(design, grid, EmOptions(), threads=t)
            for t in (1, 2, 4)]
    thread_err = 0.0
    for other in fits[1:]:
        thread_err = max(
            thread_err,
            float(np.abs(other.elbos - fits[0].elbos).max()),
            float(np.abs(other.weights - fits[0].weights).max()),
            max(float(np.abs(a.state.alpha_jk - b.state.alpha_jk).max())
                for a, b in zip(other.results, fits[0].results)),
        )
    thread_ok = thread_err <= 1e-12

    report(7, endpoint_ok and shift_ok and thread_ok,
           f"endpoints exact, shift error {shift_err:.1e} (<=1e-14), "
           f"thread spread {thread_err:.1e} (<=1e-12)")


def test_criterion_8_multitask_shared_support_gain():
    """Joint fit helps the smallest task in at least 8 of 10 replicates."""
    wins = 0
    pairs, joint_grids, sep_grids = [], [], []
    for rep in range(10):
        cfg = SimConfig(n=[300, 250, 200], p=1000, K=1000, rho=0.0,
                        pi_true=0.05, alpha_true=0.8, snr=2.0,
                        seed=8_000 + rep)
        data, truth = gen_multitask(cfg)
        fit = run_grid(data, make_pi_grid(data.K, 10), EmOptions(),
                       threads=THREADS)
        joint_grids.append(stalled(fit))
        joint = aggregate(fit)
        smallest = int(np.argmin(data.n))
        mse_joint = coef_mse(joint.effect[:, smallest],
                             truth.coef[:, smallest])
        d = GroupedDesign(data.y[smallest], data.Z[smallest],
                          data.X[smallest], np.arange(data.K))
        fit = run_grid(d, make_pi_grid(d.K, 10), EmOptions(), threads=THREADS)
        sep_grids.append(stalled(fit))
        sep = aggregate(fit)
        mse_sep = coef_mse(sep.effect, truth.coef[:, smallest])
        pairs.append((mse_joint, mse_sep))
        if mse_joint <= mse_sep:
            wins += 1
    report(8, wins >= 8,
           f"joint <= separate in {wins}/10 replicates "
           f"(mean joint {np.mean([a for a, _ in pairs]):.4f}, "
           f"separate {np.mean([b for _, b in pairs]):.4f}); joint: "
           f"{stalled_detail(joint_grids)}; separate: "
           f"{stalled_detail(sep_grids)}")


def test_criterion_9_cli_round_trip(tmp_path):
    """fit -> predict reproduces in-memory fits; reruns are byte-identical."""
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--n", "250", "--p", "60", "--k-groups",
                     "6", "--pi", "0.5", "--alpha", "0.6", "--snr", "2.0",
                     "--seed", "11", "--out", str(sim)]) == 0
    fits = []
    for tag in ("one", "two"):
        out = tmp_path / f"fit_{tag}"
        assert cli_main(["fit", "--data", str(sim / "data.csv"),
                         "--groups", str(sim / "groups.csv"),
                         "--grid-size", "6", "--threads", "2",
                         "--out", str(out)]) == 0
        fits.append(out)
    identical = all(
        (fits[0] / name).read_bytes() == (fits[1] / name).read_bytes()
        for name in ("model.json", "posterior.csv", "groups.csv",
                     "selection.json"))

    pred = tmp_path / "pred.csv"
    assert cli_main(["predict", "--model", str(fits[0] / "model.json"),
                     "--data", str(sim / "data.csv"),
                     "--groups", str(sim / "groups.csv"),
                     "--out", str(pred)]) == 0
    yhat_cli = np.array([float(v) for v in
                         pred.read_text().strip().splitlines()[1:]])

    design = bio.load_design(str(sim / "data.csv"), str(sim / "groups.csv"))
    fit = run_grid(design, make_pi_grid(design.K, 6), EmOptions(),
                   threads=2)
    yhat_mem = predict(aggregate(fit), design.Z, design.X)
    gap = float(np.abs(yhat_cli - yhat_mem).max())

    report(9, identical and gap <= 1e-10,
           f"round-trip gap {gap:.1e} (<=1e-10), "
           f"byte-identical rerun: {identical}")
