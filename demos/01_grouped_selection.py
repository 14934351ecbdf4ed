"""Grouped bi-level selection on simulated data, end to end.

Simulates an AR(1) design with sparse group structure, fits the model over
the group-sparsity grid, and walks through the pieces of the result: per-run
bound values, importance weights, aggregated posteriors, fdr selection and
in-sample prediction quality.
"""
import numpy as np

from bivas import EmOptions, aggregate, make_pi_grid, predict, run_grid, select
from bivas.metrics import auc, fdr_power
from bivas.simulate import SimConfig, simulate_dataset

cfg = SimConfig(n=400, p=600, K=30, rho=0.5, pi_true=0.1, alpha_true=0.4,
                snr=2.0, seed=7)
design, truth = simulate_dataset(cfg)
print(f"simulated: n={design.n}, p={design.p}, K={design.K}, "
      f"{int((truth.coef != 0).sum())} nonzero coefficients, "
      f"sigma_e2={truth.sigma_e2:.3f}")

grid = make_pi_grid(design.K, h=15)
fit = run_grid(design, grid, EmOptions())

print("\npi grid, bound and normalized weight per run:")
for pi, e, w, res in zip(fit.pi_values, fit.elbos, fit.weights, fit.results):
    bar = "#" * int(round(40 * w))
    print(f"  pi={pi:8.5f}  elbo={e:12.3f}  weight={w:7.4f} {bar}"
          f"   ({res.iterations} iterations)")

summary = aggregate(fit)
report = select(summary, threshold=0.05)
true_groups = set(np.nonzero(truth.eta)[0].tolist())
print(f"\nselected groups (fdr < 0.05): {np.flatnonzero(report.groups).tolist()}")
print(f"truly active groups:          {sorted(true_groups)}")

nonzero = truth.coef != 0.0
fdr, power = fdr_power(report.variables, nonzero)
score = summary.pi_tilde[design.group_of] * summary.alpha_tilde
print(f"\nvariable selection: {report.variables.sum()} picked, "
      f"empirical FDR {fdr:.3f}, power {power:.3f}")
print(f"variable AUC {auc(score, nonzero):.3f}, "
      f"group AUC {auc(summary.pi_tilde, truth.eta > 0):.3f}")

yhat = predict(summary, design.Z, design.X)
resid = design.y - yhat
r2 = 1.0 - float(resid @ resid) / float(
    ((design.y - design.y.mean()) ** 2).sum())
print(f"\nin-sample R^2 of the posterior-mean predictor: {r2:.3f}")
print(f"aggregated parameters: alpha={summary.params.alpha:.3f}, "
      f"pi={summary.params.pi:.3f}, sigma_beta2={summary.params.sigma_beta2:.3f}, "
      f"sigma_e2={summary.params.sigma_e2:.3f}")
