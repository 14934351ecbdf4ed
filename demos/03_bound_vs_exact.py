"""The variational bound against the exact marginal on a tiny instance.

With two groups of two predictors everything is enumerable: the marginal
likelihood sums 2^(K+p) closed-form Gaussian terms. The converged bound must
sit below the exact value at every grid point, and the variational inclusion
probabilities should track the exact posteriors.
"""
import numpy as np

from bivas import (
    EmOptions,
    GroupedDesign,
    em_fit,
    initial_params,
    make_pi_grid,
)
from bivas.oracle import exact_log_marginal, exact_posteriors

rng = np.random.default_rng(12)
n, K = 18, 2
sizes = [2, 2]
group_of = np.repeat(np.arange(K), sizes)
X = rng.standard_normal((n, 4))
coef = np.array([1.4, -0.9, 0.0, 0.0])   # group 0 active, group 1 null
y = X @ coef + 0.8 * rng.standard_normal(n)
design = GroupedDesign(y, np.ones((n, 1)), X, group_of)

print("pi grid vs bound vs exact log marginal (bound <= exact, always):")
for pi in make_pi_grid(K, 5):
    res = em_fit(design, initial_params(design, pi=float(pi)),
                 EmOptions(max_iter=500, rel_tol=1e-9, fix_pi=True))
    exact = exact_log_marginal(design, res.params)
    print(f"  pi={pi:7.4f}  bound={res.elbo:10.4f}  exact={exact:10.4f}  "
          f"gap={exact - res.elbo:8.5f}")

res = em_fit(design, initial_params(design, pi=0.5),
             EmOptions(max_iter=500, rel_tol=1e-9))
group_prob, var_prob, effect = exact_posteriors(design, res.params)
print("\nposterior comparison at the fitted parameters:")
print(f"{'quantity':>14} {'variational':>12} {'exact':>10}")
for k in range(K):
    print(f"{'Pr(group ' + str(k) + ')':>14} {res.state.pi_k[k]:>12.4f} "
          f"{group_prob[k]:>10.4f}")
for j in range(design.p):
    est = res.state.pi_k[group_of[j]] * res.state.alpha_jk[j] \
        * res.state.mu[j]
    print(f"{'E[coef ' + str(j) + ']':>14} {est:>12.4f} {effect[j]:>10.4f}")
