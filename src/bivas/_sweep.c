/* One whole coordinate-ascent E-step sweep per call, for both EM engines,
 * and the grouped engine's group fits in one call.
 *
 * The sweeps make the updates of bivas.group_fit.estep_sweep_python and
 * bivas.multitask_fit.mt_estep_sweep_python, in the same order and with
 * the same formulas; the Python sweeps are the reference the tests compare
 * against, as bivas.designs.group_fits_python is for group_fits.  Each
 * coefficient is updated straight against a maintained residual: one dot
 * product for its numerator and one axpy for its change, which is the one
 * pass over X an iteration costs.  Columns are read straight from the
 * Fortran-order design (column j starts at X + j * n) by member index.
 * The state is updated in place.  Each call allocates its own workspace
 * and keeps no static data, so concurrent calls on separate states are
 * safe (ctypes releases the GIL around them).
 *
 * Built with -ffp-contract=off, so a * b + c is never fused and each
 * expression rounds as the Python sweep's does.  Dot products keep four
 * partial sums; their rounding differs from BLAS's in the last bits only.
 *
 * Both sweeps return 0, or -1 when the workspace cannot be allocated
 * (the state is then untouched).  group_fits needs no workspace.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define PROB_EPS 1e-12

/* The logistic function clamped to [PROB_EPS, 1 - PROB_EPS], as
 * bivas.group_fit.sigmoid. */
static double sigmoid(double x)
{
    double out;
    if (x >= 0.0) {
        out = 1.0 / (1.0 + exp(-x));
    } else {
        double e = exp(x);
        out = e / (1.0 + e);
    }
    if (out < PROB_EPS)
        return PROB_EPS;
    if (out > 1.0 - PROB_EPS)
        return 1.0 - PROB_EPS;
    return out;
}

static double dot(const double *a, const double *b, int64_t len)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < len; i++)
        s0 += a[i] * b[i];
    return (s0 + s1) + (s2 + s3);
}

/* y += a * x */
static void axpy(double a, const double *x, double *y, int64_t len)
{
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        y[i] += a * x[i];
        y[i + 1] += a * x[i + 1];
        y[i + 2] += a * x[i + 2];
        y[i + 3] += a * x[i + 3];
    }
    for (; i < len; i++)
        y[i] += a * x[i];
}

/* Grouped sweep.  Group k's members are members[group_ptr[k] ..
 * group_ptr[k+1]), in column order, and there is at least one.
 * group_fit is (K, n) in C order; r is the weighted residual
 * y - Z w - sum_k pi_k g_k.  The workspace e holds the group-excluded
 * residual less the group's current fit, r + pi_k g_k - g_k, kept up to
 * date member by member, so each numerator is one dot product. */
int grouped_sweep(int64_t n, int64_t K, const double *X, const double *xtx,
                  const double *s2, const double *log_ratio,
                  const int64_t *members, const int64_t *group_ptr,
                  double sigma_e2, double logit_alpha, double logit_pi,
                  double *mu, double *ajk, double *pi_k, double *r,
                  double *group_fit)
{
    double *e = malloc(sizeof(double) * (size_t)(n + 1));
    if (e == NULL)
        return -1;

    for (int64_t k = 0; k < K; k++) {
        double *gk = group_fit + k * n;
        double pk = pi_k[k];
        /* put the group's weighted fit back into the residual, r holding
         * y - Z w - sum_{k' != k} pi_k' g_k', and start e = r - g_k */
        for (int64_t i = 0; i < n; i++) {
            r[i] += pk * gk[i];
            e[i] = r[i] - gk[i];
        }
        double bracket_sum = 0.0;  /* sum_j alpha_jk (log(s2/sigma_beta2) + mu^2/s2) */
        double diag_sum = 0.0;     /* sum_j (alpha mu)_j^2 x_j'x_j */
        for (int64_t jj = group_ptr[k]; jj < group_ptr[k + 1]; jj++) {
            int64_t j = members[jj];
            const double *x = X + j * n;
            double x2 = xtx[j], s2_j = s2[j], mu_new = 0.0;
            double w_old = ajk[j] * mu[j];
            if (x2 > 0.0) {
                double num = dot(x, e, n) + w_old * x2;
                mu_new = num * s2_j / sigma_e2;
            }
            double bracket = log_ratio[j] + mu_new * mu_new / s2_j;
            double a_new = sigmoid(logit_alpha + 0.5 * pk * bracket);
            double w_new = a_new * mu_new;
            mu[j] = mu_new;
            ajk[j] = a_new;
            bracket_sum += a_new * bracket;
            diag_sum += w_new * w_new * x2;
            axpy(-(w_new - w_old), x, e, n);
        }
        /* e is now r less the group's new fit */
        for (int64_t i = 0; i < n; i++)
            gk[i] = r[i] - e[i];
        double u = logit_pi + 0.5 * bracket_sum;
        if (group_ptr[k + 1] - group_ptr[k] > 1)
            u += 0.5 * (dot(gk, gk, n) - diag_sum) / sigma_e2;
        pi_k[k] = sigmoid(u);
        axpy(-pi_k[k], gk, r, n);
    }
    free(e);
    return 0;
}

/* Group fits G[k] = X_k w_k for every group, without the pi_k weight.
 * Group k's members are members[group_ptr[k] .. group_ptr[k+1]), as in
 * grouped_sweep, and there is at least one.  G is (K, n) in C order and
 * is overwritten. */
void group_fits(int64_t n, int64_t K, const double *X, const double *w,
                const int64_t *members, const int64_t *group_ptr, double *G)
{
    for (int64_t k = 0; k < K; k++) {
        double *g = G + k * n;
        int64_t jj = group_ptr[k], end = group_ptr[k + 1];
        const double *x0 = X + members[jj] * n;
        double w0 = w[members[jj]];
        for (int64_t i = 0; i < n; i++)
            g[i] = w0 * x0[i];
        /* four columns per pass over g */
        for (jj++; jj + 4 <= end; jj += 4) {
            const double *x1 = X + members[jj] * n, *x2 = X + members[jj + 1] * n;
            const double *x3 = X + members[jj + 2] * n, *x4 = X + members[jj + 3] * n;
            double w1 = w[members[jj]], w2 = w[members[jj + 1]];
            double w3 = w[members[jj + 2]], w4 = w[members[jj + 3]];
            for (int64_t i = 0; i < n; i++)
                g[i] += (w1 * x1[i] + w2 * x2[i]) + (w3 * x3[i] + w4 * x4[i]);
        }
        for (; jj < end; jj++)
            axpy(w[members[jj]], X + members[jj] * n, g, n);
    }
}

/* Multi-task sweep over L tasks sharing K features.  Xs[j] is task j's
 * (ns[j], K) Fortran-order design and rs[j] its weighted residual
 * y_j - Z_j w_j - X_j b_j, b = pi_k alpha mu; mu, ajk, s2, log_ratio and
 * xtx are (K, L) in C order.  Each feature updates every task, then
 * pi_k, and then takes its change of b out of every task's residual. */
int multitask_sweep(int64_t L, int64_t K, const int64_t *ns,
                    const double *const *Xs, const double *xtx,
                    const double *s2, const double *log_ratio,
                    const double *sigma_e2, double logit_alpha, double logit_pi,
                    double *mu, double *ajk, double *pi_k, double *const *rs)
{
    double *b_old = malloc(sizeof(double) * (size_t)(L + 1));
    if (b_old == NULL)
        return -1;

    for (int64_t f = 0; f < K; f++) {
        double pk = pi_k[f];
        double bracket_sum = 0.0;  /* sum_j alpha_kj (log(s2/sigma_beta2) + mu^2/s2) */
        for (int64_t j = 0; j < L; j++) {
            int64_t c = f * L + j;
            double x2 = xtx[c], s2_j = s2[c], mu_new = 0.0;
            b_old[j] = pk * (ajk[c] * mu[c]);
            if (x2 > 0.0) {
                double num = dot(Xs[j] + f * ns[j], rs[j], ns[j]) + b_old[j] * x2;
                mu_new = num * s2_j / sigma_e2[j];
            }
            double bracket = log_ratio[c] + mu_new * mu_new / s2_j;
            double a_new = sigmoid(logit_alpha + 0.5 * pk * bracket);
            mu[c] = mu_new;
            ajk[c] = a_new;
            bracket_sum += a_new * bracket;
        }
        double p_new = sigmoid(logit_pi + 0.5 * bracket_sum);
        pi_k[f] = p_new;
        /* r_j -= x_kj (b_new - b_old) */
        for (int64_t j = 0; j < L; j++) {
            int64_t c = f * L + j;
            axpy(-(p_new * (ajk[c] * mu[c]) - b_old[j]), Xs[j] + f * ns[j],
                 rs[j], ns[j]);
        }
    }
    free(b_old);
    return 0;
}
