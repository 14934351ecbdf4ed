/* One whole coordinate-ascent E-step sweep per call, for both EM engines,
 * and the grouped engine's group fits in one call.
 *
 * The sweeps are the Gram-tile sweeps of bivas.group_fit.estep_sweep_python
 * and bivas.multitask_fit.mt_estep_sweep_python, with the same update order
 * and formulas; the Python sweeps are the reference the tests compare
 * against, as bivas.designs.group_fits_python is for group_fits.
 * Columns are read straight from the Fortran-order design (column j starts
 * at X + j * n) by member index.  The state is updated in place.  Each call
 * allocates its own workspace and keeps no static data, so concurrent calls
 * on separate states are safe (ctypes releases the GIL around them).
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

/* Grouped sweep.  Group k owns tiles group_tile_ptr[k] .. group_tile_ptr[k+1];
 * tile t owns members[tile_ptr[t] .. tile_ptr[t+1]) and the next m_t * m_t
 * numbers of grams (C order).  group_fit is (K, n) in C order; r is the
 * weighted residual y - Z w - sum_k pi_k g_k. */
int grouped_sweep(int64_t n, int64_t K, const double *X, const double *xtx,
                  const double *s2, const double *log_ratio,
                  const int64_t *members, const int64_t *tile_ptr,
                  const int64_t *group_tile_ptr, const double *grams,
                  double sigma_e2, double logit_alpha, double logit_pi,
                  double *mu, double *ajk, double *pi_k, double *r,
                  double *group_fit)
{
    int64_t width = 0;
    for (int64_t t = 0; t < group_tile_ptr[K]; t++)
        if (tile_ptr[t + 1] - tile_ptr[t] > width)
            width = tile_ptr[t + 1] - tile_ptr[t];
    double *ws = malloc(sizeof(double) * (size_t)(3 * width + n + 1));
    if (ws == NULL)
        return -1;
    double *w = ws, *w_start = ws + width, *c = ws + 2 * width;
    double *excl = ws + 3 * width;   /* r + pi_k g_k - g_k */

    const double *gram = grams;
    for (int64_t k = 0; k < K; k++) {
        double *gk = group_fit + k * n;
        double pk = pi_k[k];
        /* take the group's weighted fit back out of the residual */
        axpy(pk, gk, r, n);
        double bracket_sum = 0.0;  /* sum_j alpha_jk (log(s2/sigma_beta2) + mu^2/s2) */
        double diag_sum = 0.0;     /* sum_j (alpha mu)_j^2 x_j'x_j */
        for (int64_t t = group_tile_ptr[k]; t < group_tile_ptr[k + 1]; t++) {
            const int64_t *mem = members + tile_ptr[t];
            int64_t m = tile_ptr[t + 1] - tile_ptr[t];
            for (int64_t jj = 0; jj < m; jj++)
                w[jj] = w_start[jj] = ajk[mem[jj]] * mu[mem[jj]];
            for (int64_t i = 0; i < n; i++)
                excl[i] = r[i] - gk[i];
            /* c = X_t'(r - g_k) + G_t w */
            for (int64_t jj = 0; jj < m; jj++)
                c[jj] = dot(X + mem[jj] * n, excl, n) + dot(gram + jj * m, w, m);
            for (int64_t jj = 0; jj < m; jj++) {
                int64_t j = mem[jj];
                double x2 = xtx[j], s2_j = s2[j], mu_new = 0.0;
                if (x2 > 0.0) {
                    double num = c[jj] - dot(gram + jj * m, w, m) + w_start[jj] * x2;
                    mu_new = num * s2_j / sigma_e2;
                }
                double bracket = log_ratio[j] + mu_new * mu_new / s2_j;
                double a_new = sigmoid(logit_alpha + 0.5 * pk * bracket);
                double w_new = a_new * mu_new;
                w[jj] = w_new;
                mu[j] = mu_new;
                ajk[j] = a_new;
                bracket_sum += a_new * bracket;
                diag_sum += w_new * w_new * x2;
            }
            /* g_k += X_t (w - w_start) */
            for (int64_t jj = 0; jj < m; jj++)
                axpy(w[jj] - w_start[jj], X + mem[jj] * n, gk, n);
            gram += m * m;
        }
        double u = logit_pi + 0.5 * bracket_sum;
        if (tile_ptr[group_tile_ptr[k + 1]] - tile_ptr[group_tile_ptr[k]] > 1)
            u += 0.5 * (dot(gk, gk, n) - diag_sum) / sigma_e2;
        pi_k[k] = sigmoid(u);
        axpy(-pi_k[k], gk, r, n);
    }
    free(ws);
    return 0;
}

/* Group fits G[k] = X_k w_k for every group, without the pi_k weight.
 * Group k's members are members[tile_ptr[group_tile_ptr[k]] ..
 * tile_ptr[group_tile_ptr[k+1]]), as in grouped_sweep, and there is at
 * least one.  The Gram tiles are not read, so the bound that uses these
 * fits stays independent of them.  G is (K, n) in C order and is
 * overwritten. */
void group_fits(int64_t n, int64_t K, const double *X, const double *w,
                const int64_t *members, const int64_t *tile_ptr,
                const int64_t *group_tile_ptr, double *G)
{
    for (int64_t k = 0; k < K; k++) {
        double *g = G + k * n;
        int64_t jj = tile_ptr[group_tile_ptr[k]];
        int64_t end = tile_ptr[group_tile_ptr[k + 1]];
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

/* Multi-task sweep over L tasks sharing K features.  Tile t covers features
 * tile_ptr[t] .. tile_ptr[t+1]; its Gram blocks follow one another in grams,
 * task by task (m_t * m_t numbers each, C order).  Xs[j] is task j's
 * (ns[j], K) Fortran-order design and rs[j] its weighted residual; mu, ajk,
 * s2, log_ratio and xtx are (K, L) in C order. */
int multitask_sweep(int64_t L, int64_t n_tiles, const int64_t *ns,
                    const double *const *Xs, const double *xtx,
                    const double *s2, const double *log_ratio,
                    const int64_t *tile_ptr, const double *grams,
                    const double *sigma_e2, double logit_alpha, double logit_pi,
                    double *mu, double *ajk, double *pi_k, double *const *rs)
{
    int64_t width = 0;
    for (int64_t t = 0; t < n_tiles; t++)
        if (tile_ptr[t + 1] - tile_ptr[t] > width)
            width = tile_ptr[t + 1] - tile_ptr[t];
    double *ws = malloc(sizeof(double) * (size_t)(3 * L * width + 2 * L + 1));
    if (ws == NULL)
        return -1;
    /* per task j: b_j, b_j at the tile's start and c_j, width numbers each */
    double *b = ws, *b_start = ws + L * width, *c = ws + 2 * L * width;
    double *mu_k = ws + 3 * L * width, *a_k = mu_k + L;

    const double *gram = grams;
    for (int64_t t = 0; t < n_tiles; t++) {
        int64_t f0 = tile_ptr[t], m = tile_ptr[t + 1] - f0;
        /* c_j = X_jt' r_j + G_jt b_j_start */
        for (int64_t j = 0; j < L; j++) {
            double *bj = b + j * width, *bsj = b_start + j * width;
            const double *g = gram + j * m * m;
            for (int64_t kk = 0; kk < m; kk++) {
                int64_t f = f0 + kk;
                bj[kk] = bsj[kk] = pi_k[f] * (ajk[f * L + j] * mu[f * L + j]);
            }
            for (int64_t kk = 0; kk < m; kk++)
                c[j * width + kk] = dot(Xs[j] + (f0 + kk) * ns[j], rs[j], ns[j])
                                    + dot(g + kk * m, bsj, m);
        }
        for (int64_t kk = 0; kk < m; kk++) {
            int64_t f = f0 + kk;
            double pk = pi_k[f];
            double bracket_sum = 0.0;
            for (int64_t j = 0; j < L; j++) {
                double x2 = xtx[f * L + j], s2_j = s2[f * L + j], mu_new = 0.0;
                if (x2 > 0.0) {
                    double num = c[j * width + kk]
                                 - dot(gram + j * m * m + kk * m, b + j * width, m)
                                 + b_start[j * width + kk] * x2;
                    mu_new = num * s2_j / sigma_e2[j];
                }
                double bracket = log_ratio[f * L + j] + mu_new * mu_new / s2_j;
                double a_new = sigmoid(logit_alpha + 0.5 * pk * bracket);
                mu_k[j] = mu_new;
                a_k[j] = a_new;
                bracket_sum += a_new * bracket;
            }
            double p_new = sigmoid(logit_pi + 0.5 * bracket_sum);
            for (int64_t j = 0; j < L; j++) {
                b[j * width + kk] = p_new * (a_k[j] * mu_k[j]);
                mu[f * L + j] = mu_k[j];
                ajk[f * L + j] = a_k[j];
            }
            pi_k[f] = p_new;
        }
        /* r_j -= X_jt (b_j - b_j_start) */
        for (int64_t j = 0; j < L; j++)
            for (int64_t kk = 0; kk < m; kk++)
                axpy(-(b[j * width + kk] - b_start[j * width + kk]),
                     Xs[j] + (f0 + kk) * ns[j], rs[j], ns[j]);
        gram += L * m * m;
    }
    free(ws);
    return 0;
}
