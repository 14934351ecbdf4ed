/* One whole coordinate-ascent E-step sweep per call, for both EM engines,
 * the group fits of the groups that keep one, in one call, and the parse
 * of the plain numeric rows of a chunk of a data table.
 *
 * The sweep makes the updates of bivas.group_fit.estep_sweep_python, in
 * the same order and with the same formulas; the Python sweep is the
 * reference the tests compare against, as bivas.designs.group_fits_python
 * is for group_fits.  Coefficient c lies in row block b = block[c] (a
 * task; a grouped design is one block) and is column col[c] of that
 * block's Fortran-order X (it starts at Xs[b] + col[c] * ns[b]); the two
 * arrays spare the sweep an integer division per member.  Each coefficient
 * is updated straight against its block's maintained residual: one dot
 * product for its numerator and one axpy for its change, which is the one
 * pass over X an iteration costs.  The state is updated in place, and
 * sweep leaves in group_fit each kept group's fit X_k alpha mu formed anew
 * from the swept alpha mu: a group adds each member's column to its row
 * while that column is still in cache, in group_fits's order (fit_step),
 * so the row equals group_fits's bit for bit and the EM loop's fit pass
 * reads it instead of passing over X again.  Each call allocates its own
 * workspace and keeps no static data, so concurrent calls on separate
 * states are safe (ctypes releases the GIL around them).
 *
 * Built with -O3 -ffp-contract=off: a * b + c is never fused, and each
 * expression rounds as the Python sweep's does; the vectorizer packs
 * elementwise loops into SSE2 pairs, which round each element as the
 * scalar code does.  Dot products keep four partial sums; their rounding
 * differs from BLAS's in the last bits only.  Only axpy takes restrict
 * (no caller passes it overlapping x and y): it runs at least once per
 * coefficient, and without restrict gcc tests the two for overlap before
 * its vector loop on every call; dot stores nothing, and fit_step's own
 * loops run once per four members, so their test costs little.
 *
 * sweep returns 0, or -1 when the workspace cannot be allocated (the state
 * is then untouched).  group_fits, parse_row and parse_rows need no
 * workspace.
 *
 * parse_rows takes the whole plain rows of a chunk of a table's bytes in
 * one call, skipping blank lines, and parse_row parses each.  parse_row
 * reads a cell's digits 8 at a time where it can (digits: a SWAR check
 * and conversion, on little-endian machines only), rounds a cell of at
 * most 19 significant digits and a decimal exponent within +-27 (every
 * cell repr writes for a magnitude in [1e-11, 1e28), and zero) in 64- and
 * 128-bit integers, and hands any other cell to strtod.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
static void axpy(double a, const double *restrict x, double *restrict y,
                 int64_t len)
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

/* One step of a group's fit g = X_k w_k over its members t = 0 .. size-1,
 * in members order, taken once member t's w is final.  x[3] and w[3] are
 * member t's column and weight, and x[0..3) and w[0..3) members t-3 .. t-1's
 * (see shift).  Member 0 sets g = w0 x0; each block of four members after
 * it adds (w1 x1 + w2 x2) + (w3 x3 + w4 x4) at its fourth member, so one
 * pass over g takes four columns; the members after the last whole block
 * add w x one by one.  group_fits and sweep both build their fits here, so
 * the two give the same bits. */
static void fit_step(int64_t t, int64_t size, const double *const *x,
                     const double *w, double *g, int64_t n)
{
    if (t == 0) {
        for (int64_t i = 0; i < n; i++)
            g[i] = w[3] * x[3][i];
    } else if (t > (size - 1) / 4 * 4) {
        axpy(w[3], x[3], g, n);
    } else if (t % 4 == 0) {
        for (int64_t i = 0; i < n; i++)
            g[i] += (w[0] * x[0][i] + w[1] * x[1][i])
                    + (w[2] * x[2][i] + w[3] * x[3][i]);
    }
}

/* Move fit_step's window of the last four members on by one, putting the
 * next member's column and weight at its end.  Folded into fit_step, the
 * sweep ran about 9 % slower on a grouped design (n = 500, groups of 20,
 * gcc 12). */
static void shift(const double **x, double *w, const double *next_x,
                  double next_w)
{
    for (int j = 0; j < 3; j++) {
        x[j] = x[j + 1];
        w[j] = w[j + 1];
    }
    x[3] = next_x;
    w[3] = next_w;
}

/* The sweep.  Group k's members are members[group_ptr[k] .. group_ptr[k+1]),
 * block by block in column order, and there is at least one.  rs[b] is
 * block b's weighted residual y_b - Z_b w_b - X_b pw, pw = pi_k alpha mu,
 * and mu, ajk, xtx, s2 and log_ratio are per coefficient.  A group with
 * at most one member in each block (fit_row[k] < 0) keeps no fit and is
 * updated in two passes against the residuals.  A group with several
 * members in one block, all in that block, keeps its unweighted fit
 * g_k = X_k alpha mu as row fit_row[k] of group_fit (C order, rows of the
 * block's length), and its members are updated against the workspace e,
 * r + pi_k g_k - g_k.  pi_k and the residual take the new fit as r - e;
 * the row takes it as fit_step builds it.
 * bivas.group_fit.estep_sweep_python gives both paths' formulas. */
int sweep(int64_t L, int64_t K, const int64_t *ns, const double *const *Xs,
          const int64_t *block, const int64_t *col, const double *xtx,
          const double *s2, const double *log_ratio, const int64_t *members,
          const int64_t *group_ptr, const int64_t *fit_row,
          const double *sigma_e2, double logit_alpha, double logit_pi,
          double *mu, double *ajk, double *pi_k, double *const *rs,
          double *group_fit)
{
    /* a fit group's e, or the b_old of a group's (at most L) members */
    int64_t len = L;
    for (int64_t b = 0; b < L; b++)
        len = ns[b] > len ? ns[b] : len;
    double *work = malloc(sizeof(double) * (size_t)(len + 1));
    if (work == NULL)
        return -1;

    for (int64_t k = 0; k < K; k++) {
        int64_t g0 = group_ptr[k], g1 = group_ptr[k + 1];
        int64_t fb = block[members[g0]], fn = ns[fb];  /* a fit group's block */
        double pk = pi_k[k], *e = work, *gk = NULL;
        const double *win_x[4] = {NULL, NULL, NULL, NULL};  /* fit_step's */
        double win_w[4] = {0.0, 0.0, 0.0, 0.0};
        double bracket_sum = 0.0;  /* sum_j alpha_jk (log(s2/sigma_beta2) + mu^2/s2) */
        double diag_sum = 0.0;     /* sum_j (alpha mu)_j^2 x_j'x_j */
        if (fit_row[k] >= 0) {
            /* put the group's weighted fit back into the residual, r holding
             * y - Z w - sum_{k' != k} pi_k' g_k', and start e = r - g_k;
             * the row g_k then takes the group's new fit */
            gk = group_fit + fit_row[k] * fn;
            for (int64_t i = 0; i < fn; i++) {
                rs[fb][i] += pk * gk[i];
                e[i] = rs[fb][i] - gk[i];
            }
        }
        for (int64_t jj = g0; jj < g1; jj++) {
            int64_t c = members[jj], b = block[c], n = ns[b];
            const double *x = Xs[b] + col[c] * n;
            double x2 = xtx[c], s2_c = s2[c], mu_new = 0.0;
            /* against e, a fit group's member has w = alpha mu in its
             * numerator; against r_b, a lone member has b_old = pi_k w */
            double old = gk ? ajk[c] * mu[c] : pk * (ajk[c] * mu[c]);
            if (x2 > 0.0) {
                double num = dot(x, gk ? e : rs[b], n) + old * x2;
                mu_new = num * s2_c / sigma_e2[b];
            }
            double bracket = log_ratio[c] + mu_new * mu_new / s2_c;
            double a_new = sigmoid(logit_alpha + 0.5 * pk * bracket);
            mu[c] = mu_new;
            ajk[c] = a_new;
            bracket_sum += a_new * bracket;
            if (gk) {
                double w_new = a_new * mu_new;
                diag_sum += w_new * w_new * x2;
                axpy(-(w_new - old), x, e, n);
                /* the new fit takes x while it is still in cache */
                shift(win_x, win_w, x, w_new);
                fit_step(jj - g0, g1 - g0, win_x, win_w, gk, n);
            } else {
                work[jj - g0] = old;
            }
        }
        if (gk == NULL) {
            pi_k[k] = sigmoid(logit_pi + 0.5 * bracket_sum);
            /* r_b -= x (b_new - b_old) */
            for (int64_t jj = g0; jj < g1; jj++) {
                int64_t c = members[jj], b = block[c];
                axpy(-(pi_k[k] * (ajk[c] * mu[c]) - work[jj - g0]),
                     Xs[b] + col[c] * ns[b], rs[b], ns[b]);
            }
            continue;
        }
        /* e is r less the group's new fit, and r - e that fit as the
         * incremental updates left it: pi_k and the residual take this one,
         * and the row keeps the one fit_step built */
        for (int64_t i = 0; i < fn; i++)
            e[i] = rs[fb][i] - e[i];
        pi_k[k] = sigmoid(logit_pi + 0.5 * bracket_sum
                          + 0.5 * (dot(e, e, fn) - diag_sum) / sigma_e2[fb]);
        axpy(-pi_k[k], e, rs[fb], fn);
    }
    free(work);
    return 0;
}

/* The unweighted fits G[m] = X_k w_k of the groups k = fit_groups[m],
 * m < M, of a one-block design X (n rows, Fortran order), whose
 * coefficient c is column c; members are listed as in sweep, and w is
 * alpha mu.  G is (M, n) in C order and is overwritten. */
void group_fits(int64_t n, int64_t M, const double *X, const double *w,
                const int64_t *members, const int64_t *group_ptr,
                const int64_t *fit_groups, double *G)
{
    for (int64_t m = 0; m < M; m++) {
        int64_t g0 = group_ptr[fit_groups[m]], g1 = group_ptr[fit_groups[m] + 1];
        const double *win_x[4] = {NULL, NULL, NULL, NULL};
        double win_w[4] = {0.0, 0.0, 0.0, 0.0};
        for (int64_t jj = g0; jj < g1; jj++) {
            shift(win_x, win_w, X + members[jj] * n, w[members[jj]]);
            fit_step(jj - g0, g1 - g0, win_x, win_w, G + m * n, n);
        }
    }
}

#define MAX_DIGITS 19       /* any 19 decimal digits fit a uint64_t */
#define MAX_EXACT_EXP 27    /* 5^27 < 2^63 */
#define EXP_CAP 100000      /* an exponent read stops growing here */

/* Append the digit c to a cell's significant digits: nd of them, the
 * first MAX_DIGITS kept in w.  Leading zeros are not significant. */
static inline void take(uint64_t *w, int64_t *nd, char c)
{
    if (*nd > 0 || c != '0') {
        if (++*nd <= MAX_DIGITS)
            *w = *w * 10 + (uint64_t)(c - '0');
    }
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define EIGHT_AT_ONCE 1
/* Whether the 8 bytes v, loaded little-endian, are all ASCII digits, and
 * their value as an 8-digit decimal, the first byte the most significant
 * (Lemire, Number Parsing at a Gigabyte per Second, 2021). */
static inline int eight_digits(uint64_t v)
{
    return ((v & 0xF0F0F0F0F0F0F0F0ULL)
            | (((v + 0x0606060606060606ULL) & 0xF0F0F0F0F0F0F0F0ULL) >> 4))
           == 0x3333333333333333ULL;
}

static inline uint64_t eight_value(uint64_t v)
{
    v = ((v & 0x0F0F0F0F0F0F0F0FULL) * 2561) >> 8;
    v = ((v & 0x00FF00FF00FF00FFULL) * 6553601) >> 16;
    return ((v & 0x0000FFFF0000FFFFULL) * 42949672960001ULL) >> 32;
}
#endif

/* Read the run of digits at p (up to end) into a cell's w and nd, as
 * take would digit by digit, and return the byte after it.  Once no
 * leading zero is pending, 8 digits at a time go in one step while the
 * count stays within MAX_DIGITS; the digits around them go one by one. */
static const char *digits(const char *p, const char *end, uint64_t *w,
                          int64_t *nd)
{
#ifdef EIGHT_AT_ONCE
    if (*nd == 0)
        while (p < end && *p == '0')
            p++;
    while (end - p >= 8 && *nd <= MAX_DIGITS - 8) {
        uint64_t v;
        memcpy(&v, p, 8);
        if (!eight_digits(v))
            break;
        *w = *w * 100000000 + eight_value(v);
        *nd += 8;
        p += 8;
    }
#endif
    for (; p < end && *p >= '0' && *p <= '9'; p++)
        take(w, nd, *p);
    return p;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[MAX_EXACT_EXP + 1] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL,
    390625ULL, 1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL,
    1220703125ULL, 6103515625ULL, 30517578125ULL, 152587890625ULL,
    762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL,
};

/* The double nearest to m 2^e, ties to even, for m > 0; when sticky,
 * the value lies a little above m 2^e (by less than 2^e), and m has more
 * than 53 bits.  Every m and e passed here give a normal double, so ldexp
 * scales exactly. */
static double nearest(u128 m, int sticky, int e)
{
    uint64_t hi = (uint64_t)(m >> 64);
    int bits = hi ? 128 - __builtin_clzll(hi)
                   : 64 - __builtin_clzll((uint64_t)m);
    if (bits <= 53)
        return ldexp((double)(uint64_t)m, e);
    int shift = bits - 53;
    uint64_t top = (uint64_t)(m >> shift);
    u128 rest = m & (((u128)1 << shift) - 1), half = (u128)1 << (shift - 1);
    if (rest > half || (rest == half && (sticky || (top & 1))))
        top++;
    return ldexp((double)top, e + shift);
}

/* 10^k for k <= 22: exact doubles, since 5^22 < 2^53 */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* w 10^q rounded to nearest, ties to even, for 0 < w < 10^MAX_DIGITS and
 * |q| <= MAX_EXACT_EXP: the exact case of Clinger (1990).  When w and
 * 10^|q| are both exact doubles, one multiplication or division rounds
 * correctly.  Otherwise, in integers: for q >= 0 the product w 5^q is
 * exact in 128 bits.  For q < 0, w 10^q = (w 2^s / 5^-q) 2^(q-s), and s
 * puts the top bit of w 2^s at bit 63 + (bit length of 5^-q): the
 * quotient then has 63 or 64 bits, so one 128-by-64 division makes it,
 * and its remainder is the sticky bit. */
static double decimal_to_double(uint64_t w, int q)
{
    if (w <= (1ULL << 53) && q >= -22 && q <= 22)
        return q < 0 ? (double)w / POW10[-q] : (double)w * POW10[q];
    if (q >= 0)
        return nearest((u128)w * POW5[q], 0, q);
    uint64_t d = POW5[-q];
    int s = 63 + __builtin_clzll(w) - __builtin_clzll(d);
    u128 num = (u128)w << s, quo = num / d;
    return nearest(quo, num - quo * d != 0, q - s);
}
#endif

/* Parse one data row, line[0 .. len), of exactly width cells separated by
 * the byte delim, into out[0 .. width).  The row may end in "\n" or "\r\n".
 * Each cell must be [-+]?digits[.digits][(e|E)[-+]?digits], which covers
 * every double repr writes, and must be finite.  One pass over a cell
 * reads its significant digits w and decimal exponent q.  A zero is a
 * signed zero; w 10^q with at most MAX_DIGITS digits and |q| <=
 * MAX_EXACT_EXP is rounded in integers (decimal_to_double), which needs
 * no locale; any other cell goes to strtod, which must stop exactly at the
 * cell's end (so a locale with another decimal point fails there).  Both
 * round correctly, as Python's float() does, so all give the same double.
 * line[len] must be readable and must not continue a number, as the NUL
 * that ends a Python bytes object.  Returns 0 when the whole row parsed,
 * or -1 at the first cell or ending it does not accept; out is then
 * partly written.  bivas.io's Python parser reads on from a row this one
 * rejects, and writes every message. */
int parse_row(const char *line, int64_t len, int64_t delim, int64_t width,
              double *out)
{
    const char *p = line, *end = line + len;
    if (end > p && end[-1] == '\n') {
        end--;
        if (end > p && end[-1] == '\r')
            end--;
    }
    for (int64_t j = 0; j < width; j++) {
        const char *cell = p, *run;
        uint64_t w = 0;
        int64_t nd = 0, q = 0, e = 0;   /* the cell is w 10^q while nd fits */
        int neg = 0;
        if (p < end && (*p == '+' || *p == '-'))
            neg = *p++ == '-';
        p = digits(run = p, end, &w, &nd);
        if (p == run)
            return -1;
        if (p < end && *p == '.') {
            p = digits(run = p + 1, end, &w, &nd);
            if (p == run)
                return -1;
            q -= p - run;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            int eneg = 0;
            if (++p < end && (*p == '+' || *p == '-'))
                eneg = *p++ == '-';
            /* past EXP_CAP, e is not the exponent: strtod takes the cell */
            for (run = p; p < end && *p >= '0' && *p <= '9'; p++)
                e = e < EXP_CAP ? e * 10 + (*p - '0') : e;
            if (p == run)
                return -1;
            q += eneg ? -e : e;
        }
        /* the cell ends at the delimiter, or the last one at the row's end */
        if (j + 1 < width ? p == end || *p != (char)delim : p != end)
            return -1;
        double v;
        if (nd == 0) {
            v = neg ? -0.0 : 0.0;
#ifdef __SIZEOF_INT128__
        } else if (nd <= MAX_DIGITS && e < EXP_CAP && q >= -MAX_EXACT_EXP
                   && q <= MAX_EXACT_EXP) {
            v = decimal_to_double(w, (int)q);
            v = neg ? -v : v;
#endif
        } else {
            char *parsed_end;
            v = strtod(cell, &parsed_end);
            if (parsed_end != p || !isfinite(v))
                return -1;
        }
        out[j] = v;
        p++;
    }
    return 0;
}

/* Parse the plain rows at the start of buf[0 .. len) into out, width
 * doubles a row and at most room rows, each by parse_row.  A row ends at
 * its "\n", or at len when at_eof; blank lines ("\n" or "\r\n") are
 * skipped, as csv skips them, so they leave the row count as it is.
 * done[0] is set to the rows written and done[1] to the bytes taken: those
 * rows and the blank lines up to where the parse stopped.  Returns 0 when
 * no whole row is left (at_eof: every byte was taken), 1 when out is full
 * and -1 at a row that is not plain: parse_row rejects it, or it holds a
 * "\r" that no "\n" follows, a line ending left to csv.  A "\r" at len
 * when not at_eof waits for the next bytes, which may hold its "\n".
 * buf[len] must be readable and must not continue a number (parse_row). */
int parse_rows(const char *buf, int64_t len, int64_t at_eof, int64_t delim,
               int64_t width, double *out, int64_t room, int64_t *done)
{
    const char *p = buf, *end = buf + len;
    int64_t rows = 0;
    int status = 0;
    while (p < end) {
        const char *nl = memchr(p, '\n', (size_t)(end - p));
        const char *cr = memchr(p, '\r', (size_t)((nl ? nl : end) - p));
        if (cr != NULL && cr + 1 != nl) {
            if (cr + 1 < end || at_eof)
                status = -1;
            break;
        }
        if (nl == NULL && !at_eof)
            break;
        if (nl == p || cr == p) {          /* a blank line */
            p = nl + 1;
            continue;
        }
        if (rows == room) {
            status = 1;
            break;
        }
        const char *next = nl ? nl + 1 : end;
        if (parse_row(p, next - p, delim, width, out + rows * width) != 0) {
            status = -1;
            break;
        }
        rows++;
        p = next;
    }
    done[0] = rows;
    done[1] = p - buf;
    return status;
}
