/* Monte-Carlo kernel: draws, normalises and counts a chunk of points uniform
 * on the (d-1)-simplex in one pass, with the samples and decisions of the
 * NumPy path (volume.sample_simplex, then _mc_kernel_py.count_hits).
 *
 * Built by _mc_kernel.py against NumPy's own C random library.  Compile
 * without -ffast-math and without FMA contraction: every sum below must be
 * added in the order written. */
#include <stdint.h>
#include <math.h>
#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which includes Python.h; the routine
 * behind Generator.standard_exponential (npy_intp is intptr_t). */
extern void random_standard_exponential_fill(bitgen_t *state, intptr_t cnt, double *out);

/* NumPy's pairwise sum (pairwise_sum_DOUBLE), the order of e.sum(axis=1). */
static double row_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i, j;
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return row_sum(a, n2) + row_sum(a + n2, n - n2);
}

/* Rows of the (m, d) matrix p in the region: family 0 genuine, 1 biseparable
 * but not fully, 2 fully biseparable, 3 Mermin-violating.  Each test is the
 * eps = 0 form of the predicate in _mc_kernel_py, over the flip pairs
 * (i, d-1-i). */
int64_t count_hits(const double *p, int64_t m, int64_t d, int family, double nu)
{
    int64_t hits = 0;
    for (int64_t r = 0; r < m; r++) {
        const double *row = p + r * d;
        if (family == 3) {
            hits += (row[0] - row[d - 1]) - nu > 0.0;
            continue;
        }
        double maxp = -INFINITY, maxdiff = 0.0, minsum = INFINITY;
        for (int64_t i = 0; i < d / 2; i++) {
            double lo = row[i], hi = row[d - 1 - i];
            double big = lo > hi ? lo : hi, diff = fabs(lo - hi), sum = lo + hi;
            maxp = big > maxp ? big : maxp;
            maxdiff = diff > maxdiff ? diff : maxdiff;
            minsum = sum < minsum ? sum : minsum;
        }
        int genuine = maxp > 0.5, fully = maxdiff <= minsum;
        hits += family == 0 ? genuine : family == 2 ? fully : !genuine && !fully;
    }
    return hits;
}

/* Draw m rows from the chunk's bit generator in blocks of `rows` rows
 * through buf (rows x d), normalise each row, count the hits of each block.
 * On return buf holds the last block's normalised rows. */
int64_t chunk_hits(bitgen_t *bitgen, int64_t m, int64_t d, double *buf, int64_t rows,
                   int family, double nu)
{
    int64_t hits = 0;
    for (int64_t start = 0; start < m; start += rows) {
        int64_t b = m - start < rows ? m - start : rows;
        random_standard_exponential_fill(bitgen, b * d, buf);
        for (int64_t r = 0; r < b; r++) {
            double *row = buf + r * d, s = row_sum(row, d);
            for (int64_t j = 0; j < d; j++)
                row[j] /= s;
        }
        hits += count_hits(buf, b, d, family, nu);
    }
    return hits;
}
