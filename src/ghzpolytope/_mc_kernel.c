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

/* Add to hits[0..2] the rows of the (m, d) matrix p that are genuine,
 * biseparable but not fully, and fully biseparable, if `pairs`; add to
 * hits[3] the Mermin-violating rows, if `mermin`.  Each test is the eps = 0
 * form of the predicate in _mc_kernel_py; the first three share one fold
 * over the flip pairs (i, d-1-i). */
static inline void count_rows(const double *p, int64_t m, int64_t d, int pairs, int mermin,
                              double nu, int64_t *hits)
{
    int64_t genuine = 0, middle = 0, fully = 0, violating = 0;
    for (int64_t r = 0; r < m; r++) {
        const double *row = p + r * d;
        if (mermin)
            violating += (row[0] - row[d - 1]) - nu > 0.0;
        if (!pairs)
            continue;
        double maxp = -INFINITY, maxdiff = 0.0, minsum = INFINITY;
        for (int64_t i = 0; i < d / 2; i++) {
            double lo = row[i], hi = row[d - 1 - i];
            double big = lo > hi ? lo : hi, diff = fabs(lo - hi), sum = lo + hi;
            maxp = big > maxp ? big : maxp;
            maxdiff = diff > maxdiff ? diff : maxdiff;
            minsum = sum < minsum ? sum : minsum;
        }
        int g = maxp > 0.5, f = maxdiff <= minsum;
        genuine += g;
        fully += f;
        middle += !g && !f;
    }
    hits[0] += genuine;
    hits[1] += middle;
    hits[2] += fully;
    hits[3] += violating;
}

/* Add to hits[k] the rows of p in region k for each bit 1 << k set in mask
 * (0 genuine, 1 biseparable but not fully, 2 fully biseparable, 3 Mermin);
 * the counts of regions not in mask are unspecified.  Each call below
 * inlines its own copy of the row loop, so no mask bit is tested per row. */
void count_hits(const double *p, int64_t m, int64_t d, int mask, double nu, int64_t *hits)
{
    if (!(mask & 7))
        count_rows(p, m, d, 0, 1, nu, hits);
    else if (mask & 8)
        count_rows(p, m, d, 1, 1, nu, hits);
    else
        count_rows(p, m, d, 1, 0, nu, hits);
}

/* Draw m rows from the chunk's bit generator in blocks of `rows` rows
 * through buf (rows x d), normalise each row, and add each block's counts of
 * the regions in mask to hits.  On return buf holds the last block's
 * normalised rows. */
void chunk_counts(bitgen_t *bitgen, int64_t m, int64_t d, double *buf, int64_t rows,
                  int mask, double nu, int64_t *hits)
{
    for (int64_t start = 0; start < m; start += rows) {
        int64_t b = m - start < rows ? m - start : rows;
        random_standard_exponential_fill(bitgen, b * d, buf);
        for (int64_t r = 0; r < b; r++) {
            double *row = buf + r * d, s = row_sum(row, d);
            for (int64_t j = 0; j < d; j++)
                row[j] /= s;
        }
        count_hits(buf, b, d, mask, nu, hits);
    }
}
