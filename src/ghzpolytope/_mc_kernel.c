/* Monte-Carlo kernel: draws, normalises and counts a chunk of points uniform
 * on the (d-1)-simplex in one pass, with the samples and decisions of the
 * NumPy path (volume.sample_simplex, then _mc_kernel_py.count_hits).
 *
 * The chunk's Philox4x64-10 stream and the ziggurat's fast path run inline;
 * the rare draws off the fast path go to NumPy's own routine.  Built by
 * _mc_kernel.py against NumPy's C random library.  Compile without
 * -ffast-math and without FMA contraction: every sum below must be added in
 * the order written. */
#include <stdint.h>
#include <math.h>
#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which includes Python.h; the routine
 * behind Generator.standard_exponential. */
extern double random_standard_exponential(bitgen_t *state);

/* Philox4x64-10 (Salmon et al., SC'11), stepped as NumPy's philox_next steps
 * it: out holds the last block of four values, pos the next one to hand out
 * (4: none left). */
typedef struct {
    uint64_t key[2], counter[4], out[4];
    int pos;
} philox_t;

/* One Philox round on x0..x3 with key (k0, k1), then the Weyl key bump. */
#define PHILOX_ROUND(x0, x1, x2, x3, k0, k1)                                  \
    do {                                                                      \
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * x0; \
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * x2; \
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;                                  \
        x1 = (uint64_t)p1;                                                    \
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;                                  \
        x3 = (uint64_t)p0;                                                    \
        k0 += 0x9E3779B97F4A7C15ULL;                                          \
        k1 += 0xBB67AE8584CAA73BULL;                                          \
    } while (0)

/* Bump the 256-bit counter, then encrypt it into out: ten rounds, written
 * out so that -O2 keeps them unrolled. */
static void philox_block(philox_t *s)
{
    if (++s->counter[0] == 0 && ++s->counter[1] == 0 && ++s->counter[2] == 0)
        ++s->counter[3];
    uint64_t x0 = s->counter[0], x1 = s->counter[1], x2 = s->counter[2], x3 = s->counter[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    PHILOX_ROUND(x0, x1, x2, x3, k0, k1);
    s->out[0] = x0;
    s->out[1] = x1;
    s->out[2] = x2;
    s->out[3] = x3;
}

static inline uint64_t philox_next(philox_t *s)
{
    if (s->pos == 4) {
        philox_block(s);
        s->pos = 0;
    }
    return s->out[s->pos++];
}

/* The ziggurat's fast-path tables (Marsaglia & Tsang, JSS 2000): a draw u
 * with ri = u >> 11 < ke[idx], idx = (u >> 3) & 255, is the exponential
 * ri * we[idx].  NumPy keeps its tables private; read_tables reads them back
 * through random_standard_exponential. */
static uint64_t ke[256];
static double we[256];

/* A bit generator that hands out `first`, then the rest of a stream: Philox
 * if `philox` is set, else zeros.  `calls` counts the values handed out.
 * random_standard_exponential draws only through next_uint64 and
 * next_double. */
typedef struct {
    uint64_t first;
    int calls;
    philox_t *philox;
} replay_t;

static uint64_t replay_next_uint64(void *st)
{
    replay_t *s = st;
    if (s->calls++ == 0)
        return s->first;
    return s->philox ? philox_next(s->philox) : 0;
}

/* NumPy's next_double for Philox: the top 53 bits over 2^53. */
static double replay_next_double(void *st)
{
    return (replay_next_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

static double replay_exponential(uint64_t first, philox_t *philox, int *calls)
{
    replay_t s = {first, 0, philox};
    bitgen_t bitgen = {&s, replay_next_uint64, NULL, replay_next_double, NULL};
    double x = random_standard_exponential(&bitgen);
    *calls = s.calls;
    return x;
}

/* Fill ke and we from NumPy's routine: we[idx] is its value for ri = 1, and
 * ke[idx] the least ri in [0, 2^53] that takes more than one draw.  Return 0,
 * or -1 if the values found do not behave as a ziggurat's fast path. */
int read_tables(void)
{
    for (uint64_t idx = 0; idx < 256; idx++) {
        int calls;
        we[idx] = replay_exponential(1 << 11 | idx << 3, NULL, &calls);
        uint64_t lo = 0, hi = (uint64_t)1 << 53;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            replay_exponential(mid << 11 | idx << 3, NULL, &calls);
            if (calls > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        ke[idx] = lo;
        if (!(we[idx] > 0.0 && we[idx] < 1.0))
            return -1;
        if (lo > 0 && (replay_exponential((lo - 1) << 11 | idx << 3, NULL, &calls)
                       != (lo - 1) * we[idx] || calls != 1))
            return -1;
    }
    return 0;
}

/* n of NumPy's standard exponentials from the Philox stream s. */
static void fill_exponentials(philox_t *s, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = philox_next(s), ri = u >> 11;
        unsigned idx = (u >> 3) & 255;
        if (ri < ke[idx]) {
            out[i] = ri * we[idx];
        } else {  /* about 1 %: NumPy redoes the first step, then the tail or wedge */
            int calls;
            out[i] = replay_exponential(u, s, &calls);
        }
    }
}

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

/* Draw m rows from the Philox stream (key, counter, buffer, *pos), NumPy's
 * state of the chunk's bit generator, in blocks of `rows` rows through buf
 * (rows x d), normalise each row, and add each block's counts of the regions
 * in mask to hits.  On return buf holds the last block's normalised rows and
 * counter, buffer and *pos the advanced state. */
void chunk_counts(const uint64_t *key, uint64_t *counter, uint64_t *buffer, int *pos,
                  int64_t m, int64_t d, double *buf, int64_t rows, int mask, double nu,
                  int64_t *hits)
{
    philox_t philox = {{key[0], key[1]},
                  {counter[0], counter[1], counter[2], counter[3]},
                  {buffer[0], buffer[1], buffer[2], buffer[3]},
                  *pos};
    for (int64_t start = 0; start < m; start += rows) {
        int64_t b = m - start < rows ? m - start : rows;
        fill_exponentials(&philox, b * d, buf);
        for (int64_t r = 0; r < b; r++) {
            double *row = buf + r * d, s = row_sum(row, d);
            for (int64_t j = 0; j < d; j++)
                row[j] /= s;
        }
        count_hits(buf, b, d, mask, nu, hits);
    }
    for (int i = 0; i < 4; i++) {
        counter[i] = philox.counter[i];
        buffer[i] = philox.out[i];
    }
    *pos = philox.pos;
}
