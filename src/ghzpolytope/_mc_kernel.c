/* Monte-Carlo kernel: draws, normalises and counts a chunk of points uniform
 * on the (d-1)-simplex in one pass, with the samples and decisions of the
 * NumPy kernel (_mc_kernel_py.chunk_counts).  The docstring of _mc_kernel.py,
 * which builds, loads and checks this file, describes the Philox stream, the
 * two routines that run it and the row loop that counts.
 *
 * Built against NumPy's C random library.  Compile without -ffast-math and
 * without FMA contraction: every sum below must be added in the order
 * written. */
#include <stdint.h>
#include <math.h>
#include "numpy/random/bitgen.h"

/* The wide routine needs GCC's or Clang's x86-64 target attributes. */
#if defined(__x86_64__) && defined(__GNUC__)
#define WIDE_ROUTINE 1
#include <immintrin.h>
#else
#define WIDE_ROUTINE 0
#endif

/* From numpy/random/distributions.h, which includes Python.h; the routine
 * behind Generator.standard_exponential. */
extern double random_standard_exponential(bitgen_t *state);

/* Philox4x64-10 (Salmon et al., SC'11), eight blocks at a time: buf holds
 * eight consecutive blocks in stream order, last the low word of the
 * eighth's counter (its three high words are 0), pos the next value to hand
 * out (32: none left); round_keys are the keys PHILOX_ROUND uses in each
 * round. */
typedef struct {
    uint64_t buf[32] __attribute__((aligned(64)));
    uint64_t round_keys[10][2], last;
    int pos;
} philox8_t;

/* Take over NumPy's state (key, counter, buffer, pos): its block becomes
 * buf's eighth.  The key schedule: each round's key is the last one's plus
 * the Weyl constants. */
static void philox8_load(philox8_t *w, const uint64_t *key, uint64_t counter,
                         const uint64_t *buffer, int pos)
{
    w->last = counter;
    for (int i = 0; i < 4; i++)
        w->buf[28 + i] = buffer[i];
    uint64_t k0 = key[0], k1 = key[1];
    for (int round = 0; round < 10; round++) {
        w->round_keys[round][0] = k0;
        w->round_keys[round][1] = k1;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    w->pos = 28 + pos;
}

/* One Philox round on x0..x3 with round key (k0, k1). */
#define PHILOX_ROUND(x0, x1, x2, x3, k0, k1)                                  \
    do {                                                                      \
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * x0; \
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * x2; \
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;                                  \
        x1 = (uint64_t)p1;                                                    \
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;                                  \
        x3 = (uint64_t)p0;                                                    \
    } while (0)

/* Refill buf with the eight blocks after last, one after another: each bumps
 * the counter's low word and encrypts the counter in ten rounds. */
static void philox8_refill_scalar(philox8_t *s)
{
    for (int block = 0; block < 8; block++) {
        uint64_t x0 = ++s->last, x1 = 0, x2 = 0, x3 = 0;
#pragma GCC unroll 10
        for (int round = 0; round < 10; round++)
            PHILOX_ROUND(x0, x1, x2, x3, s->round_keys[round][0], s->round_keys[round][1]);
        s->buf[4 * block] = x0;
        s->buf[4 * block + 1] = x1;
        s->buf[4 * block + 2] = x2;
        s->buf[4 * block + 3] = x3;
    }
    s->pos = 0;
}

/* The next value of the stream, a philox8_t, for a replayed draw.  It refills
 * with the scalar routine, which writes the same 32 values as the wide one. */
static uint64_t philox8_next(void *stream)
{
    philox8_t *s = stream;
    if (s->pos == 32)
        philox8_refill_scalar(s);
    return s->buf[s->pos++];
}

/* The ziggurat's fast-path tables (Marsaglia & Tsang, JSS 2000): a draw u
 * with ri = u >> 11 < ke[idx], idx = (u >> 3) & 255, is the exponential
 * ri * we[idx].  NumPy keeps its tables private; read_tables reads them back
 * through random_standard_exponential. */
static uint64_t ke[256];
static double we[256];

/* A bit generator that hands out `first`, then the rest of a stream through
 * next(stream), or zeros if next is NULL.  `calls` counts the values handed
 * out.  random_standard_exponential draws only through next_uint64 and
 * next_double. */
typedef struct {
    uint64_t first;
    int calls;
    uint64_t (*next)(void *);
    void *stream;
} replay_t;

static uint64_t replay_next_uint64(void *st)
{
    replay_t *s = st;
    if (s->calls++ == 0)
        return s->first;
    return s->next ? s->next(s->stream) : 0;
}

/* NumPy's next_double for Philox: the top 53 bits over 2^53. */
static double replay_next_double(void *st)
{
    return (replay_next_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

static double replay_exponential(uint64_t first, uint64_t (*next)(void *), void *stream,
                                 int *calls)
{
    replay_t s = {first, 0, next, stream};
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
        we[idx] = replay_exponential(1 << 11 | idx << 3, NULL, NULL, &calls);
        uint64_t lo = 0, hi = (uint64_t)1 << 53;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            replay_exponential(mid << 11 | idx << 3, NULL, NULL, &calls);
            if (calls > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        ke[idx] = lo;
        if (!(we[idx] > 0.0 && we[idx] < 1.0))
            return -1;
        if (lo > 0 && (replay_exponential((lo - 1) << 11 | idx << 3, NULL, NULL, &calls)
                       != (lo - 1) * we[idx] || calls != 1))
            return -1;
    }
    return 0;
}

/* n of NumPy's standard exponentials from the Philox stream, a philox8_t.
 * The read position is kept in a register, and in the stream only while a
 * draw is replayed. */
static void fill_exponentials(void *stream, int64_t n, double *out)
{
    philox8_t *s = stream;
    int pos = s->pos;
    for (int64_t i = 0; i < n; i++) {
        if (pos == 32) {
            philox8_refill_scalar(s);
            pos = 0;
        }
        uint64_t u = s->buf[pos++], ri = u >> 11;
        unsigned idx = (u >> 3) & 255;
        if (ri < ke[idx]) {
            out[i] = ri * we[idx];
        } else {  /* about 2 %: NumPy redoes the first step, then the tail or wedge */
            int calls;
            s->pos = pos;
            out[i] = replay_exponential(u, philox8_next, stream, &calls);
            pos = s->pos;
        }
    }
    s->pos = pos;
}

/* Eight doubles, or eight 64-bit ints, at any 8-byte alignment: GCC and
 * Clang compile arithmetic on them to the widest vector unit of the
 * function they are in. */
typedef double v8df __attribute__((vector_size(64), aligned(8)));
typedef int64_t v8di __attribute__((vector_size(64), aligned(8)));

#define INLINE static inline __attribute__((always_inline))

/* Lane by lane: a > b ? a : b, a < b ? a : b, |a|, and the lanes reversed.
 * Macros, not functions: a function that takes or returns a vector wider
 * than its target's registers draws an ABI warning.  Only the wide routine
 * compares and shuffles vectors: the baseline target lowers those through
 * memory, several times slower than scalar code. */
#define VMAX(a, b)                                       \
    ({                                                   \
        v8df a_ = (a), b_ = (b), c_;                     \
        for (int k_ = 0; k_ < 8; k_++)                   \
            c_[k_] = a_[k_] > b_[k_] ? a_[k_] : b_[k_];  \
        c_;                                              \
    })
#define VMIN(a, b)                                       \
    ({                                                   \
        v8df a_ = (a), b_ = (b), c_;                     \
        for (int k_ = 0; k_ < 8; k_++)                   \
            c_[k_] = a_[k_] < b_[k_] ? a_[k_] : b_[k_];  \
        c_;                                              \
    })
#define VABS(a) ((v8df)((v8di)(a) & INT64_MAX))
#define REVERSED(a) __builtin_shufflevector(a, a, 7, 6, 5, 4, 3, 2, 1, 0)

/* The largest and the smallest of the eight lanes; max and min are exact,
 * so their order does not matter. */
#define LANES_FOLD(op, v)                                                     \
    ({                                                                        \
        v8df l_ = (v);                                                        \
        l_ = op(l_, __builtin_shufflevector(l_, l_, 4, 5, 6, 7, 0, 1, 2, 3)); \
        l_ = op(l_, __builtin_shufflevector(l_, l_, 2, 3, 0, 1, 6, 7, 4, 5)); \
        l_ = op(l_, __builtin_shufflevector(l_, l_, 1, 0, 3, 2, 5, 4, 7, 6)); \
        l_[0];                                                                \
    })
#define LANES_MAX(v) LANES_FOLD(VMAX, v)
#define LANES_MIN(v) LANES_FOLD(VMIN, v)

/* The eight lanes of a row's blocks of eight, added lane by lane, summed as
 * NumPy's pairwise sum (pairwise_sum_DOUBLE, the order of e.sum(axis=1))
 * adds them at d = 8..64; at d = 4 NumPy adds left to right. */
#define LANES_SUM(v)                                                               \
    ({                                                                             \
        v8df r_ = (v);                                                             \
        ((r_[0] + r_[1]) + (r_[2] + r_[3])) + ((r_[4] + r_[5]) + (r_[6] + r_[7])); \
    })

/* The sum of a row of d = 2^n values, 2 <= n <= 6, added in NumPy's order:
 * left to right at d = 4, eight values at a time above it. */
INLINE double row_sum(const double *row, int64_t d)
{
    if (d == 4)
        return ((row[0] + row[1]) + row[2]) + row[3];
    v8df sum = *(const v8df *)row;
    for (int64_t j = 8; j < d; j += 8)
        sum += *(const v8df *)(row + j);
    return LANES_SUM(sum);
}

/* Write into dst each of the b rows of src (both b x d; dst == src
 * normalises in place) divided by its row_sum, eight values at a time above
 * d = 4. */
INLINE void normalise_rows(double *dst, const double *src, int64_t b, int64_t d)
{
    for (int64_t r = 0; r < b; r++) {
        const double *in = src + r * d;
        double *row = dst + r * d, s = row_sum(in, d);
        if (d == 4) {
            for (int j = 0; j < 4; j++)
                row[j] = in[j] / s;
            continue;
        }
        for (int64_t j = 0; j < d; j += 8)
            *(v8df *)(row + j) = *(const v8df *)(in + j) / s;
    }
}

/* Fold a row's flip pairs (i, d-1-i) into its largest value *maxp, the
 * largest |lo - hi| *maxdiff and the smallest lo + hi *minsum; max, min and
 * |.| are exact, so the order of the fold does not matter.  With `wide` and
 * d a multiple of 16 it takes eight pairs at a time: lane j of step i holds
 * pair (i + j, d-1-i-j), folded lane by lane, then across the lanes. */
INLINE void fold_pairs(const double *row, int64_t d, int wide, double *maxp, double *maxdiff,
                       double *minsum)
{
    if (wide && d % 16 == 0) {
        v8df lo = *(const v8df *)row, hi = *(const v8df *)(row + d - 8);
        hi = REVERSED(hi);
        v8df top = VMAX(lo, hi), most = VABS(lo - hi), least = lo + hi;
        for (int64_t i = 8; i < d / 2; i += 8) {
            lo = *(const v8df *)(row + i);
            hi = *(const v8df *)(row + d - 8 - i);
            hi = REVERSED(hi);
            v8df big = VMAX(lo, hi);
            top = VMAX(top, big);
            most = VMAX(most, VABS(lo - hi));
            least = VMIN(least, lo + hi);
        }
        *maxp = LANES_MAX(top);
        *maxdiff = LANES_MAX(most);
        *minsum = LANES_MIN(least);
        return;
    }
    *maxp = -INFINITY, *maxdiff = 0.0, *minsum = INFINITY;
    for (int64_t i = 0; i < d / 2; i++) {
        double lo = row[i], hi = row[d - 1 - i];
        double big = lo > hi ? lo : hi, diff = fabs(lo - hi), sum = lo + hi;
        *maxp = big > *maxp ? big : *maxp;
        *maxdiff = diff > *maxdiff ? diff : *maxdiff;
        *minsum = sum < *minsum ? sum : *minsum;
    }
}

static __attribute__((noinline, cold)) int fully_normalised(const double *e, int64_t d);

/* Add to hits[0..3] the rows of the (m, d) matrix x that are genuine (if
 * `genuine`), biseparable but not fully and fully biseparable (if `pairs`,
 * which needs `genuine`), and Mermin-violating (if `mermin`).  Each test is
 * the eps = 0 form of the predicate in _mc_kernel_py, and the first three
 * share one fold_pairs.  The rows are probabilities, or, if `raw`,
 * nonnegative, finite exponentials, counted as they would be once
 * normalised by normalise_rows, without normalising them.  With s the row
 * sum, added as normalise_rows adds it (the constant 1 for probabilities,
 * so that the divisions by s fold away), and p_i = fl(x_i / s):
 *   - genuine: fl(max_i x_i / s) > 1/2, which is max_i p_i > 1/2, since
 *     division by s > 0 is correctly rounded and monotone;
 *   - Mermin: (fl(x_0 / s) - fl(x_d-1 / s)) - nu > 0;
 *   - fully biseparable: maxdiff <= minsum on probabilities.  On raw rows,
 *     with D = max_i |x_i - x_~i| and S = min_i (x_i + x_~i), fl(D - S) / s
 *     is within 8u (u = 2^-53) of maxdiff - minsum on the p_i: each p_i and
 *     each pair difference and sum rounds once (relative error u), a pair's
 *     p_i sum to at most 1 + 64u, and max and min move no more than their
 *     arguments.  So |fl(D - S)| >= 2^-47 s decides the row by its sign; a
 *     nearer row, a tie among them, or one with s below 2^-900 (near where
 *     2^-47 s would lose bits), is normalised and folded
 *     (fully_normalised). */
INLINE void count_rows(const double *x, int64_t m, int64_t d, int genuine, int pairs,
                       int mermin, int raw, double nu, int wide, int64_t *hits)
{
    int64_t above = 0, middle = 0, fully = 0, violating = 0;
    for (int64_t r = 0; r < m; r++) {
        const double *row = x + r * d;
        double s = raw ? row_sum(row, d) : 1.0, big = 0.0, maxdiff = 0.0, minsum = 0.0;
        int f = 0;
        if (genuine)  /* the pair terms are dropped where only big is read */
            fold_pairs(row, d, wide, &big, &maxdiff, &minsum);
        if (pairs) {
            double gap = maxdiff - minsum;
            f = raw ? gap < 0.0 : maxdiff <= minsum;
            if (raw && __builtin_expect(!(fabs(gap) >= 0x1p-47 * s) | !(s >= 0x1p-900), 0))
                f = fully_normalised(row, d);
        }
        int g = genuine & (big / s > 0.5);  /* & and |, not && and ||: no branch */
        above += g;
        fully += f;
        middle += pairs & !(g | f);
        if (mermin)
            violating += (row[0] / s - row[d - 1] / s) - nu > 0.0;
    }
    hits[0] += above;
    hits[1] += middle;
    hits[2] += fully;
    hits[3] += violating;
}

/* count_rows for the regions in mask, bit 1 << k asking for region k (0
 * genuine, 1 biseparable but not fully, 2 fully biseparable, 3 Mermin); the
 * counts of regions not in mask are unspecified.  Each call below inlines
 * its own copy of the row loop, so no mask bit is tested per row. */
INLINE void count_block(const double *x, int64_t m, int64_t d, int mask, double nu, int raw,
                        int wide, int64_t *hits)
{
    if (mask & 6 && mask & 8)
        count_rows(x, m, d, 1, 1, 1, raw, nu, wide, hits);
    else if (mask & 6)
        count_rows(x, m, d, 1, 1, 0, raw, nu, wide, hits);
    else if (!(mask & 8))
        count_rows(x, m, d, 1, 0, 0, raw, nu, wide, hits);
    else if (mask & 1)
        count_rows(x, m, d, 1, 0, 1, raw, nu, wide, hits);
    else
        count_rows(x, m, d, 0, 0, 1, raw, nu, wide, hits);
}

/* 1 if the row of d exponentials e, normalised as normalise_rows does, is
 * fully biseparable: count_rows's answer for a raw row too near the boundary
 * to decide raw.  Out of line, so that the row loop stays small. */
static int fully_normalised(const double *e, int64_t d)
{
    double p[64];
    int64_t hits[4] = {0};
    normalise_rows(p, e, 1, d);
    count_block(p, 1, d, 4, 0.0, 0, 0, hits);
    return hits[2] == 1;
}

/* Draw m rows of d values with fill from stream in blocks of `rows` rows
 * through buf (rows x d), and count them at each of the `widths` row widths
 * w[k], each a divisor of d with Mermin threshold nu[k], into hits[4k..4k+3]
 * for the regions in mask.  Width w's m rows are the first m * w values.
 * Each width is counted on the exponentials as drawn, and only the last
 * block, and the rows of the block before it that it leaves in buf, are
 * normalised, so that buf ends as it would.  With a pair family at
 * d <= 8, where the raw count reads slower, width d's rows are instead
 * normalised a block at a time and counted as probabilities. */
INLINE void draw_and_count(void (*fill)(void *, int64_t, double *), int wide, void *stream,
                           int64_t m, int64_t d, double *buf, int64_t rows, int widths,
                           const int64_t *w, const double *nu, int mask, int64_t *hits)
{
    int raw = d >= 16 || !(mask & 6);
    for (int64_t start = 0; start < m; start += rows) {
        int64_t b = m - start < rows ? m - start : rows;
        fill(stream, b * d, buf);
        for (int k = 0; k < widths; k++) {
            int64_t left = m * w[k] - start * d;  /* width w[k]'s values from buf on */
            if (left > 0 && (raw || w[k] < d))
                count_block(buf, (left < b * d ? left : b * d) / w[k], w[k], mask, nu[k], 1,
                            wide, hits + 4 * k);
        }
        if (raw) {
            if (start + b < m)
                continue;
            normalise_rows(buf, buf, b, d);
            if (start > 0)
                normalise_rows(buf + b * d, buf + b * d, rows - b, d);
            continue;
        }
        normalise_rows(buf, buf, b, d);
        for (int k = 0; k < widths; k++)
            if (w[k] == d)
                count_block(buf, b, d, mask, nu[k], 0, wide, hits + 4 * k);
    }
}

#if WIDE_ROUTINE
#define WIDE __attribute__((target("avx512f,avx512dq")))

/* Each lane's high 32 bits moved to its low half, the high half zeroed:
 * x >> 32 as a shuffle, which leaves the multiplier's port to the multiplies. */
#define HIGH32(x) _mm512_maskz_shuffle_epi32(0x5555, x, _MM_PERM_CDAB)

/* The 128-bit products a * b in each lane, high halves in *hi and low halves
 * returned, from the 32-bit halves alo, ahi of a and four 32 x 32 -> 64-bit
 * multiplies; no sum below overflows. */
WIDE static inline __m512i mul128(__m512i alo, __m512i ahi, __m512i b, __m512i *hi)
{
    __m512i bhi = _mm512_shuffle_epi32(b, _MM_PERM_CDAB);  /* b >> 32 where vpmuludq reads */
    __m512i ll = _mm512_mul_epu32(alo, b), hl = _mm512_mul_epu32(ahi, b);
    __m512i lh = _mm512_mul_epu32(alo, bhi), hh = _mm512_mul_epu32(ahi, bhi);
    __m512i mid = _mm512_add_epi64(hl, HIGH32(ll));
    __m512i mid2 = _mm512_add_epi64(lh, _mm512_maskz_mov_epi32(0x5555, mid));
    *hi = _mm512_add_epi64(_mm512_add_epi64(hh, HIGH32(mid)), HIGH32(mid2));
    /* the low half: ll's low 32 bits under mid2's */
    return _mm512_mask_shuffle_epi32(ll, 0xAAAA, mid2, _MM_PERM_CDAB);
}

/* philox8_refill_scalar, the eight blocks side by side: lane j of x0..x3
 * runs the block of counter last + j + 1, as PHILOX_ROUND runs one block. */
WIDE static void philox8_refill_wide(philox8_t *s)
{
    const __m512i m0lo = _mm512_set1_epi64(0xE14C6C93), m0hi = _mm512_set1_epi64(0xD2E7470E);
    const __m512i m1lo = _mm512_set1_epi64(0x95121157), m1hi = _mm512_set1_epi64(0xCA5A8263);
    const __m512i step = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
    __m512i x0 = _mm512_add_epi64(_mm512_set1_epi64(s->last), step);
    __m512i x1 = _mm512_setzero_si512(), x2 = x1, x3 = x1;
    for (int round = 0; round < 10; round++) {
        __m512i hi0, lo0 = mul128(m0lo, m0hi, x0, &hi0);
        __m512i hi1, lo1 = mul128(m1lo, m1hi, x2, &hi1);
        x0 = _mm512_ternarylogic_epi64(hi1, x1, _mm512_set1_epi64(s->round_keys[round][0]), 0x96);
        x1 = lo1;
        x2 = _mm512_ternarylogic_epi64(hi0, x3, _mm512_set1_epi64(s->round_keys[round][1]), 0x96);
        x3 = lo0;
    }
    /* lanes to stream order: pair x0 with x1 and x2 with x3, block by block,
     * then the pairs of two blocks at a time */
    const __m512i pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const __m512i quad_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i quad_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    __m512i a = _mm512_permutex2var_epi64(x0, pair_lo, x1), b = _mm512_permutex2var_epi64(x2, pair_lo, x3);
    __m512i c = _mm512_permutex2var_epi64(x0, pair_hi, x1), e = _mm512_permutex2var_epi64(x2, pair_hi, x3);
    _mm512_store_si512(s->buf, _mm512_permutex2var_epi64(a, quad_lo, b));
    _mm512_store_si512(s->buf + 8, _mm512_permutex2var_epi64(a, quad_hi, b));
    _mm512_store_si512(s->buf + 16, _mm512_permutex2var_epi64(c, quad_lo, e));
    _mm512_store_si512(s->buf + 24, _mm512_permutex2var_epi64(c, quad_hi, e));
    s->pos = 0;
    s->last += 8;
}

/* fill_exponentials, eight values at a time: the lanes up to the first one
 * off the fast path are stored, that one is replayed through NumPy's
 * routine, and the next group starts after it. */
WIDE static void fill_exponentials8(void *stream, int64_t n, double *out)
{
    philox8_t *s = stream;
    const __m512i layer = _mm512_set1_epi64(255);
    for (int64_t i = 0; i < n;) {
        if (s->pos == 32)
            philox8_refill_wide(s);
        int64_t k = n - i < 8 ? n - i : 8;
        k = k < 32 - s->pos ? k : 32 - s->pos;
        __mmask8 lanes = (__mmask8)((1u << k) - 1);
        __m512i u = _mm512_maskz_loadu_epi64(lanes, s->buf + s->pos);
        __m512i ri = _mm512_srli_epi64(u, 11);
        __m512i idx = _mm512_and_si512(_mm512_srli_epi64(u, 3), layer);
        /* gathered into zeros: a gather merges into its destination, and an
         * old one would chain each group to the last */
        __m512i kes = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), lanes, idx, ke, 8);
        __m512d wes = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), lanes, idx, we, 8);
        __mmask8 fast = _mm512_mask_cmplt_epu64_mask(lanes, ri, kes);
        __m512d x = _mm512_mul_pd(_mm512_cvtepu64_pd(ri), wes);
        if (fast == lanes) {
            _mm512_mask_storeu_pd(out + i, lanes, x);
            i += k;
            s->pos += k;
            continue;
        }
        int first_slow = __builtin_ctz(~fast & lanes), calls;
        _mm512_mask_storeu_pd(out + i, (__mmask8)((1u << first_slow) - 1), x);
        i += first_slow;
        s->pos += first_slow;
        uint64_t v = s->buf[s->pos++];
        out[i++] = replay_exponential(v, philox8_next, s, &calls);
    }
}

/* draw_and_count with the wide routine's fill, on eight lanes of AVX-512 */
WIDE static void draw_and_count_wide(philox8_t *s, int64_t m, int64_t d, double *buf,
                                     int64_t rows, int widths, const int64_t *w,
                                     const double *nu, int mask, int64_t *hits)
{
    draw_and_count(fill_exponentials8, 1, s, m, d, buf, rows, widths, w, nu, mask, hits);
}

/* count_block on eight lanes of AVX-512 */
WIDE static void count_wide(const double *p, int64_t m, int64_t d, int mask, double nu, int raw,
                            int64_t *hits)
{
    count_block(p, m, d, mask, nu, raw, 1, hits);
}
#endif

/* Bit 0: the CPU has AVX-512F, bit 1: AVX-512DQ; the wide routine needs both. */
int cpu_wide_flags(void)
{
#if WIDE_ROUTINE
    __builtin_cpu_init();
    return (__builtin_cpu_supports("avx512f") != 0) | (__builtin_cpu_supports("avx512dq") != 0) << 1;
#else
    return 0;
#endif
}

/* 1 while chunk_counts and count_hits run the wide routine.
 * set_philox_routine(1) picks it where the CPU has both flags,
 * set_philox_routine(0) forces the scalar one (for tests); either returns
 * the routine now in use. */
static int philox_wide;

int set_philox_routine(int wide)
{
    philox_wide = wide && cpu_wide_flags() == 3;
    return philox_wide;
}

/* count_block on the (m, d) matrix p with the routine in use: p's rows are
 * probabilities, or, if raw, exponentials counted as they would be once
 * normalised. */
void count_hits(const double *p, int64_t m, int64_t d, int mask, double nu, int raw, int64_t *hits)
{
#if WIDE_ROUTINE
    if (philox_wide) {
        count_wide(p, m, d, mask, nu, raw, hits);
        return;
    }
#endif
    count_block(p, m, d, mask, nu, raw, 0, hits);
}

/* Draw m rows of d values (d = 2^n with 2 <= n <= 6) from the Philox stream
 * (key, counter, buffer, pos), NumPy's state of the chunk's bit generator
 * with the counter's low word (its high words 0, it below 2^63), in blocks
 * of `rows` rows through buf (rows x d), and add to hits[4k..4k+3] the
 * counts of the regions in mask among the m rows of width w[k] that the
 * first m * w[k] values make, normalised, for each of the `widths` widths,
 * each a power of two up to d, with Mermin threshold nu[k].  On return buf
 * holds the last block's normalised rows of width d; the state is only
 * read. */
void chunk_counts(const uint64_t *key, uint64_t counter, const uint64_t *buffer, int pos,
                  int64_t m, int64_t d, double *buf, int64_t rows, int widths, const int64_t *w,
                  const double *nu, int mask, int64_t *hits)
{
    philox8_t philox;
    philox8_load(&philox, key, counter, buffer, pos);
#if WIDE_ROUTINE
    if (philox_wide)
        draw_and_count_wide(&philox, m, d, buf, rows, widths, w, nu, mask, hits);
    else
#endif
        draw_and_count(fill_exponentials, 0, &philox, m, d, buf, rows, widths, w, nu, mask, hits);
}
