/* Compiled sampling kernels: Philox-4x64-10 split into the Box-Muller
 * operands, the Box-Muller radius and angle, and the KL contraction.
 *
 * Twin of _sampling_py.py: the same operations on the same operands in the
 * same order, element for element (built with -ffp-contract=off so no FMA
 * re-rounding creeps in, and no libm call); where the numpy twin converts an
 * integer, reads a table or runs numpy's Philox, this one computes the same
 * double or word by integer arithmetic.  Keep the two files in sync.
 * The stream layout and the angle algorithm are documented in framekit/rng.py.
 *
 * The fused polar_contract, the kernel that draws normals, is built once
 * per vector ISA: for AVX-512 (F and DQ) and for AVX2 where the compiler
 * targets x86-64 (GCC or Clang), and for the baseline everywhere.  The
 * AVX-512 variant also has its own philox_split, which runs 8 counter
 * blocks a vector, one a lane, and its polar_contract sums the 8 rows of a
 * full tile as the lanes of one vector; the AVX2 variant runs the
 * baseline's scalar philox_split, which neither the same code built for
 * AVX2 nor a 4-lane AVX2 Philox beat.  With no FMA and every sum in a
 * fixed order the variants give the same bits; sampling_variants names
 * those this CPU runs, and the loader picks the widest.  kl_contract is
 * built for the baseline alone.  The normals themselves are defined by the
 * numpy twin (rng.seeded_normals), which every variant matches bit for bit.
 */
#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 5)
#define ISA_DISPATCH 1
#endif

#ifdef ISA_DISPATCH
#include <immintrin.h>
#endif

/* the bodies below are inlined into every variant, so that each is compiled
 * for its caller's ISA */
#define BODY static inline __attribute__((always_inline))

/* Philox-4x64 multipliers and Weyl key increments (Salmon et al., SC 2011) */
#define PHILOX_M0 UINT64_C(0xD2E7470EE14C6C93)
#define PHILOX_M1 UINT64_C(0xCA5A826395121157)
#define PHILOX_W0 UINT64_C(0x9E3779B97F4A7C15)
#define PHILOX_W1 UINT64_C(0xBB67AE8584CAA73B)

/* the four words of Philox-4x64-10 at counter x under key (k0, k1), in place */
static inline void philox4x64_10(uint64_t x[4], uint64_t k0, uint64_t k1)
{
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * x[0];
        unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * x[2];
        uint64_t x1 = x[1], x3 = x[3];
        x[0] = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
        x[1] = (uint64_t)p1;
        x[2] = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
        x[3] = (uint64_t)p0;
    }
}

/* Streams first..first+rows-1 of the seed, each of 2 pairs words: row i
 * takes the words of counter blocks c + i b + 1 .. c + (i+1) b, with
 * b = ceil(pairs/2), c = first b (below 2^128) and the counter 256 bits
 * wide, as numpy's Philox(key=[seed, 0], counter=[c mod 2^64, c >> 64, 0, 0])
 * emits them.  Word w < pairs of a row becomes u1[i][w] = ((w >> 11) + 1)
 * 2^-53, word pairs + j becomes k[i][j] = w >> 11, and words past 2 pairs in
 * a row's last block are dropped. */
void philox_split(uint64_t seed, uint64_t first, double *u1, uint64_t *k,
                  long rows, long pairs)
{
    uint64_t blocks = (uint64_t)(pairs + 1) / 2;
    unsigned __int128 c = (unsigned __int128)first * blocks;
    for (long i = 0; i < rows; i++) {
        double *ui = u1 + i * pairs;
        uint64_t *ki = k + i * pairs;
        unsigned __int128 n = c + (unsigned __int128)i * blocks;
        for (long w = 0; w < 2 * pairs; w += 4) {
            n++;
            uint64_t x[4] = {(uint64_t)n, (uint64_t)(n >> 64), 0, 0};
            philox4x64_10(x, seed, 0);
            for (long l = 0; l < 4 && w + l < 2 * pairs; l++) {
                uint64_t word = x[l] >> 11;
                if (w + l < pairs)
                    ui[w + l] = (double)(word + 1) * 0x1p-53;
                else
                    ki[w + l - pairs] = word;
            }
        }
    }
}

/* nearest doubles to the Taylor coefficients of sin(pi t/4) (odd powers,
 * t^1..t^17) and cos(pi t/4) (even powers, t^0..t^18) */
static const double SIN_COEF[9] = {
    0x1.921fb54442d18p-1, -0x1.4abbce625be53p-4, 0x1.466bc6775aae2p-9,
    -0x1.32d2cce62bd86p-15, 0x1.50783487ee782p-22, -0x1.e3074fde8871fp-30,
    0x1.e8f434d018d63p-38, -0x1.6fadb9f155744p-46, 0x1.aaec32af93359p-55,
};
static const double COS_COEF[10] = {
    0x1.0000000000000p+0, -0x1.3bd3cc9be45dep-2, 0x1.03c1f081b5ac4p-6,
    -0x1.55d3c7e3cbffap-12, 0x1.e1f506891babbp-19, -0x1.a6d1f2a204a8cp-26,
    0x1.f9d38a3763cc3p-34, -0x1.b6e24f44b128fp-42, 0x1.20c62c2f2d7f5p-50,
    -0x1.2a0c591af8314p-59,
};
/* r as a double, exactly, for |r| < 2^51: the integer add writes r into the
 * mantissa of 1.5 2^52, and the subtraction is exact.  Unlike a cast, it
 * vectorizes where the vector unit has no int64-to-double conversion, as
 * on baseline x86-64. */
BODY double small_int_to_double(int64_t r)
{
    union { int64_t i; double d; } u = {r + INT64_C(0x4338000000000000)};
    return u.d - 0x1.8p52;
}

/* (cos 2 pi u, sin 2 pi u) for u = k 2^-53, k < 2^53 */
BODY void cos_sin(uint64_t k, double *cosv, double *sinv)
{
    uint64_t q = (k + (UINT64_C(1) << 50)) >> 51;
    double t = small_int_to_double((int64_t)k - (int64_t)(q << 51)) * 0x1p-50;
    double z = t * t;
    double s = SIN_COEF[8];
    for (int j = 7; j >= 0; j--)
        s = SIN_COEF[j] + z * s;
    s = t * s;
    double c = COS_COEF[9];
    for (int j = 8; j >= 0; j--)
        c = COS_COEF[j] + z * c;
    /* rotation by quadrant m: cos = a c + b s, sin = a s - b c with
     * (a, b) = (1, 0), (0, -1), (-1, 0), (0, 1), by bit arithmetic, since a
     * table lookup would not vectorize */
    int64_t m = (int64_t)(q & 3);
    double a = small_int_to_double((1 - (m & 2)) & -(~m & 1));
    double b = small_int_to_double(((m & 2) - 1) & -(m & 1));
    *cosv = a * c + b * s;
    *sinv = a * s - b * c;
}

/* oi[2j] = r cos, oi[2j+1] = r sin of the angle word ki[j], with the radius
 * r = sqrt(li[j] * -2), for the count columns of one row; an odd count drops
 * the last sine */
BODY void polar_row(const double *li, const uint64_t *ki, double *oi, long count)
{
    for (long j = 0; j < count / 2; j++) {
        double cosv, sinv, r = sqrt(li[j] * -2.0);
        cos_sin(ki[j], &cosv, &sinv);
        oi[2 * j] = r * cosv;
        oi[2 * j + 1] = r * sinv;
    }
    if (count % 2) {
        double cosv, sinv, r = sqrt(li[count / 2] * -2.0);
        cos_sin(ki[count / 2], &cosv, &sinv);
        oi[count - 1] = r * cosv;
    }
}

/* rows whose sums overlap in the contraction */
#define TILE 8
/* columns of normals one tile of polar_contract holds at a time (even) */
#define SPAN 64

/* re[i] = re[i] + x[i][j] c_re[j] for j = 0..cols-1 in index order, and im
 * likewise, for the tile rows of x (row stride `stride`); with `first`, each
 * sum starts from its first term alone */
BODY void contract_tile(const double *x, long stride, long cols, const double *c_re,
                        const double *c_im, double *re, double *im, long tile, int first)
{
    long j = 0;
    if (first) {
        for (long i = 0; i < tile; i++) {
            re[i] = x[i * stride] * c_re[0];
            im[i] = x[i * stride] * c_im[0];
        }
        j = 1;
    }
    for (; j < cols; j++)
        for (long i = 0; i < tile; i++) {
            re[i] = re[i] + x[i * stride + j] * c_re[j];
            im[i] = im[i] + x[i * stride + j] * c_im[j];
        }
}

/* out_re[i] = sum over j in index order of x[i][j] c_re[j] (the first term
 * alone, then one add per term), and out_im likewise; TILE rows at a time
 * so that independent sums overlap */
void kl_contract(const double *x, const double *c_re, const double *c_im,
                 double *out_re, double *out_im, long rows, long n)
{
    for (long i0 = 0; i0 < rows; i0 += TILE) {
        long tile = rows - i0 < TILE ? rows - i0 : TILE;
        double re[TILE], im[TILE];
        contract_tile(x + i0 * n, n, n, c_re, c_im, re, im, tile, 1);
        for (long i = 0; i < tile; i++) {
            out_re[i0 + i] = re[i];
            out_im[i0 + i] = im[i];
        }
    }
}

/* columns c0..c0+cols-1 (c0 even) of the normals polar_row gives rows
 * 0..tile-1 of ln_u1 and k, into the tile x (row stride SPAN) */
BODY void draw_span(const double *ln_u1, const uint64_t *k, double *x, long tile, long pairs,
                    long c0, long cols)
{
    for (long i = 0; i < tile; i++) {
        long at = i * pairs + c0 / 2;
        polar_row(ln_u1 + at, k + at, x + i * SPAN, cols);
    }
}

/* kl_contract of the count normals polar_row gives each of the rows, into
 * out_re and out_im, without writing them out: a tile of rows is drawn SPAN
 * columns at a time into a buffer on the stack and its sums carried over
 * the spans, so the normals stay in L1 and every sum is kl_contract's */
BODY void polar_contract_rows(const double *ln_u1, const uint64_t *k, const double *c_re,
                              const double *c_im, double *out_re, double *out_im,
                              long rows, long pairs, long count)
{
    double x[TILE * SPAN];
    for (long i0 = 0; i0 < rows; i0 += TILE) {
        long tile = rows - i0 < TILE ? rows - i0 : TILE;
        double re[TILE], im[TILE];
        for (long c0 = 0; c0 < count; c0 += SPAN) {
            long cols = count - c0 < SPAN ? count - c0 : SPAN;
            draw_span(ln_u1 + i0 * pairs, k + i0 * pairs, x, tile, pairs, c0, cols);
            contract_tile(x, SPAN, cols, c_re + c0, c_im + c0, re, im, tile, c0 == 0);
        }
        for (long i = 0; i < tile; i++) {
            out_re[i0 + i] = re[i];
            out_im[i0 + i] = im[i];
        }
    }
}

/* the exported polar_contract_<isa> of the scalar code, compiled with the
 * attributes that follow the name */
#define SAMPLING_KERNELS(isa, ...)                                                   \
    __VA_ARGS__ void polar_contract_##isa(const double *ln_u1, const uint64_t *k,   \
                                          const double *c_re, const double *c_im,   \
                                          double *out_re, double *out_im,           \
                                          long rows, long pairs, long count)        \
    {                                                                                \
        polar_contract_rows(ln_u1, k, c_re, c_im, out_re, out_im, rows, pairs, count); \
    }

SAMPLING_KERNELS(baseline)
#ifdef ISA_DISPATCH
SAMPLING_KERNELS(avx2, __attribute__((target("avx2"))))

/* The AVX-512 variant: Philox on 8 counter blocks a vector and the tile
 * sums on 8 rows a vector, one a 64-bit lane, with the scalar code's
 * operations lane by lane */
#define AVX512 __attribute__((target("avx512f,avx512dq")))
/* 8-block groups that philox_split_avx512f draws at a time */
#define GROUPS 2
/* counter blocks its buffer holds: a whole number of GROUPS x 8 */
#define CHUNK 512
_Static_assert(CHUNK % (8 * GROUPS) == 0, "the buffer holds whole steps");

/* out[q] = the 128-bit chunks q of a, b, c and d, in that order */
AVX512 BODY void chunks(__m512d a, __m512d b, __m512d c, __m512d d, __m512d out[4])
{
    __m512d ab_lo = _mm512_shuffle_f64x2(a, b, 0x44), cd_lo = _mm512_shuffle_f64x2(c, d, 0x44);
    __m512d ab_hi = _mm512_shuffle_f64x2(a, b, 0xEE), cd_hi = _mm512_shuffle_f64x2(c, d, 0xEE);
    out[0] = _mm512_shuffle_f64x2(ab_lo, cd_lo, 0x88);
    out[1] = _mm512_shuffle_f64x2(ab_lo, cd_lo, 0xDD);
    out[2] = _mm512_shuffle_f64x2(ab_hi, cd_hi, 0x88);
    out[3] = _mm512_shuffle_f64x2(ab_hi, cd_hi, 0xDD);
}

/* the high word of the 128-bit product of each lane of x with the
 * multiplier whose low and high 32 bits m_lo and m_hi hold (in the low
 * half of each lane), from four 32 x 32 -> 64-bit products; *lo gets the
 * low word */
AVX512 BODY __m512i mul_wide(__m512i x, __m512i m_lo, __m512i m_hi, __m512i *lo)
{
    const __m512i low = _mm512_set1_epi64(0xFFFFFFFF);
    __m512i x_hi = _mm512_srli_epi64(x, 32);
    __m512i ll = _mm512_mul_epu32(x, m_lo), lh = _mm512_mul_epu32(x, m_hi);
    __m512i hl = _mm512_mul_epu32(x_hi, m_lo), hh = _mm512_mul_epu32(x_hi, m_hi);
    /* neither sum can carry past 64 bits: (2^32 - 1)^2 + 2^32 - 1 < 2^64 */
    __m512i mid = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
    __m512i mid2 = _mm512_add_epi64(lh, _mm512_and_si512(mid, low));
    *lo = _mm512_or_si512(_mm512_slli_epi64(mid2, 32), _mm512_and_si512(ll, low));
    return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid, 32)),
                            _mm512_srli_epi64(mid2, 32));
}

/* philox4x64_10 on GROUPS x 8 counters at once: word w of lane j of group
 * h is x[4 h + w]'s.  One group's rounds are a chain of dependent
 * multiplies; two groups in flight fill the vector unit. */
AVX512 BODY void philox_groups(__m512i x[4 * GROUPS], uint64_t k0, uint64_t k1)
{
    const __m512i m0_lo = _mm512_set1_epi64((long long)PHILOX_M0);
    const __m512i m0_hi = _mm512_set1_epi64((long long)(PHILOX_M0 >> 32));
    const __m512i m1_lo = _mm512_set1_epi64((long long)PHILOX_M1);
    const __m512i m1_hi = _mm512_set1_epi64((long long)(PHILOX_M1 >> 32));
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        for (__m512i *y = x; y < x + 4 * GROUPS; y += 4) {
            __m512i lo0, lo1;
            __m512i hi0 = mul_wide(y[0], m0_lo, m0_hi, &lo0);
            __m512i hi1 = mul_wide(y[2], m1_lo, m1_hi, &lo1);
            /* 0x96: the three-way XOR */
            y[0] = _mm512_ternarylogic_epi64(hi1, y[1], _mm512_set1_epi64((long long)k0), 0x96);
            y[1] = lo1;
            y[2] = _mm512_ternarylogic_epi64(hi0, y[3], _mm512_set1_epi64((long long)k1), 0x96);
            y[3] = lo0;
        }
    }
}

/* words at..at+len-1 of a row, from src, split as philox_split splits them
 * into the row's ui and ki (the scalar philox_split splits a block inline:
 * through this loop pair it ran a quarter slower) */
BODY void split_words(const uint64_t *src, long at, long len, long pairs, double *ui,
                      uint64_t *ki)
{
    long end = at + len;
    for (long w = at; w < pairs && w < end; w++)
        ui[w] = (double)((src[w - at] >> 11) + 1) * 0x1p-53;
    for (long w = at > pairs ? at : pairs; w < 2 * pairs && w < end; w++)
        ki[w - pairs] = src[w - at] >> 11;
}

/* philox_split: the counter blocks of all rows, c + 1 .. c + rows b, are
 * drawn 8 x GROUPS at a time, CHUNK at a time into a buffer on the stack in
 * block order, and split from there row by row */
AVX512 void philox_split_avx512f(uint64_t seed, uint64_t first, double *u1, uint64_t *k,
                                 long rows, long pairs)
{
    uint64_t words[4 * CHUNK];
    long blocks = (pairs + 1) / 2, total = rows * blocks, row = 0, at = 0;
    unsigned __int128 c = (unsigned __int128)first * (uint64_t)blocks + 1;
    const __m512i lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    for (long b0 = 0; b0 < total; b0 += CHUNK) {
        long n = total - b0 < CHUNK ? total - b0 : CHUNK;
        /* a trailing partial step fills all its 8 GROUPS blocks, which
         * CHUNK, a multiple of them, holds */
        for (long g = 0; g < n; g += 8 * GROUPS) {
            __m512i x[4 * GROUPS];
            for (int h = 0; h < GROUPS; h++) {
                unsigned __int128 n0 = c + (unsigned __int128)(b0 + g + 8 * h);
                __m512i lo = _mm512_set1_epi64((long long)(uint64_t)n0);
                __m512i hi = _mm512_set1_epi64((long long)(uint64_t)(n0 >> 64));
                x[4 * h] = _mm512_add_epi64(lo, lanes);
                /* a lane whose low word wrapped carries into word 1 */
                x[4 * h + 1] = _mm512_mask_add_epi64(
                    hi, _mm512_cmplt_epu64_mask(x[4 * h], lo), hi, _mm512_set1_epi64(1));
                x[4 * h + 2] = x[4 * h + 3] = _mm512_setzero_si512();
            }
            philox_groups(x, seed, 0);
            for (int h = 0; h < GROUPS; h++) {
                __m512i *y = x + 4 * h;
                __m512d out[4];
                chunks(_mm512_castsi512_pd(_mm512_unpacklo_epi64(y[0], y[1])),
                       _mm512_castsi512_pd(_mm512_unpacklo_epi64(y[2], y[3])),
                       _mm512_castsi512_pd(_mm512_unpackhi_epi64(y[0], y[1])),
                       _mm512_castsi512_pd(_mm512_unpackhi_epi64(y[2], y[3])), out);
                for (int q = 0; q < 4; q++)
                    _mm512_storeu_si512(words + 4 * (g + 8 * h) + 8 * q,
                                        _mm512_castpd_si512(out[q]));
            }
        }
        for (long w = 0; w < 4 * n;) {
            long len = 4 * blocks - at < 4 * n - w ? 4 * blocks - at : 4 * n - w;
            split_words(words + w, at, len, pairs, u1 + row * pairs, k + row * pairs);
            w += len;
            at += len;
            if (at == 4 * blocks) {
                at = 0;
                row++;
            }
        }
    }
}

/* re = re + v cr and im = im + v ci, or with `start` the products alone */
AVX512 BODY void add_term(__m512d v, double cr, double ci, __m512d *re, __m512d *im, int start)
{
    __m512d tre = _mm512_mul_pd(v, _mm512_set1_pd(cr));
    __m512d tim = _mm512_mul_pd(v, _mm512_set1_pd(ci));
    *re = start ? tre : _mm512_add_pd(*re, tre);
    *im = start ? tim : _mm512_add_pd(*im, tim);
}

/* contract_tile of a full tile with row stride SPAN, its sums in the lanes
 * of re and im: each 8 x 8 block of the tile is transposed in registers
 * into 8 columns, and the columns past the last whole block are gathered */
AVX512 BODY void contract_rows8(const double *x, long cols, const double *c_re,
                                const double *c_im, __m512d *re, __m512d *im, int first)
{
    __m512d col[8];
    long j = 0;
    for (; j + 8 <= cols; j += 8) {
        __m512d r[8];
        for (int i = 0; i < 8; i++)
            r[i] = _mm512_loadu_pd(x + i * SPAN + j);
        chunks(_mm512_unpacklo_pd(r[0], r[1]), _mm512_unpacklo_pd(r[2], r[3]),
               _mm512_unpacklo_pd(r[4], r[5]), _mm512_unpacklo_pd(r[6], r[7]), col);
        chunks(_mm512_unpackhi_pd(r[0], r[1]), _mm512_unpackhi_pd(r[2], r[3]),
               _mm512_unpackhi_pd(r[4], r[5]), _mm512_unpackhi_pd(r[6], r[7]), col + 4);
        /* col[q] holds column 2q and col[4 + q] column 2q + 1 */
        for (int t = 0; t < 8; t++) {
            __m512d v = col[t % 2 * 4 + t / 2];
            add_term(v, c_re[j + t], c_im[j + t], re, im, first && j + t == 0);
        }
    }
    const __m512i rows = _mm512_set_epi64(7 * SPAN, 6 * SPAN, 5 * SPAN, 4 * SPAN, 3 * SPAN,
                                          2 * SPAN, SPAN, 0);
    for (; j < cols; j++) {
        __m512d v = _mm512_i64gather_pd(rows, x + j, 8);
        add_term(v, c_re[j], c_im[j], re, im, first && j == 0);
    }
}

/* polar_contract_rows, with the sums of each full tile in the lanes */
AVX512 void polar_contract_avx512f(const double *ln_u1, const uint64_t *k, const double *c_re,
                                   const double *c_im, double *out_re, double *out_im,
                                   long rows, long pairs, long count)
{
    double x[TILE * SPAN];
    long full = rows - rows % TILE;
    for (long i0 = 0; i0 < full; i0 += TILE) {
        __m512d re = _mm512_setzero_pd(), im = _mm512_setzero_pd();
        for (long c0 = 0; c0 < count; c0 += SPAN) {
            long cols = count - c0 < SPAN ? count - c0 : SPAN;
            draw_span(ln_u1 + i0 * pairs, k + i0 * pairs, x, TILE, pairs, c0, cols);
            contract_rows8(x, cols, c_re + c0, c_im + c0, &re, &im, c0 == 0);
        }
        _mm512_storeu_pd(out_re + i0, re);
        _mm512_storeu_pd(out_im + i0, im);
    }
    if (full < rows)
        polar_contract_rows(ln_u1 + full * pairs, k + full * pairs, c_re, c_im, out_re + full,
                            out_im + full, rows - full, pairs, count);
}
#endif

/* the variants this CPU runs, widest first, separated by spaces; avx512f
 * needs AVX-512DQ as well, whose conversion split_words uses */
const char *sampling_variants(void)
{
#ifdef ISA_DISPATCH
    static const char *const runs[4] = {
        "baseline", "avx2 baseline", "avx512f baseline", "avx512f avx2 baseline",
    };
    __builtin_cpu_init();
    int avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
    return runs[2 * avx512 + !!__builtin_cpu_supports("avx2")];
#else
    return "baseline";
#endif
}
