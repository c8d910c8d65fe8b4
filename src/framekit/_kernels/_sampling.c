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
 * The one floating-point kernel that draws normals, the fused polar_contract,
 * is built once per vector ISA: for AVX-512F and for AVX2 where the compiler
 * targets x86-64 (GCC or Clang), and for the baseline everywhere.  Each
 * variant inlines the same bodies, and with no FMA and every sum in a fixed
 * order they give the same bits; sampling_variants names those this CPU
 * runs, and the loader picks the widest.  philox_split and kl_contract are
 * built for the baseline alone: in a whole-library AVX2 build, Philox's
 * 64 x 64 -> 128-bit multiplies ran slower, and the contraction no faster.
 * The normals themselves are defined by the numpy twin (rng.seeded_normals),
 * which every variant matches bit for bit.
 */
#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 5)
#define ISA_DISPATCH 1
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
            for (long i = 0; i < tile; i++) {
                long at = (i0 + i) * pairs + c0 / 2;
                polar_row(ln_u1 + at, k + at, x + i * SPAN, cols);
            }
            contract_tile(x, SPAN, cols, c_re + c0, c_im + c0, re, im, tile, c0 == 0);
        }
        for (long i = 0; i < tile; i++) {
            out_re[i0 + i] = re[i];
            out_im[i0 + i] = im[i];
        }
    }
}

/* the exported polar_contract_<isa>, compiled with the attributes that
 * follow the name */
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
SAMPLING_KERNELS(avx512f, __attribute__((target("avx512f"))))
#endif

/* the variants of polar_contract this CPU runs, widest first, separated by
 * spaces */
const char *sampling_variants(void)
{
#ifdef ISA_DISPATCH
    static const char *const runs[4] = {
        "baseline", "avx2 baseline", "avx512f baseline", "avx512f avx2 baseline",
    };
    __builtin_cpu_init();
    return runs[2 * !!__builtin_cpu_supports("avx512f") + !!__builtin_cpu_supports("avx2")];
#else
    return "baseline";
#endif
}
