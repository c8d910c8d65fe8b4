/* Compiled sampling kernels: Philox-4x64-10 split into the Box-Muller
 * operands, the Box-Muller radius and angle, and the fixed-order sums,
 * fused with the draw (polar_contract_<v>) or of any width (kl_contract).
 *
 * Twin of _sampling_py.py: the same operations on the same operands in the
 * same order, element for element (built with -ffp-contract=off so no FMA
 * re-rounding creeps in, and no libm call); where the numpy twin converts an
 * integer, reads a table or runs numpy's Philox, this one computes the same
 * double or word by integer arithmetic.  Keep the two files in sync.
 * The stream layout and the angle algorithm are documented in framekit/rng.py.
 *
 * The operands of Box-Muller are held tile-major, a layout of this twin's
 * own (the numpy twin runs the row-major reference): u1 (then ln u1) and
 * the angle words k are (tiles, pairs, LANES) arrays, and lane i of tile t
 * is stream first + LANES t + i, so that one pair of 8 streams is 8 doubles
 * in a row.  The compiled scratch of _kernels/__init__.py allocates them
 * once and passes their addresses.  philox_split_<v> fills whole tiles;
 * polar_contract_<v> reads the tiles of its rows and writes the sums of the
 * rows alone, never of the spare lanes that pad the last tile.
 *
 * Every variant v that variants() names exports the same kernel set:
 * jacobi_rows_<v> (in _hestenes.c), philox_split_<v> and polar_contract_<v>.
 * avx512f runs a tile's 8 streams in the 8 lanes of its vectors, in
 * intrinsics; the baseline and avx2 run the same layout from loops over the
 * lanes, and both export the scalar Philox built for the baseline (neither
 * the same code built for AVX2 nor a 4-lane AVX2 Philox was faster).  With
 * no FMA and every sum in a fixed order the variants give the same bits.
 * kl_contract (kl_coefficients, fourier_at_atoms) is built for the baseline.
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

/* streams a tile of the operands holds, one a lane; _kernels.LANES in Python */
#define LANES 8

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

/* Streams first..first+LANES tiles-1 of the seed, each of 2 pairs words, into
 * the tiles of u1 and k: stream r = LANES t + i (lane i of tile t) takes the
 * words of counter blocks c + r b + 1 .. c + (r+1) b, with b = ceil(pairs/2),
 * c = first b and the counter 256 bits wide (below 2^128 here), as numpy's
 * Philox(key=[seed, 0], counter=[c mod 2^64, c >> 64, 0, 0]) emits them.
 * Word w < pairs of a stream becomes u1[t][w][i] = ((w >> 11) + 1) 2^-53,
 * word pairs + j becomes k[t][j][i] = w >> 11, and words past 2 pairs in a
 * stream's last block are dropped.  Block j of the 8 streams of a tile is
 * drawn lane after lane, so that each word fills one row of 8 lanes. */
void philox_split_baseline(uint64_t seed, uint64_t first, double *u1, uint64_t *k, long tiles,
                           long pairs)
{
    uint64_t blocks = (uint64_t)(pairs + 1) / 2;
    unsigned __int128 c = (unsigned __int128)first * blocks + 1;
    for (long t = 0; t < tiles; t++) {
        double *ut = u1 + t * pairs * LANES;
        uint64_t *kt = k + t * pairs * LANES;
        for (long j = 0; j < (long)blocks; j++)
            for (long i = 0; i < LANES; i++) {
                unsigned __int128 n = c + (unsigned __int128)(LANES * t + i) * blocks + j;
                uint64_t x[4] = {(uint64_t)n, (uint64_t)(n >> 64), 0, 0};
                philox4x64_10(x, seed, 0);
                for (long l = 0, w = 4 * j; l < 4 && w < 2 * pairs; l++, w++) {
                    uint64_t word = x[l] >> 11;
                    if (w < pairs)
                        ut[w * LANES + i] = (double)(word + 1) * 0x1p-53;
                    else
                        kt[(w - pairs) * LANES + i] = word;
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

/* rows of x whose sums overlap in kl_contract */
#define TILE 8

/* out[j][i] = sum over l in index order of x[i][l] c[j][l] (the first term
 * alone, then one add per term) for each of the k rows of c; TILE rows of x
 * at a time so that independent sums overlap */
void kl_contract(const double *x, const double *c, double *out, long rows, long n, long k)
{
    for (long i0 = 0; i0 < rows; i0 += TILE) {
        long tile = rows - i0 < TILE ? rows - i0 : TILE;
        const double *xt = x + i0 * n;
        for (long j = 0; j < k; j++) {
            double sum[TILE];
            for (long i = 0; i < tile; i++)
                sum[i] = xt[i * n] * c[j * n];
            for (long l = 1; l < n; l++)
                for (long i = 0; i < tile; i++)
                    sum[i] = sum[i] + xt[i * n + l] * c[j * n + l];
            for (long i = 0; i < tile; i++)
                out[j * rows + i0 + i] = sum[i];
        }
    }
}

/* the normals r cos and r sin of pair p of the LANES streams of a tile, the
 * radius r = sqrt(ln_u1 * -2) and the angle of k, into z0 and z1 */
BODY void polar_lanes(const double *ln_u1, const uint64_t *k, double z0[LANES],
                      double z1[LANES])
{
    for (int i = 0; i < LANES; i++) {
        double cosv, sinv, r = sqrt(ln_u1[i] * -2.0);
        cos_sin(k[i], &cosv, &sinv);
        z0[i] = r * cosv;
        z1[i] = r * sinv;
    }
}

/* re = re + z cr and im = im + z ci, lane by lane */
BODY void add_lanes(const double z[LANES], double cr, double ci, double re[LANES],
                    double im[LANES])
{
    for (int i = 0; i < LANES; i++) {
        re[i] = re[i] + z[i] * cr;
        im[i] = im[i] + z[i] * ci;
    }
}

/* kl_contract of the count normals each of the rows draws from the tiles of
 * ln_u1 and k, with the two rows c_re and c_im, into out_re and out_im,
 * without writing the normals out: those of stream i are r cos and r sin of
 * its pairs in turn, an odd count dropping the last sine, and each tile's
 * sums run in its lanes, the first term alone, then one add per term */
BODY void polar_contract_lanes(const double *ln_u1, const uint64_t *k, const double *c_re,
                               const double *c_im, double *out_re, double *out_im, long rows,
                               long pairs, long count)
{
    for (long t = 0; t * LANES < rows; t++) {
        const double *lt = ln_u1 + t * pairs * LANES;
        const uint64_t *kt = k + t * pairs * LANES;
        double re[LANES], im[LANES], z0[LANES], z1[LANES];
        polar_lanes(lt, kt, z0, z1);
        for (int i = 0; i < LANES; i++) {
            re[i] = z0[i] * c_re[0];
            im[i] = z0[i] * c_im[0];
        }
        if (count > 1)
            add_lanes(z1, c_re[1], c_im[1], re, im);
        for (long p = 1; p < pairs; p++) {
            polar_lanes(lt + p * LANES, kt + p * LANES, z0, z1);
            add_lanes(z0, c_re[2 * p], c_im[2 * p], re, im);
            if (2 * p + 1 < count)
                add_lanes(z1, c_re[2 * p + 1], c_im[2 * p + 1], re, im);
        }
        long lanes = rows - t * LANES < LANES ? rows - t * LANES : LANES;
        for (long i = 0; i < lanes; i++) {
            out_re[t * LANES + i] = re[i];
            out_im[t * LANES + i] = im[i];
        }
    }
}

/* the exported polar_contract_<isa> of the lane loops, compiled with the
 * attributes that follow the name */
#define SAMPLING_KERNELS(isa, ...)                                                   \
    __VA_ARGS__ void polar_contract_##isa(const double *ln_u1, const uint64_t *k,   \
                                          const double *c_re, const double *c_im,   \
                                          double *out_re, double *out_im,           \
                                          long rows, long pairs, long count)        \
    {                                                                                \
        polar_contract_lanes(ln_u1, k, c_re, c_im, out_re, out_im, rows, pairs, count); \
    }

SAMPLING_KERNELS(baseline)
#ifdef ISA_DISPATCH
SAMPLING_KERNELS(avx2, __attribute__((target("avx2"))))

/* the AVX2 variant's Philox: the baseline's, built for the baseline */
void philox_split_avx2(uint64_t seed, uint64_t first, double *u1, uint64_t *k, long tiles,
                       long pairs)
{
    philox_split_baseline(seed, first, u1, k, tiles, pairs);
}

/* The AVX-512 variant: a tile's 8 streams a vector, one a 64-bit lane, with
 * the scalar code's operations lane by lane */
#define AVX512 __attribute__((target("avx512f,avx512dq")))
/* counter blocks that philox_split_avx512f draws at a time, one a vector */
#define GROUPS 2

/* the high word of the 128-bit product of each lane of x with the
 * multiplier whose low and high 32 bits m_lo and m_hi hold (in the low
 * half of each lane), from four 32 x 32 -> 64-bit products; *lo gets the
 * low word */
AVX512 BODY __m512i mul_wide(__m512i x, __m512i m_lo, __m512i m_hi, __m512i *lo)
{
    __m512i x_hi = _mm512_srli_epi64(x, 32);
    __m512i ll = _mm512_mul_epu32(x, m_lo), lh = _mm512_mul_epu32(x, m_hi);
    __m512i hl = _mm512_mul_epu32(x_hi, m_lo), hh = _mm512_mul_epu32(x_hi, m_hi);
    /* neither sum can carry past 64 bits: (2^32 - 1)^2 + 2^32 - 1 < 2^64 */
    __m512i mid = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
    /* 0x5555: the low 32 bits of each lane of mid */
    __m512i mid2 = _mm512_add_epi64(lh, _mm512_maskz_mov_epi32(0x5555, mid));
    /* 0xAAAA: the high 32 bits of each lane from the low 32 of mid2 */
    *lo = _mm512_mask_shuffle_epi32(ll, 0xAAAA, mid2, _MM_PERM_CDAB);
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

/* philox_split_baseline's words: block j of the 8 streams of tile t,
 * counters c + (8 t + i) b + j + 1 in lane i, is one vector of counters,
 * GROUPS of them drawn at a time in tile-major order; each word of the 4 it
 * yields is one word of 8 streams, shifted, converted and stored whole into
 * its row of the tile */
AVX512 void philox_split_avx512f(uint64_t seed, uint64_t first, double *u1, uint64_t *k,
                                 long tiles, long pairs)
{
    long blocks = (pairs + 1) / 2, total = tiles * blocks;
    unsigned __int128 c = (unsigned __int128)first * (uint64_t)blocks + 1;
    /* the lanes' offsets i b: below 2^64, since 8 b counter blocks are
     * words of memory */
    const __m512i strides = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                               _mm512_set1_epi64(blocks));
    const __m512d ulp = _mm512_set1_pd(0x1p-53);
    for (long g = 0; g < total; g += GROUPS) {
        __m512i x[4 * GROUPS];
        long t[GROUPS], j[GROUPS];
        for (int h = 0; h < GROUPS; h++) {
            /* a trailing partial group draws its first block again, unstored */
            long n = g + h < total ? g + h : g;
            t[h] = n / blocks;
            j[h] = n % blocks;
            unsigned __int128 n0 = c + (unsigned __int128)(LANES * t[h]) * (uint64_t)blocks
                                   + (uint64_t)j[h];
            __m512i lo = _mm512_set1_epi64((long long)(uint64_t)n0);
            __m512i hi = _mm512_set1_epi64((long long)(uint64_t)(n0 >> 64));
            x[4 * h] = _mm512_add_epi64(lo, strides);
            /* a lane whose low word wrapped carries into word 1 */
            x[4 * h + 1] = _mm512_mask_add_epi64(
                hi, _mm512_cmplt_epu64_mask(x[4 * h], lo), hi, _mm512_set1_epi64(1));
            x[4 * h + 2] = x[4 * h + 3] = _mm512_setzero_si512();
        }
        philox_groups(x, seed, 0);
        for (int h = 0; h < GROUPS && g + h < total; h++) {
            double *ut = u1 + t[h] * pairs * LANES;
            uint64_t *kt = k + t[h] * pairs * LANES;
            for (long l = 0, w = 4 * j[h]; l < 4 && w < 2 * pairs; l++, w++) {
                __m512i word = _mm512_srli_epi64(x[4 * h + l], 11);
                if (w < pairs) {
                    __m512i above = _mm512_add_epi64(word, _mm512_set1_epi64(1));
                    _mm512_storeu_pd(ut + w * LANES,
                                     _mm512_mul_pd(_mm512_cvtepu64_pd(above), ulp));
                } else {
                    _mm512_storeu_si512(kt + (w - pairs) * LANES, word);
                }
            }
        }
    }
}

/* (cos 2 pi u, sin 2 pi u) of cos_sin, lane by lane, for the 8 angle words
 * in the lanes of k */
AVX512 BODY void cos_sin8(__m512i k, __m512d *cosv, __m512d *sinv)
{
    /* the rotation of cos_sin by quadrant m, as tables of a and b */
    const __m512d rot_a = _mm512_set_pd(0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0);
    const __m512d rot_b = _mm512_set_pd(1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0);
    __m512i q = _mm512_srli_epi64(_mm512_add_epi64(k, _mm512_set1_epi64(INT64_C(1) << 50)), 51);
    __m512d t = _mm512_mul_pd(_mm512_cvtepi64_pd(_mm512_sub_epi64(k, _mm512_slli_epi64(q, 51))),
                              _mm512_set1_pd(0x1p-50));
    __m512d z = _mm512_mul_pd(t, t);
    __m512d s = _mm512_set1_pd(SIN_COEF[8]);
    for (int j = 7; j >= 0; j--)
        s = _mm512_add_pd(_mm512_set1_pd(SIN_COEF[j]), _mm512_mul_pd(z, s));
    s = _mm512_mul_pd(t, s);
    __m512d c = _mm512_set1_pd(COS_COEF[9]);
    for (int j = 8; j >= 0; j--)
        c = _mm512_add_pd(_mm512_set1_pd(COS_COEF[j]), _mm512_mul_pd(z, c));
    /* the tables' index is q mod 8, of which they repeat q mod 4 */
    __m512d a = _mm512_permutexvar_pd(q, rot_a), b = _mm512_permutexvar_pd(q, rot_b);
    *cosv = _mm512_add_pd(_mm512_mul_pd(a, c), _mm512_mul_pd(b, s));
    *sinv = _mm512_sub_pd(_mm512_mul_pd(a, s), _mm512_mul_pd(b, c));
}

/* re = re + v cr and im = im + v ci, or with `start` the products alone */
AVX512 BODY void add_term(__m512d v, double cr, double ci, __m512d *re, __m512d *im, int start)
{
    __m512d tre = _mm512_mul_pd(v, _mm512_set1_pd(cr));
    __m512d tim = _mm512_mul_pd(v, _mm512_set1_pd(ci));
    *re = start ? tre : _mm512_add_pd(*re, tre);
    *im = start ? tim : _mm512_add_pd(*im, tim);
}

/* polar_contract_lanes, a pair of a tile's 8 streams a vector */
AVX512 void polar_contract_avx512f(const double *ln_u1, const uint64_t *k, const double *c_re,
                                   const double *c_im, double *out_re, double *out_im,
                                   long rows, long pairs, long count)
{
    for (long t = 0; t * LANES < rows; t++) {
        const double *lt = ln_u1 + t * pairs * LANES;
        const uint64_t *kt = k + t * pairs * LANES;
        __m512d re = _mm512_setzero_pd(), im = _mm512_setzero_pd();
        for (long p = 0; p < pairs; p++) {
            __m512d r = _mm512_sqrt_pd(
                _mm512_mul_pd(_mm512_loadu_pd(lt + p * LANES), _mm512_set1_pd(-2.0)));
            __m512d cosv, sinv;
            cos_sin8(_mm512_loadu_si512(kt + p * LANES), &cosv, &sinv);
            add_term(_mm512_mul_pd(r, cosv), c_re[2 * p], c_im[2 * p], &re, &im, p == 0);
            if (2 * p + 1 < count)
                add_term(_mm512_mul_pd(r, sinv), c_re[2 * p + 1], c_im[2 * p + 1], &re, &im, 0);
        }
        long lanes = rows - t * LANES;
        __mmask8 mask = lanes < LANES ? (__mmask8)((1u << lanes) - 1) : 0xFF;
        _mm512_mask_storeu_pd(out_re + t * LANES, mask, re);
        _mm512_mask_storeu_pd(out_im + t * LANES, mask, im);
    }
}
#endif

/* the variants this CPU runs, widest first, separated by spaces: the <v> of
 * the kernel set each exports; avx512f needs AVX-512DQ as well, for its
 * conversions between 64-bit integers and doubles, and AVX2, whose Jacobi
 * it runs */
const char *variants(void)
{
#ifdef ISA_DISPATCH
    static const char *const runs[3] = {"baseline", "avx2 baseline", "avx512f avx2 baseline"};
    __builtin_cpu_init();
    int avx2 = !!__builtin_cpu_supports("avx2");
    int avx512 = avx2 && __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
    return runs[avx2 + avx512];
#else
    return "baseline";
#endif
}
