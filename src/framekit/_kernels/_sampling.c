/* Compiled sampling kernels: the Box-Muller angle and the KL contraction.
 *
 * Twin of _sampling_py.py: the same operations on the same operands in the
 * same order, element for element (built with -ffp-contract=off so no FMA
 * re-rounding creeps in, and no libm call); where the numpy twin converts an
 * integer or reads a table, this one computes the same double by integer
 * arithmetic.  Keep the two files in sync.
 * The angle algorithm is documented in framekit/rng.py.
 */
#include <stdint.h>

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
static inline double small_int_to_double(int64_t r)
{
    union { int64_t i; double d; } u = {r + INT64_C(0x4338000000000000)};
    return u.d - 0x1.8p52;
}

/* (cos 2 pi u, sin 2 pi u) for u = k 2^-53, k < 2^53 */
static inline void cos_sin(uint64_t k, double *cosv, double *sinv)
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

/* out[i][2j] = radius[i][j] cos, out[i][2j+1] = radius[i][j] sin of the
 * angle word k[i * k_row + j], for the count columns of each of the rows */
void polar_normals(const uint64_t *k, long k_row, const double *radius, double *out,
                   long rows, long pairs, long count)
{
    for (long i = 0; i < rows; i++) {
        const uint64_t *ki = k + i * k_row;
        const double *ri = radius + i * pairs;
        double *oi = out + i * count;
        for (long j = 0; j < count / 2; j++) {
            double cosv, sinv;
            cos_sin(ki[j], &cosv, &sinv);
            oi[2 * j] = ri[j] * cosv;
            oi[2 * j + 1] = ri[j] * sinv;
        }
        if (count % 2) {
            double cosv, sinv;
            cos_sin(ki[pairs - 1], &cosv, &sinv);
            oi[count - 1] = ri[pairs - 1] * cosv;
        }
    }
}

/* out_re[i] = sum over j in index order of x[i][j] c_re[j] (the first term
 * alone, then one add per term), and out_im likewise; TILE rows at a time
 * so that independent sums overlap */
#define TILE 8
void kl_contract(const double *x, const double *c_re, const double *c_im,
                 double *out_re, double *out_im, long rows, long n)
{
    for (long i0 = 0; i0 < rows; i0 += TILE) {
        long tile = rows - i0 < TILE ? rows - i0 : TILE;
        const double *xi = x + i0 * n;
        double re[TILE], im[TILE];
        for (long i = 0; i < tile; i++) {
            re[i] = xi[i * n] * c_re[0];
            im[i] = xi[i * n] * c_im[0];
        }
        for (long j = 1; j < n; j++)
            for (long i = 0; i < tile; i++) {
                re[i] = re[i] + xi[i * n + j] * c_re[j];
                im[i] = im[i] + xi[i * n + j] * c_im[j];
            }
        for (long i = 0; i < tile; i++) {
            out_re[i0 + i] = re[i];
            out_im[i0 + i] = im[i];
        }
    }
}
