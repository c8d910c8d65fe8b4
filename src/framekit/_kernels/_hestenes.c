/* Compiled one-sided (Hestenes) cyclic Jacobi kernel.
 *
 * Twin of _hestenes_py.py: each rotation of the same two rows, the same dot
 * products summed in the same order and the same rotation formulas, element
 * for element (built with -ffp-contract=off so no FMA re-rounding creeps
 * in).  Keep the two files in sync.  a is a C-contiguous k x n array and v
 * a C-contiguous k x k array; every rotation combines two contiguous rows
 * of each.
 *
 * The numpy twin visits the pairs of a sweep in row-cyclic order, (0, 1),
 * (0, 2), ..., (0, k-1), (1, 2), ...  This kernel runs them in a wavefront
 * order of disjoint pairs that is equivalent to it (F. T. Luk and H. Park,
 * "On parallel Jacobi orderings", SIAM J. Sci. Stat. Comput. 10(1), 1989):
 * the pivot rows in bands of BAND = 4, and step j of the band p0..p0 + 3 the
 * pairs (p0 + i, p0 + 1 + j - i) with 2i <= j and q < k.  No row is in two
 * pairs of a step, and every pair a row meets before (p, q) in the
 * row-cyclic order, such as (p, q - 1) and (p - 1, q), runs at an earlier
 * step or in an earlier band.  So every row meets its pairs in the
 * row-cyclic sequence, every rotation sees the same operands, and the bits
 * are the row-cyclic ones.  A step sums the dot products of its up to 4
 * pairs, then forms their rotations, then applies them: the divides and
 * square roots of the pairs overlap, where one pair at a time waited on
 * each in series.
 *
 * The dot products x.x, y.y and x.y are summed in 8 lanes: lane l starts at
 * +0.0 and adds the products of the terms j = l (mod 8) in index order, one
 * rounded multiply and one rounded add a term, and the lanes are then
 * combined as ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).  A lane the
 * ragged tail does not reach, or a lane of a row shorter than 8, keeps its
 * sum (a sum that starts at +0.0 is never -0.0, so adding +0.0 changes no
 * bit).  Eight independent chains of adds keep the vector unit busy where
 * one chain in index order would wait on the latency of each add.
 *
 * Every variant v that variants() of _sampling.c names exports
 * jacobi_rows_<v>, so the ISA_DISPATCH guard below must stay the same as
 * _sampling.c's.  The baseline sums its lanes as scalars, AVX2 in two
 * 4-wide accumulators a sum (lanes 0-3 and 4-7), and avx512f runs AVX2's
 * code under its own name: an 8-wide AVX-512 sum was no faster on the
 * workloads' small rows.  With no FMA and every sum in the same order the
 * variants give the same bits.
 */
#include <math.h>

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 5)
#define ISA_DISPATCH 1
#endif

#ifdef ISA_DISPATCH
#include <immintrin.h>
#endif

/* the bodies below are inlined into every variant, so that each is compiled
 * for its caller's ISA */
#define BODY static inline __attribute__((always_inline))

/* a row whose squared norm is below this counts as zero: its dot products
 * with other rows would sum underflowed terms */
#define ZERO_ROW 0x1p-900

/* lanes of the dot products */
#define LANES 8

/* pivot rows a band of jacobi_sweeps holds, and so the most pairs a step
 * rotates */
#define BAND 4

/* ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)) */
BODY double lane_tree(const double l[LANES])
{
    return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

/* x.x, y.y and x.y into s[0], s[1] and s[2], the lanes as scalars */
BODY void dots_baseline(const double *x, const double *y, long n, double s[3])
{
    double xx[LANES] = {0.0}, yy[LANES] = {0.0}, xy[LANES] = {0.0};
    for (long j = 0; j < n; j += LANES)
        for (long l = 0; l < LANES && j + l < n; l++) {
            xx[l] = xx[l] + x[j + l] * x[j + l];
            yy[l] = yy[l] + y[j + l] * y[j + l];
            xy[l] = xy[l] + x[j + l] * y[j + l];
        }
    s[0] = lane_tree(xx);
    s[1] = lane_tree(yy);
    s[2] = lane_tree(xy);
}

/* (x, y) <- (c x - s y, s x + c y) */
BODY void rotate(double *x, double *y, long n, double c, double s)
{
    for (long j = 0; j < n; j++) {
        double xj = x[j], yj = y[j];
        x[j] = c * xj - s * yj;
        y[j] = s * xj + c * yj;
    }
}

/* the dot products of one variant: x.x, y.y and x.y of rows of n into s */
typedef void dots_fn(const double *x, const double *y, long n, double s[3]);

/* Rotate the rows of a in cyclic sweeps over the pairs p < q, in the band
 * order of the header, applying each rotation to the rows of v as well,
 * then write each row's squared norm to norms.  A pair is rotated when
 * |a_pq| > tol sqrt(a_pp) sqrt(a_qq) and neither row counts as zero; rows
 * beyond the rank of a shrink by about 2^-52 a sweep until they do.  Stops
 * after a sweep that rotates nothing, or after max_sweeps + 1 sweeps that
 * rotate; returns the number of sweeps that rotated, so a return above
 * max_sweeps means no convergence.  A band keeps its 4 pivot rows in L1
 * while the other rows stream past them.  Anti-diagonals p + q = d over the
 * whole array, 4 pairs at a time, give the same bits but lose the rows from
 * L1: 256 x 256 ran about 20 % slower than in bands. */
BODY int jacobi_sweeps(double *a, double *v, double *norms, long k, long n, int max_sweeps,
                       double tol, dots_fn dots)
{
    int sweeps = 0, rotated = 1;
    double s[BAND][3], c[BAND], sn[BAND];
    long ps[BAND], qs[BAND];
    int turn[BAND];
    while (rotated && sweeps <= max_sweeps) {
        rotated = 0;
        for (long p0 = 0; p0 < k - 1; p0 += BAND)
            for (long j = 0;; j++) {
                int m = 0;
                for (long i = 0; i < BAND && 2 * i <= j; i++)
                    if (p0 + 1 + j - i < k) {
                        ps[m] = p0 + i;
                        qs[m] = p0 + 1 + j - i;
                        m++;
                    }
                if (m == 0)
                    break;
                for (int r = 0; r < m; r++)
                    dots(a + ps[r] * n, a + qs[r] * n, n, s[r]);
                for (int r = 0; r < m; r++) {
                    double app = s[r][0], aqq = s[r][1], apq = s[r][2];
                    turn[r] = app >= ZERO_ROW && aqq >= ZERO_ROW &&
                              fabs(apq) > tol * sqrt(app) * sqrt(aqq);
                    if (!turn[r])
                        continue;
                    double zeta = (aqq - app) / (2.0 * apq);
                    double t = 1.0 / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                    t = zeta < 0.0 ? -t : t;
                    c[r] = 1.0 / sqrt(1.0 + t * t);
                    sn[r] = t * c[r];
                }
                for (int r = 0; r < m; r++)
                    if (turn[r]) {
                        rotate(a + ps[r] * n, a + qs[r] * n, n, c[r], sn[r]);
                        rotate(v + ps[r] * k, v + qs[r] * k, k, c[r], sn[r]);
                        rotated = 1;
                    }
            }
        sweeps += rotated;
    }
    for (long i = 0; i < k; i++) {
        dots(a + i * n, a + i * n, n, s[0]);
        norms[i] = s[0][0];
    }
    return sweeps;
}

/* the exported jacobi_rows_<isa>, summing with dots and compiled with the
 * attributes that follow it */
#define JACOBI_ROWS(isa, dots, ...)                                                    \
    __VA_ARGS__ int jacobi_rows_##isa(double *a, double *v, double *norms, long k,    \
                                      long n, int max_sweeps, double tol)             \
    {                                                                                  \
        return jacobi_sweeps(a, v, norms, k, n, max_sweeps, tol, dots);               \
    }

JACOBI_ROWS(baseline, dots_baseline)

#ifdef ISA_DISPATCH
#define AVX2 __attribute__((target("avx2")))

/* xx + x x, yy + y y and xy + x y into xx, yy and xy, lane by lane, each
 * product and each sum rounded */
AVX2 BODY void add_products4(__m256d x, __m256d y, __m256d *xx, __m256d *yy, __m256d *xy)
{
    *xx = _mm256_add_pd(*xx, _mm256_mul_pd(x, x));
    *yy = _mm256_add_pd(*yy, _mm256_mul_pd(y, y));
    *xy = _mm256_add_pd(*xy, _mm256_mul_pd(x, y));
}

/* lane_tree of the 8 lanes whose halves, lanes 0-3 and 4-7, are lo and hi */
AVX2 BODY double lane_tree4(__m256d lo, __m256d hi)
{
    __m256d h = _mm256_add_pd(lo, hi);
    __m128d q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
    return _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
}

/* dots_baseline with lanes 0-3 and 4-7 of each sum in two vectors, h = 0
 * and 1; the ragged tail is loaded under a mask, its missing terms +0.0,
 * and a half it does not reach is not loaded */
AVX2 BODY void dots_avx2(const double *x, const double *y, long n, double s[3])
{
    __m256d xx[2], yy[2], xy[2];
    for (int h = 0; h < 2; h++)
        xx[h] = yy[h] = xy[h] = _mm256_setzero_pd();
    long j = 0;
    for (; j + LANES <= n; j += LANES)
        for (int h = 0; h < 2; h++)
            add_products4(_mm256_loadu_pd(x + j + 4 * h), _mm256_loadu_pd(y + j + 4 * h),
                          &xx[h], &yy[h], &xy[h]);
    for (int h = 0; h < 2 && j + 4 * h < n; h++) {
        __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n - j - 4 * h),
                                          _mm256_set_epi64x(3, 2, 1, 0));
        add_products4(_mm256_maskload_pd(x + j + 4 * h, tail),
                      _mm256_maskload_pd(y + j + 4 * h, tail), &xx[h], &yy[h], &xy[h]);
    }
    s[0] = lane_tree4(xx[0], xx[1]);
    s[1] = lane_tree4(yy[0], yy[1]);
    s[2] = lane_tree4(xy[0], xy[1]);
}

JACOBI_ROWS(avx2, dots_avx2, AVX2)
JACOBI_ROWS(avx512f, dots_avx2, AVX2)
#endif
