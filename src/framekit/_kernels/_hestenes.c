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
 * combined as ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).  Eight
 * independent chains of adds keep the vector unit busy where one chain in
 * index order would wait on the latency of each add.  Rows come padded with
 * +0.0 to a multiple n of the 8 lanes, as spectral.padded_svd states, so
 * every lane group is whole and no variant has a ragged tail.
 *
 * Every variant v that variants() of _sampling.c names exports
 * jacobi_rows_<v>, so the ISA_DISPATCH guard below must stay the same as
 * _sampling.c's.  All of them compile one body, whose sums are two 4-wide
 * vectors of GCC's and Clang's vector extension (lanes 0-3 and 4-7): SSE2
 * pairs on the baseline, AVX2 registers on avx2, and avx512f runs AVX2's
 * code under its own name, since an 8-wide AVX-512 sum was no faster on the
 * workloads' small rows.  With no FMA and every sum in the same order the
 * variants give the same bits.
 */
#include <math.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 5)
#define ISA_DISPATCH 1
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

/* 4 lanes of a dot product.  A v4 is passed only by address, so that no
 * function's ABI depends on the ISA it is compiled for. */
typedef double v4 __attribute__((vector_size(32)));

/* ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)) of the 8 lanes whose
 * halves, lanes 0-3 and 4-7, are lo and hi */
BODY double lane_tree(const v4 *lo, const v4 *hi)
{
    v4 h = *lo + *hi;
    return (h[0] + h[2]) + (h[1] + h[3]);
}

/* x.x, y.y and x.y into s[0], s[1] and s[2], each sum in two vectors of 4
 * lanes, h = 0 and 1, over the whole lane groups of the rows of n, which is
 * all of them when n is a multiple of LANES */
BODY void dots(const double *x, const double *y, long n, double s[3])
{
    v4 xx[2] = {{0.0}}, yy[2] = {{0.0}}, xy[2] = {{0.0}};
    for (long j = 0; j + LANES <= n; j += LANES)
        for (int h = 0; h < 2; h++) {
            v4 xh, yh;
            memcpy(&xh, x + j + 4 * h, sizeof xh);  /* unaligned loads */
            memcpy(&yh, y + j + 4 * h, sizeof yh);
            xx[h] = xx[h] + xh * xh;
            yy[h] = yy[h] + yh * yh;
            xy[h] = xy[h] + xh * yh;
        }
    s[0] = lane_tree(&xx[0], &xx[1]);
    s[1] = lane_tree(&yy[0], &yy[1]);
    s[2] = lane_tree(&xy[0], &xy[1]);
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

/* Rotate the rows of a, of n a multiple of LANES, in cyclic sweeps over the
 * pairs p < q, in the band order of the header, applying each rotation to
 * the rows of v as well, then write each row's squared norm to norms.  A
 * pair is rotated when |a_pq| > tol sqrt(a_pp) sqrt(a_qq) and neither row
 * counts as zero; rows beyond the rank of a shrink by about 2^-52 a sweep
 * until they do.  Stops after a sweep that rotates nothing, or after
 * max_sweeps + 1 sweeps that rotate; returns the number of sweeps that
 * rotated, so a return above max_sweeps means no convergence.  A band keeps
 * its 4 pivot rows in L1 while the other rows stream past them.
 * Anti-diagonals p + q = d over the whole array, 4 pairs at a time, give the
 * same bits but lose the rows from L1: 256 x 256 ran about 20 % slower than
 * in bands. */
BODY int jacobi_sweeps(double *a, double *v, double *norms, long k, long n, int max_sweeps,
                       double tol)
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

/* the exported jacobi_rows_<isa>, compiled with the attributes attrs */
#define JACOBI_ROWS(isa, attrs)                                                        \
    attrs int jacobi_rows_##isa(double *a, double *v, double *norms, long k, long n,   \
                                int max_sweeps, double tol)                            \
    {                                                                                  \
        return jacobi_sweeps(a, v, norms, k, n, max_sweeps, tol);                      \
    }

JACOBI_ROWS(baseline, )

#ifdef ISA_DISPATCH
JACOBI_ROWS(avx2, __attribute__((target("avx2"))))
JACOBI_ROWS(avx512f, __attribute__((target("avx2"))))
#endif
