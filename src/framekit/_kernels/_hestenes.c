/* Compiled one-sided (Hestenes) cyclic Jacobi kernel.
 *
 * Twin of _hestenes_py.py: the same pair order, the same dot products summed
 * in the same order and the same rotation formulas, element for element
 * (built with -ffp-contract=off so no FMA re-rounding creeps in).  Keep the
 * two files in sync.  a is a C-contiguous k x n array and v a C-contiguous
 * k x k array; every rotation combines two contiguous rows of each.
 */
#include <math.h>

/* a row whose squared norm is below this counts as zero: its dot products
 * with other rows would sum underflowed terms */
#define ZERO_ROW 0x1p-900

/* x.x, y.y and x.y, each summed in index order: the first term alone, then
 * one rounded multiply and one rounded add per term */
static void dots(const double *x, const double *y, long n, double *xx, double *yy,
                 double *xy)
{
    double sxx = x[0] * x[0], syy = y[0] * y[0], sxy = x[0] * y[0];
    for (long j = 1; j < n; j++) {
        sxx = sxx + x[j] * x[j];
        syy = syy + y[j] * y[j];
        sxy = sxy + x[j] * y[j];
    }
    *xx = sxx;
    *yy = syy;
    *xy = sxy;
}

/* (x, y) <- (c x - s y, s x + c y) */
static void rotate(double *x, double *y, long n, double c, double s)
{
    for (long j = 0; j < n; j++) {
        double xj = x[j], yj = y[j];
        x[j] = c * xj - s * yj;
        y[j] = s * xj + c * yj;
    }
}

/* Rotate the rows of a in cyclic sweeps over the pairs p < q, applying each
 * rotation to the rows of v as well, then write each row's squared norm to
 * norms.  A pair is rotated when |a_pq| > tol sqrt(a_pp) sqrt(a_qq) and
 * neither row counts as zero; rows beyond the rank of a shrink by about
 * 2^-52 a sweep until they do.  Stops after a sweep that rotates nothing, or
 * after max_sweeps + 1 sweeps that rotate; returns the number of sweeps that
 * rotated, so a return above max_sweeps means no convergence. */
int jacobi_rows(double *a, double *v, double *norms, long k, long n, int max_sweeps,
                double tol)
{
    int sweeps = 0, rotated = 1;
    double app, aqq, apq;
    while (rotated && sweeps <= max_sweeps) {
        rotated = 0;
        for (long p = 0; p < k - 1; p++)
            for (long q = p + 1; q < k; q++) {
                dots(a + p * n, a + q * n, n, &app, &aqq, &apq);
                if (app < ZERO_ROW || aqq < ZERO_ROW || !(fabs(apq) > tol * sqrt(app) * sqrt(aqq)))
                    continue;
                double zeta = (aqq - app) / (2.0 * apq);
                double t = 1.0 / (fabs(zeta) + sqrt(1.0 + zeta * zeta));
                t = zeta < 0.0 ? -t : t;
                double c = 1.0 / sqrt(1.0 + t * t), s = t * c;
                rotate(a + p * n, a + q * n, n, c, s);
                rotate(v + p * k, v + q * k, k, c, s);
                rotated = 1;
            }
        sweeps += rotated;
    }
    for (long i = 0; i < k; i++)
        dots(a + i * n, a + i * n, n, norms + i, &aqq, &apq);
    return sweeps;
}
