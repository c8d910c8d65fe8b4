/* Compiled cyclic Jacobi kernel.
 *
 * Twin of _jacobi_py.py: same sweep order, same rotation formulas, same
 * convergence test, element-for-element identical arithmetic (built with
 * -ffp-contract=off so no FMA re-rounding creeps in).  Keep the two files in
 * sync.  Where the numpy twin reads columns p and q of ``a``, this one reads
 * rows p and q: the same numbers only because ``a`` is exactly symmetric on
 * entry (``SymMatrix`` makes it so) and every rotation writes a row and its
 * column alike.  Both matrices are C-contiguous n x n doubles.
 */
#include <math.h>

/* sqrt(2 * sum of a[i][j]^2 over j > i), summed row by row */
double off_norm(const double *a, long n)
{
    double acc = 0.0;
    for (long i = 0; i < n - 1; i++)
        for (long j = i + 1; j < n; j++)
            acc += a[i * n + j] * a[i * n + j];
    return sqrt(2.0 * acc);
}

/* Diagonalize a in place, accumulating the rotations into the columns of v;
 * returns the sweep count. */
int jacobi_sweeps(double *a, double *v, long n, double fro_norm, int max_sweeps,
                  double tol_factor)
{
    double tol = tol_factor * fro_norm;
    int sweeps = 0;
    while (sweeps < max_sweeps) {
        if (off_norm(a, n) <= tol)
            break;
        for (long p = 0; p < n - 1; p++) {
            double *ap = a + p * n;
            for (long q = p + 1; q < n; q++) {
                double *aq = a + q * n;
                double apq = ap[q];
                if (apq == 0.0)
                    continue;
                double app = ap[p], aqq = aq[q];
                double tau = (aqq - app) / (2.0 * apq);
                double t = tau >= 0.0 ? 1.0 / (tau + sqrt(1.0 + tau * tau))
                                      : 1.0 / (tau - sqrt(1.0 + tau * tau));
                double c = 1.0 / sqrt(1.0 + t * t);
                double s = t * c;
                /* entries p and q of rows p and q are set after the loop;
                 * writing them inside it would overwrite a[p][q] before
                 * step k = q reads it */
                for (long k = 0; k < n; k++) {
                    if (k == p || k == q)
                        continue;
                    double akp = ap[k], akq = aq[k];
                    ap[k] = a[k * n + p] = c * akp - s * akq;
                    aq[k] = a[k * n + q] = s * akp + c * akq;
                }
                ap[p] = app - t * apq;
                aq[q] = aqq + t * apq;
                ap[q] = aq[p] = 0.0;
                for (long k = 0; k < n; k++) {
                    double vkp = v[k * n + p], vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
        sweeps++;
    }
    return sweeps;
}
