"""Pure-numpy cyclic Jacobi kernel.

Twin of the C kernel in ``_jacobi.c``: same sweep order, same rotation
formulas, same convergence test, element-for-element identical arithmetic.
Keep the two files in sync.  Where this twin reads columns p and q of ``a``,
the C twin reads rows p and q: the same numbers only because ``a`` is
exactly symmetric on entry (``SymMatrix`` makes it so) and every rotation
writes a column and its row alike.
"""

from math import sqrt


def off_norm(a):
    """Off-diagonal Frobenius norm of square ``a``, the convergence measure."""
    # Scalar accumulation in row-major (i, j>i) order; the C twin sums in
    # exactly this order so both backends take identical branches.
    n = a.shape[0]
    acc = 0.0
    for i in range(n - 1):
        row = a[i]
        for j in range(i + 1, n):
            x = row[j]
            acc += x * x
    return sqrt(2.0 * acc)


def jacobi_sweeps(a, v, fro_norm, max_sweeps, tol_factor):
    """Diagonalize symmetric ``a`` in place, accumulating rotations into ``v``.

    ``a`` and ``v`` are C-contiguous float64 (n, n) arrays; ``v`` must start as
    the identity.  Convergence: off-diagonal Frobenius norm <= tol_factor *
    fro_norm, checked at the top of every sweep.  Returns the sweep count.
    """
    n = a.shape[0]
    tol = tol_factor * fro_norm
    sweeps = 0
    while sweeps < max_sweeps:
        if off_norm(a) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                a[:, p] = new_p
                a[p, :] = new_p
                a[:, q] = new_q
                a[q, :] = new_q
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        sweeps += 1
    return sweeps
