"""Pure-numpy one-sided (Hestenes) cyclic Jacobi kernel.

Twin of the C kernel in ``_hestenes.c``: the same pair order, the same dot
products summed in the same order and the same rotation formulas, element
for element.  ``np.add.accumulate`` adds in index order, one rounded add per
term, as the C loop does.  Keep the two files in sync.
"""

from math import sqrt

import numpy as np

# a row whose squared norm is below this counts as zero: its dot products
# with other rows would sum underflowed terms
_ZERO_ROW = 2.0**-900


def check_rows_args(a):
    """(k, n) of a valid ``jacobi_rows`` array; ValueError otherwise."""
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a k x n array with k, n >= 1, got shape {a.shape}")
    return a.shape


def _index_order_sums(products):
    return np.add.accumulate(products, axis=1)[:, -1]


def jacobi_rows(a, max_sweeps, tol):
    """Orthogonalize the rows of ``a`` in place; (squared norms, v, sweeps).

    ``a`` is a C-contiguous float64 (k, n) array.  Pairs p < q are visited in
    cyclic order, and a pair is rotated when |a_p.a_q| > tol |a_p| |a_q| and
    neither squared norm is below 2**-900; rows beyond the rank of ``a``
    shrink by about 2**-52 a sweep until they are.  ``v`` (k, k) starts as
    the identity and takes the same rotations, so ``v @ a_in`` is ``a`` on
    return.  The loop stops after a sweep that rotates nothing, or after
    max_sweeps + 1 sweeps that rotate; ``sweeps`` counts the sweeps that
    rotated, so a value above ``max_sweeps`` means no convergence.
    """
    k, n = check_rows_args(a)
    v = np.eye(k)
    products = np.empty((3, n))
    sweeps, rotated = 0, True
    while rotated and sweeps <= max_sweeps:
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                np.multiply(a[p], a[p], out=products[0])
                np.multiply(a[q], a[q], out=products[1])
                np.multiply(a[p], a[q], out=products[2])
                app, aqq, apq = _index_order_sums(products).tolist()
                big = app >= _ZERO_ROW and aqq >= _ZERO_ROW
                if not (big and abs(apq) > tol * sqrt(app) * sqrt(aqq)):
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(zeta) + sqrt(1.0 + zeta * zeta))
                t = -t if zeta < 0.0 else t
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                for rows in (a, v):
                    x, y = rows[p].copy(), rows[q].copy()
                    rows[p] = c * x - s * y
                    rows[q] = s * x + c * y
                rotated = True
        sweeps += rotated
    return _index_order_sums(a * a), v, sweeps
