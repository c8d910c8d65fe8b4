"""Pure-numpy one-sided (Hestenes) cyclic Jacobi kernel.

Twin of the C kernel in ``_hestenes.c``: the same pair order, the same dot
products summed in the same order and the same rotation formulas, element
for element.  Keep the two files in sync.

This twin defines the order of the dot products, which every ISA variant of
the C kernel (AVX2 and the baseline) matches bit for bit.  The
products of a row of n terms are summed in 8 lanes: lane l starts at +0.0
and adds the products of the terms j = l (mod 8) in index order, one rounded
add a term, and the lanes are combined as ((l0 + l4) + (l2 + l6)) +
((l1 + l5) + (l3 + l7)).  Here the products are laid out as a (groups + 1,
8) table whose first row is +0.0 and whose ragged tail is padded with +0.0,
and ``np.add.accumulate`` adds its rows in order.  So a lane with no term,
in a row shorter than 8 or past the ragged tail, adds only +0.0 and stays
+0.0; and since a sum that starts at +0.0 is never -0.0, the padding changes
no bit of a lane it reaches.
"""

from math import sqrt

import numpy as np

# a row whose squared norm is below this counts as zero: its dot products
# with other rows would sum underflowed terms
_ZERO_ROW = 2.0**-900

# lanes of the dot products
_LANES = 8


def check_rows_args(a):
    """(k, n) of a valid ``jacobi_rows`` array; ValueError otherwise."""
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a k x n array with k, n >= 1, got shape {a.shape}")
    return a.shape


def lane_table(rows, n):
    """A zeroed table for the products of ``rows`` rows of ``n`` terms:
    (the (rows, groups + 1, 8) table, the (rows, n) view the products go
    into, after the first row of +0.0)."""
    table = np.zeros((rows, -(-n // _LANES) + 1, _LANES))
    return table, table.reshape(rows, -1)[:, _LANES : _LANES + n]


def lane_sums(table):
    """The sum of each row of products in ``table`` as a list of floats,
    lane by lane and then ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))."""
    return [
        ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
        for l0, l1, l2, l3, l4, l5, l6, l7 in np.add.accumulate(table, axis=1)[:, -1].tolist()
    ]


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
    table, products = lane_table(3, n)
    squares, cross = products[:2], products[2]
    sweeps, rotated = 0, True
    while rotated and sweeps <= max_sweeps:
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                # rows p and q as one (2, n) view, squared in one call
                pair = a[p : q + 1 : q - p]
                np.multiply(pair, pair, out=squares)
                np.multiply(a[p], a[q], out=cross)
                app, aqq, apq = lane_sums(table)
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
    table, products = lane_table(k, n)
    np.multiply(a, a, out=products)
    return np.array(lane_sums(table)), v, sweeps
