"""Pure-numpy one-sided (Hestenes) cyclic Jacobi kernel.

Twin of the C kernel in ``_hestenes.c``: each rotation of the same two rows,
the same dot products summed in the same order and the same rotation
formulas, element for element.  Keep the two files in sync.

This twin visits the pairs of a sweep in row-cyclic order, p = 0, 1, ...
and q = p + 1, ..., k - 1, one at a time, and so defines the bits.  The C
kernel runs the same pairs four disjoint ones at a time, in bands of four
pivot rows: step j of the band p0..p0 + 3 takes the pairs
(p0 + i, p0 + 1 + j - i) with 2i <= j and q < k.  Each row still meets its
pairs in the row-cyclic sequence (pair (p, q) after (p, q - 1) and
(p - 1, q)), so each rotation sees the same two rows and the bits are
these.

This twin defines the order of the dot products, which every ISA variant of
the C kernel matches bit for bit.  The products of a row are summed in 8
lanes: lane l starts at +0.0 and adds the products of the terms j = l
(mod 8) in index order, one rounded add a term, and the lanes are combined
as ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).  Here the products
are laid out as a (groups + 1, 8) table whose first row is +0.0, and
``np.add.accumulate`` adds its rows in order.  Rows are whole lane groups,
padded and scaled as ``spectral.padded_svd`` states, and both twins refuse
any other length.
"""

from math import sqrt

import numpy as np

# a row whose squared norm is below this counts as zero: its dot products
# with other rows would sum underflowed terms
_ZERO_ROW = 2.0**-900

# lanes of the dot products
_LANES = 8


def check_rows_args(a):
    """(k, n) of a valid ``jacobi_rows`` array, whose rows are whole groups
    of the 8 lanes; ValueError otherwise."""
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1 or a.shape[1] % _LANES:
        raise ValueError(
            f"expected a k x n array with k >= 1 and n a positive multiple of {_LANES}, "
            f"got shape {a.shape}"
        )
    return a.shape


def lane_table(rows, n):
    """A zeroed table for the products of ``rows`` rows of ``n`` terms, n a
    multiple of 8: (the (rows, n / 8 + 1, 8) table, the (rows, n) view the
    products go into, after the first row of +0.0)."""
    table = np.zeros((rows, n // _LANES + 1, _LANES))
    return table, table.reshape(rows, -1)[:, _LANES:]


def lane_sums(table):
    """The sum of each row of products in ``table`` as a list of floats,
    lane by lane and then ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))."""
    return [
        ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
        for l0, l1, l2, l3, l4, l5, l6, l7 in np.add.accumulate(table, axis=1)[:, -1].tolist()
    ]


def jacobi_rows(a, max_sweeps, tol):
    """Orthogonalize the rows of ``a`` in place; (squared norms, v, sweeps),
    the rows of ``a`` and ``v`` and the norms sorted alike into non-increasing
    norms, ties in input order (numpy's stable argsort of -norms).

    ``a`` is a C-contiguous float64 (k, n) array, n a multiple of 8.  Pairs
    p < q are visited in cyclic order, and a pair is rotated when
    |a_p.a_q| > tol |a_p| |a_q| and neither squared norm is below 2**-900;
    rows beyond the rank of ``a`` shrink by about 2**-52 a sweep until they
    are.  ``v`` (k, k) starts as the identity and takes the same rotations,
    so ``v @ a_in`` is ``a`` on return.  The loop stops after a sweep that
    rotates nothing, or after max_sweeps + 1 sweeps that rotate; ``sweeps``
    counts the sweeps that rotated, so a value above ``max_sweeps`` means no
    convergence.
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
    norms = np.array(lane_sums(table))
    order = np.argsort(-norms, kind="stable")
    a[...] = a[order]
    return norms[order], v[order], sweeps
