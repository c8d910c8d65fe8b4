"""Pure-numpy sampling kernels: the Box-Muller angle and the KL contraction.

Twin of the C kernels in ``_sampling.c``: the same operations on the same
operands in the same order, element for element, vectorised over the
elements where the C twin loops over them.  Integer-to-double conversions
and the rotation table give the doubles that the C twin builds by integer
arithmetic.  Keep the two files in sync.  The angle algorithm is documented
in ``framekit/rng.py``.
"""

import numpy as np

#: Nearest doubles to the Taylor coefficients of sin(pi t/4) (odd powers,
#: t**1..t**17) and cos(pi t/4) (even powers, t**0..t**18).
SIN_COEF = tuple(
    float.fromhex(h)
    for h in (
        "0x1.921fb54442d18p-1", "-0x1.4abbce625be53p-4", "0x1.466bc6775aae2p-9",
        "-0x1.32d2cce62bd86p-15", "0x1.50783487ee782p-22", "-0x1.e3074fde8871fp-30",
        "0x1.e8f434d018d63p-38", "-0x1.6fadb9f155744p-46", "0x1.aaec32af93359p-55",
    )
)
COS_COEF = tuple(
    float.fromhex(h)
    for h in (
        "0x1.0000000000000p+0", "-0x1.3bd3cc9be45dep-2", "0x1.03c1f081b5ac4p-6",
        "-0x1.55d3c7e3cbffap-12", "0x1.e1f506891babbp-19", "-0x1.a6d1f2a204a8cp-26",
        "0x1.f9d38a3763cc3p-34", "-0x1.b6e24f44b128fp-42", "0x1.20c62c2f2d7f5p-50",
        "-0x1.2a0c591af8314p-59",
    )
)
# rotation by quadrant m: cos = A[m] c + B[m] s, sin = A[m] s - B[m] c
_ROT_A = np.array([1.0, 0.0, -1.0, 0.0])
_ROT_B = np.array([0.0, -1.0, 0.0, 1.0])


def _horner(z, coef):
    """coef[0] + z*(coef[1] + ... + z*coef[-1]), innermost first."""
    acc = np.multiply(z, coef[-1])
    for a in coef[-2:0:-1]:
        np.add(acc, a, out=acc)
        np.multiply(acc, z, out=acc)
    return np.add(acc, coef[0], out=acc)


def check_polar_args(k, radius, count):
    """(rows, pairs) of a valid ``polar_normals`` call; ValueError otherwise."""
    rows, pairs = radius.shape
    if k.shape != radius.shape or count not in (2 * pairs - 1, 2 * pairs):
        raise ValueError(f"angle words {k.shape}, radius {radius.shape}, count {count}")
    return rows, pairs


def check_contract_args(x, c_re, c_im, out_re, out_im):
    """(rows, n) of a valid ``kl_contract`` call; ValueError otherwise."""
    rows, n = x.shape
    if n < 1 or c_re.shape != (n,) or c_im.shape != (n,):
        raise ValueError(f"normals {x.shape} for coefficients {c_re.shape}, {c_im.shape}")
    if out_re.shape != (rows,) or out_im.shape != (rows,):
        raise ValueError(f"outputs {out_re.shape}, {out_im.shape} for {rows} rows")
    return rows, n


def polar_normals(k, radius, count):
    """(rows, count) normals: radius * (cos, sin) of 2 pi k 2**-53, interleaved.

    ``k`` is a (rows, pairs) uint64 array of angle words, already shifted
    below 2**53; ``radius`` a C-contiguous (rows, pairs) float64 array; count
    is 2 * pairs or 2 * pairs - 1, which drops the last sine.
    """
    rows, pairs = check_polar_args(k, radius, count)
    q = np.add(k, np.uint64(1 << 50))
    np.right_shift(q, np.uint64(51), out=q)
    r = np.left_shift(q, np.uint64(51))
    np.subtract(k, r, out=r)  # k - q 2**51 in [-2**50, 2**50), wrapped
    t = r.view(np.int64).astype(np.float64)
    np.multiply(t, 2.0**-50, out=t)
    z = np.multiply(t, t)
    s = _horner(z, SIN_COEF)
    np.multiply(s, t, out=s)
    c = _horner(z, COS_COEF)
    m = np.bitwise_and(q, np.uint64(3), out=q).view(np.int64)
    a = _ROT_A.take(m)
    b = _ROT_B.take(m)
    cosv = np.multiply(a, c)
    np.multiply(b, s, out=t)
    np.add(cosv, t, out=cosv)
    np.multiply(a, s, out=a)
    np.multiply(b, c, out=b)
    sinv = np.subtract(a, b, out=a)
    out = np.empty((rows, count))
    np.multiply(radius, cosv, out=out[:, 0::2])
    half = count // 2
    np.multiply(radius[:, :half], sinv[:, :half], out=out[:, 1::2])
    return out


def kl_contract(x, c_re, c_im, out_re, out_im):
    """out[i] = sum over j in index order of x[i, j] * c[j], for c_re and c_im.

    The first term alone, then one add per term, each multiply and add
    rounded on its own; a loop over the n coefficients, vectorised over the
    rows of the C-contiguous (rows, n) array ``x``.
    """
    rows, n = check_contract_args(x, c_re, c_im, out_re, out_im)
    term = np.empty(rows)
    for c, out in ((c_re, out_re), (c_im, out_im)):
        np.multiply(x[:, 0], c[0], out=out)
        for j in range(1, n):
            np.multiply(x[:, j], c[j], out=term)
            np.add(out, term, out=out)
