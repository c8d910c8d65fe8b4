"""Pure-numpy sampling kernels: Philox split into the Box-Muller operands,
the Box-Muller radius and angle, and the fixed-order contraction
``kl_contract`` of any width.

Twin of the C kernels in ``_sampling.c``: the same operations on the same
operands in the same order, element for element, vectorised over the
elements where the C twin loops over them.  numpy's Philox, integer-to-double
conversions and the rotation table give the words and doubles that the C
twin builds by integer arithmetic.  ``philox_split`` and ``polar_normals``
are the reference, on row-major (rows, pairs) operands: ``rng.seeded_normals``
computes the normal streams with them, and the C twin, which holds its
operands tile-major and draws normals only inside its fused kernel, is
tested against them.  ``Sampler``, the numpy twin's backend entry, runs the
reference itself on row-major arrays allocated once.  The checks of the
arrays of a block and of a contraction are here, for both twins, and every
array a compiled kernel is handed goes through ``array_address``.  Keep the
two files in sync.
The stream layout and the angle algorithm are documented in
``framekit/rng.py``.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_FLOAT64 = np.dtype(np.float64).str
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


def check_philox_args(seed, first, u1, k):
    """(rows, pairs) of a valid ``philox_split`` call; ValueError otherwise."""
    check_seed(seed, first)
    rows, pairs = u1.shape
    if k.shape != u1.shape or rows < 1 or pairs < 1:
        raise ValueError(f"u1 {u1.shape}, angle words {k.shape}")
    return rows, pairs


def check_polar_args(ln_u1, k, shape):
    """(rows, pairs, count) of a valid ``polar_normals`` call writing normals
    of ``shape``; ValueError otherwise."""
    rows, pairs = ln_u1.shape
    if k.shape != ln_u1.shape or tuple(shape) not in ((rows, 2 * pairs - 1), (rows, 2 * pairs)):
        raise ValueError(f"ln u1 {ln_u1.shape}, angle words {k.shape}, output {shape}")
    return rows, pairs, shape[1]


def check_contract_args(x, c, out):
    """The addresses of x, c and out of a valid ``kl_contract`` call, then
    rows, n and k; ValueError otherwise."""
    rows, n = np.shape(x)
    k = len(c) if np.ndim(c) else 0
    if n < 1 or k < 1:
        raise ValueError(f"normals {np.shape(x)}, coefficients {np.shape(c)}: an empty sum")
    return (
        array_address(x, (rows, n)), array_address(c, (k, n)),
        array_address(out, (k, rows), writeable=True), rows, n, k,
    )


def check_seed(seed, first):
    """ValueError unless ``seed`` and the first stream ``first`` lie in
    [0, 2**64), where a C uint64 would wrap them."""
    if not (0 <= seed <= _MASK64 and 0 <= first <= _MASK64):
        raise ValueError(f"seed {seed} or first stream {first} outside [0, 2**64)")


def array_address(a, shape, writeable=False):
    """The address of the data of ``a``, a C-contiguous float64 array of
    the tuple ``shape``, writeable if ``writeable``, read from one array
    interface; ValueError otherwise, before a kernel is handed the memory."""
    try:
        face = a.__array_interface__
    except AttributeError:
        raise ValueError(f"{type(a).__name__} is not an array") from None
    address, read_only = face["data"]
    if (face["typestr"] != _FLOAT64 or face["shape"] != shape or face["strides"] is not None
            or writeable and read_only):
        kind = "writeable " if writeable else ""
        raise ValueError(f"need a {kind}C-contiguous float64 array of shape {shape}")
    return address


def check_block_args(held, count, rows, c_re, c_im, out_re, out_im):
    """Addresses of c_re, c_im, out_re and out_im of a valid block of
    ``rows`` streams into a scratch of ``held`` streams of ``count``
    normals; ValueError otherwise."""
    if not 1 <= rows <= held:
        raise ValueError(f"{rows} streams for a scratch of {held}")
    return (
        array_address(c_re, (count,)), array_address(c_im, (count,)),
        array_address(out_re, (rows,), writeable=True),
        array_address(out_im, (rows,), writeable=True),
    )


def philox_split(seed, first, u1, k):
    """Streams first..first + rows - 1 of ``seed``, split into the operands of
    Box-Muller: u1 = ((w >> 11) + 1) 2**-53 from the first ``pairs`` words of
    each stream, and the angle words k = w >> 11 from the next ``pairs``.

    ``u1`` and ``k`` are (rows, pairs) arrays, float64 and uint64, written in
    place; ``first`` lies in [0, 2**64).
    """
    rows, pairs = check_philox_args(seed, first, u1, k)
    blocks = (pairs + 1) // 2
    key = np.array([seed, 0], dtype=np.uint64)
    c = first * blocks
    counter = np.array([c & _MASK64, c >> 64, 0, 0], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=counter).random_raw(rows * 4 * blocks)
    words = words.reshape(rows, 4 * blocks)
    np.right_shift(words, np.uint64(11), out=words)
    k[...] = words[:, pairs : 2 * pairs]
    head = words[:, :pairs]
    np.add(head, np.uint64(1), out=head)
    np.multiply(head, 2.0**-53, out=u1)


def polar_normals(ln_u1, k, out):
    """Normals radius * (cos, sin) of 2 pi k 2**-53, interleaved, into ``out``.

    ``ln_u1`` is a (rows, pairs) float64 array of ln u1, from which the
    radius sqrt(ln_u1 * -2.0) is taken; ``k`` a (rows, pairs) uint64 array of
    angle words, already shifted below 2**53; ``out`` a (rows, count) float64
    array with count 2 * pairs, or 2 * pairs - 1, which drops the last sine.
    """
    rows, pairs, count = check_polar_args(ln_u1, k, out.shape)
    radius = np.multiply(ln_u1, -2.0)
    np.sqrt(radius, out=radius)
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
    np.multiply(radius, cosv, out=out[:, 0::2])
    half = count // 2
    np.multiply(radius[:, :half], sinv[:, :half], out=out[:, 1::2])


def kl_contract(x, c, out):
    """out[j, i] = sum over l in index order of x[i, l] * c[j, l], for
    (rows, n) ``x``, (k, n) ``c`` and (k, rows) ``out``.

    The first term alone, then one add per term, each multiply and add
    rounded on its own; a loop over the n terms of each row of ``c``,
    vectorised over the rows of ``x``.  Both twins refuse the same arrays.
    """
    *_, rows, n, k = check_contract_args(x, c, out)
    term = np.empty(rows)
    for cj, oj in zip(c, out):
        np.multiply(x[:, 0], cj[0], out=oj)
        for l in range(1, n):
            np.multiply(x[:, l], cj[l], out=term)
            np.add(oj, term, out=oj)


class Sampler:
    """The numpy twin's scratch for blocks of up to ``rows`` streams of
    ``count`` normals: u1 (then ln u1), the angle words ``k`` and the
    normals, row-major arrays allocated once and reused by every block."""

    def __init__(self, rows, count):
        pairs = (count + 1) // 2
        self.rows, self.count = rows, count
        self.u1 = np.empty((rows, pairs))
        self.k = np.empty((rows, pairs), dtype=np.uint64)
        self.normals = np.empty((rows, count))

    def draw(self, seed, first, rows):
        """The normals of streams first..first + rows - 1 of ``seed``, the
        first ``rows`` rows of ``normals``."""
        u1, k, normals = self.u1[:rows], self.k[:rows], self.normals[:rows]
        philox_split(seed, first, u1, k)
        np.log(u1, out=u1)
        polar_normals(u1, k, normals)
        return normals

    def contract(self, seed, first, rows, c_re, c_im, out_re, out_im):
        """``kl_contract`` of the normals of streams first..first + rows - 1 of
        ``seed``, c_re into out_re, then c_im into out_im, checked first."""
        check_block_args(self.rows, self.count, rows, c_re, c_im, out_re, out_im)
        normals = self.draw(seed, first, rows)
        kl_contract(normals, c_re[None], out_re[None])
        kl_contract(normals, c_im[None], out_im[None])
