"""Pure-numpy sampling kernels: Philox split into the Box-Muller operands,
the Box-Muller radius and angle, the KL contraction, and the two fused.

Twin of the C kernels in ``_sampling.c``: the same operations on the same
operands in the same order, element for element, vectorised over the
elements where the C twin loops over them.  numpy's Philox, integer-to-double
conversions and the rotation table give the words and doubles that the C
twin builds by integer arithmetic.  ``philox_split`` and ``polar_normals``
are the reference, on (rows, pairs) operands: ``rng.seeded_normals``
computes the normal streams with them, and the C twin, which draws normals
only inside ``polar_contract``, is tested against them.  The backend
entries, ``bind`` and the ``philox_split_tiles`` and ``polar_contract_tiles``
it runs, hold the operands tile-major, as the C twin does ((tiles, pairs,
LANES) arrays, lane i of tile t stream first + LANES t + i), and reshape
and transpose the reference's rows.  The checks of a tile-major scratch and
of the vectors of a call are here, for both twins.  Keep the two files in
sync.  The stream layout and the angle algorithm are documented in
``framekit/rng.py``.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
#: streams a tile of the Box-Muller operands holds, one a lane
LANES = 8
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
    if not (0 <= seed <= _MASK64 and 0 <= first <= _MASK64):
        raise ValueError(f"seed {seed} or first stream {first} outside [0, 2**64)")
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


def check_contract_args(shape, c_re, c_im, out_re, out_im):
    """(rows, n) of a valid ``kl_contract`` call on normals of ``shape``;
    ValueError otherwise."""
    rows, n = shape
    if n < 1 or c_re.shape != (n,) or c_im.shape != (n,):
        raise ValueError(f"normals {shape} for coefficients {c_re.shape}, {c_im.shape}")
    if out_re.shape != (rows,) or out_im.shape != (rows,):
        raise ValueError(f"outputs {out_re.shape}, {out_im.shape} for {rows} rows")
    return rows, n


def check_tiles(u1, k):
    """(tiles, pairs) of a tile-major scratch: ``u1`` float64 and ``k``
    uint64, both C-contiguous and writeable, of one shape (tiles, pairs,
    LANES) with tiles and pairs at least 1; ValueError otherwise."""
    for name, a, dtype in (("u1", u1, np.float64), ("angle words", k, np.uint64)):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
                and a.flags.writeable):
            raise ValueError(f"{name} must be a writeable C-contiguous {np.dtype(dtype)} array")
    tiles, pairs, lanes = u1.shape if u1.ndim == 3 else (0, 0, 0)
    if k.shape != u1.shape or tiles < 1 or pairs < 1 or lanes != LANES:
        raise ValueError(f"u1 {u1.shape}, angle words {k.shape}: need (tiles, pairs, {LANES})")
    return tiles, pairs


def check_split_args(seed, first, tiles, held):
    """A valid ``split(seed, first, tiles)`` of a scratch of ``held`` tiles;
    ValueError otherwise."""
    if not (0 <= seed <= _MASK64 and 0 <= first <= _MASK64):
        raise ValueError(f"seed {seed} or first stream {first} outside [0, 2**64)")
    if not 1 <= tiles <= held:
        raise ValueError(f"{tiles} tiles for a scratch of {held}")


def vector_address(a, n, writeable=False):
    """The address of the data of ``a``, a C-contiguous float64 array of
    shape (n,), writeable if ``writeable``; ValueError otherwise, the
    refusals of a typed ctypes pointer, read from one array interface."""
    try:
        face = a.__array_interface__
    except AttributeError:
        raise ValueError(f"{type(a).__name__} is not an array") from None
    address, read_only = face["data"]
    if (face["typestr"] != _FLOAT64 or face["shape"] != (n,) or face["strides"] is not None
            or writeable and read_only):
        kind = "writeable " if writeable else ""
        raise ValueError(f"need a {kind}C-contiguous float64 array of shape ({n},)")
    return address


def check_fuse_args(pairs, tiles, rows, c_re, c_im, out_re, out_im):
    """(count, addresses of c_re, c_im, out_re and out_im) of a valid
    ``fuse(rows, c_re, c_im, out_re, out_im)`` of a scratch of ``tiles``
    tiles of ``pairs`` pairs; ValueError otherwise."""
    count = len(c_re)
    if count not in (2 * pairs - 1, 2 * pairs) or not 1 <= rows <= LANES * tiles:
        raise ValueError(f"{rows} rows of {count} normals for a scratch of {tiles} x {pairs}")
    return count, (
        vector_address(c_re, count),
        vector_address(c_im, count),
        vector_address(out_re, rows, writeable=True),
        vector_address(out_im, rows, writeable=True),
    )


def philox_split(seed, first, u1, k):
    """Streams first..first + rows - 1 of ``seed``, split into the operands of
    Box-Muller: u1 = ((w >> 11) + 1) 2**-53 from the first ``pairs`` words of
    each stream, and the angle words k = w >> 11 from the next ``pairs``.

    ``u1`` and ``k`` are (rows, pairs) arrays, float64 and uint64, written in
    place; ``first`` lies in [0, 2**64).
    """
    rows, pairs = check_philox_args(seed, first, u1, k)
    _split(_philox_words(seed, first, rows, pairs), pairs, u1, k)


def _philox_words(seed, first, rows, pairs):
    """The words of streams first..first + rows - 1, shifted right by 11,
    as the rows of a (rows, 4 ceil(pairs/2)) array."""
    blocks = (pairs + 1) // 2
    key = np.array([seed, 0], dtype=np.uint64)
    c = first * blocks
    counter = np.array([c & _MASK64, c >> 64, 0, 0], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=counter).random_raw(rows * 4 * blocks)
    words = words.reshape(rows, 4 * blocks)
    return np.right_shift(words, np.uint64(11), out=words)


def _split(words, pairs, u1, k):
    """u1 and k from the shifted ``words``, a stream's words along axis 1."""
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


def kl_contract(x, c_re, c_im, out_re, out_im):
    """out[i] = sum over j in index order of x[i, j] * c[j], for c_re and c_im.

    The first term alone, then one add per term, each multiply and add
    rounded on its own; a loop over the n coefficients, vectorised over the
    rows of the C-contiguous (rows, n) array ``x``.
    """
    rows, n = check_contract_args(x.shape, c_re, c_im, out_re, out_im)
    term = np.empty(rows)
    for c, out in ((c_re, out_re), (c_im, out_im)):
        np.multiply(x[:, 0], c[0], out=out)
        for j in range(1, n):
            np.multiply(x[:, j], c[j], out=term)
            np.add(out, term, out=out)


def to_rows(tiled, rows):
    """The first ``rows`` streams of a tile-major (tiles, pairs, LANES) array,
    as the rows of a (rows, pairs) array."""
    return tiled.transpose(0, 2, 1).reshape(-1, tiled.shape[1])[:rows]


def philox_split_tiles(seed, first, u1, k):
    """``philox_split`` of streams first..first + LANES tiles - 1 into the
    tile-major (tiles, pairs, LANES) ``u1`` and ``k``, lane i of tile t
    taking stream first + LANES t + i: the reference words, transposed
    tile by tile."""
    tiles, pairs, _ = u1.shape
    words = _philox_words(seed, first, tiles * LANES, pairs)
    _split(words.reshape(tiles, LANES, -1).transpose(0, 2, 1), pairs, u1, k)


def polar_contract_tiles(ln_u1, k, c_re, c_im, out_re, out_im):
    """``kl_contract`` of the ``polar_normals`` of the first rows =
    len(out_re) streams of the tile-major ``ln_u1`` and ``k``, with count =
    len(c_re) normals a row, into ``out_re`` and ``out_im``.

    The normals go through a temporary (rows, count) array, where the C twin
    keeps a pair of them a lane at a time; the bits are the same.
    """
    rows = len(out_re)
    x = np.empty((rows, len(c_re)))
    polar_normals(to_rows(ln_u1, rows), to_rows(k, rows), x)
    kl_contract(x, c_re, c_im, out_re, out_im)


def bind(u1, k):
    """(split, fuse) of the tile-major scratch ``u1`` and ``k``:
    ``split(seed, first, tiles)`` runs ``philox_split_tiles`` into its first
    ``tiles`` tiles; ``fuse(rows, c_re, c_im, out_re, out_im)`` checks its
    arguments and returns the call that runs ``polar_contract_tiles`` on
    the tiles of ``rows`` streams."""
    held, pairs = check_tiles(u1, k)

    def split(seed, first, tiles):
        check_split_args(seed, first, tiles, held)
        philox_split_tiles(seed, first, u1[:tiles], k[:tiles])

    def fuse(rows, c_re, c_im, out_re, out_im):
        check_fuse_args(pairs, held, rows, c_re, c_im, out_re, out_im)
        tiles = -(-rows // LANES)
        return lambda: polar_contract_tiles(u1[:tiles], k[:tiles], c_re, c_im, out_re, out_im)

    return split, fuse
