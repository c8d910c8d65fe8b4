"""Independent reference implementations used to cross-check the library.

Nothing here calls into framekit's linear algebra: the Hilbert matrix is
formed entry by entry, eigenvalue estimates come from power iteration or
LAPACK, subspace kernels from weighted Gram-Schmidt or, for the monomials on
a Gauss-Legendre grid, from the Christoffel-Darboux sum of the Legendre
polynomials, and positive-definiteness certificates from a hand-rolled
Cholesky.
``random_riesz_frame`` draws seeded Riesz systems, the hypothesis strategy
``weighted_frames`` the frames that property tests share, and
``fused_normals`` reads the normals back out of a compiled variant's fused
sampling kernel, which never writes them out, through the tile-major
operands that ``to_tiles`` forms and ``from_tiles`` reads.  ``TWINS`` names
the backends that a test parametrized by ``jacobi_backend()``'s names runs.
"""

import math

import numpy as np
from hypothesis import strategies as st

from framekit import FrameSystem, Grid, InvalidArgument, rng
from framekit._kernels import LANES, PYTHON, VARIANTS


def power_iteration(a, steps=10_000):
    """Rayleigh-quotient estimate of the top eigenvalue of symmetric PSD a."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    v = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(steps):
        w = a @ v
        lam = float(v @ w)
        nrm = float(np.sqrt(w @ w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return lam


def hilbert_gramian_exact(n: int) -> np.ndarray:
    """Exact n x n Hilbert matrix 1/(i+j+1), i, j from 0, read-only.

    This is the continuum Gramian of the monomial system; no finite grid
    underlies it.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    idx = np.arange(n)
    entries = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    entries.setflags(write=False)
    return entries


def eigh_descending(a):
    """(eigenvalues non-increasing, eigenvectors as columns) of symmetric a, by LAPACK."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    return vals[::-1], vecs[:, ::-1]


def weighted_gram_schmidt(vectors, weights, rel_tol=1e-8):
    """Orthonormal basis of the row span under <f,g> = sum w f g.

    Modified Gram-Schmidt with one reorthogonalization pass; rows whose
    remainder is below rel_tol times their original norm are dropped.
    """
    vectors = np.asarray(vectors, dtype=float)
    weights = np.asarray(weights, dtype=float)
    basis = []
    for row in vectors:
        original = math.sqrt(float(np.sum(weights * row * row)))
        v = row.copy()
        for _ in range(2):
            for e in basis:
                v = v - float(np.sum(weights * e * v)) * e
        nrm = math.sqrt(float(np.sum(weights * v * v)))
        if original > 0.0 and nrm > rel_tol * original:
            basis.append(v / nrm)
    return np.array(basis) if basis else np.zeros((0, vectors.shape[1]))


def gram_schmidt_kernel(vectors, weights, rel_tol=1e-8):
    """Subspace reproducing kernel sum_k e_k(s) e_k(t) from an explicit ONB."""
    basis = weighted_gram_schmidt(vectors, weights, rel_tol)
    return basis.T @ basis


def gauss_legendre_monomials(n: int) -> FrameSystem:
    """The monomials t**j, j < n, on the 2n-point Gauss-Legendre grid of
    (0, 1): ``leggauss``'s nodes mapped to (0, 1) and its weights halved.

    The rule integrates every polynomial of degree below 4n exactly, so the
    Gramian is the n x n Hilbert matrix up to the rounding of the nodes, the
    weights and the powers.
    """
    nodes, weights = np.polynomial.legendre.leggauss(2 * n)
    points = (nodes + 1.0) / 2.0
    return FrameSystem(
        grid=Grid(points=points, weights=weights / 2.0),
        vectors=points[None, :] ** np.arange(n)[:, None],
    )


def christoffel_darboux_kernel(n: int, points) -> np.ndarray:
    """sum_{j<n} (2j+1) P_j(2s-1) P_j(2t-1) over the pairs (s, t) of
    ``points``: the reproducing kernel of the polynomials of degree below n
    in L2(0, 1), from the Legendre recurrence alone."""
    legendre = np.polynomial.legendre.legvander(2.0 * np.asarray(points) - 1.0, n - 1)
    return (legendre * (2.0 * np.arange(n) + 1.0)) @ legendre.T


def cholesky_succeeds(a):
    """True iff the hand-rolled Cholesky of ``a`` completes with positive pivots.

    Failure certifies that the matrix is not positive definite, i.e. its
    smallest eigenvalue is below zero (or below s if a - s*I was passed).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    lower = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - float(np.dot(lower[i, :j], lower[j, :j]))
            if i == j:
                if acc <= 0.0 or math.isnan(acc):
                    return False
                lower[i, i] = math.sqrt(acc)
            else:
                lower[i, j] = acc / lower[j, j]
    return True


def orthonormal_rows(n_rows, n_cols, weights, seed, stream=0):
    """n_rows vectors orthonormal under the weighted inner product.

    Draws seeded normals and Gram-Schmidts them; requires n_rows <= n_cols.
    """
    assert n_rows <= n_cols
    for attempt in range(100):
        raw = rng.seeded_normals(seed, stream * 100 + attempt, n_rows * n_cols)
        basis = weighted_gram_schmidt(raw.reshape(n_rows, n_cols), weights)
        if basis.shape[0] == n_rows:
            return basis
    raise AssertionError("could not draw a full-rank system")


def random_riesz_frame(m: int, seed: int) -> FrameSystem:
    """Seeded random m x m Riesz system on a unit-weight grid.

    Each attempt draws m*m normals from stream ``attempt`` of the seed and
    places them around an identity shift (0.3/sqrt(m) scale), which keeps
    the singular-value ratio comfortably above the acceptance guard; draws
    are repeated until s_min >= 0.05 s_max, by LAPACK's singular values.
    Deterministic per seed.
    """
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    grid = Grid(points=np.arange(m, dtype=float), weights=np.ones(m))
    scale = 0.3 / math.sqrt(m)
    for attempt in range(1000):
        a = np.eye(m) + scale * rng.seeded_normals(seed, attempt, m * m).reshape(m, m)
        s = np.linalg.svd(a, compute_uv=False)
        if s[0] > 0.0 and s[-1] >= 0.05 * s[0]:
            return FrameSystem(grid=grid, vectors=a)
    raise AssertionError(f"no acceptable draw for m={m}, seed={seed}")


@st.composite
def weighted_frames(draw):
    """N x M frames with weights in [0.25, 4] and rank r <= min(N, M),
    rank-deficient whenever r < min(N, M)."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(n, m)))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid(points=np.arange(m, dtype=float), weights=r.uniform(0.25, 4.0, m))
    vectors = r.standard_normal((n, rank)) @ r.standard_normal((rank, m))
    return FrameSystem(grid=grid, vectors=vectors)


#: a NaN whose payload no kernel computes, for the words around an output
#: that a kernel, or a call it refuses, must leave as they are
CANARY = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), dtype=np.float64)[0]

#: the backends a test parametrized by ``jacobi_backend()``'s names runs: the
#: numpy twin for "python" and every compiled variant for "compiled", which
#: is absent where the C twin did not load
TWINS = {"python": [PYTHON], **({"compiled": list(VARIANTS.values())} if VARIANTS else {})}


def to_tiles(rows, fill=0):
    """The tile-major (tiles, pairs, LANES) copy of the (rows, pairs) array
    ``rows``: lane i of tile t holds row LANES t + i, and the spare lanes of
    a last tile that rows do not fill hold ``fill``."""
    n, pairs = rows.shape
    tiles = -(-n // LANES)
    padded = np.full((tiles * LANES, pairs), fill, dtype=rows.dtype)
    padded[:n] = rows
    return np.ascontiguousarray(padded.reshape(tiles, LANES, pairs).transpose(0, 2, 1))


def from_tiles(tiled, rows):
    """The first ``rows`` streams of the tile-major array ``tiled``, as the
    rows of a (rows, pairs) array."""
    return tiled.transpose(0, 2, 1).reshape(-1, tiled.shape[1])[:rows]


def fused_normals(variant, ln_u1, k, count):
    """The (rows, count) normals that the fused kernel of the compiled
    backend ``variant`` draws from the Box-Muller operands ``ln_u1`` and
    ``k``, (rows, pairs) arrays, read back bit for bit.

    Each pair of operands goes through the kernel as a stream of its own,
    the lane of a scratch's tile-major operands whose spare lanes hold
    ln u1 = -1 and the angle word 0.  With count 1 and c = (1), a sum is its
    first term alone, the cosine normal z0.  With count 2, c_re = (+0, 1)
    and c_im = (-0, 1), the sums are z0 * (+0) + z1 and z0 * (-0) + z1; the
    two products are zeros of opposite signs, and the one that is -0 leaves
    z1 as it is, even a signed zero: it is in out_re where z0 has its sign
    bit set, in out_im where not.
    """
    rows, pairs = ln_u1.shape
    streams = rows * pairs

    def contract(c_re, c_im):
        scratch = variant.sampler(streams, len(c_re))
        scratch.u1[...] = to_tiles(np.reshape(ln_u1, (-1, 1)), -1.0)
        scratch.k[...] = to_tiles(np.reshape(k, (-1, 1)))
        out = np.empty(streams), np.empty(streams)
        scratch.fuse(streams, np.array(c_re), np.array(c_im), *out)
        return out

    cos, _ = contract([1.0], [1.0])
    plus, minus = contract([0.0, 1.0], [-0.0, 1.0])
    normals = np.empty((rows, 2 * pairs))
    normals[:, 0::2] = cos.reshape(rows, pairs)
    normals[:, 1::2] = np.where(np.signbit(cos), plus, minus).reshape(rows, pairs)
    return normals[:, :count]
