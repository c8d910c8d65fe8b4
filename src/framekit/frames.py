"""Frame systems sampled on a discrete grid and their operators.

The ambient Hilbert space is real-valued functions on the grid with the
weighted inner product <f, g> = sum_i w_i f(t_i) g(t_i).  A frame system is
an N x M table: row n holds the samples of the n-th vector, column t is the
coefficient-space vector l(t).  Grid functions and coefficient sequences
are 1-D float arrays; every operator also takes a stack of them as the rows
of a 2-D array and returns one result row per input row, so the analysis
operator T, its adjoint T* (synthesis) and the weighted inner product are one
matrix product each whatever the number of rows.  Lengths are validated.

Every spectral quantity of a frame comes from one factorization of
B = Phi W^{1/2} (``frame_spectrum``): B is scaled by a power of two so that
its largest entry lies in [0.5, 1), and one-sided Jacobi orthogonalizes the
min(N, M) rows of its thinner side, B or B^T.  The squared singular values
are the nonzero spectrum of both the Gramian B B^T and the unit-weight frame
operator B^T B, neither of which is formed.  One rank rule,
lambda > max(rank_tol, (min(N, M) 2**-52)**2) * lambda_max with
lambda_max > 0, decides what is kept: below the floor an eigenvalue is
rounding noise whatever rank_tol is.  The frame bounds are read off what is
kept (``FrameSpectrum.lower`` and ``.upper``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidIndex, InvalidMatrix
from .spectral import DEFAULT_RANK_TOL, _binary_exponent, row_svd

_PARSEVAL_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Sample points with positive quadrature weights.

    The points are distinct real labels; the weights define the inner
    product of the ambient function space.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1:
            raise InvalidMatrix("grid points and weights must be 1-D")
        if pts.size < 1:
            raise InvalidMatrix("grid needs at least one point")
        if pts.size != wts.size:
            raise DimensionMismatch(
                f"{pts.size} points but {wts.size} weights"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise InvalidMatrix("grid has non-finite entries")
        if np.unique(pts).size != pts.size:
            raise InvalidMatrix("grid points must be pairwise distinct")
        if np.any(wts <= 0.0):
            raise InvalidMatrix("grid weights must be strictly positive")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class FrameSystem:
    """N vectors sampled on a grid; row n of ``vectors`` holds vector n."""

    grid: Grid
    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.array(self.vectors, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1:
            raise InvalidMatrix("vectors must form an N x M table with N >= 1")
        if v.shape[1] != self.grid.size:
            raise DimensionMismatch(
                f"vectors have {v.shape[1]} columns but grid has "
                f"{self.grid.size} points"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidMatrix("frame vectors have non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_points(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrameSpectrum:
    """The retained singular system of B = Phi W^{1/2}.

    ``eigenvalues`` holds all min(N, M) squared singular values of B (the
    nonzero spectrum of both the Gramian and the frame operator),
    non-increasing.  The first ``rank`` of them are retained; column k of
    ``u`` (N x rank) and of ``v`` (M x rank) pair with eigenvalue k through
    B v_k = sqrt(lambda_k) u_k, and both have orthonormal columns.

    ``lower`` and ``upper`` are the sharp constants of the sampling
    inequality B1 ||f||^2 <= sum_n |<phi_n, f>|^2 <= B2 ||f||^2 over the
    ambient space.
    """

    frame: FrameSystem
    eigenvalues: np.ndarray
    rank: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for a in (self.eigenvalues, self.u, self.v):
            a.setflags(write=False)

    @property
    def retained(self) -> np.ndarray:
        """The retained eigenvalues, non-increasing."""
        return self.eigenvalues[: self.rank]

    @property
    def upper(self) -> float:
        """B2, the top eigenvalue."""
        return max(float(self.eigenvalues[0]), 0.0)

    @property
    def lower(self) -> float:
        """B1, the smallest retained eigenvalue if the retained rank equals the
        number of grid points; otherwise 0, as a system spanning a strict
        subspace is not a frame for the ambient space (it frames its span)."""
        spans = 0 < self.rank == self.frame.n_points
        return float(self.retained[-1]) if spans else 0.0

    @property
    def is_frame(self) -> bool:
        """True iff B1 > 0: the system spans the ambient space."""
        return self.lower > 0.0

    @property
    def is_parseval(self) -> bool:
        """True iff a frame with B1 = B2 = 1 within 1e-9."""
        gap = max(abs(self.lower - 1.0), abs(self.upper - 1.0))
        return self.is_frame and gap <= _PARSEVAL_TOL


def weighted_inner(grid: Grid, f, g):
    """<f, g> = sum_i w_i f_i g_i; for stacks, the matrix of pairwise products."""
    return (grid.weights * _rows(f, grid.size)) @ _rows(g, grid.size).T


def weighted_norm(grid: Grid, f):
    """Norm induced by weighted_inner, of f or of each row of a stack."""
    f = _rows(f, grid.size)
    return np.sqrt(np.sum(grid.weights * f * f, axis=-1))


def build_gramian(fs: FrameSystem) -> np.ndarray:
    """Gramian G_mn = <phi_m, phi_n> in the weighted inner product.

    Assembled, read-only, as B B^T with B = Phi W^{1/2}, which numpy forms
    as one triangle and its mirror, so it is exactly symmetric; no spectrum
    is read from it.  ``InvalidMatrix`` if it overflows.
    """
    half = fs.vectors * np.sqrt(fs.grid.weights)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as InvalidMatrix
        g = half @ half.T
    if not np.all(np.isfinite(g)):
        raise InvalidMatrix("Gramian has non-finite entries")
    g.setflags(write=False)
    return g


def analysis(fs: FrameSystem, f) -> np.ndarray:
    """Coefficients (<phi_n, f>)_n of a grid function, or of each row of a stack."""
    return (fs.vectors @ (fs.grid.weights * _rows(f, fs.n_points)).T).T


def synthesis(fs: FrameSystem, c) -> np.ndarray:
    """Grid function sum_n c_n phi_n, or one per row of a stack."""
    return _rows(c, fs.n_vectors) @ fs.vectors


def frame_operator_apply(fs: FrameSystem, f) -> np.ndarray:
    """Frame operator S f = sum_n <phi_n, f> phi_n."""
    return synthesis(fs, analysis(fs, f))


def frame_spectrum(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> FrameSpectrum:
    """One-sided Jacobi on B = Phi W^{1/2}, in dimension min(N, M).

    B is scaled by 2**-e so that max|B| lies in [0.5, 1); the scaling is
    exact, so ranks and singular vectors do not depend on the overall scale
    of the frame, and the eigenvalues are scaled back by 4**e.  Phi and
    W^{1/2} are each scaled by a power of two before their product, so a B
    past the double range is formed all the same; where the unscaled product
    is finite and normal, this gives its bits.  The rows of
    the thinner side, B or B^T, are rotated until orthogonal: the rotations
    give that side's singular vectors, and the rotated rows, sigma_k times
    the other side's singular vectors, give the rest by one division.
    """
    if not 0.0 <= rank_tol < 1.0:
        raise InvalidArgument(f"rank_tol must lie in [0, 1), got {rank_tol}")
    root = np.sqrt(fs.grid.weights)
    e_phi, e_root = _binary_exponent(fs.vectors), _binary_exponent(root)
    b = np.ldexp(fs.vectors, -e_phi) * np.ldexp(root, -e_root)
    e_b = _binary_exponent(b)
    b = np.ldexp(b, -e_b)
    shift = e_phi + e_root + e_b
    wide = fs.n_vectors <= fs.n_points
    svd = row_svd(b if wide else b.T)
    lam = svd.squares
    # below (min(N, M) eps)**2 lambda_max an eigenvalue is rounding noise
    # whatever rank_tol is, since Jacobi's error in sigma is about n eps sigma_max
    floor = (min(fs.n_vectors, fs.n_points) * 2.0**-52) ** 2
    rank = int(np.count_nonzero(lam > max(rank_tol, floor) * lam[0])) if lam[0] > 0.0 else 0
    rotated = svd.left[:rank].T
    divided = svd.rows[:rank].T / np.sqrt(lam[:rank])
    u, v = (rotated, divided) if wide else (divided, rotated)
    with np.errstate(over="ignore"):  # past the largest double a bound reads inf
        eigenvalues = np.ldexp(lam, 2 * shift)
    return FrameSpectrum(
        frame=fs,
        eigenvalues=eigenvalues,
        rank=rank,
        u=u,
        v=v,
    )


def eval_l(fs: FrameSystem, t_index: int) -> np.ndarray:
    """Coefficient-space vector l(t) = (phi_n(t))_n at grid index t."""
    if not 0 <= t_index < fs.n_points:
        raise InvalidIndex(
            f"grid index {t_index} out of range [0, {fs.n_points})"
        )
    return fs.vectors[:, t_index].copy()


def _rows(x, length: int) -> np.ndarray:
    # one vector, or a stack of them as rows, each of the given length
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != length:
        raise DimensionMismatch(f"shape {x.shape} where rows of length {length} are expected")
    return x
