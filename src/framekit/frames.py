"""Frame systems sampled on a discrete grid and their operators.

The ambient Hilbert space is real-valued functions on the grid with the
weighted inner product <f, g> = sum_i w_i f(t_i) g(t_i).  A frame system is
an N x M table: row n holds the samples of the n-th vector, column t is the
coefficient-space vector l(t).  Coefficient sequences and grid functions are
plain 1-D float arrays; operations validate lengths.

Every spectral quantity of a frame comes from one factorization of
B = Phi W^{1/2} (``frame_spectrum``): B is scaled by a power of two so that
its largest entry lies in [0.5, 1), and the smaller of the Gramian B B^T
(N x N) and the unit-weight frame operator B^T B (M x M) is decomposed once,
in dimension min(N, M).  The two share their nonzero spectrum, and the
singular vectors of the other side are recovered through B.  One rank rule,
lambda > rank_tol * lambda_max with lambda_max > 0, decides what is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidIndex, InvalidMatrix
from .spectral import DEFAULT_RANK_TOL, SymMatrix, _binary_exponent, sym_eig

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
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
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
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
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

    ``eigenvalues`` holds all min(N, M) eigenvalues of the decomposed matrix
    (the nonzero spectrum of both the Gramian and the frame operator),
    non-increasing.  The first ``rank`` of them are retained; column k of
    ``u`` (N x rank) and of ``v`` (M x rank) pair with eigenvalue k through
    B v_k = sqrt(lambda_k) u_k, and both have orthonormal columns.
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


@dataclass(frozen=True)
class FrameBounds:
    """Spectral frame-bound report for a frame system.

    ``lower``/``upper`` are the sharp constants of the sampling inequality
    B1 ||f||^2 <= sum_n |<phi_n, f>|^2 <= B2 ||f||^2 over the ambient space.
    A system spanning only a strict subspace has lower bound 0 and is not a
    frame for the ambient space (it still frames its span).
    """

    lower: float
    upper: float
    rank: int
    spans_ambient: bool
    is_frame: bool
    is_parseval: bool
    rank_tol: float


def weighted_inner(grid: Grid, f, g) -> float:
    """Inner product <f, g> = sum_i w_i f_i g_i of two grid functions."""
    f = _grid_function(grid, f)
    g = _grid_function(grid, g)
    return float(np.dot(grid.weights * f, g))


def weighted_norm(grid: Grid, f) -> float:
    """Norm induced by weighted_inner."""
    return float(np.sqrt(max(weighted_inner(grid, f, f), 0.0)))


def build_gramian(fs: FrameSystem) -> SymMatrix:
    """Gramian G_mn = <phi_m, phi_n> in the weighted inner product.

    Assembled as B B^T with B = Phi * sqrt(w), so the result is symmetric
    positive semidefinite by construction.
    """
    b = fs.vectors * np.sqrt(fs.grid.weights)
    return SymMatrix(b @ b.T)


def analysis(fs: FrameSystem, f) -> np.ndarray:
    """Coefficients (<phi_n, f>)_n of a grid function."""
    f = _grid_function(fs.grid, f)
    return fs.vectors @ (fs.grid.weights * f)


def synthesis(fs: FrameSystem, c) -> np.ndarray:
    """Grid function sum_n c_n phi_n."""
    c = _coeff_seq(fs, c)
    return fs.vectors.T @ c


def frame_operator_apply(fs: FrameSystem, f) -> np.ndarray:
    """Frame operator S f = sum_n <phi_n, f> phi_n."""
    return synthesis(fs, analysis(fs, f))


def frame_spectrum(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> FrameSpectrum:
    """One Jacobi decomposition of B = Phi W^{1/2}, in dimension min(N, M).

    B is scaled by 2**-e so that max|B| lies in [0.5, 1); the scaling is
    exact, so ranks and singular vectors do not depend on the overall scale
    of the frame, and the eigenvalues are scaled back by 4**e.  The smaller
    of B B^T and B^T B is decomposed; the singular vectors of the other side
    are recovered through B, e.g. V_r = B^T U_r Lambda_r^{-1/2}.
    """
    if rank_tol < 0:
        raise InvalidArgument("rank_tol must be >= 0")
    b = fs.vectors * np.sqrt(fs.grid.weights)
    shift = _binary_exponent(b)
    b = np.ldexp(b, -shift)
    gram_side = fs.n_vectors <= fs.n_points
    eig = sym_eig(SymMatrix(b @ b.T if gram_side else b.T @ b))
    lam = eig.eigenvalues
    rank = int(np.count_nonzero(lam > rank_tol * lam[0])) if lam[0] > 0.0 else 0
    kept = eig.eigenvectors[:, :rank]
    root = np.sqrt(lam[:rank])
    if gram_side:
        u, v = kept, (b.T @ kept) / root
    else:
        u, v = (b @ kept) / root, kept
    return FrameSpectrum(
        frame=fs,
        eigenvalues=np.ldexp(lam, 2 * shift),
        rank=rank,
        u=u,
        v=v,
    )


def compute_frame_bounds(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> FrameBounds:
    """Sharp frame bounds from the frame spectrum.

    B2 is the top eigenvalue.  The system spans the ambient space iff the
    retained rank equals the number of grid points, in which case B1 is the
    smallest retained eigenvalue; otherwise B1 = 0.
    """
    spec = frame_spectrum(fs, rank_tol)
    upper = max(float(spec.eigenvalues[0]), 0.0)
    spans = spec.rank == fs.n_points
    lower = float(spec.retained[-1]) if spans and spec.rank > 0 else 0.0
    is_frame = spans and lower > 0.0
    is_parseval = is_frame and max(abs(lower - 1.0), abs(upper - 1.0)) <= _PARSEVAL_TOL
    return FrameBounds(
        lower=lower,
        upper=upper,
        rank=spec.rank,
        spans_ambient=spans,
        is_frame=is_frame,
        is_parseval=is_parseval,
        rank_tol=rank_tol,
    )


def eval_l(fs: FrameSystem, t_index: int) -> np.ndarray:
    """Coefficient-space vector l(t) = (phi_n(t))_n at grid index t."""
    if not 0 <= t_index < fs.n_points:
        raise InvalidIndex(
            f"grid index {t_index} out of range [0, {fs.n_points})"
        )
    return fs.vectors[:, t_index].copy()


def _grid_function(grid: Grid, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size != grid.size:
        raise DimensionMismatch(
            f"grid function of length {f.size} on a grid of {grid.size} points"
        )
    return f


def _coeff_seq(fs: FrameSystem, c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size != fs.n_vectors:
        raise DimensionMismatch(
            f"coefficient sequence of length {c.size} for {fs.n_vectors} vectors"
        )
    return c
