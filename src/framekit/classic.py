"""Built-in frame generators: monomials on (0,1), Hilbert matrices, fixtures.

The monomial system phi_n(t) = t^n on the open unit interval has Gramian
entries 1/(n+m+1), the Hilbert matrix: operator norm approaching pi from
below as the truncation grows, smallest eigenvalue collapsing to zero, so no
lower frame bound survives the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidArgument
from .frames import FrameSystem, Grid
from .spectral import SymMatrix, sym_eig

_RIESZ_RATIO = 0.05


def monomial_frame(n_funcs: int, m_points: int) -> FrameSystem:
    """Monomials t^n, n = 0..n_funcs-1, sampled on a midpoint grid of (0,1).

    Grid points are x_i = (i + 1/2)/m_points with equal weights 1/m_points,
    so the weighted inner product is the midpoint quadrature of the L2(0,1)
    integral (endpoints of the open interval are never sampled).
    """
    if n_funcs < 1:
        raise InvalidArgument("n_funcs must be >= 1")
    if m_points < 2:
        raise InvalidArgument("m_points must be >= 2")
    x = (np.arange(m_points) + 0.5) / m_points
    grid = Grid(points=x, weights=np.full(m_points, 1.0 / m_points))
    powers = np.arange(n_funcs)[:, None]
    return FrameSystem(grid=grid, vectors=x[None, :] ** powers)


def hilbert_gramian_exact(n: int) -> SymMatrix:
    """Exact n x n Hilbert matrix 1/(i+j+1), i, j from 0.

    This is the continuum Gramian of the monomial system; no finite grid
    underlies it.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    idx = np.arange(n)
    entries = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    return SymMatrix(entries)


@dataclass(frozen=True)
class SpectrumRow:
    """One line of the Hilbert spectrum table."""

    n: int
    lam_max: float
    lam_min: float
    pi_gap: float


def hilbert_spectrum_report(n_list) -> list[SpectrumRow]:
    """Extreme Hilbert-matrix eigenvalues for each requested size.

    lam_max increases strictly with n while staying below pi (the operator
    norm of the infinite matrix); lam_min decreases toward 0 until it hits
    the double-precision noise floor around n = 12.
    """
    rows = []
    for n in n_list:
        n = int(n)
        if n < 1:
            raise InvalidArgument("sizes must be >= 1")
        eig = sym_eig(hilbert_gramian_exact(n))
        lam_max = float(eig.eigenvalues[0])
        lam_min = float(eig.eigenvalues[-1])
        rows.append(
            SpectrumRow(n=n, lam_max=lam_max, lam_min=lam_min, pi_gap=math.pi - lam_max)
        )
    return rows


def mercedes_frame() -> FrameSystem:
    """Three unit vectors at 120 degrees in the plane: a tight frame, bound 3/2."""
    half_root3 = math.sqrt(3.0) / 2.0
    return FrameSystem(
        grid=Grid(points=np.array([1.0, 2.0]), weights=np.array([1.0, 1.0])),
        vectors=np.array(
            [[1.0, 0.0], [-0.5, half_root3], [-0.5, -half_root3]]
        ),
    )


def random_riesz_frame(m: int, seed: int) -> FrameSystem:
    """Seeded random m x m Riesz system on a unit-weight grid.

    Each attempt draws m*m normals from stream `attempt` of the seed and
    places them around an identity shift (0.3/sqrt(m) scale), which keeps
    the singular-value ratio comfortably above the acceptance guard; draws
    are repeated until s_min >= 0.05 * s_max.  Deterministic per seed.
    """
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    grid = Grid(points=np.arange(m, dtype=float), weights=np.ones(m))
    scale = 0.3 / math.sqrt(m)
    for attempt in range(1000):
        noise = rng.seeded_normals(seed, attempt, m * m).reshape(m, m)
        a = np.eye(m) + scale * noise
        eig = sym_eig(SymMatrix(a.T @ a))
        s_max = math.sqrt(max(float(eig.eigenvalues[0]), 0.0))
        s_min = math.sqrt(max(float(eig.eigenvalues[-1]), 0.0))
        if s_max > 0.0 and s_min >= _RIESZ_RATIO * s_max:
            return FrameSystem(grid=grid, vectors=a)
    raise InvalidArgument(f"no acceptable draw for m={m}, seed={seed}")
