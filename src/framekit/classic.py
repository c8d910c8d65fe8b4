"""Built-in frame generators: monomials on (0,1), Hilbert matrices, the Mercedes frame.

The monomial system phi_n(t) = t^n on the open unit interval has Gramian
entries 1/(n+m+1), the Hilbert matrix: operator norm approaching pi from
below as the truncation grows, smallest eigenvalue collapsing to zero, so no
lower frame bound survives the limit.  Its spectrum is read from its exact
rational Cholesky factor, so lam_min stays accurate where the rounded
Hilbert matrix is already singular to working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .frames import FrameSystem, Grid
from .spectral import row_svd

_HILBERT_MAX_N = 202  # the largest n whose lam_min is a normal double


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


@dataclass(frozen=True)
class SpectrumRow:
    """One line of the Hilbert spectrum table."""

    n: int
    lam_max: float
    lam_min: float
    pi_gap: float


def _hilbert_cholesky(n: int) -> np.ndarray:
    """Lower-triangular L with L L^T the n x n Hilbert matrix (i, j from 0).

    L_ij = sqrt(2j + 1) (i!)^2 / ((i - j)! (i + j + 1)!) for j <= i: one
    correctly rounded division of Python integers times a correctly rounded
    sqrt.
    """
    f = [math.factorial(i) for i in range(2 * n)]
    factor = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            factor[i, j] = f[i] * f[i] / (f[i - j] * f[i + j + 1]) * math.sqrt(2 * j + 1)
    return factor


def hilbert_spectrum_report(n_list) -> list[SpectrumRow]:
    """Extreme Hilbert-matrix eigenvalues for each requested size.

    lam_max increases strictly with n while staying below pi (the operator
    norm of the infinite matrix); lam_min falls toward 0 by about a factor 34
    per step in n.  Both are squared singular values of the Cholesky factor,
    so lam_min is within 1e-13 relative of the exact value up to n = 16,
    where the rounded Hilbert matrix is singular to working precision (1e-12
    at n = 20, 5e-9 at n = 32).  Past n of about 48 lam_min is wrong: n = 64
    gives 4.35e-98 where the exact value is 6.07e-96, and n = 96 gives
    1.56e-142 against 7.54e-145.  The factor's smallest singular value is
    then below its rounding, and lam_min must come from the inverse factor
    instead (ROADMAP item 6).

    Every size must lie in [1, 202], and all are checked before the one
    Cholesky factor, of the largest size, is built; each size reads its
    leading block.  lam_min(H_202) = 5.5376e-307 is a normal double;
    lam_min(H_203) = 1.6342e-308 is below the smallest one, 2.2251e-308.
    Both come from power iteration on the exact integer inverse Hilbert
    matrix in mpmath at 30 digits.
    """
    sizes = [int(n) for n in n_list]
    for n in sizes:
        if not 1 <= n <= _HILBERT_MAX_N:
            raise InvalidArgument(f"sizes must lie in [1, {_HILBERT_MAX_N}], got {n}")
    # L_ij does not depend on n, so each L is a leading block of the largest
    factor = _hilbert_cholesky(max(sizes, default=1))
    rows = []
    for n in sizes:
        squares = row_svd(factor[:n, :n]).squares
        lam_max = float(squares[0])
        lam_min = float(squares[-1])
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
