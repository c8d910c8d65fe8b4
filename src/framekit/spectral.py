"""Dense spectral machinery: one deterministic one-sided Jacobi kernel.

``row_svd`` orthogonalizes the rows of a factor A by cyclic Jacobi
rotations and so gives the eigensystem of A A^T without forming it, which
keeps the small eigenvalues that squaring the condition number would lose.
It makes no rank decision.  Frame bounds, kernels, canonical tight frames,
Lax-Milgram and polar rest on one Jacobi call per frame, made by
``frames.frame_spectrum`` through ``padded_svd``, the driver ``row_svd``
shares, on a B it forms in the buffer Jacobi rotates;
``frame_spectrum`` holds the library's one rank rule.  The Hilbert table
rotates the rows of its own Cholesky factor by ``row_svd``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels._hestenes_py import padded_rows
from .errors import NotConverged

#: Relative eigenvalue threshold below which spectrum is treated as rank noise.
DEFAULT_RANK_TOL = 1e-10

_ORTHOGONAL_TOL = 1e-14
_MAX_SWEEPS = 100


class RowSVD(NamedTuple):
    """Singular system of a k x L array A, from its rows.

    ``squares`` holds the k values sigma_j**2, non-increasing; row j of
    ``rows`` is sigma_j v_j^T and row j of ``left`` is u_j^T, so that
    A = left^T rows and A A^T = left^T diag(squares) left, with ``left``
    orthogonal.  ``sweeps`` is the number of Jacobi sweeps that rotated.
    """

    squares: np.ndarray
    rows: np.ndarray
    left: np.ndarray
    sweeps: int


def _binary_exponent(a) -> int:
    """Exponent e with max|a| = m * 2**e, m in [0.5, 1); 0 for an all-zero array.

    Scaling by 2**-e is exact and brings the largest entry into [0.5, 1).
    """
    return math.frexp(max(a.max(), -a.min()))[1]  # max|a|, with no |a| array formed


def _scale_back(x: float, e: int) -> float:
    """x * 2**e, +-inf past the largest double (math.ldexp raises there)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scale_back_array(a, e, out=None) -> np.ndarray:
    """a * 2**e, +-inf past the largest double, with no overflow warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(a, e, out=out)


def row_svd(a) -> RowSVD:
    """Singular system of the rows of ``a`` by one-sided cyclic Jacobi.

    The rows of a working copy are rotated in pairs, in cyclic order, until a
    sweep finds every pair orthogonal to within |a_p.a_q| <= 1e-14 |a_p| |a_q|;
    ``NotConverged`` if that takes more than 100 sweeps.  No A A^T is formed,
    so small singular values keep the relative accuracy of the rows rather
    than of their squares.  The copy is first scaled by a power of two so
    that its largest entry lies in [0.5, 1), and the results are scaled back
    (inf past the largest double); the scaling is exact, so ``left`` does
    not depend on the scale of ``a``, and it is skipped where it is 2**0.
    Each row of the copy is padded with +0.0 to a whole number of the 8
    lanes that the Jacobi kernels sum dot products in (``padded_rows``), and
    ``padded_svd``, the driver ``frames.frame_spectrum`` shares, rotates it.
    Rows beyond the rank of ``a`` are rotated down to about 1e-136 of the
    largest entry and then count as zero; that costs sweeps, so callers pass
    the thinner side.
    """
    a = np.asarray(a, dtype=float)
    shift = _binary_exponent(a)
    work = padded_rows(a)
    if shift:
        np.ldexp(work, -shift, out=work)
    svd = padded_svd(work, a.shape[1])
    if shift:
        _scale_back_array(svd.squares, 2 * shift, out=svd.squares)
        _scale_back_array(svd.rows, shift, out=svd.rows)
    return svd


def padded_svd(work, width) -> RowSVD:
    """Singular system of the first ``width`` columns of ``work``, whose rows
    Jacobi rotates in place.

    ``work`` is a C-contiguous k x n float64 array, n a multiple of the 8
    lanes, whose columns from ``width`` on are +0.0, scaled so that its
    largest entry lies in [0.5, 1) or all zero: a padded term adds +0.0 to
    its lane, which changes no bit, and a padded entry stays +0.0 under each
    rotation.  ``rows`` is the first ``width`` columns of the rotated rows,
    in the order of ``squares``.  The one Jacobi call of ``row_svd`` and of
    ``frames.frame_spectrum``, which forms its B in such a buffer.
    """
    squares, left, sweeps = _kernels.ACTIVE.jacobi_rows(work, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    if sweeps > _MAX_SWEEPS:
        raise NotConverged(
            f"Jacobi on a {work.shape[0]} x {width} array still rotated after "
            f"{_MAX_SWEEPS} sweeps"
        )
    order = np.argsort(-squares, kind="stable")
    return RowSVD(
        squares=squares[order], rows=work[order, :width], left=left[order], sweeps=sweeps
    )


def jacobi_backend() -> str:
    """Name of the active Jacobi kernel: 'compiled' for the C twin built at
    first import, 'python' for the numpy twin it falls back to."""
    return "python" if _kernels.ACTIVE.variant == "numpy" else "compiled"
