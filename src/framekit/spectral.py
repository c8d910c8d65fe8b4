"""Dense spectral machinery: one deterministic one-sided Jacobi kernel.

``row_svd`` orthogonalizes the rows of a factor A by cyclic Jacobi
rotations and so gives the eigensystem of A A^T without forming it, which
keeps the small eigenvalues that squaring the condition number would lose.
It makes no rank decision.  Frame bounds, kernels, canonical tight frames,
Lax-Milgram and polar rest on one Jacobi call per frame, made by
``frames.frame_spectrum`` on a B it forms in the buffer Jacobi rotates;
``frame_spectrum`` holds the library's one rank rule.  The Hilbert table
rotates the rows of its own Cholesky factor by ``row_svd``.  Both reach
the kernels through ``padded_svd``, whose docstring states how their
input is padded and scaled.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import NotConverged

#: Relative eigenvalue threshold below which spectrum is treated as rank noise.
DEFAULT_RANK_TOL = 1e-10

_ORTHOGONAL_TOL = 1e-14
_MAX_SWEEPS = 100
# lanes the Jacobi kernels sum dot products in
_LANES = 8


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

    The rows of a padded copy are rotated in pairs, in cyclic order, by
    ``padded_svd`` until a sweep finds every pair orthogonal to within
    |a_p.a_q| <= 1e-14 |a_p| |a_q|; ``NotConverged`` after 100 sweeps.  No
    A A^T is formed, so small singular values keep the relative accuracy
    of the rows rather than of their squares.  The results are scaled back
    by ``padded_svd``'s exponent (inf past the largest double), so ``left``
    does not depend on the scale of ``a``.  Rows beyond the rank of ``a``
    are rotated down to about 1e-136 of the largest entry and then count as
    zero; that costs sweeps, so callers pass the thinner side.
    """
    a = np.asarray(a, dtype=float)
    svd, e = padded_svd(padded_rows(a), a.shape[1])
    if e:
        _scale_back_array(svd.squares, 2 * e, out=svd.squares)
        _scale_back_array(svd.rows, e, out=svd.rows)
    return svd


def padded_width(n):
    """``n`` rounded up to a whole number of the 8 lanes."""
    return -(-n // _LANES) * _LANES


def padded_rows(a):
    """A C-contiguous float64 copy of the (k, n) array ``a`` with each row
    padded by +0.0 to ``padded_width(n)``, as ``padded_svd`` takes them;
    ValueError for an array that is not 2-D."""
    if np.ndim(a) != 2:
        raise ValueError(f"expected a k x n array, got shape {np.shape(a)}")
    k, n = np.shape(a)
    padded = np.zeros((k, padded_width(n)))
    padded[:, :n] = a
    return padded


def padded_svd(work, width) -> tuple[RowSVD, int]:
    """(singular system of the first ``width`` columns of ``work`` times
    2**-e, e), by Jacobi on the rows of ``work`` in place: the one Jacobi
    call of ``row_svd`` and ``frames.frame_spectrum``, and the one place
    that knows the kernels' input contract.

    ``work`` is C-contiguous float64, k x ``padded_width(width)``, with
    columns from ``width`` on +0.0 (``padded_rows``): the kernels sum in 8
    lanes and take whole lane groups only; a padded term adds +0.0 to its
    lane (a sum from +0.0 is never -0.0) and a padded entry stays +0.0
    under each rotation (c > 0), so the padding moves no bit.  ``work`` is
    first scaled by 2**-e into max|entry| in [0.5, 1) (e = 0 if all zero),
    which is exact for entries that stay normal, keeps the rows far above
    the kernels' zero-row threshold and gives 2**k ``work`` the same
    rotations with e + k.  ``squares`` scale back by 2**2e and ``rows``,
    the rotated rows' first ``width`` columns in that order, by 2**e.
    """
    e = _binary_exponent(work)
    if e:
        np.ldexp(work, -e, out=work)
    squares, left, sweeps = _kernels.ACTIVE.jacobi_rows(work, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    if sweeps > _MAX_SWEEPS:
        raise NotConverged(
            f"Jacobi on a {work.shape[0]} x {width} array still rotated after "
            f"{_MAX_SWEEPS} sweeps"
        )
    order = np.argsort(-squares, kind="stable")
    svd = RowSVD(squares=squares[order], rows=work[order, :width], left=left[order], sweeps=sweeps)
    return svd, e


def jacobi_backend() -> str:
    """Name of the active Jacobi kernel: 'compiled' for the C twin built at
    first import, 'python' for the numpy twin it falls back to."""
    return "python" if _kernels.ACTIVE.variant == "numpy" else "compiled"
