"""Dense symmetric-matrix spectral machinery.

The symmetric-matrix type and its deterministic cyclic-Jacobi
eigendecomposition, ``sym_eig``, which makes no rank decision.  Frame
bounds, kernels, canonical tight frames, Lax-Milgram and polar rest on one
``sym_eig`` call per frame, made by ``frames.frame_spectrum``, which holds
the library's one rank rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidMatrix

#: Relative eigenvalue threshold below which spectrum is treated as rank noise.
DEFAULT_RANK_TOL = 1e-10

_SWEEP_TOL_FACTOR = 1e-12
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix; construction symmetrizes via (A + A^T)/2."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrix("matrix has non-finite entries")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a SymMatrix.

    ``eigenvalues`` are non-increasing; column k of ``eigenvectors`` pairs
    with eigenvalue k.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _binary_exponent(a) -> int:
    """Exponent e with max|a| = m * 2**e, m in [0.5, 1); 0 for an all-zero array.

    Scaling by 2**-e is exact and brings the largest entry into [0.5, 1).
    """
    top = float(np.max(np.abs(a)))
    return int(np.frexp(top)[1]) if top > 0.0 else 0


def sym_eig(a: SymMatrix) -> SpectralDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Deterministic for a fixed input: fixed sweep order, off-diagonal
    Frobenius threshold 1e-12 * ||A||_F, at most 100 sweeps.  The working
    copy is first scaled by a power of two so that its largest entry lies in
    [0.5, 1), and the eigenvalues are scaled back.  Jacobi arithmetic is
    homogeneous and the scaling is exact, so eigenvectors do not depend on
    the overall scale of the input.  The squares summed for the norms cannot
    overflow, and underflow only for entries below 1e-154 of the largest.
    """
    shift = _binary_exponent(a.entries)
    work = np.ascontiguousarray(np.ldexp(a.entries, -shift))
    n = work.shape[0]
    vecs = np.eye(n, order="C")
    fro = float(np.sqrt(np.sum(work * work)))
    _kernels.jacobi_sweeps(work, vecs, fro, _MAX_SWEEPS, _SWEEP_TOL_FACTOR)
    vals = np.ldexp(np.diag(work), shift)
    order = np.argsort(-vals, kind="stable")
    return SpectralDecomposition(
        eigenvalues=vals[order],
        eigenvectors=np.ascontiguousarray(vecs[:, order]),
    )


def jacobi_backend() -> str:
    """Name of the active Jacobi kernel ('compiled' or 'python')."""
    return _kernels.ACTIVE_BACKEND
