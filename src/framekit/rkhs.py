"""Reproducing kernels, canonical tight frames, and the Lax-Milgram operator.

The inverse-Gramian kernel K(s,t) = l(s)^T G^+ l(t) turns the span of a
frame system into a reproducing kernel Hilbert space on the grid: evaluation
at a grid point is represented by the matching kernel column under the
weighted inner product.  For systems that span only a strict subspace, the
pseudo-inverse restricts every construction to the span.

Every construction here is a product of one ``frames.frame_spectrum`` of
B = Phi W^{1/2} = U_r Lambda_r^{1/2} V_r^T, computed once per frame in
dimension min(N, M) after an exact power-of-two scaling of B:

    kernel        K = W^{-1/2} V_r V_r^T W^{-1/2}      (= Phi^T G^+ Phi)
    tight frame   Psi = U_r V_r^T W^{-1/2}             (= G^{-1/2} Phi)
    Lax-Milgram   L = W^{-1/2} V_r Lambda_r^{-1} V_r^T W^{-1/2}
    polar         U = (U_r V_r^T) W^{1/2}

so the kernel, the tight frame and the rank do not depend on the overall
scale of the frame.  ``identity_suite`` checks them all from one spectrum.

Operator conventions on a weighted grid: kernel-style value tables (K, L)
are elementwise symmetric and act on a function f as K (w * f).  Adjoints
and projectors are therefore taken in the weighted inner product; on
unit-weight grids they coincide with plain transposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroSpan
from .frames import (
    FrameSpectrum,
    FrameSystem,
    Grid,
    analysis,
    build_gramian,
    frame_spectrum,
    synthesis,
    weighted_inner,
    weighted_norm,
    _grid_function,
)
from .spectral import DEFAULT_RANK_TOL, SymMatrix, sym_eig


@dataclass(frozen=True)
class KernelMatrix:
    """Positive semidefinite table values[s][t] = K(t_s, t_t) over grid pairs."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size, self.grid.size):
            raise DimensionMismatch(
                f"kernel values {v.shape} for a grid of {self.grid.size} points"
            )
        v = 0.5 * (v + v.T)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def section(self, t_index: int) -> np.ndarray:
        """Kernel section K_t, the column at grid index t."""
        return self.values[:, t_index].copy()


@dataclass(frozen=True)
class CanonicalTightFrame:
    """Parseval frame for the span; row n holds the samples of psi_n."""

    grid: Grid
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def as_frame_system(self) -> FrameSystem:
        return FrameSystem(grid=self.grid, vectors=self.vectors)


@dataclass(frozen=True)
class LaxMilgramOperator:
    """Inverse of the frame operator on the span, as a kernel-style table.

    Application to a grid function f is matrix @ (w * f); composed with the
    frame operator it acts as the identity on the span.
    """

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, f) -> np.ndarray:
        f = _grid_function(self.grid, f)
        return self.matrix @ (self.grid.weights * f)


def naive_kernel(fs: FrameSystem) -> KernelMatrix:
    """Plain vector-sum kernel K(s,t) = sum_n phi_n(s) phi_n(t).

    Reproduces only when the system is Parseval; kept as the comparison
    point for the inverse-Gramian kernel.
    """
    return KernelMatrix(grid=fs.grid, values=fs.vectors.T @ fs.vectors)


def rk_kernel(fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL) -> KernelMatrix:
    """Inverse-Gramian reproducing kernel K(s,t) = l(s)^T G^+ l(t)."""
    return _kernel(_spanning(frame_spectrum(fs, rank_tol)))


def canonical_tight(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> CanonicalTightFrame:
    """Canonical tight frame psi_n, column t = G^{-1/2} l(t).

    The resulting system is Parseval on the span of the original frame:
    every f in the span satisfies f = sum_n <psi_n, f> psi_n.
    """
    return _tight(_spanning(frame_spectrum(fs, rank_tol)))


def kernel_from_tight(ctf: CanonicalTightFrame) -> KernelMatrix:
    """Kernel reassembled from the tight frame: sum_n psi_n(s) psi_n(t).

    Agrees with rk_kernel of the originating system.
    """
    return KernelMatrix(grid=ctf.grid, values=ctf.vectors.T @ ctf.vectors)


def verify_reproducing(fs: FrameSystem, k: KernelMatrix, f) -> float:
    """Max residual of the reproducing identity f(t) = <K_t, f>.

    Contracts to ~0 for f in the span when k = rk_kernel(fs).  For f with a
    component outside the span, <K_t, f> evaluates the span-projection of f,
    so the residual equals the sup norm of the out-of-span component.
    """
    f = _grid_function(fs.grid, f)
    if k.grid.size != fs.grid.size:
        raise DimensionMismatch("kernel grid does not match frame grid")
    reproduced = k.values @ (fs.grid.weights * f)
    return float(np.max(np.abs(f - reproduced)))


def lax_milgram(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> LaxMilgramOperator:
    """Pseudo-inverse of the frame operator in the weighted geometry."""
    return _lax(_spanning(frame_spectrum(fs, rank_tol)))


def verify_lax_identity(fs: FrameSystem, op: LaxMilgramOperator, f, g) -> float:
    """Residual of sum_n <f, phi_n> <phi_n, L g> = <f, g> (f, g in span)."""
    f = _grid_function(fs.grid, f)
    g = _grid_function(fs.grid, g)
    lhs = float(np.dot(analysis(fs, f), analysis(fs, op.apply(g))))
    return abs(lhs - weighted_inner(fs.grid, f, g))


def isometry_check(fs: FrameSystem, c) -> tuple[float, float]:
    """Both sides of the synthesis isometry ||sum c_n phi_n||^2 = c^T G c."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size != fs.n_vectors:
        raise DimensionMismatch(
            f"coefficient sequence of length {c.size} for {fs.n_vectors} vectors"
        )
    combined = fs.vectors.T @ c
    lhs = weighted_inner(fs.grid, combined, combined)
    rhs = float(c @ build_gramian(fs).matrix.entries @ c)
    return lhs, rhs


def polar_unitary(fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Partial isometry U = T S^{-1/2} from the polar factorization of T.

    Returned as the N x M coordinate matrix of the map from grid functions
    to coefficient sequences.  U composed with S^{1/2} reproduces T on the
    span, and U* U (adjoint in the weighted inner product) is the projector
    onto the span; singular-vector sign ambiguity cancels in U_r V_r^T, but
    only such sign-invariant identities are promised.
    """
    spec = _spanning(frame_spectrum(fs, rank_tol))
    return (spec.u @ spec.v.T) * np.sqrt(fs.grid.weights)


def identity_suite(fs: FrameSystem, rank_tol: float) -> dict:
    """Max residuals of the frame/kernel identities on deterministic probes.

    Returns {name: (residual, tolerance)}.  Probes are the frame vectors
    themselves plus synthesized combinations, so everything lies in the span.
    Identities that route through the Gramian pseudo-inverse lose digits in
    proportion to the retained condition number (Hilbert-type systems reach
    1e10), so their pass gates widen from the 1e-8 floor accordingly.  The
    kernel, tight frame, Lax-Milgram operator, condition number, truncation
    tail and Gramian PSD check all come from one frame spectrum; the kernel
    matrix itself is decomposed once more for its own PSD check.
    """
    spec = _spanning(frame_spectrum(fs, rank_tol))
    kernel = _kernel(spec)
    tight = _tight(spec)
    lax = _lax(spec)
    n = fs.n_vectors

    kernel_vs_tight = float(
        np.max(np.abs(kernel.values - kernel_from_tight(tight).values))
    )

    probes = [fs.vectors[i] for i in range(n)]
    coeffs = [np.zeros(n) for _ in range(min(n, 3))]
    for i, c in enumerate(coeffs):
        c[i] = 1.0
        c[(i + 1) % n] = -0.5
        probes.append(synthesis(fs, c))

    reproducing = 0.0
    norms = [1.0]
    for f in probes:
        reproducing = max(reproducing, verify_reproducing(fs, kernel, f))
        norms.append(weighted_norm(fs.grid, f))
    scale = max(norms)

    lax_residual = 0.0
    for f in probes:
        for g in probes:
            lax_residual = max(lax_residual, verify_lax_identity(fs, lax, f, g))

    isometry = 0.0
    adjoint = 0.0
    for i in range(min(n, 6)):
        c = np.zeros(n)
        c[i] = 1.0
        c[n - 1 - i] += 0.25
        lhs, rhs = isometry_check(fs, c)
        isometry = max(isometry, abs(lhs - rhs) / max(1.0, abs(rhs)))
        for f in probes[: min(len(probes), 4)]:
            left = float(np.dot(analysis(fs, f), c))
            right = weighted_inner(fs.grid, f, synthesis(fs, c))
            adjoint = max(adjoint, abs(left - right) / max(1.0, abs(right)))

    eig = sym_eig(SymMatrix(kernel.values))
    lam_max = max(float(eig.eigenvalues[0]), 0.0)
    psd_violation = max(0.0, -float(eig.eigenvalues[-1]))

    gram_lam_max = float(spec.eigenvalues[0])
    gram_psd = max(0.0, -float(spec.eigenvalues[-1]))
    gram_scale = max(gram_lam_max, 1.0)
    kappa = gram_lam_max / float(spec.retained[-1])
    inverse_gate = max(1e-8, 1.1e-14 * kappa)
    # probes hold genuine mass along eigendirections the rank cut discards;
    # the kernel reproduces only the retained span, so allow for that tail
    cut = spec.eigenvalues[spec.rank :]
    cut_max = float(cut[0]) if cut.size else 0.0
    if cut_max <= 100 * 2.2e-16 * gram_lam_max:
        cut_max = 0.0
    truncation = 2.0 * math.sqrt(cut_max / float(np.min(fs.grid.weights)))

    return {
        "max_reproducing_residual": (reproducing, inverse_gate * scale + truncation),
        "kernel_vs_tight_max": (kernel_vs_tight, inverse_gate * max(1.0, lam_max)),
        "lax_identity_max": (lax_residual, inverse_gate * max(1.0, scale * scale)),
        "isometry_relative_max": (isometry, 1e-10),
        "adjoint_relative_max": (adjoint, 1e-10),
        "kernel_psd_violation": (psd_violation, 1e-9 * max(1.0, lam_max)),
        "gramian_psd_violation": (gram_psd, 1e-10 * gram_scale),
    }


def _spanning(spec: FrameSpectrum) -> FrameSpectrum:
    if spec.rank == 0:
        raise ZeroSpan("frame system spans only the zero subspace")
    return spec


def _v_unweighted(spec: FrameSpectrum) -> np.ndarray:
    # W^{-1/2} V_r, the M x r factor shared by the kernel-style tables
    return spec.v / np.sqrt(spec.frame.grid.weights)[:, None]


def _kernel(spec: FrameSpectrum) -> KernelMatrix:
    v = _v_unweighted(spec)
    return KernelMatrix(grid=spec.frame.grid, values=v @ v.T)


def _tight(spec: FrameSpectrum) -> CanonicalTightFrame:
    v = _v_unweighted(spec)
    return CanonicalTightFrame(grid=spec.frame.grid, vectors=spec.u @ v.T)


def _lax(spec: FrameSpectrum) -> LaxMilgramOperator:
    v = _v_unweighted(spec)
    return LaxMilgramOperator(grid=spec.frame.grid, matrix=(v / spec.retained) @ v.T)
