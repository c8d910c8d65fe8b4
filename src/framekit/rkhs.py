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
scale of the frame.  The kernel is K = F F^T with the M x r factor
F = W^{-1/2} V_r, and ``kernel_psd`` takes its spectrum from F, never from
the M x M table, so no Jacobi call here is larger than min(N, M); its
rounding bound on the table's negative eigenvalues, ``kernel_psd_bound``,
needs F alone.
``identity_suite`` checks them all from one spectrum,
over all probes at once, against gates of the same degree in the data scale
as their residuals, so neither do its verdicts (an absolute floor such as
1e-8 would pass a kernel wrong by O(1) on a frame of size 1e-90).

Operator conventions on a weighted grid: kernel-style value tables (K, L)
are elementwise symmetric and act on a function f as K (w * f).  Adjoints
and projectors are therefore taken in the weighted inner product; on
unit-weight grids they coincide with plain transposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ZeroSpan
from .frames import (
    FrameSpectrum,
    FrameSystem,
    Grid,
    build_gramian,
    frame_spectrum,
    _grid_function,
)
from .spectral import DEFAULT_RANK_TOL, SymMatrix, _binary_exponent, sym_eig

_UNIT_ROUNDOFF = 2.0**-53

#: Degree in the data scale of each identity_suite row: c * Phi multiplies
#: its residual and tolerance by c**degree.
_IDENTITY_DEGREES = {
    "max_reproducing_residual": 1,
    "kernel_vs_tight_max": 0,
    "lax_identity_max": 2,
    "isometry_relative_max": 0,
    "adjoint_relative_max": 0,
    "kernel_psd_violation": 0,
    "gramian_psd_violation": 2,
}


class IdentityRow(NamedTuple):
    """One row of ``identity_suite``, in the units of the frame checked."""

    residual: float
    tolerance: float
    holds: bool  # decided on the normalized frame, so saturation cannot flip it


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


def rk_kernel_factored(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[KernelMatrix, np.ndarray]:
    """``rk_kernel`` and its M x r factor F = W^{-1/2} V_r, K = F F^T, from one spectrum."""
    spec = _spanning(frame_spectrum(fs, rank_tol))
    return _kernel(spec), _v_unweighted(spec)


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

    ``f`` is one grid function or a stack of them as rows; the residual is
    the max over all of them.  Contracts to ~0 for f in the span when
    k = rk_kernel(fs).  For f with a component outside the span, <K_t, f>
    evaluates the span-projection of f, so the residual equals the sup norm
    of the out-of-span component.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim > 2 or f.shape[-1:] != (fs.grid.size,) or k.grid.size != fs.grid.size:
        raise DimensionMismatch(
            f"grid functions {f.shape}, kernel of {k.grid.size} on {fs.grid.size} points"
        )
    reproduced = (k.values @ (fs.grid.weights * f).T).T
    return float(np.max(np.abs(f - reproduced)))


def lax_milgram(
    fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> LaxMilgramOperator:
    """Pseudo-inverse of the frame operator in the weighted geometry."""
    return _lax(_spanning(frame_spectrum(fs, rank_tol)))


def verify_lax_identity(fs: FrameSystem, op: LaxMilgramOperator, f, g) -> float:
    """Residual of sum_n <f, phi_n> <phi_n, L g> = <f, g> (f, g in span).

    ``f`` and ``g`` are grid functions or stacks of them as rows; the
    residual is the max over every pair (f_i, g_j).
    """
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if any(x.ndim > 2 or x.shape[-1:] != (fs.grid.size,) for x in (f, g)):
        raise DimensionMismatch(
            f"grid functions {f.shape}, {g.shape} on a grid of {fs.grid.size} points"
        )
    w = fs.grid.weights
    lg = (op.matrix @ (w * g).T).T
    lhs = np.dot((fs.vectors @ (w * f).T).T, fs.vectors @ (w * lg).T)
    return float(np.max(np.abs(lhs - np.dot(w * f, g.T))))


def isometry_check(fs: FrameSystem, c):
    """Both sides of the synthesis isometry ||sum c_n phi_n||^2 = c^T G c.

    ``c`` is one coefficient sequence, giving two floats, or a stack of them
    as rows, giving two arrays with one entry per row.  The Gramian is built
    once per call.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim > 2 or c.shape[-1:] != (fs.n_vectors,):
        raise DimensionMismatch(f"coefficients {c.shape} for {fs.n_vectors} vectors")
    combined = c @ fs.vectors
    lhs = np.sum(fs.grid.weights * combined * combined, axis=-1)
    rhs = np.sum((c @ build_gramian(fs).entries) * c, axis=-1)
    return lhs, rhs


def kernel_psd(factor) -> tuple[float, float]:
    """(lambda_max, ``kernel_psd_bound``) of the kernel table K = F F^T.

    ``factor`` is F, M x k: W^{-1/2} V_r (k = r) for the inverse-Gramian
    kernel, Phi^T (k = N) for the naive one.  F F^T and F^T F share their
    nonzero spectrum, so one Jacobi call on F^T F gives lambda_max(K) when
    that side is strictly smaller (k < M); otherwise F F^T itself is
    decomposed, which for a spanning inverse-Gramian kernel is close to
    W^{-1} and nearly diagonal.  Either way the dimension is min(M, k).
    """
    f = np.asarray(factor, dtype=float)
    m, k = f.shape
    lam_max = float(sym_eig(SymMatrix(f.T @ f if k < m else f @ f.T)).eigenvalues[0])
    return lam_max, kernel_psd_bound(f)


def kernel_psd_bound(factor) -> float:
    """A-priori bound on max(0, -lambda_min) of the kernel table K = F F^T.

    ``factor`` is F, M x k, as for ``kernel_psd``; no decomposition is made.
    The table is the symmetrized fl(F F^T), PSD in exact arithmetic, so its
    negative eigenvalues are rounding.  Each entry is a k-term dot product
    off by at most gamma_k sum_l |F_il| |F_jl|, with gamma_j = j u / (1 - j u)
    and u = 2**-53, and the symmetrization rounds once more.  The error E
    thus has ||E||_2 <= gamma_{k+2} ||F||_F^2, and by Weyl's inequality
    -lambda_min <= ||E||_2.  That bound is returned in place of a measured
    violation.  It is below the 1e-9 * lambda_max(K) gate of
    ``identity_suite`` while k(k + 2) < 9e6, since ||F||_F^2 <= k lambda_max(K).
    """
    f = np.asarray(factor, dtype=float)
    k = f.shape[1]
    gamma = (k + 2) * _UNIT_ROUNDOFF / (1.0 - (k + 2) * _UNIT_ROUNDOFF)
    return gamma * float(np.sum(f * f))


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

    Returns {name: IdentityRow(residual, tolerance, holds)}.  The suite runs
    on 2**-e * Phi, scaled exactly so that max|Phi| lies in [0.5, 1) as
    ``frame_spectrum`` scales B, and each residual and tolerance is scaled
    back by 2**(degree * e), its degree in the data scale; ``holds`` is the
    verdict on 2**-e * Phi.  So no frame overflows inside the suite, and
    c * Phi gives the verdicts of Phi and, when c is a power of two, the
    same rows bit for bit; a row beyond the double range prints as inf or 0.

    The probes, the N frame vectors and min(N, 3) combinations
    phi_i - phi_{i+1}/2, are the rows of one matrix, so everything lies in
    the span and each identity is one stacked call on the one frame
    spectrum; the kernel's PSD row reads lambda_max(K) from the r x r side
    of its factor and reports the rounding bound of ``kernel_psd``.  With
    lambda_max the top Gramian eigenvalue, s the largest probe norm, and
    gate = max(1e-8, 1.1e-14 * kappa) widening with the retained condition
    number kappa, to which the pseudo-inverse routes lose digits
    (Hilbert-type systems reach 1e10):

        max_reproducing_residual  gate * s + truncation tail
        kernel_vs_tight_max       gate * lambda_max(K)
        kernel_psd_violation      1e-9 * lambda_max(K)
        lax_identity_max          gate * s^2
        gramian_psd_violation     1e-10 * lambda_max
        isometry_relative_max     1e-10 on |l - r| / (lambda_max ||c||^2)
        adjoint_relative_max      1e-10 on |l - r| / (sqrt(lambda_max) ||f|| ||c||)

    l and r are the two sides of the identity.  The last two divide by
    Cauchy-Schwarz bounds, positive for every nonzero probe of a spanning
    frame, where l and r themselves can be 0.
    """
    shift = _binary_exponent(fs.vectors)
    unit = FrameSystem(grid=fs.grid, vectors=np.ldexp(fs.vectors, -shift))
    rows = {}
    for name, (residual, tolerance) in _identity_rows(unit, rank_tol).items():
        back = _IDENTITY_DEGREES[name] * shift
        rows[name] = IdentityRow(
            residual=_ldexp_saturating(residual, back),
            tolerance=_ldexp_saturating(tolerance, back),
            holds=residual <= tolerance,  # a NaN residual fails its row
        )
    return rows


def _ldexp_saturating(x: float, e: int) -> float:
    # x * 2**e for x >= 0, inf past the largest double (math.ldexp raises)
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _identity_rows(fs: FrameSystem, rank_tol: float) -> dict:
    # {name: (residual, tolerance)} of identity_suite, in the units of fs
    spec = _spanning(frame_spectrum(fs, rank_tol))
    kernel = _kernel(spec)
    w = fs.grid.weights
    n = fs.n_vectors
    lam_max = float(spec.eigenvalues[0])

    i = np.arange(min(n, 3))
    combos = np.eye(n)[i]
    combos[i, (i + 1) % n] = -0.5
    probes = np.vstack([fs.vectors, combos @ fs.vectors])
    probe_norms = np.sqrt(np.sum(w * probes * probes, axis=1))
    scale = float(np.max(probe_norms))

    j = np.arange(min(n, 6))
    coeffs = np.eye(n)[j]
    coeffs[j, n - 1 - j] += 0.25
    coeff_sq = np.sum(coeffs * coeffs, axis=1)
    lhs, rhs = isometry_check(fs, coeffs)
    isometry = float(np.max(np.abs(lhs - rhs) / (lam_max * coeff_sq)))
    # <T f, c> = <f, T* c> on four probes; a zero probe has both sides 0
    heads = probes[:4]
    left = (fs.vectors @ (w * heads).T).T @ coeffs.T
    right = (w * heads) @ (coeffs @ fs.vectors).T
    bound = math.sqrt(lam_max) * np.outer(probe_norms[:4], np.sqrt(coeff_sq))
    adjoint = float(np.max(np.abs(left - right) / np.where(bound > 0, bound, 1.0)))

    reproducing = verify_reproducing(fs, kernel, probes)
    lax_residual = verify_lax_identity(fs, _lax(spec), probes, probes)
    from_tight = kernel_from_tight(_tight(spec)).values
    kernel_vs_tight = float(np.max(np.abs(kernel.values - from_tight)))
    kernel_max, kernel_psd_violation = kernel_psd(_v_unweighted(spec))
    gram_psd = max(0.0, -float(spec.eigenvalues[-1]))
    inverse_gate = max(1e-8, 1.1e-14 * lam_max / float(spec.retained[-1]))
    # probes hold genuine mass along eigendirections the rank cut discards;
    # the kernel reproduces only the retained span, so allow for that tail
    cut_max = float(np.max(spec.eigenvalues[spec.rank :], initial=0.0))
    if cut_max <= 100 * 2.2e-16 * lam_max:
        cut_max = 0.0
    truncation = 2.0 * math.sqrt(cut_max / float(np.min(w)))

    return {
        "max_reproducing_residual": (reproducing, inverse_gate * scale + truncation),
        "kernel_vs_tight_max": (kernel_vs_tight, inverse_gate * kernel_max),
        "lax_identity_max": (lax_residual, inverse_gate * scale * scale),
        "isometry_relative_max": (isometry, 1e-10),
        "adjoint_relative_max": (adjoint, 1e-10),
        "kernel_psd_violation": (kernel_psd_violation, 1e-9 * kernel_max),
        "gramian_psd_violation": (gram_psd, 1e-10 * lam_max),
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
