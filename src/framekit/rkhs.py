"""Reproducing kernels, canonical tight frames, and the Lax-Milgram operator.

The inverse-Gramian kernel K(s,t) = l(s)^T G^+ l(t) turns the span of a
frame system into a reproducing kernel Hilbert space on the grid: evaluation
at a grid point is represented by the matching kernel column under the
weighted inner product.  For systems that span only a strict subspace, the
pseudo-inverse restricts every construction to the span.

Every construction here is a product of one ``frames.frame_spectrum`` of
B = Phi W^{1/2} = U_r Lambda_r^{1/2} V_r^T, one-sided Jacobi on the
min(N, M) rows of B or B^T after an exact power-of-two scaling of B:

    kernel        K = W^{-1/2} V_r V_r^T W^{-1/2}      (= Phi^T G^+ Phi)
    tight frame   Psi = U_r V_r^T W^{-1/2}             (= G^{-1/2} Phi)
    Lax-Milgram   L = W^{-1/2} V_r Lambda_r^{-1} V_r^T W^{-1/2}
    polar         U = (U_r V_r^T) W^{1/2}

so the kernel, the tight frame and the rank do not depend on the overall
scale of the frame.  Every kernel-style table is a ``KernelMatrix``, F F^T
for an M x k factor F, held as F alone:

    kernel                    F = W^{-1/2} V_r
    naive kernel              F = Phi^T
    kernel of the tight frame F = Psi^T   (naive_kernel(canonical_tight(fs)))
    Lax-Milgram               F = W^{-1/2} V_r Lambda_r^{-1/2}

Applying a table, in O(M k), its scale max_t K(t,t) = max_t ||F_t||^2, which
bounds every entry of a PSD table, and its rounding bound on the table's
negative eigenvalues, ``kernel_psd_bound``, need F alone; only the kernel file
forms the M x M table.  The spectrum uses no BLAS, but the products with F,
the tight frame and the identity checks do, so their last bits may follow
BLAS's thread count.  ``identity_suite`` checks them all from one spectrum,
over all probes at once, on Phi and W each scaled by a power of two, against
gates of the same degrees in Phi and W^{1/2} as their residuals, so its
verdicts do not follow the scale of Phi or W either (an absolute floor such
as 1e-8 would pass a kernel wrong by O(1) on a frame of size 1e-90).

Operator conventions on a weighted grid: kernel-style value tables (K, L)
are elementwise symmetric and act on a function f as K (w * f).  Adjoints
and projectors are therefore taken in the weighted inner product; on
unit-weight grids they coincide with plain transposes.  Like the frame
operators of ``frames`` (analysis T, synthesis T*, ``weighted_inner``,
``weighted_norm``), on which the verifiers here are written, ``apply`` and
every verifier take one grid function or a stack of them as rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, ZeroSpan
from .frames import (
    FrameSpectrum,
    FrameSystem,
    Grid,
    _rows,
    analysis,
    build_gramian,
    frame_spectrum,
    synthesis,
    weighted_inner,
    weighted_norm,
)
from .spectral import DEFAULT_RANK_TOL, _binary_exponent

_UNIT_ROUNDOFF = 2.0**-53


class IdentityRow(NamedTuple):
    """One row of ``identity_suite``, in the units of the frame checked."""

    residual: float
    tolerance: float
    holds: bool  # decided on the normalized frame, so saturation cannot flip it


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel-style table K[s][t] = sum_k F[s, k] F[t, k] over grid pairs.

    ``factor`` is the M x k factor F, read-only, and all that is held; the
    table acts on f as K (w * f).  ``InvalidMatrix`` if it would overflow.
    """

    grid: Grid
    factor: np.ndarray

    def __post_init__(self):
        f = np.array(self.factor, dtype=float)
        if f.ndim != 2 or f.shape[0] != self.grid.size:
            raise DimensionMismatch(
                f"kernel factor {f.shape} for a grid of {self.grid.size} points"
            )
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)
        # a k-term dot product errs by gamma_k of its |terms|, so every entry
        # |fl(F_s . F_t)| is below max_t ||F_t||^2 (1 + gamma_k) / (1 - gamma_k)
        gamma = f.shape[1] * _UNIT_ROUNDOFF / (1.0 - f.shape[1] * _UNIT_ROUNDOFF)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as InvalidMatrix
            top = float((f * f).sum(axis=1).max()) * (1.0 + gamma) / (1.0 - gamma)
        if not math.isfinite(top):
            raise InvalidMatrix("kernel table has non-finite entries")

    @property
    def values(self) -> np.ndarray:
        """The table F F^T, formed on each read: read-only and exactly symmetric."""
        v = self.factor @ self.factor.T
        v.setflags(write=False)
        return v

    def apply(self, f) -> np.ndarray:
        """K (w * f) = ((w * f) F) F^T, for one grid function or each row of a stack."""
        return (self.grid.weights * _rows(f, self.grid.size)) @ self.factor @ self.factor.T


def naive_kernel(fs: FrameSystem) -> KernelMatrix:
    """Plain vector-sum kernel K(s,t) = sum_n phi_n(s) phi_n(t), factor Phi^T.

    Reproduces only when the system is Parseval; kept as the comparison
    point for the inverse-Gramian kernel, which is the naive kernel of the
    canonical tight frame.
    """
    return KernelMatrix(grid=fs.grid, factor=fs.vectors.T)


def rk_kernel(fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL) -> KernelMatrix:
    """Inverse-Gramian reproducing kernel K(s,t) = l(s)^T G^+ l(t)."""
    return _kernel(_spanning(frame_spectrum(fs, rank_tol)))


def canonical_tight(fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL) -> FrameSystem:
    """Canonical tight frame psi_n, column t = G^{-1/2} l(t).

    The resulting system is Parseval on the span of the original frame:
    every f in the span satisfies f = sum_n <psi_n, f> psi_n.
    """
    spec = _spanning(frame_spectrum(fs, rank_tol))
    return FrameSystem(grid=fs.grid, vectors=spec.u @ _v_unweighted(spec).T)


def verify_reproducing(fs: FrameSystem, k: KernelMatrix, f) -> float:
    """Max residual of the reproducing identity f(t) = <K_t, f>.

    ``f`` is one grid function or a stack of them as rows; the residual is
    the max over all of them.  Contracts to ~0 for f in the span when
    k = rk_kernel(fs).  For f with a component outside the span, <K_t, f>
    evaluates the span-projection of f, so the residual equals the sup norm
    of the out-of-span component.  It is taken on f scaled by a power of two
    into [0.5, 1), and scaled back; past the double range it reads inf.
    """
    shift = _binary_exponent(_rows(f, fs.n_points))  # apply checks the kernel's grid
    unit = np.ldexp(f, -shift)
    unit -= k.apply(unit)  # the residual, in place: one M-wide temporary fewer
    return _ldexp_saturating(float(np.abs(unit, out=unit).max()), shift)


def lax_milgram(fs: FrameSystem, rank_tol: float = DEFAULT_RANK_TOL) -> KernelMatrix:
    """Pseudo-inverse L of the frame operator in the weighted geometry.

    Composed with the frame operator, ``apply`` acts as the identity on the
    span.
    """
    return _lax(_spanning(frame_spectrum(fs, rank_tol)))


def verify_lax_identity(fs: FrameSystem, op: KernelMatrix, f, g) -> float:
    """Residual of sum_n <f, phi_n> <phi_n, L g> = <f, g> (f, g in span).

    ``f`` and ``g`` are grid functions or stacks of them as rows; the
    residual is the max over every pair (f_i, g_j).
    """
    lhs = analysis(fs, f) @ analysis(fs, op.apply(g)).T
    return float(np.abs(lhs - weighted_inner(fs.grid, f, g)).max())


def isometry_check(fs: FrameSystem, c):
    """Both sides of the synthesis isometry ||sum c_n phi_n||^2 = c^T G c.

    ``c`` is one coefficient sequence, giving two floats, or a stack of them
    as rows, giving two arrays with one entry per row.  The Gramian is built
    once per call.
    """
    combined = synthesis(fs, c)
    lhs = (fs.grid.weights * combined * combined).sum(axis=-1)
    rhs = ((c @ build_gramian(fs)) * c).sum(axis=-1)
    return lhs, rhs


def kernel_psd_bound(kernel: KernelMatrix) -> float:
    """A-priori bound on max(0, -lambda_min) of the table K = F F^T.

    F is ``kernel.factor``, M x k: W^{-1/2} V_r (k = r) for the
    inverse-Gramian kernel, Phi^T (k = N) for the naive one; no
    decomposition is made.  The table is fl(F F^T), PSD in exact
    arithmetic, so its negative eigenvalues are rounding.  Each entry is a
    k-term dot product off by at most gamma_k sum_l |F_il| |F_jl|, with
    gamma_j = j u / (1 - j u) and u = 2**-53, so the error E has ||E||_2 <=
    gamma_k ||F||_F^2, and by Weyl's inequality -lambda_min <= ||E||_2.
    gamma_{k+2} ||F||_F^2 is returned in place of a measured violation.  The
    +2 is not spare: it covers the rounding of the eigensolver that measures
    a violation, about u ||K||_2 <= u ||F||_F^2 a unit.  With gamma_k,
    LAPACK's eigvalsh of a rank-1 9 x 9 kernel table reads -lambda_min at
    1.24 times the bound, where the table's exact lambda_min (40 digits) is
    0.18 times it.  It stays below the suite's gate, 1e-9 * max_t K(t,t),
    while (k + 2) M < 9e6, since ||F||_F^2 = tr K <= M max_t K(t,t).
    """
    f = kernel.factor
    k = f.shape[1]
    gamma = (k + 2) * _UNIT_ROUNDOFF / (1.0 - (k + 2) * _UNIT_ROUNDOFF)
    return gamma * float((f * f).sum())


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
    on 2**-e_phi * Phi, with max|Phi| in [0.5, 1) as ``frame_spectrum`` scales
    B, and on 4**-e_w * W, e_w = floor((e_max + e_min - 1) / 2) from the binary
    exponents of max and min sqrt(w), which centres sqrt(W)'s range on 1 (all
    weights 4**k become 1) and keeps W in range at both ends.  Each row is
    scaled back by 2**(d_Phi * e_phi + d_w * e_w), its degrees below; ``holds``
    is the verdict on the scaled frame.  So 2**k * Phi or 4**k * W keeps every
    verdict and residual / tolerance bit for bit, another scale moves the
    suite's frame by under 2 in Phi or 4 in W, and a row past the double range
    prints as inf or 0.

    The probes, the N frame vectors and min(N, 3) combinations
    phi_i - phi_{i+1}/2, are the rows of one matrix, so everything lies in the
    span and each identity is one stacked call on the one frame spectrum, with
    no M x M table; the kernel's PSD row reports ``kernel_psd_bound``, and
    ``kernel_vs_tight_max`` bounds K - Psi^T Psi = F (I - U_r^T U_r) F^T for
    the canonical tight frame Psi = U_r F^T.  With lambda_max the top Gramian
    eigenvalue, K(t,t) the kernel's diagonal, s the largest probe norm, and
    gate = min(1e-3, max(1e-8, 1.1e-14 * kappa)) widening with the retained
    condition number kappa, to which the pseudo-inverse routes lose digits
    (Hilbert-type systems reach 1e10), up to a cap of three digits, past which
    the frame fails rather than passes uncertified (d_Phi, d_w; tolerance):

        max_reproducing_residual  1, 0   gate * s + truncation tail (s at the centred W)
        kernel_vs_tight_max       0, -2  gate * max_t K(t,t) on max_t K(t,t) ||U_r^T U_r - I||_F
        kernel_psd_violation      0, -2  1e-9 * max_t K(t,t)
        lax_identity_max          2, 2   gate * s^2
        gramian_psd_violation     2, 2   1e-10 * lambda_max
        isometry_relative_max     0, 0   1e-10 on |l - r| / (lambda_max ||c||^2)
        adjoint_relative_max      0, 0   1e-10 on |l - r| / (sqrt(lambda_max) ||f|| ||c||)

    l and r are the two sides of the identity.  The last two divide by
    Cauchy-Schwarz bounds, positive for every nonzero probe of a spanning
    frame, where l and r themselves can be 0.  ``gramian_psd_violation``
    reads -lambda_min, and the spectrum is made of squared singular values,
    so it is 0 by construction and checks nothing.
    """
    e_phi = _binary_exponent(fs.vectors)
    w = fs.grid.weights
    e_w = (math.frexp(math.sqrt(w.max()))[1] + math.frexp(math.sqrt(w.min()))[1] - 1) // 2
    grid = Grid(fs.grid.points, np.ldexp(w, -2 * e_w)) if e_w else fs.grid
    unit = FrameSystem(grid=grid, vectors=np.ldexp(fs.vectors, -e_phi))
    rows = {}
    for name, (residual, tolerance, d_phi, d_w) in _identity_rows(unit, rank_tol).items():
        back = d_phi * e_phi + d_w * e_w
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
    # {name: (residual, tolerance, d_Phi, d_w)} of identity_suite, in the units of fs
    spec = _spanning(frame_spectrum(fs, rank_tol))
    kernel = _kernel(spec)
    n = fs.n_vectors
    lam_max = float(spec.eigenvalues[0])

    i = np.arange(min(n, 3))
    combos = np.eye(n)[i]
    combos[i, (i + 1) % n] = -0.5
    probes = np.vstack([fs.vectors, combos @ fs.vectors])
    probe_norms = weighted_norm(fs.grid, probes)
    scale = float(probe_norms.max())

    j = np.arange(min(n, 6))
    coeffs = np.eye(n)[j]
    coeffs[j, n - 1 - j] += 0.25
    coeff_sq = (coeffs * coeffs).sum(axis=1)
    lhs, rhs = isometry_check(fs, coeffs)
    isometry = float((np.abs(lhs - rhs) / (lam_max * coeff_sq)).max())
    # <T f, c> = <f, T* c> on four probes; a zero probe has both sides 0
    heads = probes[:4]
    left = analysis(fs, heads) @ coeffs.T
    right = weighted_inner(fs.grid, heads, synthesis(fs, coeffs))
    bound = math.sqrt(lam_max) * np.outer(probe_norms[:4], np.sqrt(coeff_sq))
    adjoint = float((np.abs(left - right) / np.where(bound > 0, bound, 1.0)).max())

    reproducing = verify_reproducing(fs, kernel, probes)
    lax_residual = verify_lax_identity(fs, _lax(spec), probes, probes)
    # |K(s,t)| <= max_t ||F_t||^2, and |(K - Psi^T Psi)(s,t)| <= that ||U_r^T U_r - I||_2
    kernel_max = float((kernel.factor * kernel.factor).sum(axis=1).max())
    kernel_vs_tight = kernel_max * float(np.linalg.norm(spec.u.T @ spec.u - np.eye(spec.rank)))
    gram_psd = max(0.0, -float(spec.eigenvalues[-1]))
    # capped, so a frame that needs a wider gate fails rather than passing
    # with fewer than three digits
    inverse_gate = min(1e-3, max(1e-8, 1.1e-14 * lam_max / float(spec.retained[-1])))
    # probes hold genuine mass along eigendirections the rank cut discards;
    # the kernel reproduces only the retained span, so allow for that tail
    cut_max = float(spec.eigenvalues[spec.rank :].max(initial=0.0))
    if cut_max <= 100 * 2.2e-16 * lam_max:
        cut_max = 0.0
    truncation = 2.0 * math.sqrt(cut_max / float(fs.grid.weights.min()))

    return {
        "max_reproducing_residual": (reproducing, inverse_gate * scale + truncation, 1, 0),
        "kernel_vs_tight_max": (kernel_vs_tight, inverse_gate * kernel_max, 0, -2),
        "lax_identity_max": (lax_residual, inverse_gate * scale * scale, 2, 2),
        "isometry_relative_max": (isometry, 1e-10, 0, 0),
        "adjoint_relative_max": (adjoint, 1e-10, 0, 0),
        "kernel_psd_violation": (kernel_psd_bound(kernel), 1e-9 * kernel_max, 0, -2),
        "gramian_psd_violation": (gram_psd, 1e-10 * lam_max, 2, 2),
    }


def _spanning(spec: FrameSpectrum) -> FrameSpectrum:
    if spec.rank == 0:
        raise ZeroSpan("frame system spans only the zero subspace")
    return spec


def _v_unweighted(spec: FrameSpectrum) -> np.ndarray:
    # W^{-1/2} V_r, the M x r factor shared by the kernel-style tables
    return spec.v / np.sqrt(spec.frame.grid.weights)[:, None]


def _kernel(spec: FrameSpectrum) -> KernelMatrix:
    return KernelMatrix(grid=spec.frame.grid, factor=_v_unweighted(spec))


def _lax(spec: FrameSpectrum) -> KernelMatrix:
    # W^{-1/2} V_r Lambda_r^{-1/2}, so L = F F^T
    factor = _v_unweighted(spec) / np.sqrt(spec.retained)
    return KernelMatrix(grid=spec.frame.grid, factor=factor)
