"""Reproducing kernels, canonical tight frames, and the Lax-Milgram operator.

The inverse-Gramian kernel K(s,t) = l(s)^T G^+ l(t) turns the span of a
frame system into a reproducing kernel Hilbert space on the grid: evaluation
at a grid point is represented by the matching kernel column under the
weighted inner product.  For systems that span only a strict subspace, the
pseudo-inverse restricts every construction to the span.

Every construction here is a product of one ``frames.frame_spectrum`` of
B = Phi W^{1/2} = U_r Lambda_r^{1/2} V_r^T, on the ``frames.centred`` frame:

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
BLAS's thread count.

``identity_suite`` checks them all on the centred frame, read from the
factors U_r, Lambda_r and V_r of its one spectrum rather than through the
tables and verifiers: for the probe stack P and Q = P W^{1/2},

    Q Q^T          <p_i, p_j>, analysis(P) (its first N columns), the Gramian
    A = Q V_r      K (w P) = (A V_r^T) W^{-1/2},
                   analysis(L P) = A Lambda_r^{-1} A[:N]^T
    sum_k V_r^2/w  K's diagonal: its scale max_t K(t,t) and tr K = ||F||_F^2

so the suite costs about one spectrum, builds no ``KernelMatrix`` and
forms no M x M array.  Its gates have the same degrees in Phi and W^{1/2}
as their residuals, so its verdicts do not follow the scale of Phi or W
either (an absolute floor such as 1e-8 would pass a kernel wrong by O(1) on
a frame of size 1e-90).

Operator conventions on a weighted grid: kernel-style value tables (K, L)
are elementwise symmetric and act on a function f as K (w * f).  Adjoints
and projectors are therefore taken in the weighted inner product; on
unit-weight grids they coincide with plain transposes.  Like the frame
operators of ``frames`` (analysis T, synthesis T*, ``weighted_inner``), on
which the verifiers here are written, ``apply`` and every verifier take one
grid function or a stack of them as rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    centred,
    frame_spectrum,
    synthesis,
    weighted_inner,
)
from .spectral import DEFAULT_RANK_TOL, _binary_exponent, _scale_back

_UNIT_ROUNDOFF = 2.0**-53
# entries of the block of Q - A V_r^T that _identity_rows forms at a time
_BLOCK = 1 << 16


class IdentityRow(NamedTuple):
    """One row of ``identity_suite``, in the units of the frame checked."""

    residual: float
    tolerance: float
    holds: bool  # decided on the normalized frame, so saturation cannot flip it


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel-style table K[s][t] = sum_k F[s, k] F[t, k] over grid pairs.

    ``factor`` is the M x k factor F, read-only, and all that is held; the
    table acts on f as K (w * f).  ``scale`` is max_t K(t,t) = max_t
    ||F_t||^2, which bounds every entry.  ``InvalidMatrix`` if it would
    overflow.
    """

    grid: Grid
    factor: np.ndarray
    scale: float = field(init=False)

    def __post_init__(self):
        f = np.array(self.factor, dtype=float)
        if f.ndim != 2 or f.shape[0] != self.grid.size:
            raise DimensionMismatch(
                f"kernel factor {f.shape} for a grid of {self.grid.size} points"
            )
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as InvalidMatrix
            row_squares = (f * f).sum(axis=1)
        object.__setattr__(self, "scale", _table_scale(row_squares, f.shape[1]))

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
    return _scale_back(float(np.abs(unit, out=unit).max()), shift)


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
    with np.errstate(over="ignore"):  # past the largest double the bound reads inf
        return _gamma(f.shape[1] + 2) * float((f * f).sum())


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
    on the ``centred`` frame and scales each row back by its degrees below;
    ``holds`` is the verdict on the centred frame.

    The probes P, the N frame vectors and min(N, 3) combinations
    phi_i - phi_{i+1}/2, lie in the span.  Every row is read from the one
    frame spectrum's U_r, Lambda_r and V_r with F = W^{-1/2} V_r, not through
    ``KernelMatrix`` or the verifiers, as the module docstring sets out: the
    rows of [P; C Phi] W^{1/2}, for min(N, 6) coefficient rows C, give one
    Gram for the norms, the isometry and the adjoint rows; A = P W^{1/2} V_r
    gives the reproducing and Lax rows; the kernel's PSD row is
    ``kernel_psd_bound`` of F, read from K's diagonal; and
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
    unit, e_phi, e_w = centred(fs)
    rows = {}
    for name, (residual, tolerance, d_phi, d_w) in _identity_rows(unit, rank_tol).items():
        back = d_phi * e_phi + d_w * e_w
        rows[name] = IdentityRow(
            residual=_scale_back(residual, back),
            tolerance=_scale_back(tolerance, back),
            holds=residual <= tolerance,  # a NaN residual fails its row
        )
    return rows


def _identity_rows(fs: FrameSystem, rank_tol: float) -> dict:
    # {name: (residual, tolerance, d_Phi, d_w)} of identity_suite, in the units of fs
    spec = _spanning(frame_spectrum(fs, rank_tol))
    u, v, lam = spec.u, spec.v, spec.retained
    n, m, r = fs.n_vectors, fs.n_points, spec.rank
    lam_max = float(lam[0])
    weights = fs.grid.weights
    root_w = np.sqrt(weights)

    # K's diagonal sum_k V_r^2 / w, the squared rows of F = W^{-1/2} V_r: the
    # scale max_t K(t,t) and tr K = ||F||_F^2 of kernel_psd_bound
    with np.errstate(over="ignore", invalid="ignore"):  # reported as InvalidMatrix
        diagonal = np.einsum("ij,ij->i", v, v)
        diagonal /= weights
        psd_bound = _gamma(r + 2) * float(diagonal.sum())
    k_scale = _table_scale(diagonal, r)

    # Z = [P; C Phi] W^{1/2}: the probes P, the N frame vectors and min(N, 3)
    # combinations phi_i - phi_{i+1}/2, then the syntheses of min(N, 6)
    # coefficient rows c_j, each row times W^{1/2}; B = Phi W^{1/2} first
    mix, coeffs, coeff_sq = _probe_mix(n)
    p = n + len(mix) - len(coeffs)  # probes
    z = np.empty((n + len(mix), m))
    np.multiply(fs.vectors, root_w, out=z[:n])
    np.matmul(mix, z[:n], out=z[n:])
    # one Gram Z Z^T holds <p_i, p_j>, whose first N columns are analysis(P)
    # and whose N x N head is the Gramian, ||sum_n c_jn phi_n||^2 on its
    # diagonal and <p_i, sum_n c_jn phi_n> beside the probes' block
    with np.errstate(over="ignore", invalid="ignore"):  # reported as InvalidMatrix
        zz = z @ z.T
    if not np.isfinite(zz).all():
        raise InvalidMatrix("Gramian has non-finite entries")
    gram = zz[:p, :p]
    norms_sq = zz.diagonal()
    probe_norms = np.sqrt(norms_sq[:p])
    scale = float(probe_norms.max())
    q = z[:p]  # P W^{1/2}
    a = q @ v  # P W^{1/2} V_r; its first N rows are B V_r

    rhs = np.einsum("ij,ij->i", coeffs @ gram[:n, :n], coeffs)
    isometry = float((np.abs(norms_sq[p:] - rhs) / coeff_sq).max()) / lam_max
    # <T f, c> = <f, T* c> on four probes; a zero probe has both sides 0
    left = gram[:4, :n] @ coeffs.T
    bound = np.outer(probe_norms[:4], np.sqrt(coeff_sq))
    ratio = np.abs(left - zz[: len(left), p:]) / np.where(bound > 0, bound, 1.0)
    adjoint = float(ratio.max()) / math.sqrt(lam_max)

    # analysis(P) analysis(L P)^T against <P, P>, analysis(L P) = A Lambda_r^-1 (B V_r)^T
    lax = gram[:, :n] @ ((a[:n] / lam) @ a.T)
    lax -= gram
    lax_residual = float(np.abs(lax, out=lax).max())
    # P - K (w P) = (Q - A V_r^T) W^{-1/2}, in place in Q, a block of columns at a time
    step = max(1, _BLOCK // len(q))
    for first in range(0, m, step):
        block = q[:, first : first + step]
        block -= a @ v[first : first + step].T
        block /= root_w[first : first + step]
    reproducing = float(np.abs(q, out=q).max())

    # |K(s,t)| <= max_t K(t,t), and |(K - Psi^T Psi)(s,t)| <= that ||U_r^T U_r - I||_F
    defect = u.T @ u
    defect.flat[:: r + 1] -= 1.0
    kernel_vs_tight = k_scale * math.sqrt(float(np.einsum("ij,ij->", defect, defect)))
    gram_psd = max(0.0, -float(spec.eigenvalues[-1]))
    # capped, so a frame that needs a wider gate fails rather than passing
    # with fewer than three digits
    inverse_gate = min(1e-3, max(1e-8, 1.1e-14 * lam_max / float(lam[-1])))
    # probes hold genuine mass along eigendirections the rank cut discards;
    # the kernel reproduces only the retained span, so allow for that tail
    cut_max = float(spec.eigenvalues[r:].max(initial=0.0))
    if cut_max <= 100 * 2.2e-16 * lam_max:
        cut_max = 0.0
    truncation = 2.0 * math.sqrt(cut_max / float(weights.min()))

    return {
        "max_reproducing_residual": (reproducing, inverse_gate * scale + truncation, 1, 0),
        "kernel_vs_tight_max": (kernel_vs_tight, inverse_gate * k_scale, 0, -2),
        "lax_identity_max": (lax_residual, inverse_gate * scale * scale, 2, 2),
        "isometry_relative_max": (isometry, 1e-10, 0, 0),
        "adjoint_relative_max": (adjoint, 1e-10, 0, 0),
        "kernel_psd_violation": (psd_bound, 1e-9 * k_scale, 0, -2),
        "gramian_psd_violation": (gram_psd, 1e-10 * lam_max, 2, 2),
    }


@functools.lru_cache(maxsize=64)
def _probe_mix(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (the rows that mix Phi into the combination probes and the coefficient
    # rows, the coefficient rows c_j = e_j + e_{n-1-j}/4, ||c_j||^2), read-only
    i, j = np.arange(min(n, 3)), np.arange(min(n, 6))
    combos = np.eye(n)[i]
    combos[i, (i + 1) % n] = -0.5
    coeffs = np.eye(n)[j]
    coeffs[j, n - 1 - j] += 0.25
    mix = np.vstack([combos, coeffs])
    coeffs = mix[len(i) :]
    coeff_sq = (coeffs * coeffs).sum(axis=1)
    for x in (mix, coeff_sq):
        x.setflags(write=False)
    return mix, coeffs, coeff_sq


def _gamma(k: int) -> float:
    # gamma_k = k u / (1 - k u), the relative error bound of a k-term dot product
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _table_scale(row_squares: np.ndarray, k: int) -> float:
    # max_t ||F_t||^2 of an M x k factor F from its rows' squared norms.  A
    # k-term dot product errs by gamma_k of its |terms|, so every entry
    # |fl(F_s . F_t)| is below that (1 + gamma_k) / (1 - gamma_k); InvalidMatrix
    # if the bound is not finite
    scale = float(row_squares.max())
    if not math.isfinite(scale * (1.0 + _gamma(k)) / (1.0 - _gamma(k))):
        raise InvalidMatrix("kernel table has non-finite entries")
    return scale


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
