"""framekit: finite frame systems on discrete grids.

Computes frame-theoretic operators (Gramian, analysis/synthesis, frame
bounds), the inverse-Gramian reproducing kernel and canonical Parseval frame
of a vector system, and simulates Karhunen-Loeve Gaussian variables whose
variances obey the frame-bound sandwich.
"""

__version__ = "0.1.0"

from .classic import (
    hilbert_spectrum_report,
    mercedes_frame,
    monomial_frame,
)
from .errors import (
    DimensionMismatch,
    FramekitError,
    InvalidArgument,
    InvalidIndex,
    InvalidMatrix,
    NotAFrame,
    NotConverged,
    Violation,
    ZeroSpan,
)
from .frames import (
    FrameSpectrum,
    FrameSystem,
    Grid,
    analysis,
    build_gramian,
    eval_l,
    frame_operator_apply,
    frame_spectrum,
    synthesis,
    weighted_inner,
    weighted_norm,
)
from .gp import (
    ComplexVector,
    cauchy_mass,
    empirical_variance,
    fourier_at_atoms,
    kl_coefficients,
    sample_kl,
    sandwich_check,
    theoretical_variances,
)
from .rkhs import (
    IdentityRow,
    KernelMatrix,
    canonical_tight,
    identity_suite,
    isometry_check,
    lax_milgram,
    naive_kernel,
    polar_unitary,
    rk_kernel,
    verify_lax_identity,
    verify_reproducing,
)
from .spectral import (
    DEFAULT_RANK_TOL,
    RowSVD,
    jacobi_backend,
    row_svd,
)

__all__ = [
    "__version__",
    "DEFAULT_RANK_TOL",
    "RowSVD",
    "row_svd",
    "jacobi_backend",
    "Grid",
    "FrameSystem",
    "FrameSpectrum",
    "frame_spectrum",
    "build_gramian",
    "analysis",
    "synthesis",
    "frame_operator_apply",
    "eval_l",
    "weighted_inner",
    "weighted_norm",
    "KernelMatrix",
    "naive_kernel",
    "rk_kernel",
    "canonical_tight",
    "verify_reproducing",
    "lax_milgram",
    "verify_lax_identity",
    "isometry_check",
    "identity_suite",
    "IdentityRow",
    "polar_unitary",
    "monomial_frame",
    "hilbert_spectrum_report",
    "mercedes_frame",
    "ComplexVector",
    "cauchy_mass",
    "fourier_at_atoms",
    "kl_coefficients",
    "theoretical_variances",
    "sandwich_check",
    "sample_kl",
    "empirical_variance",
    "FramekitError",
    "InvalidMatrix",
    "DimensionMismatch",
    "InvalidIndex",
    "InvalidArgument",
    "ZeroSpan",
    "NotAFrame",
    "NotConverged",
    "Violation",
]
