"""Karhunen-Loeve Gaussian sampling over frames in L2 of an atomic measure.

The measure is a finite list of weighted point masses, so L2(sigma) is a
finite-dimensional weighted space and every statement reduces to finite
sums.  Given a frame {f_n} there with bounds 0 < a <= b and a complex
profile phat (typically a Fourier transform evaluated at the atoms), the
Karhunen-Loeve variable Y = sum_n <f_n, phat> B_n with i.i.d. standard
normals B_n has  E|Y|^2 = sum_n |<f_n, phat>|^2,  squeezed between
a * ||phat||^2 and b * ||phat||^2; equality on both sides holds exactly for
Parseval frames.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DimensionMismatch, InvalidArgument, InvalidMatrix, NotAFrame
from .frames import FrameBounds, FrameSystem, Grid, compute_frame_bounds
from .spectral import DEFAULT_RANK_TOL

#: Samples drawn and contracted per block (per worker at a time) in sample_kl.
_SAMPLE_BLOCK = 2048


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure sum_j mass_j * delta(u_j)."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.locations, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        # Grid enforces distinctness, positivity, and finiteness.
        Grid(points=u, weights=m)
        u.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "locations", u)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_atoms(cls, atoms) -> "AtomicMeasure":
        """Build from (location, mass) pairs."""
        atoms = list(atoms)
        return cls(
            locations=np.array([a[0] for a in atoms], dtype=float),
            masses=np.array([a[1] for a in atoms], dtype=float),
        )

    @property
    def n_atoms(self) -> int:
        return self.locations.size

    def cauchy_mass(self) -> float:
        """sum_j mass_j / (1 + u_j^2), the finiteness functional of the measure.

        Automatically finite for atomic measures; computed for reporting.
        """
        return float(np.sum(self.masses / (1.0 + self.locations**2)))

    def as_grid(self) -> Grid:
        return Grid(points=self.locations, weights=self.masses)


@dataclass(frozen=True)
class SigmaFrame:
    """N real vectors in L2 of the measure; row n holds f_n at the atoms."""

    measure: AtomicMeasure
    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.shape[1] != self.measure.n_atoms:
            raise DimensionMismatch(
                f"vectors have {v.shape[1]} columns but measure has "
                f"{self.measure.n_atoms} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidMatrix("sigma-frame vectors have non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    def as_frame_system(self) -> FrameSystem:
        return FrameSystem(grid=self.measure.as_grid(), vectors=self.vectors)


@dataclass(frozen=True)
class ComplexVector:
    """Complex values stored as (re, im) arrays of equal length."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=float)
        im = np.asarray(self.im, dtype=float)
        if re.shape != im.shape or re.ndim != 1:
            raise DimensionMismatch(
                f"re/im shapes {re.shape} and {im.shape} must be equal 1-D"
            )
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise InvalidMatrix("complex vector has non-finite entries")
        re.setflags(write=False)
        im.setflags(write=False)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __len__(self) -> int:
        return self.re.size

    def abs2(self) -> np.ndarray:
        return self.re**2 + self.im**2


@dataclass(frozen=True)
class GaussianModel:
    """Sigma-frame with its frame bounds, ready for KL sampling."""

    frame: SigmaFrame
    bounds: FrameBounds

    @classmethod
    def from_frame(
        cls, sf: SigmaFrame, rank_tol: float = DEFAULT_RANK_TOL
    ) -> "GaussianModel":
        report = compute_frame_bounds(sf.as_frame_system(), rank_tol)
        return cls(frame=sf, bounds=report)

    @property
    def a(self) -> float:
        return self.bounds.lower

    @property
    def b(self) -> float:
        return self.bounds.upper

    @property
    def is_frame(self) -> bool:
        return self.bounds.is_frame

    @property
    def rank_tol(self) -> float:
        return self.bounds.rank_tol


@dataclass(frozen=True)
class KLSampleSet:
    """Seeded realizations of the KL variable plus the coefficient cache."""

    seed: int
    samples_re: np.ndarray
    samples_im: np.ndarray
    coefficients: ComplexVector

    def __post_init__(self):
        self.samples_re.setflags(write=False)
        self.samples_im.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.samples_re.size


@dataclass(frozen=True)
class SandwichReport:
    """Both frame-bound sides of E|Y|^2 and the verdict."""

    lower: float
    middle: float
    upper: float
    slack: float
    holds: bool


def fourier_at_atoms(x_grid: Grid, phi, measure: AtomicMeasure) -> ComplexVector:
    """Quadrature Fourier transform phat(u_j) = sum_i w_i e^{i x_i u_j} phi(x_i).

    Each sum runs over the grid in index order (``kl_contract`` on the
    stacked cos and sin rows), so no BLAS thread count enters the bits.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size != x_grid.size:
        raise DimensionMismatch(
            f"phi has length {phi.size} on a grid of {x_grid.size} points"
        )
    weighted = x_grid.weights * phi
    phase = np.outer(measure.locations, x_grid.points)
    waves = np.concatenate([np.cos(phase), np.sin(phase)])
    sums, same = np.empty(len(waves)), np.empty(len(waves))
    _kernels.ACTIVE.kl_contract(waves, weighted, weighted, sums, same)
    return ComplexVector(re=sums[: len(phase)], im=sums[len(phase) :])


def sigma_frame_bounds(
    sf: SigmaFrame, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[float, float]:
    """Frame bounds (a, b) of the system in L2 of its measure."""
    report = compute_frame_bounds(sf.as_frame_system(), rank_tol)
    return report.lower, report.upper


def kl_coefficients(model: GaussianModel, phat: ComplexVector) -> ComplexVector:
    """KL coefficients c_n = <f_n, phat> in L2(sigma) (f_n real).

    Each sums over the atoms in index order, as ``sample_kl`` sums its
    samples (the active kernel's ``kl_contract``), so no BLAS thread count
    enters the bits.
    """
    f = np.ascontiguousarray(model.frame.vectors)
    if len(phat) != model.frame.measure.n_atoms:
        raise DimensionMismatch(
            f"phat has {len(phat)} entries but measure has "
            f"{model.frame.measure.n_atoms} atoms"
        )
    weighted_re = model.frame.measure.masses * phat.re
    weighted_im = model.frame.measure.masses * phat.im
    re, im = np.empty(len(f)), np.empty(len(f))
    _kernels.ACTIVE.kl_contract(f, weighted_re, weighted_im, re, im)
    return ComplexVector(re=re, im=im)


def theoretical_variances(
    model: GaussianModel, phat: ComplexVector
) -> tuple[float, float]:
    """(E|X|^2, E|Y|^2) = (||phat||^2 in L2(sigma), sum_n |c_n|^2)."""
    if len(phat) != model.frame.measure.n_atoms:
        raise DimensionMismatch(
            f"phat has {len(phat)} entries but measure has "
            f"{model.frame.measure.n_atoms} atoms"
        )
    ex2 = float(np.sum(model.frame.measure.masses * phat.abs2()))
    coeffs = kl_coefficients(model, phat)
    ey2 = float(np.sum(coeffs.abs2()))
    return ex2, ey2


def sandwich_check(model: GaussianModel, phat: ComplexVector) -> SandwichReport:
    """Check a * E|X|^2 <= E|Y|^2 <= b * E|X|^2 within the slack.

    The slack is 1e-10 * b * E|X|^2, of the same degree in the data scale as
    the three sides, so the verdict does not depend on the overall scale of
    the frame or of phat.  Requires a > 0.
    """
    if model.a <= 0.0:
        raise NotAFrame("sandwich bounds need a strictly positive lower bound")
    ex2, ey2 = theoretical_variances(model, phat)
    lower = model.a * ex2
    upper = model.b * ex2
    slack = 1e-10 * upper
    holds = (lower - slack) <= ey2 <= (upper + slack)
    return SandwichReport(lower=lower, middle=ey2, upper=upper, slack=slack, holds=holds)


def sample_kl(
    model: GaussianModel, phat: ComplexVector, s: int, seed: int
) -> KLSampleSet:
    """Draw s realizations Y_k = sum_n c_n B_{n,k} with i.i.d. N(0,1) draws.

    Sample k consumes normal stream k of the seed (see rng module), so the
    set is reproducible bit-for-bit from (model, phat, s, seed) and samples
    are independent of generation order.  Each sample sums c_n B_{n,k} over
    n in index order, one rounded multiply and one rounded add per term
    (the active kernel's ``kl_contract``), so no BLAS thread count enters the
    bits.  Streams are drawn and contracted in blocks of _SAMPLE_BLOCK
    samples, each written to its own slice of the output, so the blocks run
    on a thread pool with one worker per usable CPU (the ctypes kernels, or
    numpy's Philox and ufuncs in the numpy twin, release the GIL).  Each
    worker takes the next undrawn block until none is left, and draws them
    all into one ``rng.NormalScratch`` of its own.  The samples do not
    depend on the worker count, and memory stays bounded by workers x block,
    not by s.
    """
    if s < 1:
        raise InvalidArgument("sample count must be >= 1")
    coeffs = kl_coefficients(model, phat)
    n = model.frame.n_vectors
    samples_re = np.empty(s)
    samples_im = np.empty(s)

    firsts = iter(range(0, s, _SAMPLE_BLOCK))
    taking = threading.Lock()

    def work() -> None:
        scratch = rng.NormalScratch(min(_SAMPLE_BLOCK, s), n)
        while True:
            with taking:
                first = next(firsts, None)
            if first is None:
                return
            stop = min(first + _SAMPLE_BLOCK, s)
            _kernels.ACTIVE.kl_contract(
                scratch.fill(seed, first, stop),
                coeffs.re,
                coeffs.im,
                samples_re[first:stop],
                samples_im[first:stop],
            )

    # imported here, not with the module: the import costs milliseconds
    # that every other command would pay at startup
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_worker_count(), -(-s // _SAMPLE_BLOCK))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
    for future in futures:
        future.result()  # re-raises a worker's exception
    return KLSampleSet(
        seed=seed,
        samples_re=samples_re,
        samples_im=samples_im,
        coefficients=coeffs,
    )


def _worker_count() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def empirical_variance(ks: KLSampleSet) -> float:
    """Monte-Carlo estimate (1/s) sum_k |Y_k|^2 (the mean of |Y|^2; E Y = 0)."""
    if ks.n_samples < 2:
        raise InvalidArgument("need at least two samples")
    return float(np.mean(ks.samples_re**2 + ks.samples_im**2))
