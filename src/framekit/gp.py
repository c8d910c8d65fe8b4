"""Karhunen-Loeve Gaussian sampling over frames in L2 of an atomic measure.

The measure sigma = sum_j mass_j * delta(u_j) is a finite list of weighted
point masses, so L2(sigma) is the weighted grid space of ``frames``: sigma
is a ``Grid`` with points u_j and weights mass_j, a frame {f_n} there is a
``FrameSystem`` on that grid (row n holds f_n at the atoms), and its bounds
0 < a <= b are the ``lower`` and ``upper`` of its ``frame_spectrum``.
Given a complex profile phat (typically a Fourier transform evaluated at
the atoms), the Karhunen-Loeve variable Y = sum_n <f_n, phat> B_n with
i.i.d. standard normals B_n has E|Y|^2 = sum_n |<f_n, phat>|^2, squeezed
between a * ||phat||^2 and b * ||phat||^2; equality on both sides holds
exactly for Parseval frames.  ``sample_kl`` returns its draws as the two
read-only arrays (re Y_k, im Y_k).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DimensionMismatch, InvalidArgument, InvalidMatrix, NotAFrame
from .frames import FrameSystem, Grid, centred, frame_spectrum
from .spectral import DEFAULT_RANK_TOL, _binary_exponent, _scale_back, _scale_back_array

#: Samples drawn and contracted per block (per worker at a time) in sample_kl.
_SAMPLE_BLOCK = 2048
#: Samples whose |Y|^2 empirical_variance forms at a time.
_VARIANCE_BLOCK = 8192


@dataclass(frozen=True)
class ComplexVector:
    """Complex values stored as (re, im) arrays of equal length."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.array(self.re, dtype=float)
        im = np.array(self.im, dtype=float)
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
class SandwichReport:
    """Both frame-bound sides of E|Y|^2 and the verdict."""

    lower: float
    upper: float
    slack: float
    holds: bool


@dataclass(frozen=True)
class KLSandwich:
    """A KL model in its own units: the frame bounds a <= b, the KL
    coefficients, E|X|^2, E|Y|^2, their ratio E|Y|^2 / E|X|^2 (nan where
    E|X|^2 is 0), the sandwich report and the sandwich as shown: its sides
    around E|Y|^2, or a <= ratio <= b where a side left the normal range
    (``over_ex2``)."""

    a: float
    b: float
    coefficients: ComplexVector
    ex2: float
    ey2: float
    ratio: float
    report: SandwichReport
    shown: tuple[float, float, float]
    over_ex2: bool


def cauchy_mass(atoms: Grid) -> float:
    """sum_j mass_j / (1 + u_j^2), the finiteness functional of the measure.

    Automatically finite for atomic measures; computed for reporting.
    """
    with np.errstate(over="ignore"):  # past |u| ~ 1.3e154, u^2 reads inf and its term 0
        return float(np.sum(atoms.weights / (1.0 + atoms.points**2)))


def fourier_at_atoms(x_grid: Grid, phi, atoms: Grid) -> ComplexVector:
    """Quadrature Fourier transform phat(u_j) = sum_i w_i e^{i x_i u_j} phi(x_i).

    Each sum runs over the grid in index order (one ``kl_contract`` on the
    stacked cos and sin rows), so no BLAS thread count enters the bits.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size != x_grid.size:
        raise DimensionMismatch(
            f"phi has length {phi.size} on a grid of {x_grid.size} points"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # ComplexVector refuses the result
        weighted = x_grid.weights * phi
        phase = np.outer(atoms.points, x_grid.points)
        waves = np.concatenate([np.cos(phase), np.sin(phase)])
        sums = np.empty((2, len(phase)))
        _kernels.ACTIVE.kl_contract(waves, weighted[None], sums.reshape(1, -1))
    return ComplexVector(re=sums[0], im=sums[1])


def kl_coefficients(fs: FrameSystem, phat: ComplexVector) -> ComplexVector:
    """KL coefficients c_n = <f_n, phat> in L2(sigma), sigma = ``fs.grid``
    (f_n real).

    Each sums over the atoms in index order, as ``sample_kl`` sums its
    samples (one ``kl_contract`` on the weighted re and im rows), so no
    BLAS thread count enters the bits.
    """
    _check_profile(fs.grid, phat)
    f = np.ascontiguousarray(fs.vectors)
    with np.errstate(over="ignore", invalid="ignore"):  # ComplexVector refuses the result
        weighted = fs.grid.weights * np.stack([phat.re, phat.im])
        out = np.empty((2, len(f)))
        _kernels.ACTIVE.kl_contract(f, weighted, out)
    return ComplexVector(re=out[0], im=out[1])


def theoretical_variances(
    atoms: Grid, phat: ComplexVector, coefficients: ComplexVector
) -> tuple[float, float]:
    """(E|X|^2, E|Y|^2) = (||phat||^2 in L2(sigma), sum_n |c_n|^2), where
    ``coefficients`` are the KL coefficients of phat.  Past the largest
    double they read inf, which ``sandwich_check`` refuses."""
    _check_profile(atoms, phat)
    with np.errstate(over="ignore"):
        ex2 = float(np.sum(atoms.weights * phat.abs2()))
        ey2 = float(np.sum(coefficients.abs2()))
    return ex2, ey2


def sandwich_check(a: float, b: float, ex2: float, ey2: float) -> SandwichReport:
    """Check a * E|X|^2 <= E|Y|^2 <= b * E|X|^2 within the slack, for the
    frame bounds a <= b.

    The slack is 1e-10 * b * E|X|^2, of the same degree in the data scale as
    the three sides, so the verdict does not depend on the overall scale of
    the frame or of phat.  Requires a > 0, and a, b, E|X|^2 and E|Y|^2
    finite: one that overflowed is an InvalidMatrix that names it.
    """
    _check_finite(a, b, ex2, ey2)
    if a <= 0.0:
        raise NotAFrame("sandwich bounds need a strictly positive lower bound")
    lower = a * ex2
    upper = b * ex2
    slack = 1e-10 * upper
    holds = (lower - slack) <= ey2 <= (upper + slack)
    return SandwichReport(lower=lower, upper=upper, slack=slack, holds=holds)


def _check_finite(a: float, b: float, ex2: float, ey2: float) -> None:
    for name, value in (("a", a), ("b", b), ("E|X|^2", ex2), ("E|Y|^2", ey2)):
        if not math.isfinite(value):
            raise InvalidMatrix(f"{name} = {value} is not finite")


def kl_sandwich(
    fs: FrameSystem, phat: ComplexVector, rank_tol: float = DEFAULT_RANK_TOL
) -> KLSandwich:
    """The KL model of phat on the frame ``fs``, taken on the
    ``frames.centred`` frame and on 2**-e_p phat, max|phat| in [0.5, 1), and
    scaled back by each number's degrees in (Phi, W^{1/2}, phat).

    Each side of the sandwich has degree 2 in Phi, in the masses and in
    phat, so it can leave the double range where the model does not: masses
    of 1e-300 put E|Y|^2 near 1e-600, which reads 0.  Where the model's own
    computation stays normal each number has its bits, and elsewhere it is
    the more accurate.  A coefficient, a, b, E|X|^2 or E|Y|^2 that is not
    finite is refused as ``ComplexVector`` and ``sandwich_check`` refuse it.

    E|Y|^2 and the sides have degree 4 in W^{1/2}, so on the centred frame
    of masses that span the double range they can overflow where the
    model's own do not (masses [5e-324, 1, 1e-300] lift W by 2**536).  They
    are formed on the coefficients scaled by 2**-e_c, max|c| in [0.5, 1),
    with b scaled into [0.5, 1) and E|X|^2 by the rest of 4**-e_c; each
    scaling is a power of two, so where the centred numbers stay normal
    every bit is theirs.
    """
    unit, e_phi, e_w = centred(fs)
    e_p = _binary_exponent(np.stack([phat.re, phat.im]))
    unit_phat = ComplexVector(re=np.ldexp(phat.re, -e_p), im=np.ldexp(phat.im, -e_p))
    spec = frame_spectrum(unit, rank_tol)
    c = kl_coefficients(unit, unit_phat)
    e_c = _binary_exponent(np.stack([c.re, c.im]))
    unit_c = ComplexVector(re=np.ldexp(c.re, -e_c), im=np.ldexp(c.im, -e_c))
    ex2, ey2 = theoretical_variances(unit.grid, unit_phat, unit_c)  # ey2 = E|Y|^2 4**-e_c

    def exponent(d_phi, d_w, d_p, d_c=0):  # of these degrees in (Phi, W^1/2, phat, c)
        return d_phi * e_phi + d_w * e_w + d_p * e_p + d_c * e_c

    coefficients = ComplexVector(*_scale_back_array(np.stack([c.re, c.im]), exponent(1, 2, 1)))
    a, b = (_scale_back(x, exponent(2, 2, 0)) for x in (spec.lower, spec.upper))
    back = exponent(2, 4, 2, 2)  # of ey2 and of the sides formed as it is
    ex2_model, ey2_model = _scale_back(ex2, exponent(0, 2, 2)), _scale_back(ey2, back)
    _check_finite(a, b, ex2_model, ey2_model)
    # a E|X|^2 and b E|X|^2 times 4**-e_c, as ey2: b into [0.5, 1), E|X|^2 by the rest
    e_b = math.frexp(spec.upper)[1]
    scaled = (_scale_back(x, -e_b) for x in (spec.lower, spec.upper))
    report = sandwich_check(*scaled, _scale_back(ex2, e_b - 2 * e_c), ey2)
    sides = (_scale_back(x, back) for x in (report.lower, report.upper, report.slack))
    report = SandwichReport(*sides, report.holds)
    ratio = _scale_back(ey2 / ex2, exponent(2, 2, 0, 2)) if ex2 else math.nan
    normal = sys.float_info.min <= report.lower and report.upper < math.inf
    over_ex2 = bool(ex2) and not normal  # a side left the normal range; a, ratio and b do not
    shown = (a, ratio, b) if over_ex2 else (report.lower, ey2_model, report.upper)
    return KLSandwich(a, b, coefficients, ex2_model, ey2_model, ratio, report, shown, over_ex2)


def sample_kl(
    coefficients: ComplexVector, s: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw s realizations Y_k = sum_n c_n B_{n,k} with i.i.d. N(0,1) draws,
    returned read-only as (re Y, im Y).

    Sample k consumes normal stream k of the seed (see rng module), so the
    set is reproducible bit-for-bit from (c, s, seed) and samples are
    independent of generation order.  Each sample sums c_n B_{n,k} over
    n in index order, one rounded multiply and one rounded add per term
    (``kl_contract``'s order), so no BLAS thread count enters the bits.
    Streams are drawn and contracted in blocks of _SAMPLE_BLOCK samples,
    each written to its own slice of the output, so the blocks run on a
    thread pool with one worker per usable CPU (the ctypes kernels, or
    numpy's Philox and ufuncs in the numpy twin, release the GIL).  Each
    worker takes the next undrawn block until none is left, and draws them
    all into one scratch of its own, the active backend's ``sampler``,
    whose ``contract`` checks each block.  The samples do not depend on the
    worker count, and memory stays bounded by workers x block, not by s.  A
    seed outside [0, 2**64) is an InvalidArgument, refused before anything
    is allocated; so is a count whose two output arrays do not fit in memory.
    """
    if s < 1:
        raise InvalidArgument("sample count must be >= 1")
    n = len(coefficients)
    if n < 1:
        raise InvalidArgument("need at least one KL coefficient")
    seed = rng._check_seed(seed)
    try:
        samples_re = np.empty(s)
        samples_im = np.empty(s)
    except (MemoryError, ValueError):  # ValueError: a count past 2**63 - 1
        raise InvalidArgument(f"{s} samples do not fit in memory") from None

    sampler = _kernels.ACTIVE.sampler
    firsts = iter(range(0, s, _SAMPLE_BLOCK))
    taking = threading.Lock()

    def work() -> None:
        scratch = sampler(min(_SAMPLE_BLOCK, s), n)
        while True:
            with taking:
                first = next(firsts, None)
            if first is None:
                return
            stop = min(first + _SAMPLE_BLOCK, s)
            scratch.contract(
                seed,
                first,
                stop - first,
                coefficients.re,
                coefficients.im,
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
    samples_re.setflags(write=False)
    samples_im.setflags(write=False)
    return samples_re, samples_im


def _worker_count() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def empirical_variance(samples_re: np.ndarray, samples_im: np.ndarray) -> float:
    """Monte-Carlo estimate (1/s) sum_k |Y_k|^2 (the mean of |Y|^2; E Y = 0),
    from the s samples of two equal-length 1-D arrays, lists or tuples of
    numbers (else, before any allocation, a DimensionMismatch).

    |Y_k|^2 = re^2 + im^2 is formed _VARIANCE_BLOCK samples at a time into
    one array, whose mean numpy then takes whole, so no square of a whole
    array is allocated and the bits are those of the whole-array formula.
    """
    if np.ndim(samples_re) != 1 or np.shape(samples_re) != np.shape(samples_im):
        raise DimensionMismatch(f"samples {np.shape(samples_re)}, {np.shape(samples_im)}")
    samples_re, samples_im = np.asarray(samples_re, dtype=float), np.asarray(samples_im, dtype=float)
    if samples_re.size < 2:
        raise InvalidArgument("need at least two samples")
    abs2 = np.empty(samples_re.size)
    squares = np.empty(min(_VARIANCE_BLOCK, samples_re.size))
    with np.errstate(over="ignore"):  # past the largest double it reads inf
        for start in range(0, samples_re.size, _VARIANCE_BLOCK):
            block = abs2[start : start + _VARIANCE_BLOCK]
            im2 = squares[: block.size]
            np.square(samples_re[start : start + _VARIANCE_BLOCK], out=block)
            np.square(samples_im[start : start + _VARIANCE_BLOCK], out=im2)
            block += im2
        return float(np.mean(abs2))


def _check_profile(atoms: Grid, phat: ComplexVector) -> None:
    if len(phat) != atoms.size:
        raise DimensionMismatch(
            f"phat has {len(phat)} entries but measure has {atoms.size} atoms"
        )
