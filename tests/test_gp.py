import hashlib
import math
import mmap
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit import (
    ComplexVector,
    DimensionMismatch,
    FrameSystem,
    Grid,
    InvalidArgument,
    InvalidMatrix,
    NotAFrame,
    cauchy_mass,
    empirical_variance,
    fourier_at_atoms,
    frame_spectrum,
    kl_coefficients,
    sample_kl,
    sandwich_check,
    theoretical_variances,
)
from framekit import _kernels, gp, rng
from framekit._kernels import _sampling_py
from oracles import CANARY, eigh_descending, fused_normals, orthonormal_rows


def simple_atoms():
    """The measure 0.5 delta(-1) + delta(0) + 0.25 delta(2)."""
    return Grid(points=np.array([-1.0, 0.0, 2.0]), weights=np.array([0.5, 1.0, 0.25]))


def onb_model(seed=0, n=4):
    r = np.random.default_rng(seed)
    atoms = Grid(points=np.linspace(-2.0, 2.0, n), weights=r.uniform(0.2, 2.0, n))
    rows = orthonormal_rows(n, n, atoms.weights, seed=seed)
    return FrameSystem(grid=atoms, vectors=rows)


def random_model(seed, n, j):
    """Frame model with a > 0: n >= j rows over j atoms."""
    assert n >= j
    r = np.random.default_rng(seed)
    atoms = Grid(
        points=np.sort(r.uniform(-3.0, 3.0, j) + np.arange(j) * 7.0),
        weights=r.uniform(0.2, 2.0, j),
    )
    for _ in range(50):
        fs = FrameSystem(grid=atoms, vectors=r.standard_normal((n, j)))
        bounds = frame_spectrum(fs)
        if bounds.is_frame and bounds.lower >= 1e-4 * bounds.upper:
            return fs
    raise AssertionError("no frame model drawn")


def scaled(fs, c):
    """The frame c f_n on the same atoms."""
    return FrameSystem(grid=fs.grid, vectors=c * fs.vectors)


def variances(fs, phat):
    return theoretical_variances(fs.grid, phat, kl_coefficients(fs, phat))


def sandwich(fs, phat):
    spec = frame_spectrum(fs)
    return sandwich_check(spec.lower, spec.upper, *variances(fs, phat))


def sample(fs, phat, s, seed):
    return sample_kl(kl_coefficients(fs, phat), s, seed)


def random_phat(seed, j):
    r = np.random.default_rng(seed)
    return ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))


#: Prelude of the pinned sampling scripts: coefficients(r, n) draws N = n
#: vectors on 6 atoms and a profile phat from the generator r, and returns
#: their KL coefficients.
MODEL_CODE = """
import numpy as np
from framekit import gp, rng
from framekit.frames import FrameSystem, Grid

def coefficients(r, n, j=6):
    atoms = Grid(
        points=np.sort(r.uniform(-3, 3, j)) + 7.0 * np.arange(j),
        weights=r.uniform(0.2, 1.5, j),
    )
    fs = FrameSystem(grid=atoms, vectors=r.standard_normal((n, j)))
    phat = gp.ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))
    return gp.kl_coefficients(fs, phat)
"""


def run_pinned(code, blas_threads=1):
    """Run ``code`` in a fresh interpreter with BLAS pinned to ``blas_threads``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def taylor_doubles(first_power):
    """Nearest doubles to the Taylor coefficients of sin (first_power 1) or
    cos (0) of pi t/4, through t**17 and t**18."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        x = mpmath.pi / 4
        return [
            float((-1) ** (p // 2) * x**p / mpmath.factorial(p))
            for p in range(first_power, 19, 2)
        ]


def box_muller_reference(words, pairs, count):
    """The transform documented in the rng module, one pair at a time in
    Python ints and floats; the radius takes numpy's log, as rng does."""
    sin_coef, cos_coef = taylor_doubles(1), taylor_doubles(0)
    flat = words.reshape(-1, words.shape[-1])
    u1 = ((flat[:, :pairs] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((len(flat), count))
    for i, row in enumerate(flat):
        for j in range(pairs):
            k = int(row[pairs + j]) >> 11
            q = (k + 2**50) >> 51
            t = (k - q * 2**51) * 2.0**-50
            z = t * t
            s = sin_coef[-1]
            for a in sin_coef[-2::-1]:
                s = a + z * s
            s = t * s
            c = cos_coef[-1]
            for a in cos_coef[-2::-1]:
                c = a + z * c
            a, b = ((1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0))[q % 4]
            r = float(radius[i, j])
            out[i, 2 * j] = r * (a * c + b * s)
            if 2 * j + 1 < count:
                out[i, 2 * j + 1] = r * (a * s - b * c)
    return out.reshape(words.shape[:-1] + (count,))


def dyadic_model(n, j=6):
    """Model with n vectors on j atoms and its profile, all exact dyadic
    values from integer formulas."""
    i, a = np.arange(n * j), np.arange(j)
    atoms = Grid(points=a * 1.5, weights=1.0 + (a % 5) / 8.0)
    vectors = (((i * 7919) % 1021 - 510) / 256.0).reshape(n, j)
    phat = ComplexVector(re=((a * 37) % 29 - 14) / 16.0, im=((a * 53) % 31 - 15) / 32.0)
    return FrameSystem(grid=atoms, vectors=vectors), phat


def sha256_of(*arrays):
    """sha256 hex digest of the little-endian float64 bytes of the arrays."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def kl_reference(normals, c):
    """sum_n normals[:, n] * c[n] in index order: the first term, then one
    rounded add per term."""
    acc = normals[:, 0] * c[0]
    for j in range(1, normals.shape[1]):
        acc = acc + normals[:, j] * c[j]
    return acc


class TestAtomicMeasure:
    def test_validation(self):
        # an atomic measure is a Grid: atoms at distinct points, positive masses
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([1.0, 1.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([1.0, 2.0]), weights=np.array([1.0, 0.0]))

    def test_cauchy_mass_brute_force(self):
        expected = 0.5 / (1 + 1.0) + 1.0 / (1 + 0.0) + 0.25 / (1 + 4.0)
        assert abs(cauchy_mass(simple_atoms()) - expected) <= 1e-14

    def test_cauchy_mass_random(self):
        r = np.random.default_rng(10)
        for _ in range(20):
            j = int(r.integers(1, 12))
            atoms = Grid(
                points=np.cumsum(r.uniform(0.1, 3.0, j)),
                weights=r.uniform(0.01, 5.0, j),
            )
            brute = sum(
                float(atoms.weights[i]) / (1.0 + float(atoms.points[i]) ** 2)
                for i in range(j)
            )
            assert abs(cauchy_mass(atoms) - brute) <= 1e-14 * max(1.0, brute)


class TestFourierAtAtoms:
    def test_zero_function(self):
        grid = Grid(points=np.linspace(-1, 1, 16), weights=np.full(16, 2.0 / 16))
        out = fourier_at_atoms(grid, np.zeros(16), simple_atoms())
        assert np.array_equal(out.re, np.zeros(3))
        assert np.array_equal(out.im, np.zeros(3))

    def test_zero_frequency_is_integral(self):
        grid = Grid(points=np.linspace(-1, 1, 32), weights=np.full(32, 2.0 / 32))
        atoms = Grid(points=np.array([0.0]), weights=np.array([1.0]))
        phi = np.cos(grid.points)
        out = fourier_at_atoms(grid, phi, atoms)
        assert abs(out.re[0] - float(np.sum(grid.weights * phi))) <= 1e-15
        assert out.im[0] == 0.0

    def test_bump_against_refined_quadrature(self):
        # smooth bump on [-1, 1]; oracle = same midpoint rule at double resolution
        def bump(x):
            return 0.5 * (1.0 + np.cos(np.pi * x))

        def midpoint_transform(m, u):
            x = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
            w = 2.0 / m
            return (
                float(np.sum(w * np.cos(x * u) * bump(x))),
                float(np.sum(w * np.sin(x * u) * bump(x))),
            )

        m = 4096
        x = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
        grid = Grid(points=x, weights=np.full(m, 2.0 / m))
        atoms = Grid(points=np.array([np.pi]), weights=np.array([1.0]))
        out = fourier_at_atoms(grid, bump(x), atoms)
        oracle_re, oracle_im = midpoint_transform(2 * m, np.pi)
        assert abs(out.re[0] - oracle_re) <= 1e-6
        assert abs(out.im[0] - oracle_im) <= 1e-6

    def test_mismatch(self):
        grid = Grid(points=np.linspace(-1, 1, 8), weights=np.full(8, 0.25))
        with pytest.raises(DimensionMismatch):
            fourier_at_atoms(grid, np.zeros(9), simple_atoms())

    def test_sums_run_in_index_order(self):
        # the first term alone, then one rounded multiply and add per term
        r = np.random.default_rng(4)
        grid = Grid(points=np.sort(r.uniform(-3, 3, 40)), weights=r.uniform(0.1, 1.0, 40))
        phi = r.standard_normal(40)
        atoms = Grid(points=r.uniform(-5, 5, 7), weights=np.ones(7))
        out = fourier_at_atoms(grid, phi, atoms)
        weighted = (grid.weights * phi).tolist()
        for j, u in enumerate(atoms.points):
            phase = u * grid.points
            for wave, got in ((np.cos(phase), out.re[j]), (np.sin(phase), out.im[j])):
                acc = wave[0] * weighted[0]
                for term, w in zip(wave[1:].tolist(), weighted[1:]):
                    acc = acc + term * w
                assert got == acc

    def test_blas_threads_leave_the_profile_unchanged(self):
        # a phi_x model of 10,001 atoms on 50 grid points, large enough for a
        # threaded gemv to split its sums
        code = """
import hashlib
import numpy as np
from framekit import gp, rng
from framekit.frames import Grid
digest = hashlib.sha256()
for seed in range(4):
    grid = Grid(points=np.linspace(-4.0, 4.0, 50), weights=np.full(50, 8.0 / 50))
    phi = rng.seeded_normals(seed, 0, 50)
    atoms = Grid(
        points=np.linspace(-20.0, 20.0, 10_001) + 1e-3 * rng.seeded_normals(seed, 1, 10_001),
        weights=np.full(10_001, 1e-4),
    )
    out = gp.fourier_at_atoms(grid, phi, atoms)
    digest.update(out.re.tobytes() + out.im.tobytes())
print(digest.hexdigest())
"""
        assert run_pinned(code, blas_threads=1) == run_pinned(code, blas_threads=2)


class TestSigmaFrameBounds:
    def test_orthonormal_rows(self):
        bounds = frame_spectrum(onb_model(seed=1))
        assert abs(bounds.lower - 1.0) <= 1e-10
        assert abs(bounds.upper - 1.0) <= 1e-10

    def test_scaling(self):
        fs = random_model(2, 5, 3)
        c = 1.7
        base, big = frame_spectrum(fs), frame_spectrum(scaled(fs, c))
        assert abs(big.lower - c**2 * base.lower) <= 1e-10 * max(1.0, big.lower)
        assert abs(big.upper - c**2 * base.upper) <= 1e-10 * max(1.0, big.upper)

    def test_rank_deficient(self):
        vectors = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        bounds = frame_spectrum(FrameSystem(grid=simple_atoms(), vectors=vectors))
        assert bounds.lower == 0.0 and bounds.upper > 0.0


class TestKlCoefficients:
    def test_zero_phat(self):
        fs = onb_model()
        j = fs.n_points
        out = kl_coefficients(fs, ComplexVector(re=np.zeros(j), im=np.zeros(j)))
        assert np.array_equal(out.re, np.zeros(fs.n_vectors))
        assert np.array_equal(out.im, np.zeros(fs.n_vectors))

    def test_onb_reproduces_delta(self):
        fs = onb_model(seed=3)
        k = 2
        phat = ComplexVector(re=fs.vectors[k], im=np.zeros(fs.n_points))
        out = kl_coefficients(fs, phat)
        expected = np.zeros(fs.n_vectors)
        expected[k] = 1.0
        np.testing.assert_allclose(out.re, expected, atol=1e-10)
        np.testing.assert_allclose(out.im, 0.0, atol=1e-15)

    def test_brute_force_double_loop(self):
        for seed in range(10):
            fs = random_model(seed, 5, 4)
            phat = random_phat(seed + 100, 4)
            out = kl_coefficients(fs, phat)
            f = fs.vectors
            masses = fs.grid.weights
            for n in range(5):
                re = sum(
                    float(masses[j] * f[n, j] * phat.re[j]) for j in range(4)
                )
                im = sum(
                    float(masses[j] * f[n, j] * phat.im[j]) for j in range(4)
                )
                assert abs(out.re[n] - re) <= 1e-12 * max(1.0, abs(re))
                assert abs(out.im[n] - im) <= 1e-12 * max(1.0, abs(im))

    def test_mismatch(self):
        fs = onb_model()
        with pytest.raises(DimensionMismatch):
            kl_coefficients(fs, ComplexVector(re=np.zeros(9), im=np.zeros(9)))


class TestTheoreticalVariances:
    def test_zero(self):
        fs = onb_model()
        j = fs.n_points
        ex2, ey2 = variances(fs, ComplexVector(re=np.zeros(j), im=np.zeros(j)))
        assert ex2 == 0.0 and ey2 == 0.0

    def test_parseval_equality(self):
        for seed in range(10):
            fs = onb_model(seed=seed)
            ex2, ey2 = variances(fs, random_phat(seed, fs.n_points))
            assert abs(ey2 - ex2) <= 1e-12 * max(1.0, ex2)

    def test_frame_scaling_moves_ey2_only(self):
        fs = random_model(4, 5, 3)
        phat = random_phat(5, 3)
        ex2, ey2 = variances(fs, phat)
        c = 2.5
        ex2_s, ey2_s = variances(scaled(fs, c), phat)
        assert ex2_s == ex2
        assert abs(ey2_s - c**2 * ey2) <= 1e-10 * max(1.0, ey2_s)

    def test_mismatch(self):
        fs = onb_model()
        phat = ComplexVector(re=np.zeros(9), im=np.zeros(9))
        with pytest.raises(DimensionMismatch):
            theoretical_variances(fs.grid, phat, kl_coefficients(fs, random_phat(1, 4)))

    def test_identity_against_brute_force(self):
        for seed in range(100):
            fs = random_model(seed, 4 + seed % 3, 3)
            phat = random_phat(seed + 1000, 3)
            coeffs = kl_coefficients(fs, phat)
            _, ey2 = theoretical_variances(fs.grid, phat, coeffs)
            brute = 0.0
            for n in range(fs.n_vectors):
                brute += float(coeffs.re[n]) ** 2 + float(coeffs.im[n]) ** 2
            assert abs(ey2 - brute) <= 1e-12 * max(1.0, brute)


class TestSandwich:
    def test_parseval_all_equal(self):
        fs = onb_model(seed=8)
        phat = random_phat(9, fs.n_points)
        _, ey2 = variances(fs, phat)
        report = sandwich(fs, phat)
        assert report.holds
        assert abs(report.lower - ey2) <= 1e-9 * max(1.0, ey2)
        assert abs(report.upper - ey2) <= 1e-9 * max(1.0, ey2)

    def test_scaled_onb_tight(self):
        c = 2.0
        fs = scaled(onb_model(seed=12), c)
        phat = random_phat(13, fs.n_points)
        ex2, ey2 = variances(fs, phat)
        assert abs(ey2 - c**2 * ex2) <= 1e-10 * max(1.0, ey2)
        assert sandwich(fs, phat).holds
        bounds = frame_spectrum(fs)
        assert abs(bounds.lower - 4.0) <= 1e-9 and abs(bounds.upper - 4.0) <= 1e-9

    def test_holds_on_random_models(self):
        count = 0
        for seed in range(100):
            fs = random_model(seed, 5 + seed % 4, 3 + seed % 2)
            bounds = frame_spectrum(fs)
            for k in range(5):
                phat = random_phat(seed * 10 + k, fs.n_points)
                assert sandwich_check(bounds.lower, bounds.upper, *variances(fs, phat)).holds
                count += 1
        assert count == 500

    @pytest.mark.parametrize("c", [1e-60, 1.0, 1e60])
    def test_verdict_does_not_depend_on_scale(self, c):
        # Bounds claimed 10x too small are violated by some phat; scaling the
        # frame by c scales a, b and E|Y|^2 by c^2 and must keep the verdict.
        base = random_model(21, 10, 6)
        fs = scaled(base, c)

        def too_small(frame):
            spec = frame_spectrum(frame)
            return spec.lower / 10, spec.upper / 10

        violated = 0
        for k in range(10):
            phat = random_phat(300 + k, 6)
            assert sandwich(fs, phat).holds
            expected = sandwich_check(*too_small(base), *variances(base, phat)).holds
            assert sandwich_check(*too_small(fs), *variances(fs, phat)).holds == expected
            violated += not expected
        assert violated > 0

    def test_not_a_frame(self):
        vectors = np.array([[1.0, 0.0, 0.0]])
        fs = FrameSystem(grid=simple_atoms(), vectors=vectors)
        with pytest.raises(NotAFrame):
            sandwich(fs, random_phat(1, 3))

    @pytest.mark.parametrize("side, value", enumerate([math.inf, -math.inf, math.nan, math.inf]))
    def test_non_finite_side_is_refused(self, side, value):
        sides = [0.5, 2.0, 1.0, 1.5]
        sides[side] = value
        name = ["a", "b", "E|X|^2", "E|Y|^2"][side]
        with pytest.raises(InvalidMatrix) as refused:
            sandwich_check(*sides)
        assert str(refused.value) == f"{name} = {value} is not finite"

    def test_non_parseval_has_separating_phat(self):
        # extremal eigenvector of the hat frame operator pins ey2 at an
        # extreme eigenvalue times ex2, separating any non-Parseval model
        separated = 0
        for seed in range(10):
            fs = random_model(21 + seed, 6, 4)
            bounds = frame_spectrum(fs)
            a, b = bounds.lower, bounds.upper
            if abs(a - 1.0) + abs(b - 1.0) <= 1e-6:
                continue
            masses = fs.grid.weights
            b_hat = fs.vectors * np.sqrt(masses)
            values, vectors = eigh_descending(b_hat.T @ b_hat)
            which = 0 if abs(b - 1.0) >= abs(a - 1.0) else -1
            lam = float(values[which])
            v_hat = vectors[:, which]
            phat = ComplexVector(
                re=v_hat / np.sqrt(masses), im=np.zeros(len(masses))
            )
            ex2, ey2 = variances(fs, phat)
            assert abs(ex2 - 1.0) <= 1e-10
            assert abs(ey2 - lam) <= 1e-9 * max(1.0, lam)
            assert abs(ey2 - ex2) > 1e-8 * ex2
            separated += 1
        assert separated >= 9  # essentially every random model is non-Parseval


class TestSampling:
    def test_zero_phat_gives_zero_samples(self):
        fs = onb_model()
        j = fs.n_points
        re, im = sample(fs, ComplexVector(re=np.zeros(j), im=np.zeros(j)), 50, 3)
        assert np.array_equal(re, np.zeros(50))
        assert np.array_equal(im, np.zeros(50))

    def test_seed_determinism(self):
        coeffs = kl_coefficients(random_model(30, 5, 3), random_phat(31, 3))
        a_re, a_im = sample_kl(coeffs, 200, 77)
        b_re, b_im = sample_kl(coeffs, 200, 77)
        assert np.array_equal(a_re, b_re)
        assert np.array_equal(a_im, b_im)
        c_re, _ = sample_kl(coeffs, 200, 78)
        assert not np.array_equal(a_re, c_re)

    def test_samples_are_read_only(self):
        coeffs = kl_coefficients(random_model(30, 5, 3), random_phat(31, 3))
        for samples in sample_kl(coeffs, 20, 77):
            with pytest.raises(ValueError):
                samples[0] = 0.0

    def test_single_coefficient_exposes_raw_stream(self):
        s = 40_000
        re, _ = sample_kl(ComplexVector(re=np.array([1.0]), im=np.array([0.0])), s, 5)
        stream = rng.seeded_normal_rows(5, 0, s, 1)[:, 0]
        assert np.array_equal(re, stream)
        bound = 5.0 * math.sqrt(2.0 / s)
        assert abs(float(np.mean(re))) <= bound
        assert abs(float(np.var(re)) - 1.0) <= bound

    def test_sample_streams_are_order_independent(self):
        # normal draws for sample k depend only on (seed, k); regenerating
        # them stream by stream gives the exact same words, and the
        # contracted samples agree up to dot-product reassociation
        coeffs = kl_coefficients(random_model(40, 4, 3), random_phat(41, 3))
        re, im = sample_kl(coeffs, 6, 9)
        batch = rng.seeded_normal_rows(9, 0, 6, 4)
        for k in range(6):
            normals = rng.seeded_normals(9, k, 4)
            assert np.array_equal(normals, batch[k])
            assert abs(re[k] - float(normals @ coeffs.re)) <= 1e-12
            assert abs(im[k] - float(normals @ coeffs.im)) <= 1e-12

    def test_blocked_sampling_matches_one_shot(self):
        # sample_kl draws and contracts normals in blocks of rows; the
        # samples are bit-identical to the index-order sum over the whole
        # normal matrix at once.  s is not a block multiple.
        r = np.random.default_rng(61)
        for n, s in ((50, 10_001), (7, 4_097), (50, 2 * gp._SAMPLE_BLOCK + 1)):
            m = random_model(int(r.integers(1000)), n, 6)
            c = kl_coefficients(m, random_phat(int(r.integers(1000)), 6))
            re, im = sample_kl(c, s, 2024)
            normals = rng.seeded_normal_rows(2024, 0, s, n)
            assert re.tobytes() == kl_reference(normals, c.re).tobytes(), (n, s)
            assert im.tobytes() == kl_reference(normals, c.im).tobytes(), (n, s)
            assert s % gp._SAMPLE_BLOCK != 0

    def test_blas_threads_leave_samples_unchanged(self):
        # no BLAS call sums the samples or their coefficients, so one and
        # two BLAS threads give the same bytes (a threaded gemv did not, on
        # 2049 x 257 normals and on 10,001 x 50 frame vectors); one worker
        # keeps the process at two threads
        code = MODEL_CODE + """
import hashlib
gp._worker_count = lambda: 1
digest = hashlib.sha256()
for seed, n, j, s in ((63, 50, 6, 10_001), (63, 257, 6, 2_049), (0, 10_001, 50, 3)):
    c = coefficients(np.random.default_rng(seed), n, j)
    re, im = gp.sample_kl(c, s, 5)
    digest.update(re.tobytes() + im.tobytes())
    digest.update(c.re.tobytes() + c.im.tobytes())
print(digest.hexdigest())
"""
        assert run_pinned(code, blas_threads=1) == run_pinned(code, blas_threads=2)

    def test_worker_count_leaves_samples_unchanged(self):
        # blocks are fixed by _SAMPLE_BLOCK alone and each writes its own
        # slice, so 1, 2 or 3 workers (more than a 2-core machine has) give
        # the same bytes around the block edges and for a single-block s; a
        # short switch interval interleaves the workers finely
        code = MODEL_CODE + """
import sys
sys.setswitchinterval(1e-6)
r = np.random.default_rng(62)
assert gp._SAMPLE_BLOCK == 2048
for n in (50, 7):
    c = coefficients(r, n)
    seen = {}
    for workers in (1, 2, 3):
        gp._worker_count = lambda workers=workers: workers
        for s in (1, 2047, 2048, 2049, 10_001):
            re, im = gp.sample_kl(c, s, 77)
            got = (re.tobytes(), im.tobytes())
            assert seen.setdefault(s, got) == got, (n, s, workers)
print("identical")
"""
        assert run_pinned(code) == "identical"

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        assert gp._worker_count() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert gp._worker_count() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert gp._worker_count() == 1

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(gp, "_worker_count", lambda: 2)

        contract = rng.NormalScratch.contract

        def failing(scratch, seed, first, stop, *arrays):
            if first > 0:
                raise InvalidArgument(f"block at {first}")
            return contract(scratch, seed, first, stop, *arrays)

        monkeypatch.setattr(rng.NormalScratch, "contract", failing)
        with pytest.raises(InvalidArgument, match="block at"):
            sample_kl(random_phat(1, 4), 3 * gp._SAMPLE_BLOCK, 1)

    def test_import_leaves_thread_pool_unloaded(self):
        # the pool's import is paid by sample_kl, not by every CLI call
        code = "import sys, framekit.cli; print('concurrent.futures' in sys.modules)"
        assert run_pinned(code) == "False"

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        count=st.integers(min_value=1, max_value=23),
        rows=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_in_place_box_muller_keeps_the_bits(self, count, rows, data):
        # rows == 0 is one stream as a 1-D array; count odd truncates the
        # last pair; the words 0 and 2**64 - 1 give u1 = 2**-53 and 1 and
        # u2 = 0 and 1 - 2**-53, (j 2**61) >> 11 = j 2**50 puts u2 on an
        # octant edge, and an array of only those words is checked every
        # time.  The reference polar_normals, and the fused kernels, read
        # back by fused_normals, run on the words after ln in place on u1.
        pairs = (count + 1) // 2
        shape = ((rows,) if rows else ()) + (2 * pairs,)
        size = int(np.prod(shape))
        edge_words = [0, 2**64 - 1, *(j * 2**61 for j in range(1, 8))]
        edge = st.sampled_from(edge_words)
        drawn = data.draw(
            st.lists(edge | st.integers(0, 2**64 - 1), min_size=size, max_size=size)
        )
        edges = edge_words * size
        for values in (drawn, edges[:size], edges[1 : size + 1]):
            words = np.array(values, dtype=np.uint64).reshape(shape)
            expected = box_muller_reference(words, pairs, count)
            flat = words.reshape(-1, 2 * pairs) >> np.uint64(11)
            u1 = (flat[:, :pairs] + np.uint64(1)) * 2.0**-53
            np.log(u1, out=u1)
            normals = np.empty((len(u1), count))
            _sampling_py.polar_normals(u1, flat[:, pairs:], normals)
            assert normals.tobytes() == expected.tobytes()
            for variant in _kernels.VARIANTS.values():
                got = fused_normals(variant, u1, flat[:, pairs:], count)
                assert got.tobytes() == expected.tobytes(), variant.variant
        # and whole streams from a drawn seed and first stream, up to the
        # last stream 2**64 - 1, whose counter first * b passes 2**64
        seed = data.draw(st.integers(0, 2**64 - 1))
        n = max(rows, 1)
        first = data.draw(st.integers(0, 2**20) | st.integers(2**64 - 4, 2**64 - n))
        blocks = (pairs + 1) // 2
        c = first * blocks
        counter = np.array([c % 2**64, c >> 64, 0, 0], dtype=np.uint64)
        philox = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=counter)
        words = philox.random_raw(n * 4 * blocks)
        expected = box_muller_reference(words.reshape(n, -1), pairs, count)
        assert rng.seeded_normal_rows(seed, first, first + n, count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("variant", [*_kernels.VARIANTS, "numpy"])
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        first=st.integers(0, 64) | st.integers(2**64 - 64, 2**64 - 1),
        rows=st.integers(1, 40),
        count=st.sampled_from([1, 2, 7, 9, 50, 63, 64, 65, 140]) | st.integers(1, 140),
        draw=st.integers(0, 2**32 - 1),
    )
    @example(seed=2**64 - 1, first=2**64 - 40, rows=40, count=140, draw=0)
    @example(seed=0, first=0, rows=17, count=129, draw=1)
    @example(seed=2**64 - 1, first=2**64 - 1, rows=1, count=65, draw=2)
    def test_every_variant_sums_the_defined_normals(self, variant, seed, first, rows, count, draw):
        # the tile-major kernels of each variant and the numpy twin, through
        # the scratch and through sample_kl, against the active kl_contract
        # of the normals that seeded_normal_rows defines with numpy alone:
        # rows that pad their last tile of 8 streams, odd and even counts,
        # streams up to 2**64 - 1, random coefficients of random binary
        # scales with signed zeros; the words around the outputs, and the
        # outputs of a padded tile's spare lanes, stay as they were
        backend = _kernels.VARIANTS.get(variant, _kernels.PYTHON)
        stop = min(first + rows, 2**64)
        r = np.random.default_rng(draw)
        c_re, c_im = r.standard_normal((2, count)) * 2.0 ** r.integers(-40, 40, (2, count))
        c_re[r.random(count) < 0.1] = -0.0

        def expected(first, stop):
            out = np.empty(stop - first), np.empty(stop - first)
            normals = rng.seeded_normal_rows(seed, first, stop, count)
            _kernels.ACTIVE.kl_contract(normals, c_re, c_im, *out)
            return out[0].tobytes(), out[1].tobytes()

        guarded = np.full((2, stop - first + 16), CANARY)
        got = guarded[0, 8:-8], guarded[1, 8:-8]
        # mock, not monkeypatch: hypothesis refuses function-scoped fixtures
        with mock.patch.object(_kernels, "ACTIVE", backend):
            rng.NormalScratch(40, count).contract(seed, first, stop, c_re, c_im, *got)
            samples = sample_kl(ComplexVector(re=c_re, im=c_im), rows, seed)
        assert (got[0].tobytes(), got[1].tobytes()) == expected(first, stop)
        edges = np.concatenate([guarded[:, :8], guarded[:, -8:]], axis=1)
        assert edges.tobytes() == np.full((2, 16), CANARY).tobytes()
        assert (samples[0].tobytes(), samples[1].tobytes()) == expected(0, rows)

    @pytest.mark.parametrize("backend", sorted(_kernels.BACKENDS))
    def test_sample_bits_are_pinned(self, backend, monkeypatch):
        # sha256 of the samples and coefficients, and of one stream at the
        # top seed, recorded before the Philox split moved into the kernels;
        # the model is built from dyadic values, so no platform enters it
        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.BACKENDS[backend])
        got = []
        for n, s in ((50, 10_001), (7, 2_049)):
            c = kl_coefficients(*dyadic_model(n))
            re, im = sample_kl(c, s, 20240601)
            got.append(sha256_of(re, im, c.re, c.im))
        got.append(sha256_of(rng.seeded_normals(2**64 - 1, 3, 51)))
        assert got == [
            "a06e0db26fbacd8b7564b7ebb38bdd00ee7920bfaf8f788013c87df8b88fdb58",
            "f038d7fee378e17befe6d83a873865028633b70c7eeb59008e91aee4a8d47524",
            "15b4806b49b8678dd1067d6da98e181c571661645aebf7222cda18e352ce1a9d",
        ]

    @pytest.mark.skipif("compiled" not in _kernels.BACKENDS, reason="C twin not loaded")
    def test_contract_allocates_no_normals(self, monkeypatch):
        # the compiled fused kernel forms the normals of a pair of 8 streams
        # at a time and sums them in the lanes, so a scratch never allocates
        # the (rows, count) normals; the sums are
        # kl_contract's of the streams seeded_normal_rows defines
        tracemalloc = pytest.importorskip("tracemalloc")
        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.BACKENDS["compiled"])
        rows, count = gp._SAMPLE_BLOCK, 257
        c = kl_coefficients(*dyadic_model(count))
        scratch = rng.NormalScratch(rows, count)
        out = np.empty(rows), np.empty(rows)
        tracemalloc.start()
        try:
            scratch.contract(5, 3, 3 + rows, c.re, c.im, *out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * count * 8 // 16, peak
        expected = np.empty(rows), np.empty(rows)
        normals = rng.seeded_normal_rows(5, 3, 3 + rows, count)
        _kernels.ACTIVE.kl_contract(normals, c.re, c.im, *expected)
        assert out[0].tobytes() == expected[0].tobytes()
        assert out[1].tobytes() == expected[1].tobytes()

    @pytest.mark.skipif("compiled" not in _kernels.BACKENDS, reason="C twin not loaded")
    def test_memory_follows_workers_not_blocks(self, monkeypatch):
        # each worker draws all its blocks into one scratch, so 24 more
        # blocks may fault in no more than 50 pages each (a 2048 x 50 block
        # of fresh operands, u1 and the angle words, is about 200 pages); the
        # draw loop is also run in this thread, where glibc returns freed
        # heap to the system and a per-block buffer would fault in every time
        resource = pytest.importorskip("resource")

        def minflt():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        probe, before = mmap.mmap(-1, 16 * mmap.PAGESIZE), minflt()
        for offset in range(0, len(probe), mmap.PAGESIZE):
            probe[offset] = 1  # 16 fresh pages, 16 minor faults
        if minflt() == before:
            pytest.skip("ru_minflt is not counted here")
        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.BACKENDS["compiled"])
        monkeypatch.setattr(gp, "_worker_count", lambda: 1)
        c = kl_coefficients(*dyadic_model(50))
        scratch = rng.NormalScratch(gp._SAMPLE_BLOCK, 50)
        out = np.empty(gp._SAMPLE_BLOCK), np.empty(gp._SAMPLE_BLOCK)

        def faults(blocks):
            before = minflt()
            sample_kl(c, blocks * gp._SAMPLE_BLOCK, 3)
            for first in range(0, blocks * gp._SAMPLE_BLOCK, gp._SAMPLE_BLOCK):
                scratch.contract(3, first, first + gp._SAMPLE_BLOCK, c.re, c.im, *out)
            return minflt() - before

        faults(8)
        few, many = faults(8), faults(32)
        assert many - few <= 24 * 50, (few, many)

    def test_normal_rows_match_streams(self):
        rows = rng.seeded_normal_rows(13, 5, 9, 7)
        for i in range(4):
            assert np.array_equal(rows[i], rng.seeded_normals(13, 5 + i, 7))
        assert np.array_equal(rng.seeded_normal_rows(13, 0, 9, 7)[5:], rows)
        with pytest.raises(InvalidArgument):
            rng.seeded_normal_rows(13, 4, 4, 7)

    def test_invalid_count(self):
        with pytest.raises(InvalidArgument):
            sample_kl(random_phat(1, 4), 0, 1)
        for s in (10**13, 2**63):
            with pytest.raises(InvalidArgument, match=f"^{s} samples do not fit in memory$"):
                sample_kl(random_phat(1, 4), s, 1)
        with pytest.raises(InvalidArgument):
            sample_kl(ComplexVector(re=np.zeros(0), im=np.zeros(0)), 10, 1)

    def test_seed_range_ends(self):
        # the key is the seed itself: no two seeds share a stream, and a
        # seed outside [0, 2**64) is refused rather than reduced modulo 2**64
        top = 2**64 - 1
        assert rng.seeded_normals(top, 0, 8).tobytes() != rng.seeded_normals(0, 0, 8).tobytes()
        assert rng.seeded_normals(0, 0, 4).shape == (4,)
        assert rng.seeded_normals(top, 0, 4).shape == (4,)
        for seed in (-1, 2**64, -(2**64)):
            with pytest.raises(InvalidArgument, match="seed"):
                rng.seeded_normals(seed, 0, 8)
            with pytest.raises(InvalidArgument, match="seed"):
                rng.seeded_normal_rows(seed, 0, 2, 4)
        # and the streams are [0, 2**64) too: stream -1 is not stream
        # 2**64 - 1, nor stream 2**64 stream 0
        assert rng.seeded_normals(3, 0, 6).shape == (6,)
        assert rng.seeded_normal_rows(3, top - 1, top + 1, 6).shape == (2, 6)
        for stream in (-1, 2**64):
            with pytest.raises(InvalidArgument, match="stream"):
                rng.seeded_normals(3, stream, 6)
        with pytest.raises(InvalidArgument, match="stream"):
            rng.seeded_normal_rows(3, top, top + 2, 6)


class TestEmpiricalVariance:
    def test_zero_samples(self):
        out = sample_kl(ComplexVector(re=np.zeros(4), im=np.zeros(4)), 10, 3)
        assert empirical_variance(*out) == 0.0

    def test_concentration(self):
        s = 200_000
        fs = random_model(50, 5, 3)
        phat = random_phat(51, 3)
        _, ey2 = variances(fs, phat)
        out = sample(fs, phat, s, 123)
        bound = 4.0 * math.sqrt(2.0 / s)
        assert abs(empirical_variance(*out) - ey2) <= bound * ey2

    def test_doubling_coefficients_quadruples_variance(self):
        fs = random_model(52, 5, 3)
        phat = random_phat(53, 3)
        doubled = ComplexVector(re=2.0 * phat.re, im=2.0 * phat.im)
        base = empirical_variance(*sample(fs, phat, 5000, 7))
        big = empirical_variance(*sample(fs, doubled, 5000, 7))
        assert abs(big - 4.0 * base) <= 1e-12 * max(1.0, big)

    @pytest.mark.parametrize("s", [2, 3, gp._VARIANCE_BLOCK - 1, gp._VARIANCE_BLOCK,
                                   gp._VARIANCE_BLOCK + 1, 3 * gp._VARIANCE_BLOCK + 5])
    def test_blocks_keep_the_bits_of_the_whole_array_mean(self, s):
        # squares formed a block at a time, one mean over them all: the bits
        # of mean(re**2 + im**2), at scales that overflow a square to inf
        r = np.random.default_rng(s)
        re, im = r.standard_normal((2, s)) * 2.0 ** r.integers(-520, 520, (2, s))
        for part in (re, re * 0.0):
            with np.errstate(over="ignore"):
                expected = np.mean(np.square(part) + np.square(im))
            assert np.float64(empirical_variance(part, im)).tobytes() == expected.tobytes()

    def test_requires_two_samples(self):
        out = sample_kl(random_phat(1, 4), 1, 1)
        with pytest.raises(InvalidArgument):
            empirical_variance(*out)
