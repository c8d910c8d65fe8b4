import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    AtomicMeasure,
    ComplexVector,
    DimensionMismatch,
    GaussianModel,
    Grid,
    InvalidArgument,
    InvalidMatrix,
    NotAFrame,
    SigmaFrame,
    empirical_variance,
    fourier_at_atoms,
    kl_coefficients,
    sample_kl,
    sandwich_check,
    sigma_frame_bounds,
    theoretical_variances,
)
from framekit import gp, rng
from framekit.spectral import SymMatrix, sym_eig

from oracles import orthonormal_rows


def simple_measure():
    return AtomicMeasure.from_atoms([(-1.0, 0.5), (0.0, 1.0), (2.0, 0.25)])


def onb_model(seed=0, n=4):
    r = np.random.default_rng(seed)
    measure = AtomicMeasure(
        locations=np.linspace(-2.0, 2.0, n), masses=r.uniform(0.2, 2.0, n)
    )
    rows = orthonormal_rows(n, n, measure.masses, seed=seed)
    return GaussianModel.from_frame(SigmaFrame(measure=measure, vectors=rows))


def random_model(seed, n, j):
    """Frame model with a > 0: n >= j rows over j atoms."""
    assert n >= j
    r = np.random.default_rng(seed)
    measure = AtomicMeasure(
        locations=np.sort(r.uniform(-3.0, 3.0, j) + np.arange(j) * 7.0),
        masses=r.uniform(0.2, 2.0, j),
    )
    for _ in range(50):
        vectors = r.standard_normal((n, j))
        model = GaussianModel.from_frame(SigmaFrame(measure=measure, vectors=vectors))
        if model.is_frame and model.a >= 1e-4 * model.b:
            return model
    raise AssertionError("no frame model drawn")


def random_phat(seed, j):
    r = np.random.default_rng(seed)
    return ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))


#: Prelude of the pinned sampling scripts: model(r, n) draws N = n vectors
#: on 6 atoms and a profile phat from the generator r.
MODEL_CODE = """
import numpy as np
from framekit import gp, rng

def model(r, n, j=6):
    measure = gp.AtomicMeasure(
        locations=np.sort(r.uniform(-3, 3, j)) + 7.0 * np.arange(j),
        masses=r.uniform(0.2, 1.5, j),
    )
    frame = gp.SigmaFrame(measure=measure, vectors=r.standard_normal((n, j)))
    phat = gp.ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))
    return gp.GaussianModel.from_frame(frame), phat
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


def kl_reference(normals, c):
    """sum_n normals[:, n] * c[n] in index order: the first term, then one
    rounded add per term."""
    acc = normals[:, 0] * c[0]
    for j in range(1, normals.shape[1]):
        acc = acc + normals[:, j] * c[j]
    return acc


class TestAtomicMeasure:
    def test_validation(self):
        with pytest.raises(InvalidMatrix):
            AtomicMeasure(locations=np.array([1.0, 1.0]), masses=np.array([1.0, 1.0]))
        with pytest.raises(InvalidMatrix):
            AtomicMeasure(locations=np.array([1.0, 2.0]), masses=np.array([1.0, 0.0]))

    def test_cauchy_mass_brute_force(self):
        m = simple_measure()
        expected = 0.5 / (1 + 1.0) + 1.0 / (1 + 0.0) + 0.25 / (1 + 4.0)
        assert abs(m.cauchy_mass() - expected) <= 1e-14

    def test_cauchy_mass_random(self):
        r = np.random.default_rng(10)
        for _ in range(20):
            j = int(r.integers(1, 12))
            m = AtomicMeasure(
                locations=np.cumsum(r.uniform(0.1, 3.0, j)),
                masses=r.uniform(0.01, 5.0, j),
            )
            brute = sum(
                float(m.masses[i]) / (1.0 + float(m.locations[i]) ** 2)
                for i in range(j)
            )
            assert abs(m.cauchy_mass() - brute) <= 1e-14 * max(1.0, brute)


class TestFourierAtAtoms:
    def test_zero_function(self):
        grid = Grid(points=np.linspace(-1, 1, 16), weights=np.full(16, 2.0 / 16))
        out = fourier_at_atoms(grid, np.zeros(16), simple_measure())
        assert np.array_equal(out.re, np.zeros(3))
        assert np.array_equal(out.im, np.zeros(3))

    def test_zero_frequency_is_integral(self):
        grid = Grid(points=np.linspace(-1, 1, 32), weights=np.full(32, 2.0 / 32))
        measure = AtomicMeasure(locations=np.array([0.0]), masses=np.array([1.0]))
        phi = np.cos(grid.points)
        out = fourier_at_atoms(grid, phi, measure)
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
        measure = AtomicMeasure(locations=np.array([np.pi]), masses=np.array([1.0]))
        out = fourier_at_atoms(grid, bump(x), measure)
        oracle_re, oracle_im = midpoint_transform(2 * m, np.pi)
        assert abs(out.re[0] - oracle_re) <= 1e-6
        assert abs(out.im[0] - oracle_im) <= 1e-6

    def test_mismatch(self):
        grid = Grid(points=np.linspace(-1, 1, 8), weights=np.full(8, 0.25))
        with pytest.raises(DimensionMismatch):
            fourier_at_atoms(grid, np.zeros(9), simple_measure())


class TestSigmaFrameBounds:
    def test_orthonormal_rows(self):
        model = onb_model(seed=1)
        assert abs(model.a - 1.0) <= 1e-10
        assert abs(model.b - 1.0) <= 1e-10

    def test_scaling(self):
        model = random_model(2, 5, 3)
        c = 1.7
        scaled = GaussianModel.from_frame(
            SigmaFrame(measure=model.frame.measure, vectors=c * model.frame.vectors)
        )
        assert abs(scaled.a - c**2 * model.a) <= 1e-10 * max(1.0, scaled.a)
        assert abs(scaled.b - c**2 * model.b) <= 1e-10 * max(1.0, scaled.b)

    def test_rank_deficient(self):
        measure = simple_measure()
        vectors = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        a, b = sigma_frame_bounds(SigmaFrame(measure=measure, vectors=vectors))
        assert a == 0.0 and b > 0.0


class TestKlCoefficients:
    def test_zero_phat(self):
        model = onb_model()
        j = model.frame.measure.n_atoms
        out = kl_coefficients(model, ComplexVector(re=np.zeros(j), im=np.zeros(j)))
        assert np.array_equal(out.re, np.zeros(model.frame.n_vectors))
        assert np.array_equal(out.im, np.zeros(model.frame.n_vectors))

    def test_onb_reproduces_delta(self):
        model = onb_model(seed=3)
        k = 2
        phat = ComplexVector(
            re=model.frame.vectors[k],
            im=np.zeros(model.frame.measure.n_atoms),
        )
        out = kl_coefficients(model, phat)
        expected = np.zeros(model.frame.n_vectors)
        expected[k] = 1.0
        np.testing.assert_allclose(out.re, expected, atol=1e-10)
        np.testing.assert_allclose(out.im, 0.0, atol=1e-15)

    def test_brute_force_double_loop(self):
        for seed in range(10):
            model = random_model(seed, 5, 4)
            phat = random_phat(seed + 100, 4)
            out = kl_coefficients(model, phat)
            f = model.frame.vectors
            masses = model.frame.measure.masses
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
        model = onb_model()
        with pytest.raises(DimensionMismatch):
            kl_coefficients(model, ComplexVector(re=np.zeros(9), im=np.zeros(9)))


class TestTheoreticalVariances:
    def test_zero(self):
        model = onb_model()
        j = model.frame.measure.n_atoms
        ex2, ey2 = theoretical_variances(
            model, ComplexVector(re=np.zeros(j), im=np.zeros(j))
        )
        assert ex2 == 0.0 and ey2 == 0.0

    def test_parseval_equality(self):
        for seed in range(10):
            model = onb_model(seed=seed)
            phat = random_phat(seed, model.frame.measure.n_atoms)
            ex2, ey2 = theoretical_variances(model, phat)
            assert abs(ey2 - ex2) <= 1e-12 * max(1.0, ex2)

    def test_frame_scaling_moves_ey2_only(self):
        model = random_model(4, 5, 3)
        phat = random_phat(5, 3)
        ex2, ey2 = theoretical_variances(model, phat)
        c = 2.5
        scaled = GaussianModel.from_frame(
            SigmaFrame(measure=model.frame.measure, vectors=c * model.frame.vectors)
        )
        ex2_s, ey2_s = theoretical_variances(scaled, phat)
        assert ex2_s == ex2
        assert abs(ey2_s - c**2 * ey2) <= 1e-10 * max(1.0, ey2_s)

    def test_identity_against_brute_force(self):
        for seed in range(100):
            model = random_model(seed, 4 + seed % 3, 3)
            phat = random_phat(seed + 1000, 3)
            _, ey2 = theoretical_variances(model, phat)
            coeffs = kl_coefficients(model, phat)
            brute = 0.0
            for n in range(model.frame.n_vectors):
                brute += float(coeffs.re[n]) ** 2 + float(coeffs.im[n]) ** 2
            assert abs(ey2 - brute) <= 1e-12 * max(1.0, brute)


class TestSandwich:
    def test_parseval_all_equal(self):
        model = onb_model(seed=8)
        phat = random_phat(9, model.frame.measure.n_atoms)
        report = sandwich_check(model, phat)
        assert report.holds
        assert abs(report.lower - report.middle) <= 1e-9 * max(1.0, report.middle)
        assert abs(report.upper - report.middle) <= 1e-9 * max(1.0, report.middle)

    def test_scaled_onb_tight(self):
        base = onb_model(seed=12)
        c = 2.0
        model = GaussianModel.from_frame(
            SigmaFrame(measure=base.frame.measure, vectors=c * base.frame.vectors)
        )
        phat = random_phat(13, base.frame.measure.n_atoms)
        ex2, ey2 = theoretical_variances(model, phat)
        assert abs(ey2 - c**2 * ex2) <= 1e-10 * max(1.0, ey2)
        report = sandwich_check(model, phat)
        assert report.holds
        assert abs(model.a - 4.0) <= 1e-9 and abs(model.b - 4.0) <= 1e-9

    def test_holds_on_random_models(self):
        count = 0
        for seed in range(100):
            model = random_model(seed, 5 + seed % 4, 3 + seed % 2)
            for k in range(5):
                phat = random_phat(seed * 10 + k, model.frame.measure.n_atoms)
                assert sandwich_check(model, phat).holds
                count += 1
        assert count == 500

    @pytest.mark.parametrize("c", [1e-60, 1.0, 1e60])
    def test_verdict_does_not_depend_on_scale(self, c):
        # Bounds claimed 10x too small are violated by some phat; scaling the
        # frame by c scales a, b and E|Y|^2 by c^2 and must keep the verdict.
        base = random_model(21, 10, 6)
        model = GaussianModel.from_frame(
            SigmaFrame(measure=base.frame.measure, vectors=c * base.frame.vectors)
        )

        def too_small(m):
            bounds = dataclasses.replace(m.bounds, lower=m.a / 10, upper=m.b / 10)
            return GaussianModel(frame=m.frame, bounds=bounds)

        violated = 0
        for k in range(10):
            phat = random_phat(300 + k, 6)
            assert sandwich_check(model, phat).holds
            expected = sandwich_check(too_small(base), phat).holds
            assert sandwich_check(too_small(model), phat).holds == expected
            violated += not expected
        assert violated > 0

    def test_not_a_frame(self):
        measure = simple_measure()
        vectors = np.array([[1.0, 0.0, 0.0]])
        model = GaussianModel.from_frame(SigmaFrame(measure=measure, vectors=vectors))
        with pytest.raises(NotAFrame):
            sandwich_check(model, random_phat(1, 3))

    def test_non_parseval_has_separating_phat(self):
        # extremal eigenvector of the hat frame operator pins ey2 at an
        # extreme eigenvalue times ex2, separating any non-Parseval model
        separated = 0
        for seed in range(10):
            model = random_model(21 + seed, 6, 4)
            if abs(model.a - 1.0) + abs(model.b - 1.0) <= 1e-6:
                continue
            masses = model.frame.measure.masses
            b_hat = model.frame.vectors * np.sqrt(masses)
            eig = sym_eig(SymMatrix(b_hat.T @ b_hat))
            which = 0 if abs(model.b - 1.0) >= abs(model.a - 1.0) else -1
            lam = float(eig.eigenvalues[which])
            v_hat = eig.eigenvectors[:, which]
            phat = ComplexVector(
                re=v_hat / np.sqrt(masses), im=np.zeros(len(masses))
            )
            ex2, ey2 = theoretical_variances(model, phat)
            assert abs(ex2 - 1.0) <= 1e-10
            assert abs(ey2 - lam) <= 1e-9 * max(1.0, lam)
            assert abs(ey2 - ex2) > 1e-8 * ex2
            separated += 1
        assert separated >= 9  # essentially every random model is non-Parseval


class TestSampling:
    def test_zero_phat_gives_zero_samples(self):
        model = onb_model()
        j = model.frame.measure.n_atoms
        out = sample_kl(model, ComplexVector(re=np.zeros(j), im=np.zeros(j)), 50, 3)
        assert np.array_equal(out.samples_re, np.zeros(50))
        assert np.array_equal(out.samples_im, np.zeros(50))

    def test_seed_determinism(self):
        model = random_model(30, 5, 3)
        phat = random_phat(31, 3)
        a = sample_kl(model, phat, 200, 77)
        b = sample_kl(model, phat, 200, 77)
        assert np.array_equal(a.samples_re, b.samples_re)
        assert np.array_equal(a.samples_im, b.samples_im)
        c = sample_kl(model, phat, 200, 78)
        assert not np.array_equal(a.samples_re, c.samples_re)

    def test_single_coefficient_exposes_raw_stream(self):
        measure = AtomicMeasure(locations=np.array([0.0]), masses=np.array([1.0]))
        model = GaussianModel.from_frame(
            SigmaFrame(measure=measure, vectors=np.array([[1.0]]))
        )
        phat = ComplexVector(re=np.array([1.0]), im=np.array([0.0]))
        s = 40_000
        out = sample_kl(model, phat, s, 5)
        stream = rng.seeded_normal_matrix(5, s, 1)[:, 0]
        assert np.array_equal(out.samples_re, stream)
        bound = 5.0 * math.sqrt(2.0 / s)
        assert abs(float(np.mean(out.samples_re))) <= bound
        assert abs(float(np.var(out.samples_re)) - 1.0) <= bound

    def test_sample_streams_are_order_independent(self):
        # normal draws for sample k depend only on (seed, k); regenerating
        # them stream by stream gives the exact same words, and the
        # contracted samples agree up to dot-product reassociation
        model = random_model(40, 4, 3)
        phat = random_phat(41, 3)
        both = sample_kl(model, phat, 6, 9)
        batch = rng.seeded_normal_matrix(9, 6, 4)
        coeffs = kl_coefficients(model, phat)
        for k in range(6):
            normals = rng.seeded_normals(9, k, 4)
            assert np.array_equal(normals, batch[k])
            assert abs(both.samples_re[k] - float(normals @ coeffs.re)) <= 1e-12
            assert abs(both.samples_im[k] - float(normals @ coeffs.im)) <= 1e-12

    def test_blocked_sampling_matches_one_shot(self):
        # sample_kl draws and contracts normals in blocks of rows; the
        # samples are bit-identical to the index-order sum over the whole
        # normal matrix at once.  s is not a block multiple.
        r = np.random.default_rng(61)
        for n, s in ((50, 10_001), (7, 4_097), (50, 2 * gp._SAMPLE_BLOCK + 1)):
            m = random_model(int(r.integers(1000)), n, 6)
            phat = random_phat(int(r.integers(1000)), 6)
            c = kl_coefficients(m, phat)
            out = sample_kl(m, phat, s, 2024)
            normals = rng.seeded_normal_matrix(2024, s, n)
            assert out.samples_re.tobytes() == kl_reference(normals, c.re).tobytes(), (n, s)
            assert out.samples_im.tobytes() == kl_reference(normals, c.im).tobytes(), (n, s)
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
    m, phat = model(np.random.default_rng(seed), n, j)
    out = gp.sample_kl(m, phat, s, 5)
    digest.update(out.samples_re.tobytes() + out.samples_im.tobytes())
    digest.update(out.coefficients.re.tobytes() + out.coefficients.im.tobytes())
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
    m, phat = model(r, n)
    seen = {}
    for workers in (1, 2, 3):
        gp._worker_count = lambda workers=workers: workers
        for s in (1, 2047, 2048, 2049, 10_001):
            out = gp.sample_kl(m, phat, s, 77)
            got = (out.samples_re.tobytes(), out.samples_im.tobytes())
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

        def failing(seed, first, stop, count):
            if first > 0:
                raise InvalidArgument(f"block at {first}")
            return np.zeros((stop - first, count))

        monkeypatch.setattr(rng, "seeded_normal_rows", failing)
        model = onb_model()
        phat = random_phat(1, model.frame.measure.n_atoms)
        with pytest.raises(InvalidArgument, match="block at"):
            sample_kl(model, phat, 3 * gp._SAMPLE_BLOCK, 1)

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
        # rows == 0 is the 1-D layout of seeded_normals; count odd truncates
        # the last pair; the words 0 and 2**64 - 1 give u1 = 2**-53 and 1
        # and u2 = 0 and 1 - 2**-53, (j 2**61) >> 11 = j 2**50 puts u2 on an
        # octant edge, and an array of only those words is checked every time
        pairs, blocks = rng._stream_layout(count)
        shape = ((rows,) if rows else ()) + (4 * blocks,)
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
            got = rng._box_muller(words.copy(), pairs, count)
            assert got.shape == expected.shape == shape[:-1] + (count,)
            assert got.tobytes() == expected.tobytes()

    def test_normal_rows_match_streams(self):
        rows = rng.seeded_normal_rows(13, 5, 9, 7)
        for i in range(4):
            assert np.array_equal(rows[i], rng.seeded_normals(13, 5 + i, 7))
        assert np.array_equal(rng.seeded_normal_matrix(13, 9, 7)[5:], rows)
        with pytest.raises(InvalidArgument):
            rng.seeded_normal_rows(13, 4, 4, 7)

    def test_invalid_count(self):
        model = onb_model()
        phat = random_phat(1, model.frame.measure.n_atoms)
        with pytest.raises(InvalidArgument):
            sample_kl(model, phat, 0, 1)

    def test_seed_range_ends(self):
        # the key is the seed itself: no two seeds share a stream, and a
        # seed outside [0, 2**64) is refused rather than reduced modulo 2**64
        top = 2**64 - 1
        assert rng.philox_words(top, 0, 8).tobytes() != rng.philox_words(0, 0, 8).tobytes()
        assert rng.seeded_normals(0, 0, 4).shape == (4,)
        assert rng.seeded_normals(top, 0, 4).shape == (4,)
        for seed in (-1, 2**64, -(2**64)):
            with pytest.raises(InvalidArgument, match="seed"):
                rng.philox_words(seed, 0, 8)
            with pytest.raises(InvalidArgument, match="seed"):
                rng.seeded_normal_rows(seed, 0, 2, 4)

    def test_counter_offset_still_wraps(self):
        # only the seed is range-checked; the block offset keeps its mask
        assert np.array_equal(rng.philox_words(3, 2**64 + 5, 8), rng.philox_words(3, 5, 8))


class TestEmpiricalVariance:
    def test_zero_samples(self):
        model = onb_model()
        j = model.frame.measure.n_atoms
        out = sample_kl(model, ComplexVector(re=np.zeros(j), im=np.zeros(j)), 10, 3)
        assert empirical_variance(out) == 0.0

    def test_concentration(self):
        s = 200_000
        model = random_model(50, 5, 3)
        phat = random_phat(51, 3)
        _, ey2 = theoretical_variances(model, phat)
        out = sample_kl(model, phat, s, 123)
        bound = 4.0 * math.sqrt(2.0 / s)
        assert abs(empirical_variance(out) - ey2) <= bound * ey2

    def test_doubling_coefficients_quadruples_variance(self):
        model = random_model(52, 5, 3)
        phat = random_phat(53, 3)
        doubled = ComplexVector(re=2.0 * phat.re, im=2.0 * phat.im)
        base = empirical_variance(sample_kl(model, phat, 5000, 7))
        big = empirical_variance(sample_kl(model, doubled, 5000, 7))
        assert abs(big - 4.0 * base) <= 1e-12 * max(1.0, big)

    def test_requires_two_samples(self):
        model = onb_model()
        phat = random_phat(1, model.frame.measure.n_atoms)
        out = sample_kl(model, phat, 1, 1)
        with pytest.raises(InvalidArgument):
            empirical_variance(out)
