import math

import numpy as np
import pytest

from framekit import (
    InvalidArgument,
    build_gramian,
    frame_spectrum,
    hilbert_spectrum_report,
    mercedes_frame,
    monomial_frame,
    rk_kernel,
)

from oracles import (
    cholesky_succeeds,
    eigh_descending,
    hilbert_gramian_exact,
    power_iteration,
    random_riesz_frame,
)


class TestMonomialFrame:
    def test_constant_function_gramian(self):
        g = build_gramian(monomial_frame(1, 64))
        assert abs(g[0, 0] - 1.0) <= 1e-12  # midpoint rule exact for constants

    def test_two_functions_quadrature(self):
        g = build_gramian(monomial_frame(2, 2048))
        expected = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        assert np.max(np.abs(g - expected)) <= 1e-4

    def test_square_at_half(self):
        fs = monomial_frame(3, 3)  # odd point count puts 0.5 on the grid
        assert fs.grid.points[1] == 0.5
        assert fs.vectors[2, 1] == 0.25

    def test_grid_layout(self):
        fs = monomial_frame(2, 4)
        np.testing.assert_allclose(fs.grid.points, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(fs.grid.weights, 0.25)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidArgument):
            monomial_frame(0, 16)
        with pytest.raises(InvalidArgument):
            monomial_frame(3, 1)


class TestHilbertExact:
    def test_one_by_one(self):
        g = hilbert_gramian_exact(1)
        assert np.array_equal(g, [[1.0]])

    def test_two_by_two(self):
        g = hilbert_gramian_exact(2)
        np.testing.assert_allclose(
            g, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=0
        )

    def test_lam_max_against_power_iteration(self):
        h = hilbert_gramian_exact(5)
        oracle = power_iteration(h, steps=10_000)
        (row,) = hilbert_spectrum_report([5])
        assert abs(row.lam_max - oracle) <= 1e-9

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            hilbert_gramian_exact(0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_quadrature_consistency(self, n):
        exact = hilbert_gramian_exact(n)
        sampled = build_gramian(monomial_frame(n, 4096))
        assert np.max(np.abs(exact - sampled)) <= 1e-4


class TestSpectrumReport:
    def test_single(self):
        (row,) = hilbert_spectrum_report([1])
        assert row.lam_max == 1.0 and row.lam_min == 1.0
        assert abs(row.pi_gap - (math.pi - 1.0)) <= 1e-15

    def test_growth_below_pi(self):
        rows = hilbert_spectrum_report([4, 8, 16, 32])
        lam = [r.lam_max for r in rows]
        assert all(a < b for a, b in zip(lam, lam[1:]))
        assert all(x < math.pi for x in lam)

    def test_lam_max_monotone_by_rayleigh_oracle(self):
        # padded top eigenvector of H_n gives a Rayleigh quotient of H_{n+1}
        # equal to lam_max(H_n), so lam_max(H_{n+1}) must exceed it
        for n in [2, 4, 8, 16]:
            small = hilbert_gramian_exact(n)
            big = hilbert_gramian_exact(n + 1)
            lam, vecs = eigh_descending(small)
            v = np.zeros(n + 1)
            v[:n] = vecs[:, 0]
            rayleigh = float(v @ big @ v)
            assert abs(rayleigh - float(lam[0])) <= 1e-12
            (row,) = hilbert_spectrum_report([n + 1])
            assert row.lam_max > rayleigh

    def test_lam_min_decreasing_until_noise_floor(self):
        rows = hilbert_spectrum_report([1, 2, 4, 8])
        lam = [r.lam_min for r in rows]
        assert all(a > b for a, b in zip(lam, lam[1:]))
        assert lam[-1] > 1e-12  # still above roundoff at n=8

    @pytest.mark.parametrize("n", [12, 16])
    def test_lam_min_against_exact_hilbert(self, n):
        # a 60-digit eigensolve of the exact rational matrix is the oracle
        mpmath = pytest.importorskip("mpmath")
        (row,) = hilbert_spectrum_report([n])
        with mpmath.workdps(60):
            h = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    h[i, j] = mpmath.mpf(1) / (i + j + 1)
            exact = min(mpmath.eigsy(h, eigvals_only=True))
            error = float(abs(row.lam_min - exact) / exact)
        assert error <= 1e-12, error

    def test_n12_no_lower_bound(self):
        (row,) = hilbert_spectrum_report([12])
        assert row.lam_min < 1e-8
        # independent certificate: H - 1e-8 I has a negative pivot
        h = hilbert_gramian_exact(12)
        assert not cholesky_succeeds(h - 1e-8 * np.eye(12))
        assert cholesky_succeeds(h)  # H itself is positive definite

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            hilbert_spectrum_report([0])


class TestMercedes:
    def test_bounds(self):
        b = frame_spectrum(mercedes_frame())
        assert abs(b.lower - 1.5) <= 1e-12 and abs(b.upper - 1.5) <= 1e-12
        assert b.is_frame

    def test_gramian_unit_diagonal(self):
        g = build_gramian(mercedes_frame())
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-15)

    def test_gramian_off_diagonal_cos120(self):
        g = build_gramian(mercedes_frame())
        off = g[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-15)


class TestRandomRiesz:
    def test_deterministic(self):
        a = random_riesz_frame(6, 42)
        b = random_riesz_frame(6, 42)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.grid.points, b.grid.points)

    def test_seeds_differ(self):
        a = random_riesz_frame(6, 1)
        b = random_riesz_frame(6, 2)
        assert not np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 30])
    def test_is_frame(self, m):
        bounds = frame_spectrum(random_riesz_frame(m, m))
        assert bounds.is_frame and bounds.lower > 0.0
        # construction guard: singular-value ratio at least 0.05
        assert bounds.lower / bounds.upper >= 0.05**2

    def test_m1_single_nonzero(self):
        fs = random_riesz_frame(1, 7)
        assert fs.vectors.shape == (1, 1)
        assert fs.vectors[0, 0] != 0.0


class TestEvaluationNormGrowth:
    def test_evaluation_functionals_grow_with_system_size(self):
        # The span of more monomials reproduces evaluation with ever-larger
        # kernel diagonal (no uniform bound survives the limit: the ambient
        # L2 space is not an RKHS).  Qualitative, no fixed tolerance.
        peaks = []
        for n in (2, 4, 8):
            k = rk_kernel(monomial_frame(n, 512))
            peaks.append(float(np.max(np.diag(k.values))))
        assert peaks[0] < peaks[1] < peaks[2]
