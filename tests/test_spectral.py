import numpy as np
import pytest

from framekit import (
    FrameSystem,
    Grid,
    InvalidMatrix,
    SymMatrix,
    build_gramian,
    frame_spectrum,
    hilbert_gramian_exact,
    sym_eig,
)
from framekit._kernels import BACKENDS
from framekit.spectral import _MAX_SWEEPS, _SWEEP_TOL_FACTOR

from oracles import power_iteration

# Frozen output of power_iteration(hilbert(5), steps=10_000).
HILBERT5_LAM_MAX = 1.5670506910982305


def random_sym(n, seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((n, n))
    return SymMatrix(a + a.T)


def random_factor(n, seed):
    r = np.random.default_rng(seed)
    return r.standard_normal((n, max(1, n - r.integers(0, 2))))


def random_psd(n, seed):
    b = random_factor(n, seed)
    return SymMatrix(b @ b.T)


def unit_weight_frame(b):
    """Frame whose vectors are the rows of b, on a grid with unit weights.

    Its Gramian is b b^T.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    m = b.shape[1]
    return FrameSystem(grid=Grid(np.arange(float(m)), np.ones(m)), vectors=b)


def gramian_pinv(fs, rank_tol=1e-10):
    """G^+ = U_r Lambda_r^{-1} U_r^T from the frame spectrum, and the spectrum."""
    spec = frame_spectrum(fs, rank_tol)
    return (spec.u / spec.retained) @ spec.u.T, spec


class TestSymMatrix:
    def test_symmetrizes(self):
        a = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(a.entries, a.entries.T)
        assert a.entries[0, 1] == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_immutable(self):
        a = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0


class TestSymEig:
    def test_identity(self):
        d = sym_eig(SymMatrix(np.eye(3)))
        assert np.allclose(d.eigenvalues, 1.0)
        q = d.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10

    def test_two_by_two_closed_form(self):
        d = sym_eig(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(d.eigenvalues, [3.0, 1.0], atol=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(float(plus @ d.eigenvectors[:, 0])) - 1.0) <= 1e-12
        assert abs(abs(float(minus @ d.eigenvectors[:, 1])) - 1.0) <= 1e-12

    def test_hilbert5_against_power_iteration(self):
        h = hilbert_gramian_exact(5)
        d = sym_eig(h)
        oracle = power_iteration(h.entries, steps=10_000)
        assert abs(oracle - HILBERT5_LAM_MAX) <= 1e-12
        assert abs(float(d.eigenvalues[0]) - oracle) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
    def test_reconstruction_and_orthogonality(self, n):
        for seed in range(3):
            a = random_sym(n, 100 * n + seed)
            d = sym_eig(a)
            q = d.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
            rebuilt = (q * d.eigenvalues) @ q.T
            scale = max(1.0, float(np.max(np.abs(a.entries))))
            assert np.max(np.abs(rebuilt - a.entries)) <= 1e-9 * scale
            assert np.all(np.diff(d.eigenvalues) <= 0.0)

    def test_deterministic(self):
        a = random_sym(9, 4)
        d1 = sym_eig(a)
        d2 = sym_eig(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_psd_eigenvalue_floor(self):
        for seed in range(10):
            d = sym_eig(random_psd(6 + seed, seed))
            lam_max = float(d.eigenvalues[0])
            assert np.all(d.eigenvalues >= -1e-10 * lam_max)

    def test_backends_bit_identical(self):
        if "compiled" not in BACKENDS:
            pytest.skip("compiled kernel not built")
        for n in [1, 2, 5, 17, 33]:
            base = random_sym(n, n).entries
            results = []
            for kernel in (BACKENDS["python"], BACKENDS["compiled"]):
                a = np.array(base, order="C")
                v = np.eye(n, order="C")
                fro = float(np.sqrt(np.sum(a * a)))
                kernel(a, v, fro, _MAX_SWEEPS, _SWEEP_TOL_FACTOR)
                results.append((a, v))
            assert np.array_equal(results[0][0], results[1][0])
            assert np.array_equal(results[0][1], results[1][1])


class TestPinv:
    """The Gramian pseudo-inverse G^+ of the frame spectrum.

    The kernel l(s)^T G^+ l(t) and Lax-Milgram rest on it; each matrix of
    these cases is the Gramian of a frame with unit grid weights.
    """

    def test_identity(self):
        p, _ = gramian_pinv(unit_weight_frame(np.eye(4)))
        assert np.max(np.abs(p - np.eye(4))) <= 1e-12

    def test_diagonal_rank_deficient(self):
        # Gramian diag(2, 0)
        p, _ = gramian_pinv(unit_weight_frame([[np.sqrt(2.0), 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(p, np.diag([0.5, 0.0]), atol=1e-14)

    def test_mercedes_gramian_projector(self):
        theta = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
        fs = unit_weight_frame(np.column_stack([np.cos(theta), np.sin(theta)]))
        a = build_gramian(fs).entries
        np.testing.assert_allclose(
            a, 1.5 * np.eye(3) - 0.5 * np.ones((3, 3)), atol=1e-15
        )
        p, _ = gramian_pinv(fs)
        expected = (2.0 / 3.0) * (np.eye(3) - np.ones((3, 3)) / 3.0)
        np.testing.assert_allclose(p, expected, atol=1e-12)
        # Moore-Penrose cross-checks as stated for this fixture
        assert np.max(np.abs(a @ p @ a - a)) <= 1e-12
        assert np.max(np.abs(p @ a @ p - p)) <= 1e-12

    def test_zero_matrix_gives_zero(self):
        p, spec = gramian_pinv(unit_weight_frame(np.zeros((3, 3))))
        assert np.array_equal(p, np.zeros((3, 3)))
        assert spec.rank == 0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_moore_penrose_identities(self, n):
        fs = unit_weight_frame(random_factor(n, 7 * n + 1))
        m = build_gramian(fs).entries
        assert np.array_equal(m, random_psd(n, 7 * n + 1).entries)
        p, _ = gramian_pinv(fs)
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-8
        assert np.max(np.abs(p @ m @ p - p)) <= 1e-8
        assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
        assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8
