import shutil

import numpy as np
import pytest

from framekit import (
    FrameSystem,
    Grid,
    InvalidMatrix,
    NotConverged,
    build_gramian,
    frame_spectrum,
    row_svd,
    spectral,
)
from framekit._kernels import PYTHON, VARIANTS
from framekit.spectral import _MAX_SWEEPS, _ORTHOGONAL_TOL, padded_rows

from oracles import hilbert_gramian_exact, power_iteration

# Frozen output of power_iteration(hilbert(5), steps=10_000).
HILBERT5_LAM_MAX = 1.5670506910982305


def random_rows(n, seed):
    """n random rows of length n + 2."""
    return np.random.default_rng(seed).standard_normal((n, n + 2))


def random_factor(n, seed):
    r = np.random.default_rng(seed)
    return r.standard_normal((n, max(1, n - r.integers(0, 2))))


def random_psd(n, seed):
    b = random_factor(n, seed)
    return b @ b.T


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


class TestGramianArrays:
    """The Gramians the library returns: read-only arrays, finite or refused."""

    def test_rejects_nonfinite(self):
        # finite vectors whose squares overflow the double range
        fs = unit_weight_frame(np.ldexp(random_factor(4, 3), 530))
        assert np.all(np.isfinite(fs.vectors))
        with pytest.raises(InvalidMatrix):
            build_gramian(fs)

    def test_immutable(self):
        for a in (build_gramian(unit_weight_frame(np.eye(2))), hilbert_gramian_exact(3)):
            with pytest.raises(ValueError):
                a[0, 0] = 5.0


class TestSymEig:
    """Eigensystems of the symmetric A A^T, read by ``row_svd`` from the rows of A."""

    def test_identity(self):
        d = row_svd(np.eye(3))
        assert np.allclose(d.squares, 1.0)
        q = d.left
        assert np.max(np.abs(q @ q.T - np.eye(3))) <= 1e-10

    def test_two_by_two_closed_form(self):
        # the rows of the Cholesky factor of [[2, 1], [1, 2]]
        d = row_svd([[np.sqrt(2.0), 0.0], [np.sqrt(0.5), np.sqrt(1.5)]])
        np.testing.assert_allclose(d.squares, [3.0, 1.0], atol=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(float(plus @ d.left[0])) - 1.0) <= 1e-12
        assert abs(abs(float(minus @ d.left[1])) - 1.0) <= 1e-12

    def test_hilbert5_against_power_iteration(self):
        h = hilbert_gramian_exact(5)
        d = row_svd(np.linalg.cholesky(h))
        oracle = power_iteration(h, steps=10_000)
        assert abs(oracle - HILBERT5_LAM_MAX) <= 1e-12
        assert abs(float(d.squares[0]) - oracle) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
    def test_reconstruction_and_orthogonality(self, n):
        for seed in range(3):
            a = random_rows(n, 100 * n + seed)
            d = row_svd(a)
            q = d.left
            assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-10
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(q.T @ d.rows - a)) <= 1e-9 * scale
            gram = a @ a.T
            rebuilt = (q.T * d.squares) @ q
            assert np.max(np.abs(rebuilt - gram)) <= 1e-9 * scale * scale
            assert np.max(np.abs(d.rows @ d.rows.T - np.diag(d.squares))) <= 1e-9 * scale * scale
            assert np.all(np.diff(d.squares) <= 0.0)

    def test_deterministic(self):
        a = random_rows(9, 4)
        d1 = row_svd(a)
        d2 = row_svd(a)
        assert np.array_equal(d1.squares, d2.squares)
        assert np.array_equal(d1.rows, d2.rows)
        assert np.array_equal(d1.left, d2.left)

    def test_psd_eigenvalue_floor(self):
        # the squares of a rank-deficient factor are >= 0 and match the
        # Gramian's eigenvalues, its zeros included
        for seed in range(10):
            b = random_factor(6 + seed, seed)
            d = row_svd(b.T)
            lam = np.linalg.eigvalsh(b.T @ b)[::-1]
            assert np.all(d.squares >= 0.0)
            assert np.max(np.abs(d.squares - lam)) <= 1e-10 * float(lam[0])

    def test_reports_sweeps(self):
        assert row_svd(np.diag([3.0, 1.0])).sweeps == 0
        assert 0 < row_svd(random_rows(8, 11)).sweeps < _MAX_SWEEPS

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3, 4)])
    def test_rows_of_a_matrix_only(self, shape):
        with pytest.raises(ValueError, match="expected a k x n array"):
            row_svd(np.ones(shape))

    def test_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
        with pytest.raises(NotConverged):
            row_svd(random_rows(8, 11))

    def test_converging_on_the_last_sweep_is_not_an_error(self, monkeypatch):
        # the kernels stop after a sweep that rotates nothing, so a limit
        # equal to the sweeps needed still ends converged: same bits, no error
        a = random_rows(8, 11)
        free = row_svd(a)
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", free.sweeps)
        capped = row_svd(a)
        assert capped.sweeps == free.sweeps
        assert np.array_equal(capped.squares, free.squares)
        assert np.array_equal(capped.rows, free.rows)
        assert np.array_equal(capped.left, free.left)

    def test_backends_bit_identical(self):
        if not VARIANTS:
            # the C twin builds at import wherever a compiler is on PATH
            assert shutil.which("cc") is None, "cc is on PATH but the C twin did not load"
            pytest.skip("no C compiler")
        for n in [1, 2, 5, 17, 33]:
            base = random_rows(n, n)
            results = []
            for backend in (PYTHON, *VARIANTS.values()):
                a = padded_rows(base)
                squares, v, sweeps = backend.jacobi_rows(a, _MAX_SWEEPS, _ORTHOGONAL_TOL)
                results.append((squares.tobytes(), a.tobytes(), v.tobytes(), sweeps))
            assert len(set(results)) == 1


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
        a = build_gramian(fs)
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
        m = build_gramian(fs)
        assert np.array_equal(m, random_psd(n, 7 * n + 1))
        p, _ = gramian_pinv(fs)
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-8
        assert np.max(np.abs(p @ m @ p - p)) <= 1e-8
        assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
        assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8
