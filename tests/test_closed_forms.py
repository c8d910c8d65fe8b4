"""The paper's kernel against a closed form, and under an invariance it implies.

On the 2N-point Gauss-Legendre grid of (0, 1) the Gramian of the monomials
t**j, j < N, is the Hilbert matrix H_N, and the kernel
K(s, t) = l(s)^T G^+ l(t) is the Christoffel-Darboux sum of the Legendre
polynomials.  The kernel depends only on the span of the vectors and on the
weights, so Phi -> A Phi for an invertible A leaves it, and the rank, as
they were.  Each relation is gated by kappa 2**-52, the rounding that the
condition number kappa(B) of B = Phi W^{1/2}, times kappa(A) for A Phi,
amplifies; and each refuses a wrong kernel: the Gramian in place of its
pseudo-inverse, or the naive kernel.
"""

import json

import numpy as np
import pytest

from framekit import (
    FrameSystem,
    Grid,
    canonical_tight,
    cli,
    frame_spectrum,
    hilbert_spectrum_report,
    naive_kernel,
    rk_kernel,
)
from oracles import christoffel_darboux_kernel, gauss_legendre_monomials

EPS = 2.0**-52
SIZES = [4, 8, 12, 16]


def condition(a):
    """sigma_max / sigma_min of ``a``, by LAPACK."""
    return float(np.linalg.cond(a))


def kappa_b(fs):
    """The condition number of B = Phi W^{1/2}."""
    return condition(fs.vectors * np.sqrt(fs.grid.weights))


def rel_err(got, expected):
    """max |got - expected|, relative to the largest entry of ``expected``."""
    return float(np.max(np.abs(got - expected))) / float(np.max(np.abs(expected)))


class TestChristoffelDarboux:
    @pytest.mark.parametrize("n", SIZES)
    def test_kernel_and_tight_frame_kernel(self, n):
        fs = gauss_legendre_monomials(n)
        gate = kappa_b(fs) * EPS
        expected = christoffel_darboux_kernel(n, fs.grid.points)
        assert rel_err(rk_kernel(fs, 0.0).values, expected) <= gate
        assert rel_err(naive_kernel(canonical_tight(fs, 0.0)).values, expected) <= gate

    @pytest.mark.parametrize("n", SIZES)
    def test_retained_spectrum_ends_are_the_hilbert_matrix_s(self, n):
        # two code paths: Jacobi on B, and on H_N's exact Cholesky factor
        fs = gauss_legendre_monomials(n)
        gate = kappa_b(fs) * EPS
        spec = frame_spectrum(fs, 0.0)
        [row] = hilbert_spectrum_report([n])
        assert spec.rank == n
        assert abs(spec.retained[0] - row.lam_max) <= gate * row.lam_max
        assert abs(spec.retained[-1] - row.lam_min) <= gate * row.lam_min

    @pytest.mark.parametrize("n", SIZES)
    def test_the_gramian_in_place_of_its_pseudo_inverse_fails(self, n):
        fs = gauss_legendre_monomials(n)
        phi, w = fs.vectors, fs.grid.weights
        wrong = phi.T @ ((phi * w) @ phi.T) @ phi
        expected = christoffel_darboux_kernel(n, fs.grid.points)
        assert rel_err(wrong, expected) > kappa_b(fs) * EPS

    def test_through_the_files_of_kernel_and_canonical(self, tmp_path, capsys):
        n = 8
        fs = gauss_legendre_monomials(n)
        gate = kappa_b(fs) * EPS
        expected = christoffel_darboux_kernel(n, fs.grid.points)
        src = tmp_path / "monomials.json"
        src.write_text(json.dumps({
            "grid": {"points": fs.grid.points.tolist(), "weights": fs.grid.weights.tolist()},
            "vectors": fs.vectors.tolist(),
        }))
        kernel, tight = tmp_path / "kernel.json", tmp_path / "tight.json"
        assert cli.main(["kernel", str(src), "--rank-tol", "0", "--out", str(kernel)]) == 0
        assert cli.main(["canonical", str(src), "--rank-tol", "0", "--out", str(tight)]) == 0
        matrix = np.array(json.loads(kernel.read_text())["matrix"])
        assert rel_err(matrix, expected) <= gate
        written = json.loads(tight.read_text())
        psi = FrameSystem(grid=Grid(**written["grid"]), vectors=written["vectors"])
        assert rel_err(naive_kernel(psi).values, expected) <= gate


def weighted_system(seed):
    """A seeded weighted system of N in [3, 11] vectors on M in [12, 39]
    points, and the generator that drew it."""
    r = np.random.default_rng(seed)
    n, m = int(r.integers(3, 12)), int(r.integers(12, 40))
    grid = Grid(points=np.sort(r.uniform(-1.0, 1.0, m)), weights=r.uniform(0.25, 4.0, m))
    return FrameSystem(grid=grid, vectors=r.standard_normal((n, m))), r


def mixing(n, r):
    """A random n x n matrix with singular values from 1 down to 1e-3."""
    left, _ = np.linalg.qr(r.standard_normal((n, n)))
    right, _ = np.linalg.qr(r.standard_normal((n, n)))
    return (left * np.geomspace(1.0, 1e-3, n)) @ right


class TestMixingTheVectors:
    @pytest.mark.parametrize("seed", range(20))
    def test_kernel_and_rank_follow_the_span(self, seed):
        fs, r = weighted_system(seed)
        a = mixing(fs.n_vectors, r)
        moved = FrameSystem(grid=fs.grid, vectors=a @ fs.vectors)
        gate = condition(a) * kappa_b(fs) * EPS
        assert frame_spectrum(moved).rank == frame_spectrum(fs).rank == fs.n_vectors
        assert rel_err(rk_kernel(moved).values, rk_kernel(fs).values) <= gate
        tight = naive_kernel(canonical_tight(fs)).values
        assert rel_err(naive_kernel(canonical_tight(moved)).values, tight) <= gate
        # the naive kernel follows the listing of the vectors, not their span
        assert rel_err(naive_kernel(moved).values, naive_kernel(fs).values) > gate
