"""The paper's kernel against a closed form, and under the invariances it implies.

On the 2N-point Gauss-Legendre grid of (0, 1) the Gramian of the monomials
t**j, j < N, is the Hilbert matrix H_N, and the kernel
K(s, t) = l(s)^T G^+ l(t) is the Christoffel-Darboux sum of the Legendre
polynomials.  The kernel depends only on the span of the vectors and on the
measure the grid carries, so
- Phi -> A Phi for an invertible A, and appending combinations of the
  vectors, leave it and the rank as they were;
- splitting a grid point into two of half its weight, with the same values,
  duplicates that point's row and column, and leaves the bounds and the rank;
- permuting the grid points permutes it, and the tight frame's columns.
Each relation is gated by kappa 2**-52, the rounding that the condition
number kappa(B) of B = Phi W^{1/2}, times kappa(A) for A Phi, amplifies,
with a constant factor where the kernels of two Jacobi runs are compared;
and each refuses a wrong kernel: the Gramian in place of its
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


#: c of the gates c kappa 2**-52 of the invariances below, each comparing the
#: kernels of two Jacobi runs: over 200 seeded systems the largest error read
#: 12.3 kappa 2**-52, with appended combinations
SLACK = 32


def split_point(fs, i):
    """``fs`` with grid point i split into two points of half its weight and
    the same values, the second placed before the next point; and the index
    map of the new points into the old."""
    points, m = fs.grid.points, fs.n_points
    added = (points[i] + points[i + 1]) / 2.0 if i + 1 < m else points[i] + 1.0
    old = np.r_[0 : i + 1, i, i + 1 : m]
    weights = fs.grid.weights.copy()
    weights[i] /= 2.0
    grid = Grid(points=np.r_[points[: i + 1], added, points[i + 1 :]], weights=weights[old])
    return FrameSystem(grid=grid, vectors=fs.vectors[:, old]), old


class TestTheSpanAndTheMeasure:
    """The kernel of the frame, from ``rk_kernel`` and as the naive kernel of
    the canonical tight frame, against the kernel of the frame it came from.
    A kernel that counts the listed vectors, or ignores the weights, fails:
    the naive kernel in place of K."""

    @pytest.mark.parametrize("seed", range(20))
    def test_appending_combinations_keeps_kernel_and_rank(self, seed):
        fs, r = weighted_system(seed)
        n = fs.n_vectors
        listing = np.vstack([np.eye(n), r.standard_normal((int(r.integers(1, n + 1)), n))])
        appended = FrameSystem(grid=fs.grid, vectors=listing @ fs.vectors)
        gate = SLACK * condition(listing) * kappa_b(fs) * EPS
        expected = rk_kernel(fs).values
        assert frame_spectrum(appended).rank == frame_spectrum(fs).rank == n
        assert rel_err(rk_kernel(appended).values, expected) <= gate
        assert rel_err(naive_kernel(canonical_tight(appended)).values, expected) <= gate
        assert rel_err(naive_kernel(appended).values, expected) > gate

    @pytest.mark.parametrize("seed", range(20))
    def test_splitting_a_point_duplicates_its_row_and_column(self, seed):
        fs, r = weighted_system(seed)
        split, old = split_point(fs, int(r.integers(fs.n_points)))
        gate = SLACK * kappa_b(fs) * EPS
        expected = rk_kernel(fs).values[np.ix_(old, old)]
        assert rel_err(rk_kernel(split).values, expected) <= gate
        tight = canonical_tight(split)
        assert rel_err(naive_kernel(tight).values, expected) <= gate
        assert rel_err(tight.vectors, canonical_tight(fs).vectors[:, old]) <= gate
        spec, base = frame_spectrum(split), frame_spectrum(fs)
        assert spec.rank == base.rank == fs.n_vectors
        for got, want in ((spec.upper, base.upper), (spec.retained[-1], base.retained[-1])):
            assert abs(got - want) <= gate * want
        assert rel_err(naive_kernel(split).values, expected) > gate

    @pytest.mark.parametrize("seed", range(20))
    def test_permuting_the_points_permutes_kernel_and_tight_frame(self, seed):
        fs, r = weighted_system(seed)
        p = r.permutation(fs.n_points)
        grid = Grid(points=fs.grid.points[p], weights=fs.grid.weights[p])
        permuted = FrameSystem(grid=grid, vectors=fs.vectors[:, p])
        gate = SLACK * kappa_b(fs) * EPS
        expected = rk_kernel(fs).values[np.ix_(p, p)]
        assert rel_err(rk_kernel(permuted).values, expected) <= gate
        tight = canonical_tight(permuted)
        assert rel_err(naive_kernel(tight).values, expected) <= gate
        assert rel_err(tight.vectors, canonical_tight(fs).vectors[:, p]) <= gate
        assert rel_err(naive_kernel(permuted).values, expected) > gate
