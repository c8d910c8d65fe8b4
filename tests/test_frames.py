import math

import numpy as np
import pytest

from framekit import (
    DimensionMismatch,
    FrameSystem,
    Grid,
    InvalidIndex,
    InvalidMatrix,
    analysis,
    build_gramian,
    compute_frame_bounds,
    eval_l,
    frame_operator_apply,
    mercedes_frame,
    monomial_frame,
    random_riesz_frame,
    synthesis,
    weighted_inner,
    weighted_norm,
)


def standard_basis():
    return FrameSystem(
        grid=Grid(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0])),
        vectors=np.eye(2),
    )


def weighted_system(seed=3, n=4, m=3):
    r = np.random.default_rng(seed)
    grid = Grid(points=np.arange(m, dtype=float), weights=r.uniform(0.5, 2.0, m))
    return FrameSystem(grid=grid, vectors=r.standard_normal((n, m)))


class TestGrid:
    def test_validation(self):
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([]), weights=np.array([]))
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([1.0, 1.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([1.0, 2.0]), weights=np.array([1.0, 0.0]))
        with pytest.raises(InvalidMatrix):
            Grid(points=np.array([1.0, 2.0]), weights=np.array([1.0, -1.0]))
        with pytest.raises(DimensionMismatch):
            Grid(points=np.array([1.0, 2.0]), weights=np.array([1.0]))

    def test_frame_system_validation(self):
        grid = Grid(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            FrameSystem(grid=grid, vectors=np.eye(3))
        with pytest.raises(InvalidMatrix):
            FrameSystem(grid=grid, vectors=np.array([[1.0, np.nan]]))


class TestGramian:
    def test_standard_basis(self):
        g = build_gramian(standard_basis())
        assert np.array_equal(g.entries, np.eye(2))

    def test_mercedes_hand_values(self):
        g = build_gramian(mercedes_frame()).entries
        expected = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]
        )
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_monomial_matches_hilbert_entries(self):
        g = build_gramian(monomial_frame(3, 2048)).entries
        idx = np.arange(3)
        hilbert = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        assert np.max(np.abs(g - hilbert)) <= 1e-4

    def test_entrywise_definition(self):
        fs = weighted_system()
        g = build_gramian(fs).entries
        direct = np.zeros_like(g)
        for a in range(fs.n_vectors):
            for b in range(fs.n_vectors):
                direct[a, b] = float(
                    np.sum(fs.grid.weights * fs.vectors[a] * fs.vectors[b])
                )
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(g - direct)) <= 1e-12 * scale

    def test_coefficient_operator_assembly(self):
        # entry (i, j) of the coefficient-space operator via basis vectors
        fs = weighted_system(seed=11)
        g = build_gramian(fs)
        n = fs.n_vectors
        assembled = np.zeros((n, n))
        for j in range(n):
            delta = np.zeros(n)
            delta[j] = 1.0
            assembled[:, j] = analysis(fs, synthesis(fs, delta))
        assert np.max(np.abs(assembled - g.entries)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(assembled)))
        )

    def test_psd(self):
        from framekit import sym_eig

        for seed in range(5):
            fs = weighted_system(seed=seed, n=6, m=4)
            eig = sym_eig(build_gramian(fs))
            lam_max = float(eig.eigenvalues[0])
            assert np.all(eig.eigenvalues >= -1e-10 * lam_max)


class TestAnalysisSynthesis:
    def test_standard_basis_roundtrip(self):
        fs = standard_basis()
        f = np.array([3.0, -1.0])
        np.testing.assert_allclose(analysis(fs, f), f)
        np.testing.assert_allclose(synthesis(fs, f), f)

    def test_mercedes_analysis(self):
        fs = mercedes_frame()
        np.testing.assert_allclose(
            analysis(fs, [1.0, 0.0]), [1.0, -0.5, -0.5], atol=1e-15
        )

    def test_zero_function(self):
        fs = mercedes_frame()
        assert np.array_equal(analysis(fs, np.zeros(2)), np.zeros(3))

    def test_mercedes_synthesis_kernel_vector(self):
        fs = mercedes_frame()
        np.testing.assert_allclose(
            synthesis(fs, [1.0, 1.0, 1.0]), [0.0, 0.0], atol=1e-15
        )

    def test_synthesis_delta_gives_row(self):
        fs = weighted_system(seed=5)
        for k in range(fs.n_vectors):
            delta = np.zeros(fs.n_vectors)
            delta[k] = 1.0
            np.testing.assert_allclose(synthesis(fs, delta), fs.vectors[k])

    def test_length_mismatch(self):
        fs = mercedes_frame()
        with pytest.raises(DimensionMismatch):
            analysis(fs, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            synthesis(fs, np.zeros(2))

    def test_adjoint_identity(self):
        r = np.random.default_rng(17)
        for seed in range(20):
            fs = weighted_system(seed=seed, n=5, m=4)
            f = r.standard_normal(4)
            c = r.standard_normal(5)
            left = float(np.dot(analysis(fs, f), c))
            right = weighted_inner(fs.grid, f, synthesis(fs, c))
            assert abs(left - right) <= 1e-10 * max(1.0, abs(right))


class TestFrameOperator:
    def test_standard_basis_identity(self):
        fs = standard_basis()
        f = np.array([2.5, -0.5])
        np.testing.assert_allclose(frame_operator_apply(fs, f), f)

    def test_mercedes_tight(self):
        fs = mercedes_frame()
        r = np.random.default_rng(2)
        outer = sum(np.outer(v, v) for v in fs.vectors)
        for _ in range(5):
            f = r.standard_normal(2)
            np.testing.assert_allclose(
                frame_operator_apply(fs, f), 1.5 * f, atol=1e-14
            )
            np.testing.assert_allclose(frame_operator_apply(fs, f), outer @ f)

    def test_zero(self):
        fs = mercedes_frame()
        assert np.array_equal(frame_operator_apply(fs, np.zeros(2)), np.zeros(2))


class TestGramApply:
    """G c, the coefficient-space frame operator, as ``build_gramian(fs).entries @ c``."""

    def test_identity(self):
        g = build_gramian(standard_basis()).entries
        c = np.array([4.0, -2.0])
        np.testing.assert_allclose(g @ c, c)

    def test_mercedes_kernel_vector(self):
        g = build_gramian(mercedes_frame()).entries
        np.testing.assert_allclose(g @ np.ones(3), np.zeros(3), atol=1e-15)

    def test_delta_gives_column(self):
        fs = weighted_system(seed=9)
        g = build_gramian(fs).entries
        delta = np.zeros(fs.n_vectors)
        delta[1] = 1.0
        np.testing.assert_allclose(g @ delta, g[:, 1])

    def test_matches_analysis_of_synthesis(self):
        r = np.random.default_rng(23)
        for seed in range(10):
            fs = weighted_system(seed=seed, n=6, m=5)
            g = build_gramian(fs).entries
            c = r.standard_normal(6)
            np.testing.assert_allclose(
                g @ c, analysis(fs, synthesis(fs, c)), atol=1e-10
            )


class TestFrameBounds:
    def test_standard_basis_parseval(self):
        b = compute_frame_bounds(standard_basis())
        assert b.lower == b.upper == 1.0
        assert b.is_frame and b.is_parseval and b.spans_ambient
        assert b.rank == 2

    def test_mercedes(self):
        b = compute_frame_bounds(mercedes_frame())
        assert abs(b.lower - 1.5) <= 1e-12
        assert abs(b.upper - 1.5) <= 1e-12
        assert b.is_frame and not b.is_parseval
        assert b.rank == 2

    def test_monomial_degenerate(self):
        b = compute_frame_bounds(monomial_frame(12, 512))
        assert not b.is_frame
        assert b.lower == 0.0
        assert b.upper < math.pi

    def test_all_zero_system(self):
        grid = Grid(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))
        fs = FrameSystem(grid=grid, vectors=np.zeros((3, 2)))
        b = compute_frame_bounds(fs)
        assert b.upper == 0.0 and b.lower == 0.0
        assert b.rank == 0 and not b.is_frame

    def test_quadratic_scaling(self):
        for seed in range(5):
            fs = random_riesz_frame(4, seed)
            base = compute_frame_bounds(fs)
            alpha = 3.0
            scaled = compute_frame_bounds(
                FrameSystem(grid=fs.grid, vectors=alpha * fs.vectors)
            )
            assert abs(scaled.lower - alpha**2 * base.lower) <= 1e-10 * max(
                1.0, scaled.lower
            )
            assert abs(scaled.upper - alpha**2 * base.upper) <= 1e-10 * max(
                1.0, scaled.upper
            )

    def test_sampling_quadratic_form(self):
        r = np.random.default_rng(31)
        systems = [standard_basis(), mercedes_frame(), random_riesz_frame(6, 1)]
        for fs in systems:
            bounds = compute_frame_bounds(fs)
            for _ in range(200):
                f = r.standard_normal(fs.n_points)
                total = float(np.sum(analysis(fs, f) ** 2))
                norm2 = weighted_norm(fs.grid, f) ** 2
                eps = 1e-8 * bounds.upper * norm2
                assert bounds.lower * norm2 - eps <= total <= bounds.upper * norm2 + eps


class TestEvalL:
    def test_standard_basis(self):
        np.testing.assert_allclose(eval_l(standard_basis(), 0), [1.0, 0.0])

    def test_mercedes_column(self):
        np.testing.assert_allclose(
            eval_l(mercedes_frame(), 0), [1.0, -0.5, -0.5], atol=1e-15
        )

    def test_monomial_column_is_power_sequence(self):
        fs = monomial_frame(4, 8)
        x = fs.grid.points[3]
        np.testing.assert_allclose(eval_l(fs, 3), [1.0, x, x**2, x**3])

    def test_out_of_range(self):
        with pytest.raises(InvalidIndex):
            eval_l(mercedes_frame(), 2)
        with pytest.raises(InvalidIndex):
            eval_l(mercedes_frame(), -1)
