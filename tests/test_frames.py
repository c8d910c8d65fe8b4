import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit import (
    ComplexVector,
    DimensionMismatch,
    FrameSystem,
    Grid,
    InvalidIndex,
    InvalidMatrix,
    KernelMatrix,
    analysis,
    build_gramian,
    eval_l,
    frame_operator_apply,
    frame_spectrum,
    frames,
    mercedes_frame,
    monomial_frame,
    synthesis,
    weighted_inner,
    weighted_norm,
)
from oracles import random_riesz_frame, weighted_frames


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

    def test_construction_copies_the_callers_arrays(self):
        # the objects are read-only; the arrays they were built from stay writable
        points, weights, vectors = np.arange(3.0), np.ones(3), np.eye(3)
        factor, re, im = np.ones((3, 2)), np.zeros(3), np.ones(3)
        grid = Grid(points=points, weights=weights)
        fs = FrameSystem(grid=grid, vectors=vectors)
        kernel = KernelMatrix(grid=grid, factor=factor)
        phat = ComplexVector(re=re, im=im)
        for given_array in (points, weights, vectors, factor, re, im):
            assert given_array.flags.writeable
        vectors[0, 0] = 5.0
        assert fs.vectors[0, 0] == 1.0
        for held in (grid.points, grid.weights, fs.vectors, kernel.factor, phat.re, phat.im):
            assert not held.flags.writeable


class TestGramian:
    def test_standard_basis(self):
        g = build_gramian(standard_basis())
        assert np.array_equal(g, np.eye(2))

    def test_mercedes_hand_values(self):
        g = build_gramian(mercedes_frame())
        expected = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]
        )
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_monomial_matches_hilbert_entries(self):
        g = build_gramian(monomial_frame(3, 2048))
        idx = np.arange(3)
        hilbert = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
        assert np.max(np.abs(g - hilbert)) <= 1e-4

    def test_entrywise_definition(self):
        fs = weighted_system()
        g = build_gramian(fs)
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
        assert np.max(np.abs(assembled - g)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(assembled)))
        )

    def test_psd(self):
        for seed in range(5):
            fs = weighted_system(seed=seed, n=6, m=4)
            lam = np.linalg.eigvalsh(build_gramian(fs))
            assert np.all(lam >= -1e-10 * lam[-1])


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


class TestStacks:
    """Each operator takes one vector or a stack of them as rows."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(fs=weighted_frames(), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_a_stack_is_its_rows(self, fs, rows, seed):
        # weighted_norm sums each row as it sums one vector, so bit for bit;
        # the products are one matrix-matrix product for a stack and one
        # matrix-vector product per row, which BLAS may sum in other orders,
        # so they agree to the rounding of an L-term dot product:
        # |x - y| <= 2 gamma_L sum_i |a_i b_i| <= 4 L 2**-53 sum_i |a_i b_i|
        r = np.random.default_rng(seed)
        grid, phi = fs.grid, fs.vectors
        f = r.standard_normal((rows, fs.n_points))
        g = r.standard_normal((rows + 1, fs.n_points))
        c = r.standard_normal((rows, fs.n_vectors))
        norms = np.array([weighted_norm(grid, x) for x in f])
        assert weighted_norm(grid, f).tobytes() == norms.tobytes()
        wf = np.abs(grid.weights * f)
        m, n = fs.n_points, fs.n_vectors
        products = [
            (analysis(fs, f), [analysis(fs, x) for x in f], m, wf @ np.abs(phi).T),
            (synthesis(fs, c), [synthesis(fs, x) for x in c], n, np.abs(c) @ np.abs(phi)),
            (
                weighted_inner(grid, f, g),
                [[weighted_inner(grid, x, y) for y in g] for x in f],
                m,
                wf @ np.abs(g).T,
            ),
        ]
        for stacked, each, length, sums in products:
            each = np.array(each)
            assert stacked.shape == each.shape
            assert np.all(np.abs(stacked - each) <= 4 * length * 2.0**-53 * sums)

    def test_shapes(self):
        fs = weighted_system(n=4, m=3)
        assert analysis(fs, np.ones((2, 3))).shape == (2, 4)
        assert synthesis(fs, np.ones((2, 4))).shape == (2, 3)
        assert frame_operator_apply(fs, np.ones((2, 3))).shape == (2, 3)
        assert weighted_inner(fs.grid, np.ones((2, 3)), np.ones((5, 3))).shape == (2, 5)
        assert weighted_inner(fs.grid, np.ones(3), np.ones((5, 3))).shape == (5,)
        assert weighted_norm(fs.grid, np.ones((2, 3))).shape == (2,)
        on_grid = [
            lambda x: analysis(fs, x),
            lambda x: frame_operator_apply(fs, x),
            lambda x: weighted_inner(fs.grid, x, np.ones(3)),
            lambda x: weighted_inner(fs.grid, np.ones(3), x),
            lambda x: weighted_norm(fs.grid, x),
        ]
        for bad in (1.0, np.ones((1, 2, 3)), np.ones(4), np.ones((2, 4)), np.ones((3, 0))):
            for call in on_grid:
                with pytest.raises(DimensionMismatch):
                    call(bad)
        for bad in (1.0, np.ones((1, 2, 4)), np.ones(3), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch):
                synthesis(fs, bad)


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
    """G c, the coefficient-space frame operator, as ``build_gramian(fs) @ c``."""

    def test_identity(self):
        g = build_gramian(standard_basis())
        c = np.array([4.0, -2.0])
        np.testing.assert_allclose(g @ c, c)

    def test_mercedes_kernel_vector(self):
        g = build_gramian(mercedes_frame())
        np.testing.assert_allclose(g @ np.ones(3), np.zeros(3), atol=1e-15)

    def test_delta_gives_column(self):
        fs = weighted_system(seed=9)
        g = build_gramian(fs)
        delta = np.zeros(fs.n_vectors)
        delta[1] = 1.0
        np.testing.assert_allclose(g @ delta, g[:, 1])

    def test_matches_analysis_of_synthesis(self):
        r = np.random.default_rng(23)
        for seed in range(10):
            fs = weighted_system(seed=seed, n=6, m=5)
            g = build_gramian(fs)
            c = r.standard_normal(6)
            np.testing.assert_allclose(
                g @ c, analysis(fs, synthesis(fs, c)), atol=1e-10
            )


class TestFrameBounds:
    def test_standard_basis_parseval(self):
        b = frame_spectrum(standard_basis())
        assert b.lower == b.upper == 1.0
        assert b.is_frame and b.is_parseval and b.rank == standard_basis().n_points
        assert b.rank == 2

    def test_mercedes(self):
        b = frame_spectrum(mercedes_frame())
        assert abs(b.lower - 1.5) <= 1e-12
        assert abs(b.upper - 1.5) <= 1e-12
        assert b.is_frame and not b.is_parseval
        assert b.rank == 2

    def test_monomial_degenerate(self):
        b = frame_spectrum(monomial_frame(12, 512))
        assert not b.is_frame
        assert b.lower == 0.0
        assert b.upper < math.pi

    def test_all_zero_system(self):
        grid = Grid(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))
        fs = FrameSystem(grid=grid, vectors=np.zeros((3, 2)))
        b = frame_spectrum(fs)
        assert b.upper == 0.0 and b.lower == 0.0
        assert b.rank == 0 and not b.is_frame

    def test_quadratic_scaling(self):
        for seed in range(5):
            fs = random_riesz_frame(4, seed)
            base = frame_spectrum(fs)
            alpha = 3.0
            scaled = frame_spectrum(
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
            bounds = frame_spectrum(fs)
            for _ in range(200):
                f = r.standard_normal(fs.n_points)
                total = float(np.sum(analysis(fs, f) ** 2))
                norm2 = weighted_norm(fs.grid, f) ** 2
                eps = 1e-8 * bounds.upper * norm2
                assert bounds.lower * norm2 - eps <= total <= bounds.upper * norm2 + eps


class TestCentred:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 1000),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        a=st.integers(-900, 900),
        b=st.integers(-250, 250),
    )
    def test_powers_of_two_give_the_same_centred_frame(self, seed, shape, a, b):
        # 2**a Phi on 4**b W centres to the frame of (Phi, W) bit for bit,
        # with its exponents offset by (a, b); a centred frame is its own
        fs = weighted_system(seed, *shape)
        moved = FrameSystem(
            grid=Grid(points=fs.grid.points, weights=np.ldexp(fs.grid.weights, 2 * b)),
            vectors=np.ldexp(fs.vectors, a),
        )
        unit, e_phi, e_w = frames.centred(fs)
        unit_moved, e_phi_moved, e_w_moved = frames.centred(moved)
        assert (e_phi_moved, e_w_moved) == (e_phi + a, e_w + b)
        assert unit_moved.vectors.tobytes() == unit.vectors.tobytes()
        assert unit_moved.grid.weights.tobytes() == unit.grid.weights.tobytes()
        again, *exponents = frames.centred(unit)
        assert again is unit and exponents == [0, 0]

    @pytest.mark.parametrize("k", [-3, 5])
    def test_weights_of_one_power_of_four_become_one(self, k):
        fs = FrameSystem(
            grid=Grid(points=np.arange(3.0), weights=np.full(3, 4.0**k)),
            vectors=[[0.5, -0.75, 0.0]],
        )
        unit, e_phi, e_w = frames.centred(fs)
        assert (e_phi, e_w) == (0, k)
        assert unit.grid.weights.tolist() == [1.0] * 3
        assert unit.vectors.tobytes() == fs.vectors.tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tiny=st.floats(5e-324, 2.0**-1022, exclude_max=True),
        huge=st.floats(1.0, 1.7e308),
        middle=st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    @example(tiny=5e-324, huge=1.7e308, middle=[])
    @example(tiny=1e-320, huge=1e300, middle=[])
    def test_subnormal_weights_stay_finite_and_positive(self, tiny, huge, middle):
        # centring on the range of sqrt(W) alone would lift 1.7e308 by 4**13;
        # the bound on e_w keeps every weight a finite, positive double
        weights = np.array([tiny, huge] + [tiny + t * (huge - tiny) for t in middle])
        fs = FrameSystem(
            grid=Grid(points=np.arange(weights.size, dtype=float), weights=weights),
            vectors=np.ones((2, weights.size)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = frames.centred(fs)[0]
        w = unit.grid.weights
        assert np.isfinite(w).all() and (w > 0).all()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        weights=st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=1, max_size=5),
        seed=st.integers(0, 1000),
        n=st.integers(1, 3),
        e=st.integers(-1074, 1023),
    )
    @example(weights=[5e-324, 1.0, 1.7e308], seed=0, n=2, e=0)
    @example(weights=[5e-324, 1.0, 1e-300], seed=1, n=3, e=-1074)
    @example(weights=[1e-320, 1.0, 1e300], seed=2, n=1, e=1023)
    def test_centred_frame_passes_full_validation(self, weights, seed, n, e):
        # centred wraps its scaled arrays without validating them again, so
        # they must pass Grid's and FrameSystem's checks as they stand
        vectors = np.ldexp(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, len(weights))), e)
        fs = FrameSystem(
            grid=Grid(points=np.arange(len(weights), dtype=float), weights=weights),
            vectors=vectors,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = frames.centred(fs)[0]
        checked = FrameSystem(
            grid=Grid(points=unit.grid.points, weights=unit.grid.weights), vectors=unit.vectors
        )
        for a, b in [(checked.vectors, unit.vectors), (checked.grid.weights, unit.grid.weights),
                     (checked.grid.points, unit.grid.points)]:
            assert a.tobytes() == b.tobytes() and not b.flags.writeable

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        weights=st.lists(
            st.floats(2.0**-1024, 1.7976931348623157e308), min_size=1, max_size=5
        )
    )
    @example(weights=[2.0**-1024, 1.7976931348623157e308])
    def test_exponents_of_normal_range_weights_are_the_centre(self, weights):
        # at or above 2**-1024 the bound never binds, so e_w is the centre
        # of sqrt(W)'s binary exponents and every such frame keeps its bits
        fs = FrameSystem(
            grid=Grid(points=np.arange(len(weights), dtype=float), weights=weights),
            vectors=np.ones((1, len(weights))),
        )
        e_max, e_min = (math.frexp(math.sqrt(x))[1] for x in (max(weights), min(weights)))
        assert frames._exponents(fs)[1] == (e_max + e_min - 1) // 2


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
