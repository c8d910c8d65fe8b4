import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framekit
from framekit import (
    DimensionMismatch,
    FrameSystem,
    Grid,
    KernelMatrix,
    ZeroSpan,
    analysis,
    build_gramian,
    canonical_tight,
    frame_spectrum,
    identity_suite,
    isometry_check,
    lax_milgram,
    mercedes_frame,
    naive_kernel,
    polar_unitary,
    rk_kernel,
    rng,
    synthesis,
    verify_lax_identity,
    verify_reproducing,
    weighted_inner,
    weighted_norm,
)
from oracles import (
    eigh_descending,
    gram_schmidt_kernel,
    random_riesz_frame,
    weighted_frames,
    weighted_gram_schmidt,
)


def standard_basis():
    return FrameSystem(
        grid=Grid(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0])),
        vectors=np.eye(2),
    )


def single_vector_system():
    grid = Grid(points=np.arange(3.0), weights=np.ones(3))
    return FrameSystem(grid=grid, vectors=np.array([[1.0, 1.0, 0.0]]))


def zero_system():
    grid = Grid(points=np.arange(2.0), weights=np.ones(2))
    return FrameSystem(grid=grid, vectors=np.zeros((2, 2)))


def random_frame(seed, n, m, weighted=False):
    r = np.random.default_rng(seed)
    weights = r.uniform(0.5, 2.0, m) if weighted else np.ones(m)
    grid = Grid(points=np.arange(m, dtype=float), weights=weights)
    return FrameSystem(grid=grid, vectors=r.standard_normal((n, m)))


def redundant_spanning_frame(seed, m, extra=5):
    """(m+extra) x m Gaussian system; spans whp, redrawn if badly conditioned."""
    for attempt in range(50):
        fs = random_frame(1000 * seed + attempt, m + extra, m)
        bounds = frame_spectrum(fs)
        if bounds.is_frame and bounds.upper <= 2500.0 * max(bounds.lower, 1e-300):
            return fs
    raise AssertionError("no well-conditioned redundant frame drawn")


class TestNaiveKernel:
    def test_standard_basis(self):
        k = naive_kernel(standard_basis())
        assert np.array_equal(k.values, np.eye(2))

    def test_mercedes(self):
        k = naive_kernel(mercedes_frame())
        np.testing.assert_allclose(k.values, 1.5 * np.eye(2), atol=1e-15)

    def test_single_vector_outer_product(self):
        k = naive_kernel(single_vector_system())
        expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(k.values, expected)


class TestRkKernel:
    def test_spanning_unit_weights_gives_identity(self):
        for fs in (standard_basis(), mercedes_frame(), random_riesz_frame(5, 2)):
            k = rk_kernel(fs)
            m = fs.n_points
            assert np.max(np.abs(k.values - np.eye(m))) <= 1e-9

    def test_single_vector_hand_values(self):
        k = rk_kernel(single_vector_system())
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(k.values, expected, atol=1e-12)

    def test_weighted_spanning_gives_inverse_weights(self):
        fs = random_frame(8, 6, 4, weighted=True)
        k = rk_kernel(fs)
        expected = np.diag(1.0 / fs.grid.weights)
        assert np.max(np.abs(k.values - expected)) <= 1e-9 * np.max(expected)

    def test_matches_gram_schmidt_oracle(self):
        for seed in range(20):
            fs = random_frame(seed, 3 + seed % 5, 3 + (seed * 7) % 4, weighted=seed % 2)
            oracle = gram_schmidt_kernel(fs.vectors, fs.grid.weights)
            k = rk_kernel(fs)
            assert np.max(np.abs(k.values - oracle)) <= 1e-7

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            rk_kernel(zero_system())

    def test_psd_and_double_sums(self):
        r = np.random.default_rng(99)
        for seed in range(100):
            n = int(r.integers(1, 61))
            m = int(r.integers(1, 31))
            fs = random_frame(10_000 + seed, n, m, weighted=seed % 3 == 0)
            try:
                k = rk_kernel(fs)
            except ZeroSpan:
                continue
            lam, _ = eigh_descending(k.values)
            lam_max = max(float(lam[0]), 0.0)
            assert np.all(lam >= -1e-9 * max(lam_max, 1.0))
            for _ in range(5):
                c = r.standard_normal(m)
                assert float(c @ k.values @ c) >= -1e-9 * max(lam_max, 1.0) * float(
                    c @ c
                )

    def test_scale_invariance(self):
        fs = random_frame(3, 5, 4, weighted=True)
        base = rk_kernel(fs).values
        for alpha in (0.1, 1.0, 10.0):
            scaled = FrameSystem(grid=fs.grid, vectors=alpha * fs.vectors)
            assert np.max(np.abs(rk_kernel(scaled).values - base)) <= 1e-8 * max(
                1.0, float(np.max(np.abs(base)))
            )

    def test_parseval_naive_equals_rk(self):
        # orthonormalized spanning rows form a Parseval frame
        for seed in range(5):
            raw = random_frame(seed + 50, 6, 4)
            basis = weighted_gram_schmidt(raw.vectors, raw.grid.weights)
            assert basis.shape[0] == 4
            fs = FrameSystem(grid=raw.grid, vectors=basis)
            assert frame_spectrum(fs).is_parseval
            diff = np.abs(naive_kernel(fs).values - rk_kernel(fs).values)
            assert np.max(diff) <= 1e-8


class TestCanonicalTight:
    def test_standard_basis_unchanged(self):
        ct = canonical_tight(standard_basis())
        assert np.max(np.abs(ct.vectors - np.eye(2))) <= 1e-12

    def test_mercedes_scaling(self):
        fs = mercedes_frame()
        ct = canonical_tight(fs)
        np.testing.assert_allclose(
            ct.vectors, math.sqrt(2.0 / 3.0) * fs.vectors, atol=1e-12
        )

    def test_scaled_basis_normalizes(self):
        fs = standard_basis()
        scaled = FrameSystem(grid=fs.grid, vectors=5.0 * fs.vectors)
        ct = canonical_tight(scaled)
        assert np.max(np.abs(ct.vectors - np.eye(2))) <= 1e-12

    def test_gramian_is_projector(self):
        for seed in range(10):
            fs = random_frame(seed, 6, 4, weighted=seed % 2)
            ct = canonical_tight(fs)
            lam = np.linalg.eigvalsh(build_gramian(ct))
            dist = np.minimum(np.abs(lam), np.abs(lam - 1.0))
            assert np.max(dist) <= 1e-8

    def test_parseval_on_span(self):
        # bounds of the tight system, restricted to the span, are 1
        for seed in range(5):
            fs = redundant_spanning_frame(seed, 4)
            ct = canonical_tight(fs)
            bounds = frame_spectrum(ct)
            assert abs(bounds.lower - 1.0) <= 1e-8
            assert abs(bounds.upper - 1.0) <= 1e-8

    def test_reconstruction_on_span(self):
        r = np.random.default_rng(4)
        for seed in range(10):
            fs = random_frame(seed + 300, 5, 4, weighted=seed % 2)
            tight_fs = canonical_tight(fs)
            f = synthesis(fs, r.standard_normal(5))
            rebuilt = synthesis(tight_fs, analysis(tight_fs, f))
            scale = max(1.0, weighted_norm(fs.grid, f))
            assert np.max(np.abs(rebuilt - f)) <= 1e-8 * scale

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            canonical_tight(zero_system())


class TestKernelFromTight:
    def test_standard_basis(self):
        k = naive_kernel(canonical_tight(standard_basis()))
        assert np.max(np.abs(k.values - np.eye(2))) <= 1e-12

    def test_mercedes_identity(self):
        k = naive_kernel(canonical_tight(mercedes_frame()))
        np.testing.assert_allclose(k.values, np.eye(2), atol=1e-12)

    def test_single_vector(self):
        fs = single_vector_system()
        k = naive_kernel(canonical_tight(fs))
        np.testing.assert_allclose(k.values, rk_kernel(fs).values, atol=1e-12)

    def test_matches_rk_kernel(self):
        for seed in range(20):
            fs = random_frame(seed, 4 + seed % 6, 3 + seed % 4, weighted=seed % 2)
            diff = np.abs(
                naive_kernel(canonical_tight(fs)).values - rk_kernel(fs).values
            )
            assert np.max(diff) <= 1e-8


class TestVerifyReproducing:
    def test_standard_basis(self):
        fs = standard_basis()
        k = rk_kernel(fs)
        assert verify_reproducing(fs, k, np.array([2.0, -7.0])) <= 1e-12

    def test_single_vector_multiple(self):
        fs = single_vector_system()
        k = rk_kernel(fs)
        assert verify_reproducing(fs, k, 3.0 * fs.vectors[0]) <= 1e-10

    def test_out_of_span_component(self):
        fs = single_vector_system()
        k = rk_kernel(fs)
        # decompose f against the span by hand
        f = np.array([1.0, 2.0, 3.0])
        direction = fs.vectors[0] / weighted_norm(fs.grid, fs.vectors[0])
        inside = weighted_inner(fs.grid, direction, f) * direction
        outside = f - inside
        residual = verify_reproducing(fs, k, f)
        assert abs(residual - np.max(np.abs(outside))) <= 1e-10

    def test_synthesized_functions(self):
        r = np.random.default_rng(8)
        for seed in range(20):
            fs = random_frame(seed, 5, 4, weighted=seed % 2)
            k = rk_kernel(fs)
            f = synthesis(fs, r.standard_normal(5))
            scale = max(1.0, weighted_norm(fs.grid, f))
            assert verify_reproducing(fs, k, f) <= 1e-8 * scale

    def test_mismatch(self):
        fs = standard_basis()
        k = rk_kernel(fs)
        with pytest.raises(DimensionMismatch):
            verify_reproducing(fs, k, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            verify_reproducing(fs, k, np.zeros((4, 3)))

    def test_stack_is_max_over_rows(self):
        # frame vectors plus functions with components outside the span
        fs = random_frame(31, 4, 7, weighted=True)
        k = rk_kernel(fs)
        off_span = np.random.default_rng(3).standard_normal((5, 7))
        probes = np.vstack([fs.vectors, off_span])
        rows = max(verify_reproducing(fs, k, f) for f in probes)
        assert verify_reproducing(fs, k, probes) == pytest.approx(rows, rel=1e-12)


class TestLaxMilgram:
    def test_standard_basis(self):
        op = lax_milgram(standard_basis())
        assert np.max(np.abs(op.values - np.eye(2))) <= 1e-12

    def test_mercedes(self):
        op = lax_milgram(mercedes_frame())
        np.testing.assert_allclose(op.values, (2.0 / 3.0) * np.eye(2), atol=1e-12)

    def test_scaled_basis(self):
        fs = standard_basis()
        alpha = 4.0
        scaled = FrameSystem(grid=fs.grid, vectors=alpha * fs.vectors)
        op = lax_milgram(scaled)
        np.testing.assert_allclose(op.values, np.eye(2) / alpha**2, atol=1e-12)

    def test_inverts_frame_operator_on_span(self):
        r = np.random.default_rng(13)
        for seed in range(10):
            fs = random_frame(seed + 40, 6, 4, weighted=seed % 2)
            op = lax_milgram(fs)
            f = synthesis(fs, r.standard_normal(6))
            from framekit import frame_operator_apply

            roundtrip = op.apply(frame_operator_apply(fs, f))
            scale = max(1.0, float(np.max(np.abs(f))))
            assert np.max(np.abs(roundtrip - f)) <= 1e-8 * scale
            # and in the other order
            roundtrip2 = frame_operator_apply(fs, op.apply(f))
            assert np.max(np.abs(roundtrip2 - f)) <= 1e-8 * scale

    def test_identity_residuals(self):
        fs = standard_basis()
        op = lax_milgram(fs)
        f = np.array([1.0, 0.0])
        assert verify_lax_identity(fs, op, f, f) <= 1e-12

    def test_mercedes_random_pairs(self):
        fs = mercedes_frame()
        op = lax_milgram(fs)
        r = np.random.default_rng(5)
        for _ in range(20):
            f = r.standard_normal(2)
            g = r.standard_normal(2)
            assert verify_lax_identity(fs, op, f, g) <= 1e-9

    def test_orthogonal_pair_both_sides_vanish(self):
        fs = standard_basis()
        op = lax_milgram(fs)
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        lhs = float(np.dot(analysis(fs, f), analysis(fs, op.apply(g))))
        assert abs(lhs) <= 1e-12
        assert verify_lax_identity(fs, op, f, g) <= 1e-12

    def test_random_span_pairs(self):
        r = np.random.default_rng(21)
        for seed in range(20):
            fs = random_frame(seed + 70, 5, 4, weighted=seed % 2)
            op = lax_milgram(fs)
            f = synthesis(fs, r.standard_normal(5))
            g = synthesis(fs, r.standard_normal(5))
            bound = 1e-8 * max(
                1.0, weighted_norm(fs.grid, f) * weighted_norm(fs.grid, g)
            )
            assert verify_lax_identity(fs, op, f, g) <= bound

    def test_stack_is_max_over_pairs(self):
        # functions off the span leave O(1) residuals in every pair
        fs = random_frame(32, 4, 7, weighted=True)
        op = lax_milgram(fs)
        r = np.random.default_rng(4)
        f, g = r.standard_normal((3, 7)), r.standard_normal((5, 7))
        pairs = max(verify_lax_identity(fs, op, a, b) for a in f for b in g)
        assert verify_lax_identity(fs, op, f, g) == pytest.approx(pairs, rel=1e-12)
        with pytest.raises(DimensionMismatch):
            verify_lax_identity(fs, op, f, np.zeros((5, 6)))

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            lax_milgram(zero_system())


class TestIsometry:
    def test_standard_basis(self):
        lhs, rhs = isometry_check(standard_basis(), np.array([3.0, 4.0]))
        assert abs(lhs - 25.0) <= 1e-12
        assert abs(rhs - 25.0) <= 1e-12

    def test_mercedes_kernel_vector(self):
        lhs, rhs = isometry_check(mercedes_frame(), np.ones(3))
        assert abs(lhs) <= 1e-15 and abs(rhs) <= 1e-15

    def test_delta_gives_norm(self):
        fs = random_frame(2, 4, 3, weighted=True)
        for k in range(4):
            delta = np.zeros(4)
            delta[k] = 1.0
            lhs, rhs = isometry_check(fs, delta)
            norm2 = weighted_norm(fs.grid, fs.vectors[k]) ** 2
            assert abs(lhs - norm2) <= 1e-12 * max(1.0, norm2)
            assert abs(rhs - norm2) <= 1e-12 * max(1.0, norm2)

    def test_random_property(self):
        r = np.random.default_rng(77)
        for seed in range(50):
            fs = random_frame(seed, 6, 4, weighted=seed % 2)
            c = r.standard_normal(6)
            lhs, rhs = isometry_check(fs, c)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    def test_stack_gives_one_pair_per_row(self):
        fs = random_frame(33, 6, 4, weighted=True)
        c = np.random.default_rng(5).standard_normal((3, 6))
        lhs, rhs = isometry_check(fs, c)
        rows = np.array([isometry_check(fs, row) for row in c])
        np.testing.assert_allclose(lhs, rows[:, 0], rtol=1e-12)
        np.testing.assert_allclose(rhs, rows[:, 1], rtol=1e-12)
        with pytest.raises(DimensionMismatch):
            isometry_check(fs, np.zeros((3, 5)))


class TestPolarUnitary:
    def test_standard_basis_up_to_sign(self):
        u = polar_unitary(standard_basis())
        assert np.max(np.abs(np.abs(u) - np.eye(2))) <= 1e-12

    def test_mercedes(self):
        fs = mercedes_frame()
        u = polar_unitary(fs)
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            np.abs(u), math.sqrt(2.0 / 3.0) * np.abs(fs.vectors), atol=1e-12
        )

    def test_composition_reproduces_analysis(self):
        # U S^{1/2} f == T f for f in the span
        r = np.random.default_rng(6)
        for seed in range(10):
            fs = random_frame(seed + 90, 5, 4, weighted=seed % 2)
            u = polar_unitary(fs)
            root_w = np.sqrt(fs.grid.weights)
            b = fs.vectors * root_w
            values, vectors = eigh_descending(b.T @ b)
            lam = np.maximum(values, 0.0)
            sqrt_hat = (vectors * np.sqrt(lam)) @ vectors.T
            s_half = (sqrt_hat / root_w[:, None]) * root_w  # W^{-1/2} S^ W^{1/2}
            f = synthesis(fs, r.standard_normal(5))
            direct = analysis(fs, f)
            via_polar = u @ (s_half @ f)
            assert np.max(np.abs(via_polar - direct)) <= 1e-8 * max(
                1.0, float(np.max(np.abs(direct)))
            )

    def test_unit_singular_values_on_span(self):
        for seed in range(10):
            fs = random_frame(seed + 120, 6, 4, weighted=seed % 2)
            u = polar_unitary(fs)
            u_hat = u / np.sqrt(fs.grid.weights)
            values, _ = eigh_descending(u_hat.T @ u_hat)
            rank = frame_spectrum(fs).rank
            singular = np.sqrt(np.maximum(values[:rank], 0.0))
            assert np.max(np.abs(singular - 1.0)) <= 1e-8

    def test_adjoint_composition_is_projector(self):
        for seed in range(10):
            fs = random_frame(seed + 150, 6, 4, weighted=True)
            u = polar_unitary(fs)
            u_hat = u / np.sqrt(fs.grid.weights)
            p_hat = u_hat.T @ u_hat
            # idempotent and symmetric in the hat picture
            assert np.max(np.abs(p_hat @ p_hat - p_hat)) <= 1e-8
            assert np.max(np.abs(p_hat - p_hat.T)) <= 1e-10

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            polar_unitary(zero_system())


class TestKernelMatrix:
    @settings(max_examples=80, deadline=None, database=None)
    @given(fs=weighted_frames(), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_values_are_the_factor_squared(self, fs, rows, seed):
        # bitwise: F F^T is one product, exactly symmetric; a stack of
        # functions is applied as each of its rows is, to the rounding of
        # the two products ((w * f) F) F^T
        f = np.random.default_rng(seed).standard_normal((rows, fs.n_points))
        wf = np.abs(fs.grid.weights * f)
        tables = {
            "rkhs": rk_kernel(fs),
            "naive": naive_kernel(fs),
            "tight": naive_kernel(canonical_tight(fs)),
            "lax": lax_milgram(fs),
        }
        for name, k in tables.items():
            assert not k.values.flags.writeable, name
            assert k.values.tobytes() == k.values.T.tobytes(), name
            assert k.values.tobytes() == (k.factor @ k.factor.T).tobytes(), name
            each = np.array([k.apply(row) for row in f])
            size = fs.n_points + k.factor.shape[1]
            bound = 4 * size * 2.0**-53 * (wf @ np.abs(k.factor)) @ np.abs(k.factor).T
            assert np.all(np.abs(k.apply(f) - each) <= bound), name

    @settings(max_examples=40, deadline=None, database=None)
    @given(fs=weighted_frames())
    def test_scale_is_the_largest_row_norm_squared(self, fs):
        # bitwise: the suite's gates read this number, and one rescaled by
        # the overflow check's rounding factor would differ in its last bits
        for k in (rk_kernel(fs), naive_kernel(fs), lax_milgram(fs)):
            assert k.scale.hex() == float((k.factor * k.factor).sum(axis=1).max()).hex()

    def test_shapes(self):
        fs = random_frame(5, 3, 4, weighted=True)
        with pytest.raises(DimensionMismatch):
            KernelMatrix(grid=fs.grid, factor=np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            KernelMatrix(grid=fs.grid, factor=np.ones(4))
        k = rk_kernel(fs)
        assert k.apply(np.ones(4)).shape == (4,)
        assert k.apply(np.ones((2, 4))).shape == (2, 4)
        for bad in (np.ones(3), np.ones((2, 3)), np.ones((1, 2, 4)), 1.0):
            with pytest.raises(DimensionMismatch):
                k.apply(bad)

    def test_verifiers_refuse_bad_shapes(self):
        # one vector or a stack of rows of the right length, nothing else
        fs = random_frame(5, 3, 4, weighted=True)
        k, op = rk_kernel(fs), lax_milgram(fs)
        for bad in (1.0, np.ones((1, 2, 4)), np.ones(3), np.ones((2, 5))):
            with pytest.raises(DimensionMismatch):
                verify_reproducing(fs, k, bad)
            with pytest.raises(DimensionMismatch):
                verify_lax_identity(fs, op, bad, np.ones(4))
            with pytest.raises(DimensionMismatch):
                verify_lax_identity(fs, op, np.ones(4), bad)
        for bad in (1.0, np.ones((1, 2, 3)), np.ones(4), np.ones((2, 2))):
            with pytest.raises(DimensionMismatch):
                isometry_check(fs, bad)
        other = random_frame(6, 3, 5, weighted=True)
        with pytest.raises(DimensionMismatch):
            verify_reproducing(fs, rk_kernel(other), np.ones(4))

    def test_checks_form_no_table(self):
        # on the weighted 50 x 3000 frame the kernel factor is 1.2 MB and the
        # table 72 MB; the identity suite and the reproducing check need the
        # factor alone
        n, m = 50, 3000
        weights = 1.0 + np.abs(rng.seeded_normals(7, 1, m))
        fs = FrameSystem(
            grid=Grid(points=np.arange(m, dtype=float), weights=weights),
            vectors=rng.seeded_normals(7, 0, n * m).reshape(n, m),
        )
        checks = {
            "suite": lambda: identity_suite(fs, 1e-10),
            "kernel": lambda: verify_reproducing(fs, rk_kernel(fs), fs.vectors),
        }
        peaks = {}
        for name, check in checks.items():
            tracemalloc.start()
            try:
                check()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["suite"] < 16 << 20
        assert peaks["kernel"] < 8 << 20


def test_public_api():
    for name in framekit.__all__:
        assert getattr(framekit, name) is not None, name
    for gone in ("CanonicalTightFrame", "LaxMilgramOperator", "rk_kernel_factored",
                 "kernel_from_tight"):
        assert not hasattr(framekit, gone) and not hasattr(framekit.rkhs, gone), gone
