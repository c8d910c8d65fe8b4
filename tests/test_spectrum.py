"""One frame spectrum behind bounds, kernel, tight frame, Lax-Milgram and polar.

References come from numpy's SVD of B = Phi W^{1/2} and from the weighted
Gram-Schmidt oracle, never from framekit's Jacobi code.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    FrameSystem,
    Grid,
    canonical_tight,
    cli,
    compute_frame_bounds,
    frame_spectrum,
    frames,
    lax_milgram,
    polar_unitary,
    rk_kernel,
    rkhs,
    spectral,
    sym_eig,
)
from framekit import _kernels
from framekit.errors import InvalidArgument
from framekit.spectral import SymMatrix

from oracles import gram_schmidt_kernel

RANK_TOL = 1e-10


def weighted_frame(seed, n, m):
    r = np.random.default_rng(seed)
    grid = Grid(
        points=np.arange(m, dtype=float) + r.uniform(0.0, 0.5, m),
        weights=r.uniform(0.5, 2.0, m),
    )
    return FrameSystem(grid=grid, vectors=r.standard_normal((n, m)))


def duplicated_frame(seed, n, m):
    base = weighted_frame(seed, n, m)
    return FrameSystem(grid=base.grid, vectors=np.vstack([base.vectors, base.vectors]))


def small_frame():
    """The fixed 12 x 6 weighted frame behind the scaled copies."""
    return weighted_frame(1606_04868, 12, 6)


def scaled(fs, c):
    return FrameSystem(grid=fs.grid, vectors=c * fs.vectors)


def suite_ratios(fs):
    return {name: v / t for name, (v, t) in rkhs.identity_suite(fs, RANK_TOL).items()}


def svd_reference(fs):
    root_w = np.sqrt(fs.grid.weights)
    u, s, vt = np.linalg.svd(fs.vectors * root_w, full_matrices=False)
    lam = s * s
    r = int(np.count_nonzero(lam > RANK_TOL * lam[0]))
    ur, vr, lr = u[:, :r], vt[:r].T, lam[:r]
    v_hat = vr / root_w[:, None]
    spans = r == fs.n_points
    return {
        "rank": r,
        "upper": lam[0],
        "lower": lr[-1] if spans else 0.0,
        "kernel": v_hat @ v_hat.T,
        "tight": ur @ v_hat.T,
        "lax": (v_hat / lr) @ v_hat.T,
        "polar": (ur @ vr.T) * root_w,
    }


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


CASES = {
    "n<m": weighted_frame(11, 5, 9),
    "n>m": weighted_frame(12, 11, 4),
    "n=m": weighted_frame(13, 6, 6),
    "rank-deficient n>m": duplicated_frame(14, 6, 10),
    "rank-deficient n<m": duplicated_frame(15, 3, 10),
}


class TestAgainstSvd:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_constructions(self, name):
        fs = CASES[name]
        ref = svd_reference(fs)
        bounds = compute_frame_bounds(fs, RANK_TOL)
        assert bounds.rank == ref["rank"]
        assert abs(bounds.upper - ref["upper"]) <= 1e-12 * ref["upper"]
        assert abs(bounds.lower - ref["lower"]) <= 1e-12 * ref["upper"]
        assert rel_err(rk_kernel(fs, RANK_TOL).values, ref["kernel"]) <= 1e-10
        assert rel_err(canonical_tight(fs, RANK_TOL).vectors, ref["tight"]) <= 1e-10
        assert rel_err(lax_milgram(fs, RANK_TOL).matrix, ref["lax"]) <= 1e-10
        assert rel_err(polar_unitary(fs, RANK_TOL), ref["polar"]) <= 1e-10

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kernel_matches_gram_schmidt(self, name):
        fs = CASES[name]
        oracle = gram_schmidt_kernel(fs.vectors, fs.grid.weights)
        assert rel_err(rk_kernel(fs).values, oracle) <= 1e-9

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_singular_pairs(self, name):
        fs = CASES[name]
        spec = frame_spectrum(fs)
        r = spec.rank
        assert spec.eigenvalues.size == min(fs.n_vectors, fs.n_points)
        assert spec.u.shape == (fs.n_vectors, r) and spec.v.shape == (fs.n_points, r)
        assert np.max(np.abs(spec.u.T @ spec.u - np.eye(r))) <= 1e-10
        assert np.max(np.abs(spec.v.T @ spec.v - np.eye(r))) <= 1e-10
        b = fs.vectors * np.sqrt(fs.grid.weights)
        lhs = b @ spec.v
        assert np.max(np.abs(lhs - spec.u * np.sqrt(spec.retained))) <= 1e-10 * np.max(
            np.abs(lhs)
        )

    def test_one_rank_rule(self):
        # lambda > rank_tol * lambda_max: only positive eigenvalues survive
        # rank_tol = 0, so the rank-deficient frame keeps its true rank or
        # at most a few noise directions, never a negative one
        fs = CASES["rank-deficient n>m"]
        spec = frame_spectrum(fs, 0.0)
        assert np.all(spec.retained > 0.0)
        assert spec.rank >= 6

    def test_negative_rank_tol(self):
        with pytest.raises(InvalidArgument):
            frame_spectrum(CASES["n<m"], -1.0)

    def test_zero_frame(self):
        fs = FrameSystem(grid=CASES["n<m"].grid, vectors=np.zeros((2, 9)))
        spec = frame_spectrum(fs)
        assert spec.rank == 0 and spec.u.shape == (2, 0) and spec.v.shape == (9, 0)
        assert compute_frame_bounds(fs).upper == 0.0


class TestScale:
    @pytest.mark.parametrize("c", [1e-90, 1e80])
    def test_analyze_scaled_copies(self, tmp_path, capsys, c):
        fs = scaled(small_frame(), c)
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), fs)
        assert cli.main(["analyze", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "rank=6 " in out and "frame=true" in out
        printed = dict(field.split("=") for field in out.split())
        ref = svd_reference(fs)
        assert abs(float(printed["B1"]) - ref["lower"]) <= 1e-5 * ref["lower"]
        assert abs(float(printed["B2"]) - ref["upper"]) <= 1e-5 * ref["upper"]

    @pytest.mark.parametrize("c", [1e-90, 1e80])
    def test_scaled_copies_pass_every_subcommand(self, tmp_path, capsys, c):
        fs = scaled(small_frame(), c)
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), fs)
        for command in ("kernel", "canonical", "verify"):
            assert cli.main([command, str(path)]) == cli.EXIT_OK, command
        ref = svd_reference(fs)
        assert rel_err(rk_kernel(fs).values, ref["kernel"]) <= 1e-10
        assert rel_err(canonical_tight(fs).vectors, ref["tight"]) <= 1e-10

    def test_doubled_kernel_is_caught_at_any_scale(self, tmp_path, capsys, monkeypatch):
        # A kernel wrong by O(1) must fail verify however small the frame is.
        # Scaling the factor shared by the kernel-style tables doubles K and
        # keeps the tight frame consistent with it, as a wrong spectrum would,
        # so only the scale-relative gates can catch it.
        factor = rkhs._v_unweighted
        monkeypatch.setattr(
            rkhs, "_v_unweighted", lambda spec: np.sqrt(2.0) * factor(spec)
        )
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), scaled(small_frame(), 1e-90))
        assert cli.main(["verify", str(path)]) == cli.EXIT_MATH

    @pytest.mark.parametrize("k", [-600, 600])
    def test_sym_eig_power_of_two(self, k):
        r = np.random.default_rng(7)
        x = r.standard_normal((9, 9))
        a = x @ x.T
        base = sym_eig(SymMatrix(a))
        big = sym_eig(SymMatrix(np.ldexp(a, k)))
        assert np.array_equal(big.eigenvectors, base.eigenvectors)
        assert np.array_equal(big.eigenvalues, np.ldexp(base.eigenvalues, k))

    def test_sym_eig_in_range_matches_unscaled_sweeps(self):
        # the pre-scaling is exact, so an in-range input gives the bits of
        # a plain run of the sweeps on the unscaled matrix
        r = np.random.default_rng(8)
        for n in (1, 2, 5, 12):
            x = r.standard_normal((n, n)) * 3.0
            a = SymMatrix(x + x.T)
            work = np.array(a.entries, order="C", copy=True)
            vecs = np.eye(n, order="C")
            fro = float(np.sqrt(np.sum(work * work)))
            _kernels.jacobi_sweeps(work, vecs, fro, 100, 1e-12)
            vals = np.diag(work).copy()
            order = np.argsort(-vals, kind="stable")
            d = sym_eig(a)
            assert np.array_equal(d.eigenvalues, vals[order])
            assert np.array_equal(d.eigenvectors, vecs[:, order])

    @settings(max_examples=30, deadline=None, database=None)
    @given(k=st.integers(min_value=-480, max_value=480))
    def test_power_of_two_scaling_is_exact(self, k):
        fs = small_frame()
        c = 2.0**k
        big = scaled(fs, c)
        base_bounds, big_bounds = compute_frame_bounds(fs), compute_frame_bounds(big)
        assert big_bounds.rank == base_bounds.rank
        assert big_bounds.upper == np.ldexp(base_bounds.upper, 2 * k)
        assert big_bounds.lower == np.ldexp(base_bounds.lower, 2 * k)
        assert np.array_equal(rk_kernel(big).values, rk_kernel(fs).values)
        assert np.array_equal(canonical_tight(big).vectors, canonical_tight(fs).vectors)
        assert suite_ratios(big) == suite_ratios(fs)

    @settings(max_examples=30, deadline=None, database=None)
    @given(e=st.floats(min_value=-150.0, max_value=150.0))
    def test_scale_invariance(self, e):
        fs = small_frame()
        c = 10.0**e
        big = scaled(fs, c)
        base_bounds, big_bounds = compute_frame_bounds(fs), compute_frame_bounds(big)
        assert big_bounds.rank == base_bounds.rank
        assert abs(big_bounds.upper / (c * c) - base_bounds.upper) <= 1e-12 * base_bounds.upper
        assert abs(big_bounds.lower / (c * c) - base_bounds.lower) <= 1e-12 * base_bounds.lower
        assert rel_err(rk_kernel(big).values, rk_kernel(fs).values) <= 1e-12
        assert rel_err(canonical_tight(big).vectors, canonical_tight(fs).vectors) <= 1e-12


def frame_with_spectrum(seed, n, m, k):
    """n x m weighted frame whose B = Phi W^{1/2} has exactly k singular values.

    They lie in [0.1, 1], so the retained eigenvalues sit at least 1e8 times
    above the rank cut and the rest are rounding noise far below it.
    """
    r = np.random.default_rng(seed)
    left, _ = np.linalg.qr(r.standard_normal((n, k)))
    right, _ = np.linalg.qr(r.standard_normal((m, k)))
    weights = r.uniform(0.5, 2.0, m)
    b = (left * r.uniform(0.1, 1.0, k)) @ right.T
    grid = Grid(points=np.arange(m, dtype=float), weights=weights)
    return FrameSystem(grid=grid, vectors=b / np.sqrt(weights))


@st.composite
def spectral_frames(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, m)))
    return frame_with_spectrum(draw(st.integers(0, 2**32 - 1)), n, m, k), k


class TestVectorInvariance:
    """Rank and kernel depend on the span of the vectors, not on their listing."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(case=spectral_frames(), data=st.data())
    def test_permuting_vectors(self, case, data):
        fs, k = case
        order = data.draw(st.permutations(range(fs.n_vectors)))
        moved = FrameSystem(grid=fs.grid, vectors=fs.vectors[list(order)])
        assert frame_spectrum(fs, RANK_TOL).rank == k
        assert frame_spectrum(moved, RANK_TOL).rank == k
        assert rel_err(rk_kernel(moved).values, rk_kernel(fs).values) <= 1e-10

    @settings(max_examples=40, deadline=None, database=None)
    @given(case=spectral_frames())
    def test_listing_each_vector_twice(self, case):
        fs, k = case
        doubled = FrameSystem(grid=fs.grid, vectors=np.repeat(fs.vectors, 2, axis=0))
        assert frame_spectrum(doubled, RANK_TOL).rank == k
        assert rel_err(rk_kernel(doubled).values, rk_kernel(fs).values) <= 1e-10


class TestOneDecompositionPerFrame:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(a):
            seen.append(a.dim)
            return spectral.sym_eig(a)

        for module in (frames, rkhs):
            monkeypatch.setattr(module, "sym_eig", counted)
        return seen

    @pytest.fixture
    def frame_file(self, tmp_path):
        path = tmp_path / "random-60x30.json"
        cli.write_frame_file(str(path), weighted_frame(60, 60, 30))
        return str(path)

    @pytest.mark.parametrize(
        "command, dims",
        [
            ("analyze", [30]),
            ("kernel", [30, 30]),
            ("canonical", [30, 30]),
            ("verify", [30, 30]),
        ],
    )
    def test_jacobi_calls(self, calls, frame_file, capsys, command, dims):
        assert cli.main([command, frame_file]) == cli.EXIT_OK
        assert calls == dims

    def test_verify_checks_each_identity_once(
        self, calls, frame_file, monkeypatch, capsys
    ):
        seen = {}
        stacked = ("verify_reproducing", "verify_lax_identity", "isometry_check")
        for name in stacked + ("build_gramian",):
            original = getattr(rkhs, name)

            def counted(*args, _name=name, _original=original):
                seen[_name] = seen.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(rkhs, name, counted)
        assert cli.main(["verify", frame_file]) == cli.EXIT_OK
        assert seen["verify_reproducing"] == 1
        assert seen["verify_lax_identity"] == 1
        assert seen["isometry_check"] == 1
        assert seen["build_gramian"] <= 1
        assert calls == [30, 30]

    def test_canonical_projector_residual(self, tmp_path, capsys, frame_file):
        out = tmp_path / "tight.json"
        assert cli.main(["canonical", frame_file, "--out", str(out)]) == cli.EXIT_OK
        residual = float(capsys.readouterr().out.split("projector_residual=")[1])
        tight = json.loads(out.read_text(encoding="utf-8"))
        psi = np.asarray(tight["vectors"])
        w = np.asarray(tight["grid"]["weights"])
        lam = np.linalg.eigvalsh((psi * w) @ psi.T)
        assert residual <= 1e-10
        assert np.max(np.abs(lam * (lam - 1.0))) <= 1e-10
