"""One frame spectrum behind bounds, kernel, tight frame, Lax-Milgram and polar.

References come from numpy's SVD of B = Phi W^{1/2}, from 60-digit mpmath
eigensolves and from the weighted Gram-Schmidt oracle, never from
framekit's Jacobi code.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framekit import (
    FrameSystem,
    Grid,
    canonical_tight,
    cli,
    frame_spectrum,
    frames,
    lax_milgram,
    monomial_frame,
    polar_unitary,
    rk_kernel,
    rkhs,
    rng,
    row_svd,
    spectral,
)
from framekit import _kernels
from framekit.errors import InvalidArgument

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
    rows = rkhs.identity_suite(fs, RANK_TOL)
    return {name: row.residual / row.tolerance for name, row in rows.items()}


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
        bounds = frame_spectrum(fs, RANK_TOL)
        assert bounds.rank == ref["rank"]
        assert abs(bounds.upper - ref["upper"]) <= 1e-12 * ref["upper"]
        assert abs(bounds.lower - ref["lower"]) <= 1e-12 * ref["upper"]
        assert rel_err(rk_kernel(fs, RANK_TOL).values, ref["kernel"]) <= 1e-10
        assert rel_err(canonical_tight(fs, RANK_TOL).vectors, ref["tight"]) <= 1e-10
        assert rel_err(lax_milgram(fs, RANK_TOL).values, ref["lax"]) <= 1e-10
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

    @pytest.mark.parametrize("rank_tol", [np.nan, 1.0, np.inf])
    def test_rank_tol_outside_unit_interval(self, rank_tol):
        # at 1 and above the rank rule would keep nothing
        with pytest.raises(InvalidArgument):
            frame_spectrum(CASES["n<m"], rank_tol)

    def test_zero_frame(self):
        fs = FrameSystem(grid=CASES["n<m"].grid, vectors=np.zeros((2, 9)))
        spec = frame_spectrum(fs)
        assert spec.rank == 0 and spec.u.shape == (2, 0) and spec.v.shape == (9, 0)
        assert frame_spectrum(fs).upper == 0.0


class TestSmallEigenvalues:
    def test_monomial_spectrum_against_mpmath(self):
        # the paper's system without a lower frame bound: every eigenvalue,
        # down to lambda_12 ~ 1e-16 lambda_1, within 1e-8 of a 60-digit
        # eigensolve of fl(B) fl(B)^T, B scaled as frame_spectrum scales it
        mpmath = pytest.importorskip("mpmath")
        fs = monomial_frame(12, 64)
        b = fs.vectors * np.sqrt(fs.grid.weights)
        shift = int(np.frexp(np.max(np.abs(b)))[1])
        got = np.ldexp(frame_spectrum(fs, RANK_TOL).eigenvalues, -2 * shift)
        with mpmath.workdps(60):
            rows = mpmath.matrix(np.ldexp(b, -shift).tolist())
            exact = sorted(mpmath.eigsy(rows * rows.T, eigvals_only=True), reverse=True)
            errors = [float(abs(g - e) / e) for g, e in zip(got.tolist(), exact)]
        assert max(errors) <= 1e-8, errors


SPECTRUM_CODE = """
import contextlib, hashlib, io, sys
import numpy as np
from framekit import cli, frame_spectrum
digest = hashlib.sha256()
for path in sys.argv[1:]:
    spec = frame_spectrum(cli.parse_frame_file(path))
    for a in (spec.eigenvalues, spec.u, spec.v):
        digest.update(np.ascontiguousarray(a).tobytes())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", path]) == 0
    digest.update(out.getvalue().encode())
print(digest.hexdigest())
"""


def test_spectrum_does_not_follow_blas_threads(tmp_path):
    # no BLAS call feeds the spectrum, so one and two BLAS threads give the
    # same bytes on frames large enough for a threaded gemm to split its sums
    paths = []
    for n, m in ((40, 150), (100, 200), (120, 300)):
        grid = Grid(np.arange(m, dtype=float), 1.0 + np.abs(rng.seeded_normals(7, 1, m)))
        fs = FrameSystem(grid=grid, vectors=rng.seeded_normals(7, 0, n * m).reshape(n, m))
        paths.append(str(tmp_path / f"{n}x{m}.json"))
        cli.write_frame_file(paths[-1], fs)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        env.update(OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", SPECTRUM_CODE, *paths],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@st.composite
def wide_range_frames(draw):
    """Frames up to 6 x 6, a fifth of their entries zero, whose entries and
    weights spread over 2**-200..2**200 around scales anywhere from 2**-800
    to 2**800."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, weight = draw(st.integers(-800, 800)), draw(st.integers(-800, 800))
    vectors = np.ldexp(r.standard_normal((n, m)), r.integers(-200, 201, (n, m)) + scale)
    vectors[r.random((n, m)) < 0.2] = 0.0
    weights = np.ldexp(r.uniform(0.5, 2.0, m), r.integers(-200, 201, m) + weight)
    grid = Grid(points=np.arange(m, dtype=float), weights=weights)
    return FrameSystem(grid=grid, vectors=vectors)


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

    @pytest.mark.parametrize(
        "fs, rank_tol",
        [
            (scaled(small_frame(), 1e-90), "1e-10"),
            (small_frame(), "1e-10"),
            (scaled(small_frame(), 1e80), "1e-10"),
            # rank_tol 0 meets the rank rule's noise floor
            (scaled(duplicated_frame(3, 8, 16), 1e3), "0"),
        ],
        ids=["1e-90", "1", "1e80", "duplicates-rank-tol-0"],
    )
    def test_doubled_kernel_is_caught_at_any_scale(
        self, tmp_path, capsys, monkeypatch, fs, rank_tol
    ):
        # A kernel wrong by O(1) must fail verify however small the frame is.
        # Scaling the factor shared by the kernel-style tables doubles K and
        # keeps the tight frame consistent with it, as a wrong spectrum would,
        # so only the scale-relative gates can catch it.
        factor = rkhs._v_unweighted
        monkeypatch.setattr(
            rkhs, "_v_unweighted", lambda spec: np.sqrt(2.0) * factor(spec)
        )
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), fs)
        assert cli.main(["verify", str(path), "--rank-tol", rank_tol]) == cli.EXIT_MATH

    @staticmethod
    def verify_rows(tmp_path, capsys, fs):
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), fs)
        code = cli.main(["verify", str(path)])
        rows = []
        for line in capsys.readouterr().out.splitlines():
            name, rest = line.split("=", 1)
            value, tolerance = rest.removesuffix(")").split(" (tolerance ")
            rows.append((name, float(value) <= float(tolerance)))
        return code, rows

    @pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e200, 1e-160])
    def test_verify_beyond_the_square_root_of_the_double_range(self, tmp_path, capsys, c):
        # Phi Phi^T and the probe norms overflow above |Phi| ~ 1e154 (and
        # underflow below 1e-154); the suite runs on the normalized frame
        # and only its printed rows saturate, to inf or 0
        code, rows = self.verify_rows(tmp_path, capsys, scaled(small_frame(), c))
        assert code == cli.EXIT_OK
        _, base = self.verify_rows(tmp_path, capsys, small_frame())
        assert rows == base and all(holds for _, holds in rows)

    def test_saturated_row_keeps_its_verdict(self, tmp_path, capsys, monkeypatch):
        # a failing degree-2 row prints as inf against inf at 1e200, and
        # still fails: the verdict is taken before scaling back
        rows = rkhs._identity_rows

        def lax_fails(fs, rank_tol):
            out = rows(fs, rank_tol)
            out["lax_identity_max"] = (3.0, 1.0)
            return out

        monkeypatch.setattr(rkhs, "_identity_rows", lax_fails)
        suite = rkhs.identity_suite(scaled(small_frame(), 1e200), RANK_TOL)
        assert suite["lax_identity_max"] == (np.inf, np.inf, False)
        assert all(row.holds for name, row in suite.items() if name != "lax_identity_max")
        code, _ = self.verify_rows(tmp_path, capsys, scaled(small_frame(), 1e200))
        assert code == cli.EXIT_MATH

    @pytest.mark.parametrize("k", [-600, 600])
    def test_sym_eig_power_of_two(self, k):
        # A A^T scaled by 2**k: the same rotations, the squares scaled by 2**k
        r = np.random.default_rng(7)
        x = r.standard_normal((9, 11))
        base = row_svd(x)
        big = row_svd(np.ldexp(x, k // 2))
        assert np.array_equal(big.left, base.left)
        assert np.array_equal(big.rows, np.ldexp(base.rows, k // 2))
        assert np.array_equal(big.squares, np.ldexp(base.squares, k))

    def test_sym_eig_in_range_matches_unscaled_sweeps(self):
        # the pre-scaling is exact, so an in-range input gives the bits of
        # a plain run of the sweeps on the unscaled rows
        r = np.random.default_rng(8)
        for n in (1, 2, 5, 12):
            x = r.standard_normal((n, n + 1)) * 3.0
            work = np.array(x, order="C", copy=True)
            squares, left, _ = _kernels.ACTIVE.jacobi_rows(
                work, spectral._MAX_SWEEPS, spectral._ORTHOGONAL_TOL
            )
            order = np.argsort(-squares, kind="stable")
            d = row_svd(x)
            assert np.array_equal(d.squares, squares[order])
            assert np.array_equal(d.rows, work[order])
            assert np.array_equal(d.left, left[order])

    @settings(max_examples=30, deadline=None, database=None)
    @given(k=st.integers(min_value=-480, max_value=480))
    def test_power_of_two_scaling_is_exact(self, k):
        fs = small_frame()
        c = 2.0**k
        big = scaled(fs, c)
        base_bounds, big_bounds = frame_spectrum(fs), frame_spectrum(big)
        assert big_bounds.rank == base_bounds.rank
        assert big_bounds.upper == np.ldexp(base_bounds.upper, 2 * k)
        assert big_bounds.lower == np.ldexp(base_bounds.lower, 2 * k)
        assert np.array_equal(rk_kernel(big).values, rk_kernel(fs).values)
        assert np.array_equal(canonical_tight(big).vectors, canonical_tight(fs).vectors)
        assert suite_ratios(big) == suite_ratios(fs)

    @settings(max_examples=30, deadline=None, database=None)
    @given(k=st.integers(min_value=-480, max_value=480))
    def test_kernel_psd_is_scale_free(self, k):
        # the factor W^{-1/2} V_r is bit-identical under 2**k * Phi, and so
        # is the rounding bound read from it
        fs = small_frame()
        kernel, big = rk_kernel(fs), rk_kernel(scaled(fs, 2.0**k))
        assert np.array_equal(big.factor, kernel.factor)
        assert rkhs.kernel_psd_bound(big) == rkhs.kernel_psd_bound(kernel)

    def test_frame_past_the_double_range(self, tmp_path, capsys):
        # B = diag(1e450) is past the largest double; Phi and W^{1/2} are
        # scaled before their product, so the frame keeps its rank, and
        # only its bounds saturate
        path = tmp_path / "big.json"
        path.write_text(
            '{"grid": {"points": [0, 1], "weights": [1e300, 1e300]},'
            ' "vectors": [[1e300, 0], [0, 1e300]]}'
        )
        assert cli.main(["analyze", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "rank=2 " in out and "frame=true" in out

    @settings(max_examples=60, deadline=None, database=None)
    @given(fs=wide_range_frames())
    def test_in_range_products_keep_their_bits(self, fs):
        # where the unscaled product Phi W^{1/2} is finite and normal, the
        # scaled factors give B, and so the spectrum, its bits
        with np.errstate(over="ignore", under="ignore"):
            old = fs.vectors * np.sqrt(fs.grid.weights)
        normal = (fs.vectors == 0.0) | (np.abs(old) >= np.finfo(float).tiny)
        assume(np.all(np.isfinite(old)) and np.all(normal))
        shift = spectral._binary_exponent(old)
        old = np.ldexp(old, -shift)
        seen = []

        def spy(a):
            seen.append(np.array(a))
            return row_svd(a)

        with mock.patch.object(frames, "row_svd", spy):
            spec = frame_spectrum(fs)
        wide = fs.n_vectors <= fs.n_points
        assert seen[0].tobytes() == (old if wide else old.T).tobytes()
        with np.errstate(over="ignore"):
            expected = np.ldexp(row_svd(seen[0]).squares, 2 * shift)
        assert spec.eigenvalues.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None, database=None)
    @given(e=st.floats(min_value=-150.0, max_value=150.0))
    def test_scale_invariance(self, e):
        fs = small_frame()
        c = 10.0**e
        big = scaled(fs, c)
        base_bounds, big_bounds = frame_spectrum(fs), frame_spectrum(big)
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


@pytest.mark.parametrize(
    "fs, rank",
    [
        (scaled(duplicated_frame(3, 8, 16), 1e3), 8),
        (duplicated_frame(62, 8, 20), 8),
        (frame_with_spectrum(5, 6, 8, 3), 3),
        (monomial_frame(12, 64), 12),
        (monomial_frame(16, 200), 16),
        # lambda_21..23 of this one are off by more than 1e-4 against an
        # 80-digit oracle of the quadrature Gramian; the floor drops them
        (monomial_frame(24, 400), 21),
    ],
    ids=["duplicates-1e3", "duplicates", "spectrum-3", "monomial-12", "monomial-16",
         "monomial-24"],
)
def test_rank_tol_zero_keeps_no_rounding_noise(fs, rank):
    # eigenvalues below (min(N, M) 2**-52)**2 lambda_max are never kept
    assert frame_spectrum(fs, 0.0).rank == rank


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


# name: (frame, retained rank at RANK_TOL)
DIMENSION_CASES = {
    "monomial-12x64": (monomial_frame(12, 64), 9),
    "random-16x16": (weighted_frame(61, 16, 16), 16),
    "duplicated-16x20": (duplicated_frame(62, 8, 20), 8),
    "random-60x30": (weighted_frame(60, 60, 30), 30),
}


class TestOneDecompositionPerFrame:
    @pytest.fixture
    def calls(self, monkeypatch):
        # every Jacobi call of the library, whichever module makes it
        seen = []
        jacobi_rows = _kernels.ACTIVE.jacobi_rows

        def counted(a, *args):
            seen.append(np.shape(a))
            return jacobi_rows(a, *args)

        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.ACTIVE._replace(jacobi_rows=counted))
        return seen

    @pytest.fixture
    def frame_file(self, tmp_path):
        path = tmp_path / "random-60x30.json"
        cli.write_frame_file(str(path), weighted_frame(60, 60, 30))
        return str(path)

    @pytest.mark.parametrize(
        "command, dims",
        [
            ("analyze", [(30, 60)]),
            ("kernel", [(30, 60)]),
            ("canonical", [(30, 60), (30, 60)]),
            ("verify", [(30, 60)]),
        ],
    )
    def test_jacobi_calls(self, calls, frame_file, capsys, command, dims):
        assert cli.main([command, frame_file]) == cli.EXIT_OK
        assert calls == dims

    @pytest.mark.parametrize("name", sorted(DIMENSION_CASES))
    def test_no_jacobi_call_above_min_dimension(self, calls, tmp_path, capsys, name):
        # every call rotates the rows of the thinner side of B; verify reads
        # the kernel's scale from its factor's rows and kernel prints only
        # the rounding bound, neither of which needs a decomposition, so
        # kernel --naive makes no Jacobi call at all
        fs, r = DIMENSION_CASES[name]
        path = str(tmp_path / f"{name}.json")
        cli.write_frame_file(path, fs)
        n, m = fs.n_vectors, fs.n_points
        side = (min(n, m), max(n, m))
        assert frame_spectrum(fs, RANK_TOL).rank == r
        calls.clear()
        expected = {
            ("analyze",): [side],
            ("kernel",): [side],
            ("kernel", "--naive"): [],
            ("canonical",): [side, side],
            ("verify",): [side],
        }
        for command, dims in expected.items():
            assert cli.main([command[0], path, *command[1:]]) == cli.EXIT_OK
            assert calls == dims, command
            calls.clear()

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
        assert calls == [(30, 60)]

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
