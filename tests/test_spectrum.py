"""One frame spectrum behind bounds, kernel, tight frame, Lax-Milgram and polar.

References come from numpy's SVD of B = Phi W^{1/2}, from 60-digit mpmath
eigensolves and from the weighted Gram-Schmidt oracle, never from
framekit's Jacobi code.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from test_differential import frames as differential_frames

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


def reweighted(fs, c):
    return FrameSystem(grid=Grid(fs.grid.points, c * fs.grid.weights), vectors=fs.vectors)


def read_faulted_spectrum(monkeypatch, fault):
    """Make ``rkhs`` read ``fault(spec)`` for each frame spectrum it takes:
    the identity suite reads every row from its one spectrum, so a wrong
    factor there is a wrong kernel, tight frame or Lax-Milgram operator."""
    spectrum = rkhs.frame_spectrum
    monkeypatch.setattr(
        rkhs, "frame_spectrum", lambda fs, rank_tol=RANK_TOL: fault(spectrum(fs, rank_tol))
    )


def kernel_factor_times_root_two(spec):
    # V_r times sqrt(2): the kernel W^{-1/2} V_r V_r^T W^{-1/2} doubles, and
    # the Lax-Milgram operator with it
    return replace(spec, v=np.sqrt(2.0) * spec.v)


def lax_factor_times_root_two(spec):
    # the eigenvalues halved: the Lax factor W^{-1/2} V_r Lambda_r^{-1/2}
    # times sqrt(2), with the kernel, the tight frame and the Lax row's gate,
    # which reads lambda_max / lambda_r, as they were
    return replace(spec, eigenvalues=spec.eigenvalues / 2.0)


def kernel_factor_doubled(spec):
    return replace(spec, v=2.0 * spec.v)


def tight_frame_row_moved(spec):
    # one row of U_r moved, so U_r has no orthonormal columns and the tight
    # frame U_r V_r^T W^{-1/2} is not the kernel's
    u = spec.u.copy()
    u[0] += 0.25
    return replace(spec, u=u)


def rank_one_short(spec):
    # the last retained direction dropped, a real eigenvalue left to the cut
    return replace(spec, rank=spec.rank - 1, u=spec.u[:, :-1], v=spec.v[:, :-1])


#: wrong spectra that verify must reject at every scale
SPECTRUM_FAULTS = {
    "v-doubled": kernel_factor_doubled,
    "u-row-moved": tight_frame_row_moved,
    "lax-factor-root-two": lax_factor_times_root_two,
    "rank-one-short": rank_one_short,
}


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
        # Scaling V_r, the factor shared by the kernel-style tables, doubles K
        # and keeps the tight frame consistent with it, as a wrong spectrum
        # would, so only the scale-relative gates can catch it.
        read_faulted_spectrum(monkeypatch, kernel_factor_times_root_two)
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), fs)
        assert cli.main(["verify", str(path), "--rank-tol", rank_tol]) == cli.EXIT_MATH

    @pytest.mark.parametrize("c", [1e-90, 1.0, 1e80])
    @pytest.mark.parametrize("fault", sorted(SPECTRUM_FAULTS))
    def test_each_spectrum_fault_fails_verify_at_any_scale(
        self, tmp_path, capsys, monkeypatch, fault, c
    ):
        # each fault reaches the suite through the one spectrum it reads,
        # and the gates are scale-relative, so each fails at every scale
        read_faulted_spectrum(monkeypatch, SPECTRUM_FAULTS[fault])
        path = tmp_path / "scaled.json"
        cli.write_frame_file(str(path), scaled(small_frame(), c))
        assert cli.main(["verify", str(path)]) == cli.EXIT_MATH

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
            out["lax_identity_max"] = (3.0, 1.0, *out["lax_identity_max"][2:])
            return out

        monkeypatch.setattr(rkhs, "_identity_rows", lax_fails)
        suite = rkhs.identity_suite(scaled(small_frame(), 1e200), RANK_TOL)
        assert suite["lax_identity_max"] == (np.inf, np.inf, False)
        assert all(row.holds for name, row in suite.items() if name != "lax_identity_max")
        code, _ = self.verify_rows(tmp_path, capsys, scaled(small_frame(), 1e200))
        assert code == cli.EXIT_MATH

    @pytest.mark.parametrize("fault", [None, lax_factor_times_root_two,
                                       kernel_factor_times_root_two],
                             ids=["unfaulted", "lax-factor", "kernel-factor"])
    def test_rows_printed_as_inf_keep_their_verdict(self, tmp_path, capsys, monkeypatch, fault):
        # the differential harness's frame scaled by 2**900: its Lax row
        # prints inf against inf, but every verdict is taken on the
        # normalized frame, so the frame passes, and fails with its Lax or
        # its kernel factor times sqrt(2)
        points, weights, vectors = differential_frames()["scaled-up"]
        if fault:
            read_faulted_spectrum(monkeypatch, fault)
        path = tmp_path / "scaled-up.json"
        cli.write_frame_file(str(path), FrameSystem(grid=Grid(points, weights), vectors=vectors))
        code = cli.main(["verify", str(path)])
        assert "lax_identity_max=inf (tolerance inf)" in capsys.readouterr().out
        assert code == (cli.EXIT_MATH if fault else cli.EXIT_OK)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_row_svd_power_of_two(self, k):
        # A A^T scaled by 2**k: the same rotations, the squares scaled by 2**k
        r = np.random.default_rng(7)
        x = r.standard_normal((9, 11))
        base = row_svd(x)
        big = row_svd(np.ldexp(x, k // 2))
        assert np.array_equal(big.left, base.left)
        assert np.array_equal(big.rows, np.ldexp(base.rows, k // 2))
        assert np.array_equal(big.squares, np.ldexp(base.squares, k))

    def test_row_svd_saturates_past_the_double_range(self):
        # sigma**2 = 2e600 reads inf, as frame_spectrum's bound does, with
        # no RuntimeWarning (an error under this suite's filter)
        a = np.array([[1e300, 1e300]])
        svd = row_svd(a)
        fs = FrameSystem(grid=Grid(points=[0.0, 1.0], weights=[1.0, 1.0]), vectors=a)
        assert svd.squares.tolist() == frame_spectrum(fs).eigenvalues.tolist() == [np.inf]
        assert np.array_equal(np.abs(svd.rows), a)

    def test_row_svd_in_range_matches_unscaled_sweeps(self):
        # the pre-scaling is exact, so an in-range input gives the bits of
        # a plain run of the sweeps on the unscaled rows, padded to whole
        # lane groups
        r = np.random.default_rng(8)
        for n in (1, 2, 5, 12):
            x = r.standard_normal((n, n + 1)) * 3.0
            work = spectral.padded_rows(x)
            squares, left, _ = _kernels.ACTIVE.jacobi_rows(
                work, spectral._MAX_SWEEPS, spectral._ORTHOGONAL_TOL
            )
            order = np.argsort(-squares, kind="stable")
            d = row_svd(x)
            assert np.array_equal(d.squares, squares[order])
            assert np.array_equal(d.rows, work[order, : n + 1])
            assert np.array_equal(d.left, left[order])

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        x=hnp.arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 11)),
            elements=st.floats(1.0, 10.0) | st.floats(-10.0, -1.0) | st.just(0.0),
        ),
        k=st.integers(min_value=-1022, max_value=1020),
    )
    @example(x=np.array([[3.0, 4.0, 0.0], [1.0, 2.0, 5.0]]), k=-500)
    @example(x=np.array([[3.0, 4.0, 0.0], [1.0, 2.0, 5.0]]), k=520)
    def test_padded_svd_scales_its_buffer(self, x, k):
        # entries of 1..10 times 2**k stay normal and finite, and padded_svd
        # takes them to the same buffer: the same squares, rows, rotations
        # and sweeps, with the exponent offset by k
        width = x.shape[1]
        base, e = spectral.padded_svd(spectral.padded_rows(x), width)
        moved, e_k = spectral.padded_svd(spectral.padded_rows(np.ldexp(x, k)), width)
        assert e_k == (e + k if x.any() else 0)
        assert moved.squares.tobytes() == base.squares.tobytes()
        assert moved.rows.tobytes() == base.rows.tobytes()
        assert moved.left.tobytes() == base.left.tobytes()
        assert moved.sweeps == base.sweeps

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
    @given(k=st.integers(min_value=-450, max_value=450))
    def test_power_of_four_weights_are_exact(self, k):
        # W is centred by a power of four inside the suite, so 4**k * W
        # scales each row by an exact power of two
        fs = small_frame()
        assert suite_ratios(reweighted(fs, 4.0**k)) == suite_ratios(fs)

    @pytest.mark.parametrize("k", [-3, 0, 4])
    def test_rows_scale_back_to_the_raw_frame(self, k):
        # weights that are all 4**k are checked at 1 and Phi at 2**-2 * Phi,
        # both exactly, so each row scaled back by its degrees is the row of
        # the raw frame, bit for bit; only the reproducing tolerance moves
        # off k = 0, its s being read at the centred W
        base = small_frame()
        grid = Grid(points=base.grid.points, weights=np.full(base.n_points, 4.0**k))
        fs = FrameSystem(grid=grid, vectors=base.vectors)
        raw = rkhs._identity_rows(fs, RANK_TOL)
        for name, row in rkhs.identity_suite(fs, RANK_TOL).items():
            assert row.residual == raw[name][0], name
            if name != "max_reproducing_residual" or k == 0:
                assert row.tolerance == raw[name][1], name

    @pytest.mark.parametrize("c", [1e-20, 1e20])
    def test_verify_scaled_weights(self, tmp_path, capsys, c):
        # the reproducing tolerance, gate * s with s a norm in L2(w), is read
        # at the centred weights; read at weights of 1e-20 it would lie below
        # the rounding residual of a correct kernel
        code, rows = self.verify_rows(tmp_path, capsys, reweighted(small_frame(), c))
        assert code == cli.EXIT_OK
        assert len(rows) == 7 and all(holds for _, holds in rows)

    def test_doubled_kernel_fails_the_reproducing_row_on_large_weights(self, monkeypatch):
        # read at the centred weights, the reproducing tolerance does not grow
        # with sqrt(W), so the row catches an O(1) error on weights of 1e20
        read_faulted_spectrum(monkeypatch, kernel_factor_times_root_two)
        suite = rkhs.identity_suite(reweighted(small_frame(), 1e20), RANK_TOL)
        assert not suite["max_reproducing_residual"].holds

    def test_verify_weights_spanning_the_double_range(self, tmp_path, capsys):
        # centring sqrt(W) on 1 keeps both 1e-300 and 1e300 in range, where
        # scaling W by its largest weight would flush the smallest to 0
        fs = small_frame()
        grid = Grid(points=fs.grid.points, weights=np.logspace(-300, 300, fs.n_points))
        code, rows = self.verify_rows(tmp_path, capsys, FrameSystem(grid=grid, vectors=fs.vectors))
        assert code == cli.EXIT_OK
        assert all(holds for _, holds in rows)

    @settings(max_examples=30, deadline=None, database=None)
    @given(k=st.integers(min_value=-480, max_value=480))
    def test_kernel_psd_is_scale_free(self, k):
        # the factor W^{-1/2} V_r is bit-identical under 2**k * Phi, and so
        # is the rounding bound read from it
        fs = small_frame()
        kernel, big = rk_kernel(fs), rk_kernel(scaled(fs, 2.0**k))
        assert np.array_equal(big.factor, kernel.factor)
        assert rkhs.kernel_psd_bound(big) == rkhs.kernel_psd_bound(kernel)

    @staticmethod
    def diagonal_file(tmp_path, c):
        # Phi = c I on weights c, so B = c**1.5 I
        path = tmp_path / f"diag{c}.json"
        path.write_text(
            f'{{"grid": {{"points": [0, 1], "weights": [{c}, {c}]}},'
            f' "vectors": [[{c}, 0], [0, {c}]]}}'
        )
        return str(path)

    def test_frame_past_the_double_range(self, tmp_path, capsys, recwarn):
        # B = diag(1e450) or diag(1e-450) is past the double range; Phi and
        # W^{1/2} are scaled before their product, so the frame keeps its
        # rank and is a frame, and only its bounds saturate.  The kernel's
        # residual is taken on scaled probes, as w * Phi overflows at 1e300
        # and underflows at 1e-300, so it stays a rounding error of |Phi|
        for c, bound in (("1e300", "inf"), ("1e-300", "0")):
            path = self.diagonal_file(tmp_path, c)
            assert cli.main(["analyze", path]) == cli.EXIT_OK
            assert f"rank=2 B1={bound} B2={bound} frame=true" in capsys.readouterr().out
            assert cli.main(["kernel", path]) == cli.EXIT_OK
            residual = float(capsys.readouterr().out.split("max_reproducing_residual=")[1])
            assert residual <= 1e-12 * float(c), c
        assert not recwarn.list

    def test_verify_past_the_double_range(self, tmp_path, capsys, recwarn):
        # every verdict is taken on the normalized frame, Phi near 1 on
        # weights near 1, whose Lax factor W^{-1/2} V_r Lambda_r^{-1/2} is
        # about 1; the rows past the double range print inf or 0
        for c, lax in (("1e300", "inf"), ("1e-300", "0")):
            assert cli.main(["verify", self.diagonal_file(tmp_path, c)]) == cli.EXIT_OK, c
            assert f"lax_identity_max={lax} (tolerance {lax})" in capsys.readouterr().out
        assert not recwarn.list

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

        def spy(work, width):
            # B or B^T, formed in the buffer Jacobi rotates, padded with +0.0;
            # padded_svd scales it, so it is normalized here as padded_svd will
            assert work[:, width:].tobytes() == np.zeros_like(work[:, width:]).tobytes()
            seen.append(np.ldexp(work[:, :width], -spectral._binary_exponent(work)))
            return spectral.padded_svd(work, width)

        with mock.patch.object(frames, "padded_svd", spy):
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


#: frames whose eigenvalues reach the rank rule's noise floor, with the rank kept at rank_tol 0
NOISE_FLOOR_CASES = pytest.mark.parametrize(
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


@NOISE_FLOOR_CASES
def test_rank_tol_zero_keeps_no_rounding_noise(fs, rank):
    # eigenvalues below (min(N, M) 2**-52)**2 lambda_max are never kept
    assert frame_spectrum(fs, 0.0).rank == rank


#: the wrong spectra of the fault matrix: SPECTRUM_FAULTS and V_r times sqrt(2)
FAULT_MATRIX = {**SPECTRUM_FAULTS, "v-root-two": kernel_factor_times_root_two}
#: the rows of the identity suite that each wrong spectrum must fail
FAULT_CATCHERS = {
    "v-doubled": {"max_reproducing_residual", "lax_identity_max", "isometry_relative_max",
                  "adjoint_relative_max"},
    "v-root-two": {"max_reproducing_residual", "lax_identity_max", "isometry_relative_max",
                   "adjoint_relative_max"},
    "u-row-moved": {"kernel_vs_tight_max", "adjoint_relative_max"},
    "lax-factor-root-two": {"lax_identity_max", "adjoint_relative_max"},
    "rank-one-short": {"lax_identity_max"},
}
COEFFICIENT_ROWS = ("isometry_relative_max", "adjoint_relative_max")


class TestCoefficientRows:
    """The isometry of the span onto its coefficients, ||V_r^T W^{1/2} p||^2 =
    ||p||^2_w, and the adjoint analysis(P) = A Lambda_r^{1/2} U_r^T, read from
    the factors: they hold on sound frames and name the faults they catch."""

    @pytest.mark.parametrize("c", [1e-90, 1.0, 1e80])
    @pytest.mark.parametrize("fault", sorted(FAULT_MATRIX))
    def test_fault_matrix_names_its_catchers(self, monkeypatch, fault, c):
        read_faulted_spectrum(monkeypatch, FAULT_MATRIX[fault])
        suite = rkhs.identity_suite(scaled(small_frame(), c), RANK_TOL)
        assert {name for name, row in suite.items() if not row.holds} >= FAULT_CATCHERS[fault]

    def test_isometry_catches_the_kernel_on_spread_weights(self, monkeypatch):
        # on weights 1e-300 ... 1e300 the reproducing row holds with the
        # kernel doubled (its s is an L2(w) norm against a sup-norm residual);
        # the isometry compares two L2(w) norms, so it reads the fault
        fs = small_frame()
        grid = Grid(points=fs.grid.points, weights=np.logspace(-300, 300, fs.n_points))
        read_faulted_spectrum(monkeypatch, kernel_factor_times_root_two)
        suite = rkhs.identity_suite(FrameSystem(grid=grid, vectors=fs.vectors), RANK_TOL)
        assert not suite["isometry_relative_max"].holds

    @settings(max_examples=40, deadline=None, database=None)
    @given(case=spectral_frames(), rank_tol=st.sampled_from([RANK_TOL, 0.0]))
    def test_rows_hold_on_frames_of_a_known_spectrum(self, case, rank_tol):
        fs, _ = case
        suite = rkhs.identity_suite(fs, rank_tol)
        for name in COEFFICIENT_ROWS:
            assert suite[name].holds, (name, suite[name])
            # only rounding noise is cut, so the gate stays at 1e-10
            assert suite[name].tolerance == pytest.approx(1e-10, rel=1e-6)

    def test_rows_allow_for_what_the_rank_cut_discards(self):
        # singular values 1, 0.8, 0.5 and 1e-3 of B, and rank_tol 1e-4 cuts
        # the last: the probes keep a share of about 1e-6 of their squared
        # norm outside the retained span, which the tail allows for
        r = np.random.default_rng(43)
        left, _ = np.linalg.qr(r.standard_normal((6, 4)))
        right, _ = np.linalg.qr(r.standard_normal((10, 4)))
        weights = r.uniform(0.5, 2.0, 10)
        b = (left * np.array([1.0, 0.8, 0.5, 1e-3])) @ right.T
        fs = FrameSystem(grid=Grid(np.arange(10.0), weights), vectors=b / np.sqrt(weights))
        suite = rkhs.identity_suite(fs, 1e-4)
        for name in COEFFICIENT_ROWS:
            assert 1e-10 < suite[name].residual <= suite[name].tolerance, (name, suite[name])

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 0.0])
    @NOISE_FLOOR_CASES
    def test_rows_hold_at_the_noise_floor(self, fs, rank, rank_tol):
        # at rank_tol 0 monomial-24 fails the Lax row; these two rows hold
        suite = rkhs.identity_suite(fs, rank_tol)
        for name in COEFFICIENT_ROWS:
            assert suite[name].holds, (name, suite[name])


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

    # each call rotates the 30 rows of B, of 60 entries padded to 64
    @pytest.mark.parametrize(
        "command, dims",
        [
            ("analyze", [(30, 64)]),
            ("kernel", [(30, 64)]),
            ("canonical", [(30, 64), (30, 64)]),
            ("verify", [(30, 64)]),
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
        side = (min(n, m), -(-max(n, m) // 8) * 8)  # the rows padded to whole lane groups
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
        # every row is read from the one spectrum, taken once: the suite
        # builds no kernel table and calls none of the operators or verifiers
        seen = {}
        helpers = ("KernelMatrix", "verify_reproducing", "verify_lax_identity",
                   "isometry_check", "build_gramian", "analysis", "synthesis",
                   "weighted_inner")
        for name in ("frame_spectrum", "_identity_rows") + helpers:
            original = getattr(rkhs, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                seen[_name] = seen.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(rkhs, name, counted)
        assert cli.main(["verify", frame_file]) == cli.EXIT_OK
        assert seen == {"frame_spectrum": 1, "_identity_rows": 1}
        assert calls == [(30, 64)]

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
