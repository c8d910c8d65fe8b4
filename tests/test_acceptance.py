"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import math
import time

import numpy as np
import pytest

from framekit import (
    ComplexVector,
    FrameSystem,
    Grid,
    build_gramian,
    canonical_tight,
    cli,
    empirical_variance,
    frame_spectrum,
    hilbert_spectrum_report,
    isometry_check,
    kl_coefficients,
    lax_milgram,
    mercedes_frame,
    monomial_frame,
    naive_kernel,
    rk_kernel,
    sample_kl,
    sandwich_check,
    synthesis,
    theoretical_variances,
    verify_lax_identity,
    verify_reproducing,
    weighted_norm,
)
from framekit.rkhs import kernel_psd_bound

from oracles import (
    eigh_descending,
    gram_schmidt_kernel,
    hilbert_gramian_exact,
    orthonormal_rows,
    random_riesz_frame,
    weighted_gram_schmidt,
)


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion:>2}: {status} - {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


def redundant_frame(seed, m, extra=5):
    r = np.random.default_rng(seed)
    grid = Grid(points=np.arange(m, dtype=float), weights=np.ones(m))
    for _ in range(50):
        fs = FrameSystem(grid=grid, vectors=r.standard_normal((m + extra, m)))
        bounds = frame_spectrum(fs)
        if bounds.is_frame and bounds.lower >= 4e-4 * bounds.upper:
            return fs
    raise AssertionError("no well-conditioned redundant frame drawn")


@pytest.fixture(scope="module")
def frame_battery():
    """100 Riesz systems (M <= 30) plus 100 redundant spanning systems (N = M + 5)."""
    riesz = [random_riesz_frame((i % 30) + 1, 1000 + i) for i in range(100)]
    redundant = [redundant_frame(2000 + i, (i % 25) + 1) for i in range(100)]
    return riesz + redundant


def test_criterion_1_hilbert_norm_bound():
    start = time.perf_counter()
    sizes = [1, 2, 4, 8, 16, 32, 64]
    rows = hilbert_spectrum_report(sizes + [12])
    lam_max = [row.lam_max for row in rows[:-1]]
    increasing = all(a < b for a, b in zip(lam_max, lam_max[1:]))
    below_pi = all(x < math.pi for x in lam_max)
    lam_min_12 = rows[-1].lam_min
    elapsed = time.perf_counter() - start
    report(
        1,
        "Hilbert lam_max strictly increasing below pi; lam_min(G_12) < 1e-8",
        increasing and below_pi and lam_min_12 < 1e-8 and elapsed < 1.0,
        f"lam_max(64)={lam_max[-1]:.6f}, lam_min(12)={lam_min_12:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_quadrature_consistency():
    start = time.perf_counter()
    sampled = build_gramian(monomial_frame(6, 4096))
    exact = hilbert_gramian_exact(6)
    err = float(np.max(np.abs(sampled - exact)))
    elapsed = time.perf_counter() - start
    report(
        2,
        "monomial Gramian at 4096 points matches exact Hilbert to 1e-4",
        err <= 1e-4 and elapsed < 1.0,
        f"max err={err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_reproducing_property(frame_battery):
    start = time.perf_counter()
    r = np.random.default_rng(3)
    worst = 0.0
    for fs in frame_battery:
        kernel = rk_kernel(fs)
        f = synthesis(fs, r.standard_normal(fs.n_vectors))
        scale = max(1.0, weighted_norm(fs.grid, f))
        worst = max(worst, verify_reproducing(fs, kernel, f) / scale)
    elapsed = time.perf_counter() - start
    report(
        3,
        "reproducing residual <= 1e-8 * max(1, ||f||) on 200 random frames",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_kernel_identities(frame_battery):
    start = time.perf_counter()
    worst_tight = 0.0
    worst_oracle = 0.0
    for fs in frame_battery:
        kernel = rk_kernel(fs).values
        tight = naive_kernel(canonical_tight(fs)).values
        oracle = gram_schmidt_kernel(fs.vectors, fs.grid.weights)
        worst_tight = max(worst_tight, float(np.max(np.abs(kernel - tight))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(kernel - oracle))))
    elapsed = time.perf_counter() - start
    report(
        4,
        "rk kernel matches canonical-tight route and Gram-Schmidt oracle to 1e-7",
        worst_tight <= 1e-7 and worst_oracle <= 1e-7 and elapsed < 10.0,
        f"vs tight={worst_tight:.2e}, vs oracle={worst_oracle:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_positive_definiteness(frame_battery):
    r = np.random.default_rng(5)
    trials = 0
    worst_eig = 0.0
    worst_sum = 0.0
    for fs in frame_battery:
        values = rk_kernel(fs).values
        lam, _ = eigh_descending(values)
        lam_max = max(float(lam[0]), 1.0)
        worst_eig = min(worst_eig, float(lam[-1]) / lam_max)
        for _ in range(3):
            c = r.standard_normal(fs.n_points)
            q = float(c @ values @ c) / (lam_max * max(float(c @ c), 1e-30))
            worst_sum = min(worst_sum, q)
            trials += 1
    report(
        5,
        "rk kernels are PSD: eigenvalue floor and random double sums >= -1e-9",
        worst_eig >= -1e-9 and worst_sum >= -1e-9 and trials >= 500,
        f"worst eig={worst_eig:.2e}, worst sum={worst_sum:.2e}, trials={trials}",
    )


def rank_deficient_frames():
    """Frames with N < M or a rank cut, whose kernel tables have lambda_min = 0."""
    r = np.random.default_rng(8)
    out = [monomial_frame(12, 64), monomial_frame(6, 40)]
    for _ in range(40):
        m = int(r.integers(2, 31))
        grid = Grid(points=np.arange(m, dtype=float), weights=r.uniform(0.5, 2.0, m))
        vectors = r.standard_normal((int(r.integers(1, m)), m))
        out.append(FrameSystem(grid=grid, vectors=vectors))
    return out


def test_kernel_psd_bound_against_numpy(frame_battery):
    # kernel_psd_bound bounds the rounding of the table, with numpy's
    # eigvalsh of the table itself as the oracle; the largest squared row
    # norm of the factor, the diagonal max_t K(t,t), bounds every entry.
    worst_bound = 0.0
    worst_entry = 0.0
    negative = 0
    for fs in frame_battery + rank_deficient_frames():
        for kernel in (rk_kernel(fs), naive_kernel(fs)):
            table = kernel.values
            lam = np.linalg.eigvalsh(table)
            diagonal_max = np.max(np.sum(kernel.factor**2, axis=1))
            negative += bool(lam[0] < 0.0)
            worst_bound = max(worst_bound, -float(lam[0]) / kernel_psd_bound(kernel))
            worst_entry = max(worst_entry, np.max(np.abs(table)) / diagonal_max)
    assert negative > 0
    assert worst_bound <= 1.0, worst_bound
    assert worst_entry <= 1.0 + 1e-12, worst_entry


def test_criterion_6_isometry():
    r = np.random.default_rng(6)
    worst = 0.0
    for trial in range(1000):
        n = int(r.integers(1, 18))
        m = int(r.integers(1, 13))
        weights = r.uniform(0.5, 2.0, m) if trial % 2 else np.ones(m)
        fs = FrameSystem(
            grid=Grid(points=np.arange(m, dtype=float), weights=weights),
            vectors=r.standard_normal((n, m)),
        )
        c = r.standard_normal(n)
        lhs, rhs = isometry_check(fs, c)
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    report(
        6,
        "synthesis isometry |  ||T*c||^2 - c^T G c | <= 1e-10 over 1000 trials",
        worst <= 1e-10,
        f"worst={worst:.2e}",
    )


def test_criterion_7_lax_milgram():
    r = np.random.default_rng(7)
    worst_identity = 0.0
    worst_projector = 0.0
    for trial in range(50):
        n = int(r.integers(2, 10))
        m = int(r.integers(1, 7))
        weights = r.uniform(0.5, 2.0, m) if trial % 2 else np.ones(m)
        grid = Grid(points=np.arange(m, dtype=float), weights=weights)
        fs = FrameSystem(grid=grid, vectors=r.standard_normal((n, m)))
        op = lax_milgram(fs)
        for _ in range(10):
            f = synthesis(fs, r.standard_normal(n))
            g = synthesis(fs, r.standard_normal(n))
            scale = max(
                1.0, weighted_norm(grid, f) * weighted_norm(grid, g)
            )
            worst_identity = max(
                worst_identity, verify_lax_identity(fs, op, f, g) / scale
            )
        # L S == projector onto span, via an independent Gram-Schmidt basis
        l_op = op.values * weights           # kernel table composed with W
        s_op = (fs.vectors.T @ fs.vectors) * weights
        ls = l_op @ s_op
        basis = weighted_gram_schmidt(fs.vectors, weights)
        root_w = np.sqrt(weights)
        p_hat = (basis * root_w).T @ (basis * root_w)
        projector = (p_hat / root_w[:, None]) * root_w
        worst_projector = max(
            worst_projector, float(np.max(np.abs(ls - projector)))
        )
    report(
        7,
        "Lax-Milgram identity <= 1e-8 * ||f|| ||g|| on 500 pairs; L S is the span projector",
        worst_identity <= 1e-8 and worst_projector <= 1e-8,
        f"identity={worst_identity:.2e}, projector={worst_projector:.2e}",
    )


def _onb_model(seed, j):
    r = np.random.default_rng(seed)
    atoms = Grid(
        points=np.sort(r.uniform(-4.0, 4.0, j) + 9.0 * np.arange(j)),
        weights=r.uniform(0.2, 2.0, j),
    )
    rows = orthonormal_rows(j, j, atoms.weights, seed=seed)
    return FrameSystem(grid=atoms, vectors=rows)


def _random_model(seed, n, j):
    r = np.random.default_rng(seed)
    atoms = Grid(
        points=np.sort(r.uniform(-3.0, 3.0, j) + 7.0 * np.arange(j)),
        weights=r.uniform(0.2, 2.0, j),
    )
    for _ in range(50):
        fs = FrameSystem(grid=atoms, vectors=r.standard_normal((n, j)))
        bounds = frame_spectrum(fs)
        if bounds.is_frame and bounds.lower >= 1e-4 * bounds.upper:
            return fs
    raise AssertionError("no frame model drawn")


def _variances(fs, phat):
    return theoretical_variances(fs.grid, phat, kl_coefficients(fs, phat))


def test_criterion_8_parseval_agreement():
    r = np.random.default_rng(8)
    worst_onb = 0.0
    checked = 0
    for seed in range(10):
        fs = _onb_model(300 + seed, 4 + seed % 3)
        j = fs.n_points
        for _ in range(10):
            phat = ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))
            ex2, ey2 = _variances(fs, phat)
            worst_onb = max(worst_onb, abs(ey2 - ex2) / max(ex2, 1e-300))
            checked += 1

    # a deliberately non-Parseval model (b/a = 2) and its separating profile
    masses = np.array([0.5, 1.25])
    atoms = Grid(points=np.array([-1.0, 2.0]), weights=masses)
    vectors = np.array(
        [[1.0 / math.sqrt(masses[0]), 0.0], [0.0, math.sqrt(2.0 / masses[1])]]
    )
    fs = FrameSystem(grid=atoms, vectors=vectors)
    bounds = frame_spectrum(fs)
    ratio_ok = bounds.upper / bounds.lower >= 1.5
    phat = ComplexVector(
        re=np.array([0.0, 1.0 / math.sqrt(masses[1])]), im=np.zeros(2)
    )
    ex2, ey2 = _variances(fs, phat)
    separated = abs(ey2 - ex2) > 1e-8 * ex2
    report(
        8,
        "Parseval models: ey2 == ex2 to 1e-10 on 100 profiles; b/a >= 1.5 separates",
        worst_onb <= 1e-10 and checked == 100 and ratio_ok and separated,
        f"worst onb={worst_onb:.2e}, gap={abs(ey2 - ex2):.2f}",
    )


def test_criterion_9_sandwich():
    r = np.random.default_rng(9)
    held = 0
    for seed in range(100):
        fs = _random_model(500 + seed, 5 + seed % 4, 3 + seed % 2)
        bounds = frame_spectrum(fs)
        j = fs.n_points
        for _ in range(5):
            phat = ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))
            if sandwich_check(bounds.lower, bounds.upper, *_variances(fs, phat)).holds:
                held += 1

    # tight sigma-frame: both sides collapse onto ey2
    worst_tight = 0.0
    for seed in range(5):
        base = _onb_model(700 + seed, 4)
        c = 1.0 + seed / 3.0
        fs = FrameSystem(grid=base.grid, vectors=c * base.vectors)
        j = fs.n_points
        phat = ComplexVector(re=r.standard_normal(j), im=r.standard_normal(j))
        ex2, ey2 = _variances(fs, phat)
        spec = frame_spectrum(fs)
        rep = sandwich_check(spec.lower, spec.upper, ex2, ey2)
        spread = max(abs(rep.lower - ey2), abs(rep.upper - ey2))
        worst_tight = max(worst_tight, spread / max(ey2, 1e-300))
    report(
        9,
        "sandwich holds on 500 random (model, phat); tight frames collapse to equality",
        held == 500 and worst_tight <= 1e-10,
        f"held={held}/500, tight spread={worst_tight:.2e}",
    )


def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    s = 200_000
    fs = _random_model(901, 6, 4)
    r = np.random.default_rng(10)
    phat = ComplexVector(re=r.standard_normal(4), im=r.standard_normal(4))
    coeffs = kl_coefficients(fs, phat)
    _, ey2 = theoretical_variances(fs.grid, phat, coeffs)
    first = sample_kl(coeffs, s, seed=4242)
    second = sample_kl(coeffs, s, seed=4242)
    identical = np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    estimate = empirical_variance(*first)
    rel_err = abs(estimate - ey2) / ey2
    bound = 4.0 * math.sqrt(2.0 / s)
    elapsed = time.perf_counter() - start
    report(
        10,
        "empirical |Y|^2 mean within 4*sqrt(2/S) of theory; reruns byte-identical",
        rel_err <= bound and identical and elapsed < 5.0,
        f"rel err={rel_err:.4%} vs bound {bound:.4%}, {elapsed:.2f}s",
    )


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    fs = mercedes_frame()
    src = tmp_path / "mercedes.json"
    cli.write_frame_file(str(src), fs)

    out_path = tmp_path / "kernel.json"
    code_kernel = cli.main(["kernel", str(src), "--out", str(out_path)])
    matrix = np.asarray(json.loads(out_path.read_text(encoding="utf-8"))["matrix"])
    bit_exact = np.array_equal(matrix, rk_kernel(fs).values)

    code_analyze = cli.main(["analyze", str(src)])
    out = capsys.readouterr().out
    prints_bounds = "B1=1.5 B2=1.5" in out

    code_missing = cli.main(["analyze", str(tmp_path / "absent.json")])
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"grid": {"points": [0.0, 1.0], "weights": [1.0]}, "vectors": [[1, 0]]}
        ),
        encoding="utf-8",
    )
    code_schema = cli.main(["analyze", str(bad)])
    zero = tmp_path / "zero.json"
    zero.write_text(
        json.dumps(
            {
                "grid": {"points": [0.0, 1.0], "weights": [1.0, 1.0]},
                "vectors": [[0.0, 0.0]],
            }
        ),
        encoding="utf-8",
    )
    code_zero = cli.main(["kernel", str(zero)])
    capsys.readouterr()

    codes_ok = (
        code_kernel == 0
        and code_analyze == 0
        and code_missing == 1
        and code_schema == 2
        and code_zero == 3
    )
    report(
        11,
        "CLI kernel round-trips bit-exactly; analyze prints B1=B2=1.5; exit codes honored",
        bit_exact and prints_bounds and codes_ok,
        f"codes=({code_kernel},{code_analyze},{code_missing},{code_schema},{code_zero})",
    )
