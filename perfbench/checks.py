"""Output checks that do not use framekit's spectral code.

Every reference value here comes from numpy's SVD or ``eigvalsh``, from sums
taken independently of framekit, or from properties the method must have
(a kernel reproduces the span, a canonical tight frame has a projector
Gramian).  Nothing is compared with a stored copy of earlier output.  Each
check returns a list of problems; an empty list means the output passed.

Tolerances follow the method's error model: the kernel and the tight frame
go through the Gramian pseudo-inverse, so they lose digits in proportion to
the retained condition number kappa_r of the Gramian.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10
PARSEVAL_TOL = 1e-9
VERIFY_NAMES = (
    "max_reproducing_residual",
    "kernel_vs_tight_max",
    "lax_identity_max",
    "isometry_relative_max",
    "adjoint_relative_max",
    "kernel_psd_violation",
    "gramian_psd_violation",
)
_NUM = r"([-+0-9.eEinfa]+)"


@dataclass(frozen=True)
class FrameTruth:
    """Reference quantities of one frame file, from the SVD of B = Phi W^1/2."""

    n: int
    m: int
    points: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    lam: np.ndarray  # squared singular values of B, non-increasing
    rank: int
    lower: float
    upper: float
    is_frame: bool
    is_parseval: bool
    kernel: np.ndarray  # Phi^T G^+ Phi = W^-1/2 P_row(B) W^-1/2
    tol: float  # relative tolerance on kernel-type results
    repro_gate: np.ndarray  # allowed reproducing residual of each frame vector


def frame_truth(points, weights, vectors, rank_tol: float = RANK_TOL) -> FrameTruth:
    root_w = np.sqrt(weights)
    _, s, vt = np.linalg.svd(vectors * root_w, full_matrices=False)
    lam = s * s
    cut = rank_tol * lam[0]
    near = np.abs(lam - cut) <= 1e-3 * cut
    if np.any(near):
        raise ValueError("a squared singular value lies within 0.1% of the rank cut")
    rank = int(np.count_nonzero(lam > cut))
    n, m = vectors.shape
    spans = rank == m
    lower = float(lam[rank - 1]) if spans else 0.0
    upper = float(lam[0])
    is_frame = spans and lower > 0.0
    is_parseval = is_frame and max(abs(lower - 1.0), abs(upper - 1.0)) <= PARSEVAL_TOL
    vr = vt[:rank]
    kernel = (vr.T @ vr) / np.outer(root_w, root_w)
    kappa = float(lam[0] / lam[rank - 1])
    tol = max(1e-11, 1e-13 * kappa)
    scale = float(np.max(np.abs(kernel)))
    tails = np.max(np.abs(vectors - (kernel @ (weights * vectors).T).T), axis=1)
    l1 = np.sum(np.abs(weights * vectors), axis=1)
    return FrameTruth(
        n=n, m=m, points=points, weights=weights, vectors=vectors, lam=lam, rank=rank,
        lower=lower, upper=upper, is_frame=is_frame, is_parseval=is_parseval,
        kernel=kernel, tol=tol, repro_gate=tails + 2.0 * tol * scale * l1,
    )


def _close6(printed: float, ref: float, floor: float = 0.0) -> bool:
    """True when a 6-significant-digit print matches ``ref``."""
    return abs(printed - ref) <= 1e-5 * abs(ref) + floor


def fields(line: str) -> dict:
    """key=value pairs of one output line."""
    return dict(re.findall(r"(\w+)=(\S+)", line))


def _bool(text: str) -> bool:
    return {"true": True, "false": False}[text]


def _rc(rc) -> list:
    return [] if rc == 0 else [f"exit status {rc!r}, expected 0"]


# ---------------------------------------------------------------------------
# frame subcommands


def check_analyze(t: FrameTruth, rc, stdout: str) -> list:
    problems = _rc(rc)
    try:
        f = fields(stdout.strip().splitlines()[-1])
        n, m, rank = int(f["N"]), int(f["M"]), int(f["rank"])
        lower, upper = float(f["B1"]), float(f["B2"])
        is_frame, is_parseval = _bool(f["frame"]), _bool(f["parseval"])
    except (IndexError, KeyError, ValueError) as exc:
        return problems + [f"unparsable analyze output: {exc!r}"]
    if (n, m) != (t.n, t.m):
        problems.append(f"shape {n}x{m}, expected {t.n}x{t.m}")
    if rank != t.rank:
        problems.append(f"rank {rank}, SVD rank {t.rank}")
    if not _close6(upper, t.upper):
        problems.append(f"B2 {upper!r}, SVD {t.upper!r}")
    if not _close6(lower, t.lower, 1e-12 * t.upper):
        problems.append(f"B1 {lower!r}, SVD {t.lower!r}")
    if (is_frame, is_parseval) != (t.is_frame, t.is_parseval):
        problems.append(
            f"frame={is_frame} parseval={is_parseval}, "
            f"expected {t.is_frame} {t.is_parseval}"
        )
    return problems


def check_kernel_matrix(t: FrameTruth, k: np.ndarray) -> list:
    """Kernel equals Phi^T G^+ Phi, reproduces the frame vectors, and is PSD."""
    if k.shape != (t.m, t.m):
        return [f"kernel shape {k.shape}, expected {(t.m, t.m)}"]
    problems = []
    scale = float(np.max(np.abs(t.kernel)))
    err = float(np.max(np.abs(k - t.kernel)))
    if not err <= t.tol * scale:
        problems.append(f"kernel differs from Phi^T G^+ Phi by {err:.3e} (gate {t.tol * scale:.3e})")
    repro = np.max(np.abs(t.vectors - (k @ (t.weights * t.vectors).T).T), axis=1)
    if not np.all(repro <= t.repro_gate):
        worst = int(np.argmax(repro - t.repro_gate))
        problems.append(
            f"vector {worst} reproduced with residual {repro[worst]:.3e} "
            f"(gate {t.repro_gate[worst]:.3e})"
        )
    ev = np.linalg.eigvalsh(0.5 * (k + k.T))
    if not ev[0] >= -t.tol * max(abs(ev[-1]), abs(ev[0])):
        problems.append(f"kernel not PSD: eigenvalue {ev[0]:.3e}")
    return problems


def check_kernel_stdout(t: FrameTruth, rc, stdout: str) -> list:
    problems = _rc(rc)
    try:
        f = fields(stdout.strip().splitlines()[-1])
        residual = float(f["max_reproducing_residual"])
        ok = f["kind"] == "rkhs" and int(f["M"]) == t.m
    except (IndexError, KeyError, ValueError) as exc:
        return problems + [f"unparsable kernel output: {exc!r}"]
    if not ok:
        problems.append("kernel summary names the wrong kind or size")
    if not residual <= float(np.max(t.repro_gate)) * (1 + 1e-5):
        problems.append(f"reported reproducing residual {residual:.3e} above the scale-relative gate")
    return problems


def check_tight_matrix(t: FrameTruth, psi: np.ndarray) -> list:
    """Gramian of the tight frame is a rank-r projector; its kernel is the kernel."""
    if psi.shape != (t.n, t.m):
        return [f"tight frame shape {psi.shape}, expected {(t.n, t.m)}"]
    problems = []
    p = (psi * t.weights) @ psi.T
    idem = float(np.max(np.abs(p @ p - p)))
    if not idem <= 10.0 * t.tol:
        problems.append(f"tight-frame Gramian is not a projector: |P^2-P| = {idem:.3e}")
    trace = float(np.trace(p))
    if not abs(trace - t.rank) <= 10.0 * t.tol * t.rank:
        problems.append(f"projector trace {trace!r}, SVD rank {t.rank}")
    scale = float(np.max(np.abs(t.kernel)))
    err = float(np.max(np.abs(psi.T @ psi - t.kernel)))
    if not err <= t.tol * scale:
        problems.append(f"tight-frame kernel differs by {err:.3e} (gate {t.tol * scale:.3e})")
    return problems


def check_canonical_stdout(t: FrameTruth, rc, stdout: str) -> list:
    problems = _rc(rc)
    try:
        f = fields(stdout.strip().splitlines()[-1])
        shape = (int(f["N"]), int(f["M"]))
    except (IndexError, KeyError, ValueError) as exc:
        return problems + [f"unparsable canonical output: {exc!r}"]
    if shape != (t.n, t.m):
        problems.append(f"canonical shape {shape}, expected {(t.n, t.m)}")
    return problems


def parse_verify(stdout: str) -> dict:
    found = {}
    for line in stdout.splitlines():
        hit = re.fullmatch(rf"(\w+)={_NUM} \(tolerance {_NUM}\)", line.strip())
        if hit:
            found[hit.group(1)] = (float(hit.group(2)), float(hit.group(3)))
    return found


def check_verify(t: FrameTruth, rc, stdout: str) -> list:
    """Identity suite passes, and its reproducing residual is small for the data's scale.

    The probes are the frame vectors and combinations phi_i - phi_{i+1}/2, so
    their residual is at most 1.5 times the largest per-vector gate.
    """
    problems = _rc(rc)
    found = parse_verify(stdout)
    if set(found) != set(VERIFY_NAMES):
        return problems + [f"identity names {sorted(found)}"]
    for name, (value, tolerance) in found.items():
        if not value <= tolerance:
            problems.append(f"{name}={value!r} above its tolerance {tolerance!r}")
    gate = 1.5 * float(np.max(t.repro_gate)) * (1 + 1e-5)
    value = found["max_reproducing_residual"][0]
    if not value <= gate:
        problems.append(f"reproducing residual {value:.3e} above the scale-relative gate {gate:.3e}")
    return problems


# ---------------------------------------------------------------------------
# written files


def check_file_bits(text: str, expected: dict) -> list:
    """Re-read a written file with stdlib json; every array must match bit for bit.

    ``expected`` maps a dotted key path ("grid.points") to an array, or to a
    scalar that must compare equal.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:
        return [f"written file is not JSON: {exc}"]
    problems = []
    for path, want in expected.items():
        node = raw
        try:
            for key in path.split("."):
                node = node[key]
        except (KeyError, TypeError):
            problems.append(f"{path}: missing")
            continue
        if isinstance(want, np.ndarray):
            got = np.asarray(node, dtype=float)
            if got.shape != want.shape or got.tobytes() != np.ascontiguousarray(want, dtype=float).tobytes():
                problems.append(f"{path}: not bit-identical to the library result")
        elif node != want:
            problems.append(f"{path}: {node!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# hilbert


def check_hilbert(sizes, rc, stdout: str) -> list:
    """lam_max equal to eigvalsh of the Hilbert matrix, strictly increasing, below pi."""
    problems = _rc(rc)
    rows = {}
    for line in stdout.strip().splitlines()[1:]:
        parts = line.split()
        try:
            rows[int(parts[0])] = float(parts[1])
        except (IndexError, ValueError):
            return problems + [f"unparsable hilbert row {line!r}"]
    if sorted(rows) != sorted(sizes):
        return problems + [f"hilbert sizes {sorted(rows)}, expected {sorted(sizes)}"]
    previous = -math.inf
    for n in sorted(rows):
        idx = np.arange(n)
        ref = float(np.linalg.eigvalsh(1.0 / (idx[:, None] + idx[None, :] + 1.0))[-1])
        lam = rows[n]
        if not _close6(lam, ref):
            problems.append(f"n={n}: lam_max {lam!r}, eigvalsh {ref!r}")
        if not lam < math.pi:
            problems.append(f"n={n}: lam_max {lam!r} not below pi")
        if not lam > previous:
            problems.append(f"n={n}: lam_max {lam!r} not above the previous size")
        previous = lam
    return problems


# ---------------------------------------------------------------------------
# gp-sim


@dataclass(frozen=True)
class ModelTruth:
    a: float
    b: float
    ex2: float
    ey2: float
    ey2_se: float  # standard error of the mean of |Y|^2 over the sample count
    cauchy_mass: float


def model_truth(model, samples: int, rank_tol: float = RANK_TOL) -> ModelTruth:
    """Frame bounds from the SVD, E|X|^2 and E|Y|^2 summed with math.fsum."""
    m = model.masses
    s = np.linalg.svd(model.vectors * np.sqrt(m), compute_uv=False)
    lam = s * s
    rank = int(np.count_nonzero(lam > rank_tol * lam[0]))
    if rank != m.size:
        raise ValueError("benchmark model does not span L2 of its measure")
    if model.phat is not None:
        phat = np.asarray(model.phat, dtype=complex)
    else:
        phase = np.exp(1j * np.outer(model.locations, model.x_points))
        phat = phase @ (model.x_weights * model.phi)
    ex2 = math.fsum(m * np.abs(phat) ** 2)
    coeffs = [
        complex(math.fsum(row * m * phat.real), math.fsum(row * m * phat.imag))
        for row in model.vectors
    ]
    ey2 = math.fsum(abs(c) ** 2 for c in coeffs)
    # Y = (Y_re, Y_im) is Gaussian with covariance C; Var|Y|^2 = 2 tr(C^2).
    cre = math.fsum(c.real**2 for c in coeffs)
    cim = math.fsum(c.imag**2 for c in coeffs)
    cx = math.fsum(c.real * c.imag for c in coeffs)
    var = 2.0 * (cre**2 + cim**2 + 2.0 * cx**2)
    cauchy = math.fsum(m / (1.0 + model.locations**2))
    return ModelTruth(
        a=float(lam[-1]), b=float(lam[0]), ex2=ex2, ey2=ey2,
        ey2_se=math.sqrt(var / samples), cauchy_mass=cauchy,
    )


def check_gp(t: ModelTruth, samples: int, seed: int, rc, stdout: str, n_se: float = 6.0) -> list:
    problems = _rc(rc)
    lines = stdout.strip().splitlines()
    try:
        f = {**fields(lines[0]), **fields(lines[1])}
        a, b, cauchy = float(f["a"]), float(f["b"]), float(f["cauchy_mass"])
        ex2, ey2, emp = float(f["ex2"]), float(f["ey2"]), float(f["ey2_empirical"])
        meta = (int(f["samples"]), int(f["seed"]))
        verdict = re.fullmatch(rf"sandwich {_NUM} <= {_NUM} <= {_NUM}: (\w+)", lines[2].strip())
        held = verdict.group(4)
    except (IndexError, KeyError, ValueError, AttributeError) as exc:
        return problems + [f"unparsable gp-sim output: {exc!r}"]
    if meta != (samples, seed):
        problems.append(f"samples/seed {meta}, expected {(samples, seed)}")
    for name, got, ref in (
        ("a", a, t.a), ("b", b, t.b), ("cauchy_mass", cauchy, t.cauchy_mass),
        ("ex2", ex2, t.ex2), ("ey2", ey2, t.ey2),
    ):
        if not _close6(got, ref):
            problems.append(f"{name}={got!r}, independent value {ref!r}")
    slack = 1e-10 * max(1.0, t.b * t.ex2)
    sandwich = t.a * t.ex2 - slack <= t.ey2 <= t.b * t.ex2 + slack
    if not sandwich or held != "holds":
        problems.append(f"sandwich with SVD bounds holds={sandwich}, reported {held!r}")
    gap = abs(emp - t.ey2)
    if not gap <= n_se * t.ey2_se + 1e-5 * t.ey2:
        problems.append(
            f"Monte-Carlo E|Y|^2 {emp!r} is {gap / t.ey2_se:.1f} standard errors from {t.ey2!r}"
        )
    return problems
