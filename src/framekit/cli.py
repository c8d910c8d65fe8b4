"""Command-line front end and the flat-file schemas it reads and writes.

Files are UTF-8 JSON.  Frame file:

    {"grid": {"points": [...], "weights": [...]}, "vectors": [[...], ...]}

Model file:

    {"atoms": [{"u": ..., "mass": ...}, ...],
     "frame": [[...], ...],
     "phat": {"re": [...], "im": [...]}        # exactly one of phat /
     "phi_x": {"grid": {...}, "values": [...]}}  # phi_x for GP commands

Kernel output adds {"matrix": [[...]], "kind": "rkhs"|"naive", "rank_tol": r}.
Machine files carry 17 significant digits, and -0.0 as "-0.0", so every
finite double reads back bit for bit; human reports print 6.  A number that
is not a JSON int or float (true, "1.0", null, a nested array) or an integer
too large for a double is a schema error naming its field.

Subcommands and the only flags each accepts, with their defaults:

    analyze PATH    [--rank-tol 1e-10]
    kernel PATH     [--rank-tol 1e-10] [--out FILE] [--naive]
    canonical PATH  [--rank-tol 1e-10] [--out FILE]
    verify PATH     [--rank-tol 1e-10]
    gp-sim PATH     [--rank-tol 1e-10] [--seed 0] [--samples 200000]
    hilbert         --sizes N,N,...

--rank-tol must lie in [0, 1) and --seed in [0, 2**64).  The argument
parser is built once per process, on the first call of main().

Exit codes:

    0  success
    1  unreadable file
    2  schema or argument violation (SchemaError, InvalidArgument,
       InvalidMatrix, DimensionMismatch, InvalidIndex), a Jacobi solve that
       did not converge (NotConverged), and any other FramekitError
    3  degenerate input (ZeroSpan, NotAFrame)
    4  a mathematical assertion failed (an identity residual above its
       tolerance, a Hilbert table violation)
    5  sandwich violated in gp-sim
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classic, frames, gp, rkhs
from .errors import (
    DimensionMismatch,
    FramekitError,
    InvalidArgument,
    InvalidIndex,
    InvalidMatrix,
    NotAFrame,
    ZeroSpan,
)
from .spectral import DEFAULT_RANK_TOL

EXIT_OK = 0
EXIT_MISSING = 1
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_MATH = 4
EXIT_SANDWICH = 5


class SchemaError(FramekitError):
    """File content violates the expected schema; message names the field."""


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    text = format(float(x), ".17g")
    # "-0" would read back as the integer 0, that is +0.0
    return "-0.0" if text == "-0" else text


def _fmt_human(x: float) -> str:
    return format(float(x), ".6g")


def _fmt_row(row: np.ndarray) -> str:
    # "%.17g" spells every double as format(x, ".17g") does
    values = row.tolist()
    texts = ["%.17g" % x for x in values]
    if 0.0 in values:  # -0.0 == 0.0, so only a row holding a zero can hold -0.0
        for i in np.flatnonzero((row == 0) & np.signbit(row)).tolist():
            texts[i] = "-0.0"
    return ", ".join(texts)


def _emit(value, out: list) -> None:
    # a float64 row in one join; a 2-D array is its rows (the sequence branch)
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64:
        out.extend(("[", _fmt_row(value), "]"))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def dump_json(value) -> str:
    """JSON text with floats at 17 significant digits."""
    out: list = []
    _emit(value, out)
    return "".join(out) + "\n"


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SchemaError(f"{path}: {exc}")


def _number_list(raw, field: str) -> np.ndarray:
    # json.loads yields exact types, so bool (a subclass of int) is not in the set
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
        raise SchemaError(f"{field}: expected an array of numbers")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise SchemaError(f"{field}: integer too large for a double")


def _matrix(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{field}: expected a non-empty array of rows")
    rows = [_number_list(r, f"{field}[{i}]") for i, r in enumerate(raw)]
    width = rows[0].size
    for i, r in enumerate(rows):
        if r.size != width:
            raise SchemaError(
                f"{field}[{i}]: expected {width} numbers, got {r.size}"
            )
    return np.vstack(rows)


def _parse_grid(raw, field: str) -> frames.Grid:
    if not isinstance(raw, dict):
        raise SchemaError(f"{field}: expected an object with points and weights")
    for key in ("points", "weights"):
        if key not in raw:
            raise SchemaError(f"{field}.{key}: missing")
    points = _number_list(raw["points"], f"{field}.points")
    weights = _number_list(raw["weights"], f"{field}.weights")
    if points.size != weights.size:
        raise SchemaError(
            f"{field}.weights: {weights.size} entries for {points.size} points"
        )
    try:
        return frames.Grid(points=points, weights=weights)
    except FramekitError as exc:
        raise SchemaError(f"{field}: {exc}")


def parse_frame_file(path: str) -> frames.FrameSystem:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "grid" not in raw:
        raise SchemaError("grid: missing")
    if "vectors" not in raw:
        raise SchemaError("vectors: missing")
    grid = _parse_grid(raw["grid"], "grid")
    vectors = _matrix(raw["vectors"], "vectors")
    try:
        return frames.FrameSystem(grid=grid, vectors=vectors)
    except FramekitError as exc:
        raise SchemaError(f"vectors: {exc}")


def write_frame_file(path: str, fs: frames.FrameSystem) -> None:
    payload = {
        "grid": {
            "points": fs.grid.points,
            "weights": fs.grid.weights,
        },
        "vectors": fs.vectors,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(payload))


def parse_model_file(path: str):
    """Returns (frame system, phat) for GP commands; the frame system's grid
    is the atomic measure, with the atoms' u as points and masses as weights."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "atoms" not in raw:
        raise SchemaError("atoms: missing")
    if not isinstance(raw["atoms"], list) or not raw["atoms"]:
        raise SchemaError("atoms: expected a non-empty array")
    locations, masses = [], []
    for i, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict) or "u" not in atom or "mass" not in atom:
            raise SchemaError(f"atoms[{i}]: expected an object with u and mass")
        locations.append(atom["u"])
        masses.append(atom["mass"])
    try:
        atoms = frames.Grid(
            points=_number_list(locations, "atoms[].u"),
            weights=_number_list(masses, "atoms[].mass"),
        )
    except FramekitError as exc:
        raise SchemaError(f"atoms: {exc}")
    if "frame" not in raw:
        raise SchemaError("frame: missing")
    vectors = _matrix(raw["frame"], "frame")
    try:
        fs = frames.FrameSystem(grid=atoms, vectors=vectors)
    except FramekitError as exc:
        raise SchemaError(f"frame: {exc}")

    has_phat = "phat" in raw
    has_phi = "phi_x" in raw
    if has_phat == has_phi:
        raise SchemaError("phat/phi_x: exactly one must be present")
    if has_phat:
        section = raw["phat"]
        if not isinstance(section, dict) or "re" not in section or "im" not in section:
            raise SchemaError("phat: expected an object with re and im")
        re = _number_list(section["re"], "phat.re")
        im = _number_list(section["im"], "phat.im")
        try:
            phat = gp.ComplexVector(re=re, im=im)
        except FramekitError as exc:
            raise SchemaError(f"phat: {exc}")
        if len(phat) != atoms.size:
            raise SchemaError(
                f"phat: {len(phat)} entries for {atoms.size} atoms"
            )
    else:
        section = raw["phi_x"]
        if not isinstance(section, dict) or "grid" not in section or "values" not in section:
            raise SchemaError("phi_x: expected an object with grid and values")
        x_grid = _parse_grid(section["grid"], "phi_x.grid")
        values = _number_list(section["values"], "phi_x.values")
        if values.size != x_grid.size:
            raise SchemaError(
                f"phi_x.values: {values.size} entries for {x_grid.size} grid points"
            )
        phat = gp.fourier_at_atoms(x_grid, values, atoms)
    return fs, phat


def write_kernel_file(path: str, k: rkhs.KernelMatrix, kind: str, rank_tol: float):
    payload = {"matrix": k.values, "kind": kind, "rank_tol": rank_tol}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(payload))


def read_kernel_file(path: str):
    raw = _read_json(path)
    if not isinstance(raw, dict) or "matrix" not in raw:
        raise SchemaError("matrix: missing")
    return _matrix(raw["matrix"], "matrix"), raw.get("kind"), raw.get("rank_tol")


# ---------------------------------------------------------------------------
# commands


def _bool_str(x: bool) -> str:
    return "true" if x else "false"


def cmd_analyze(args) -> int:
    fs = parse_frame_file(args.path)
    report = frames.compute_frame_bounds(fs, args.rank_tol)
    print(
        f"N={fs.n_vectors} M={fs.n_points} rank={report.rank} "
        f"B1={_fmt_human(report.lower)} B2={_fmt_human(report.upper)} "
        f"frame={_bool_str(report.is_frame)} "
        f"parseval={_bool_str(report.is_parseval)}"
    )
    return EXIT_OK


def cmd_kernel(args) -> int:
    fs = parse_frame_file(args.path)
    if args.naive:
        kernel, kind = rkhs.naive_kernel(fs), "naive"
    else:
        kernel, kind = rkhs.rk_kernel(fs, args.rank_tol), "rkhs"
    psd_violation = rkhs.kernel_psd_bound(kernel)
    residual = rkhs.verify_reproducing(fs, kernel, fs.vectors)
    if args.out:
        write_kernel_file(args.out, kernel, kind, args.rank_tol)
        print(f"wrote {args.out}")
    print(
        f"kind={kind} M={fs.n_points} "
        f"psd_violation={_fmt_human(psd_violation)} "
        f"max_reproducing_residual={_fmt_human(residual)}"
    )
    return EXIT_OK


def cmd_hilbert(args) -> int:
    sizes = _parse_sizes(args.sizes)
    rows = classic.hilbert_spectrum_report(sizes)
    print("n lam_max lam_min pi_minus_lam_max")
    for row in rows:
        print(
            f"{row.n} {_fmt_human(row.lam_max)} {_fmt_human(row.lam_min)} "
            f"{_fmt_human(row.pi_gap)}"
        )
    if any(row.lam_max >= math.pi for row in rows):
        print("violation: lam_max reached pi", file=sys.stderr)
        return EXIT_MATH
    ordered = sorted(rows, key=lambda row: row.n)
    if any(a.n < b.n and a.lam_max >= b.lam_max for a, b in zip(ordered, ordered[1:])):
        print("violation: lam_max not increasing with n", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_gp_sim(args) -> int:
    fs, phat = parse_model_file(args.path)
    bounds = frames.compute_frame_bounds(fs, args.rank_tol)
    coefficients = gp.kl_coefficients(fs, phat)
    ex2, ey2 = gp.theoretical_variances(fs.grid, phat, coefficients)
    report = gp.sandwich_check(bounds, ex2, ey2)
    empirical = gp.empirical_variance(gp.sample_kl(coefficients, args.samples, args.seed))
    print(
        f"a={_fmt_human(bounds.lower)} b={_fmt_human(bounds.upper)} "
        f"cauchy_mass={_fmt_human(gp.cauchy_mass(fs.grid))}"
    )
    print(
        f"ex2={_fmt_human(ex2)} ey2={_fmt_human(ey2)} "
        f"ey2_empirical={_fmt_human(empirical)} "
        f"samples={args.samples} seed={args.seed}"
    )
    print(
        f"sandwich {_fmt_human(report.lower)} <= {_fmt_human(ey2)} "
        f"<= {_fmt_human(report.upper)}: "
        f"{'holds' if report.holds else 'VIOLATED'}"
    )
    return EXIT_OK if report.holds else EXIT_SANDWICH


def cmd_canonical(args) -> int:
    fs = parse_frame_file(args.path)
    out = rkhs.canonical_tight(fs, args.rank_tol)
    # nonzero spectrum of the written frame's Gramian, in dimension min(N, M)
    lam = frames.frame_spectrum(out, args.rank_tol).eigenvalues
    projector_residual = float(np.max(np.abs(lam * (lam - 1.0))))
    if args.out:
        write_frame_file(args.out, out)
        print(f"wrote {args.out}")
    print(
        f"N={out.n_vectors} M={out.n_points} "
        f"projector_residual={_fmt_human(projector_residual)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    fs = parse_frame_file(args.path)
    rows = rkhs.identity_suite(fs, args.rank_tol)
    for name, row in rows.items():
        print(f"{name}={_fmt_human(row.residual)} (tolerance {_fmt_human(row.tolerance)})")
    if not all(row.holds for row in rows.values()):
        print("violation: identity residual above tolerance", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(chunk) for chunk in raw.split(",") if chunk.strip()]
    except ValueError:
        raise InvalidArgument(f"--sizes expects comma-separated integers, got {raw!r}")
    if not sizes:
        raise InvalidArgument("--sizes is empty")
    return sizes


# ---------------------------------------------------------------------------
# dispatch


def _rank_tol(raw: str) -> float:
    # refused by the parser, so --naive, which reads no rank, is covered too
    value = float(raw)
    if not 0.0 <= value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {raw}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    arguments = {
        "path": {},
        "--rank-tol": dict(
            type=_rank_tol,
            default=DEFAULT_RANK_TOL,
            help="relative eigenvalue threshold for rank decisions, in [0, 1)",
        ),
        "--out": dict(default=None, help="output file path"),
        "--naive": dict(
            action="store_true",
            help="plain vector-sum kernel instead of the inverse-Gramian kernel",
        ),
        "--seed": dict(type=int, default=0, help="sampling seed"),
        "--samples": dict(type=int, default=200_000, help="Monte-Carlo sample count"),
        "--sizes": dict(required=True, help="comma-separated matrix sizes"),
    }
    commands = {  # name: (help, the arguments it reads); the handler is cmd_<name>
        "analyze": ("frame bounds of a frame file", "path --rank-tol"),
        "kernel": ("write the kernel matrix", "path --rank-tol --out --naive"),
        "hilbert": ("Hilbert spectrum table", "--sizes"),
        "gp-sim": ("KL sandwich simulation", "path --rank-tol --seed --samples"),
        "canonical": ("write the canonical tight frame", "path --rank-tol --out"),
        "verify": ("run the identity suite", "path --rank-tol"),
    }
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Frame bounds, reproducing kernels, and KL Gaussian sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, names) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for arg in names.split():
            p.add_argument(arg, **arguments[arg])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* (a test stub, a tracer) is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InvalidArgument, InvalidMatrix, DimensionMismatch, InvalidIndex) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ZeroSpan, NotAFrame) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FramekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
