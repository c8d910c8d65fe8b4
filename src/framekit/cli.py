"""Command-line front end and the flat-file schemas it reads and writes.

Files are UTF-8 JSON.  Frame file:

    {"grid": {"points": [...], "weights": [...]}, "vectors": [[...], ...]}

Model file:

    {"atoms": [{"u": ..., "mass": ...}, ...],
     "frame": [[...], ...],
     "phat": {"re": [...], "im": [...]}        # exactly one of phat /
     "phi_x": {"grid": {...}, "values": [...]}}  # phi_x for GP commands

Kernel file, written by kernel --out:

    {"matrix": [[...], ...], "kind": "rkhs", "rank_tol": r}
    {"matrix": [[...], ...], "kind": "naive"}   # kernel --naive --out

The CLI writes only frame files (canonical --out) and kernel files, in
chunks of whole rows of the table, so the memory a write needs beyond the
table is one chunk's text, at most 256 KiB or one row.  Machine files
carry 17 significant digits ("%.17g"), and -0.0 as "-0.0", so every finite
double reads back bit for bit; human reports print 6.  A number that is
not a JSON int or float (true, "1.0", null, a nested array) or an integer
too large for a double is a schema error naming its field; a file that is
not UTF-8 or not JSON is one naming the file.

The active backend of ``framekit._kernels`` spells the rows and scans frame
files.  The compiled scanner accepts only the frame layout above with the
keys in that order and no others, any JSON whitespace, non-empty arrays,
rows of equal width and finite numbers under the JSON number grammar, in
ASCII.  It reads a file in one walk, each number as json does (the int
literal -0 is +0.0) into one array of the file's commas + 1 doubles,
exactly its numbers: a literal of at most 19 significant digits with a
decimal exponent in [-27, 27] is converted exactly by the scanner itself,
and strtod_l in the C locale reads the rest.  It declines everything else,
and the JSON walk below then reads the file.
The JSON walk is the reference and gives every refusal, so every schema
error and exit code is the same whichever backend runs; model files always
go through it.

Subcommands and the only flags each accepts, with their defaults:

    analyze PATH    [--rank-tol 1e-10]
    kernel PATH     [--rank-tol 1e-10] [--out FILE] [--naive]
    canonical PATH  [--rank-tol 1e-10] [--out FILE]
    verify PATH     [--rank-tol 1e-10]
    gp-sim PATH     [--rank-tol 1e-10] [--seed 0] [--samples 200000]
    hilbert         --sizes N,N,...

--rank-tol must lie in [0, 1), --seed in [0, 2**64), --samples at 2 or
more and each hilbert size in [1, 202]: past 202 the smallest eigenvalue of
the Hilbert matrix is not a normal double.  A sample count whose samples do
not fit in memory exits 2 as well.  The argument parser is built once per process, on the
first call of main().

Exit codes:

    0  success
    1  unreadable or unwritable file
    2  schema or argument violation (SchemaError, a file that is not UTF-8
       or not JSON included; InvalidArgument, InvalidMatrix,
       DimensionMismatch, InvalidIndex), a Jacobi solve that did not
       converge (NotConverged), and any other FramekitError
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

from . import _kernels, classic, frames, gp, rkhs
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


def _fmt_human(x: float) -> str:
    return format(float(x), ".6g")


def _spell(table: np.ndarray) -> bytes:
    # the rows of a 2-D table as "[v, v], [v, v]"; one row is "[v, v]"
    return b"".join(_kernels.ACTIVE.spell_rows(table))


def _write_table(path: str, head: bytes, table: np.ndarray, tail: bytes) -> None:
    # rows are written a chunk of whole rows at a time, so the text in memory
    # is one chunk, at most 256 KiB or one row
    with open(path, "wb") as fh:
        fh.write(head + b"[")
        for chunk in _kernels.ACTIVE.spell_rows(table):
            fh.write(chunk)
        fh.write(b"]" + tail + b"\n")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:  # an OSError propagates; main exits 1
        return fh.read()


def _load_json(path: str, data: bytes) -> dict:
    try:
        raw = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise SchemaError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})")
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SchemaError(f"{path}: {exc}")
    except RecursionError:  # arrays or objects nested past the interpreter's stack
        raise SchemaError(f"{path}: nested too deeply to read")
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return raw


def _object(raw, field: str, keys: tuple[str, ...]) -> list:
    # the values of the named keys, in order; field is "" at the top level
    if not isinstance(raw, dict):
        raise SchemaError(f"{field}: expected an object with {' and '.join(keys)}")
    for key in keys:
        if key not in raw:
            raise SchemaError(f"{field}.{key}: missing" if field else f"{key}: missing")
    return [raw[key] for key in keys]


def _build(kind, field: str, **parts):
    # the library type or function checks its parts; its refusal names the field
    try:
        return kind(**parts)
    except FramekitError as exc:
        raise SchemaError(f"{field}: {exc}")


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
            raise SchemaError(f"{field}[{i}]: expected {width} numbers, got {r.size}")
    return np.vstack(rows)


def _grid(raw, field: str) -> frames.Grid:
    points, weights = _object(raw, field, ("points", "weights"))
    points = _number_list(points, f"{field}.points")
    weights = _number_list(weights, f"{field}.weights")
    return _build(frames.Grid, field, points=points, weights=weights)


def parse_frame_file(path: str) -> frames.FrameSystem:
    data = _read(path)
    arrays = _kernels.ACTIVE.scan_frame(data)
    if arrays is None:  # not the frame layout: the walk reads it, or refuses it
        grid, vectors = _object(_load_json(path, data), "", ("grid", "vectors"))
        grid, vectors = _grid(grid, "grid"), _matrix(vectors, "vectors")
    else:
        points, weights, vectors = arrays
        grid = _build(frames.Grid, "grid", points=points, weights=weights)
    return _build(frames.FrameSystem, "vectors", grid=grid, vectors=vectors)


def write_frame_file(path: str, fs: frames.FrameSystem) -> None:
    head = (
        b'{"grid": {"points": ' + _spell(fs.grid.points[None]) + b', "weights": '
        + _spell(fs.grid.weights[None]) + b'}, "vectors": '
    )
    _write_table(path, head, fs.vectors, b"}")


def parse_model_file(path: str):
    """Returns (frame system, phat) for GP commands; the frame system's grid
    is the atomic measure, with the atoms' u as points and masses as weights."""
    raw = _load_json(path, _read(path))
    atom_list, frame = _object(raw, "", ("atoms", "frame"))
    if not isinstance(atom_list, list) or not atom_list:
        raise SchemaError("atoms: expected a non-empty array")
    u, mass = zip(*[_object(a, f"atoms[{i}]", ("u", "mass")) for i, a in enumerate(atom_list)])
    u, mass = _number_list(list(u), "atoms[].u"), _number_list(list(mass), "atoms[].mass")
    atoms = _build(frames.Grid, "atoms", points=u, weights=mass)
    fs = _build(frames.FrameSystem, "frame", grid=atoms, vectors=_matrix(frame, "frame"))
    if ("phat" in raw) == ("phi_x" in raw):
        raise SchemaError("phat/phi_x: exactly one must be present")
    if "phat" in raw:
        re, im = _object(raw["phat"], "phat", ("re", "im"))
        re, im = _number_list(re, "phat.re"), _number_list(im, "phat.im")
        phat = _build(gp.ComplexVector, "phat", re=re, im=im)
        if len(phat) != atoms.size:
            raise SchemaError(f"phat: {len(phat)} entries for {atoms.size} atoms")
    else:
        grid, values = _object(raw["phi_x"], "phi_x", ("grid", "values"))
        grid, values = _grid(grid, "phi_x.grid"), _number_list(values, "phi_x.values")
        phat = _build(gp.fourier_at_atoms, "phi_x.values", x_grid=grid, phi=values, atoms=atoms)
    return fs, phat


def write_kernel_file(path: str, k: rkhs.KernelMatrix, kind: str, rank_tol: float):
    tail = b', "kind": ' + json.dumps(kind).encode()
    if kind == "rkhs":  # the naive kernel reads no rank, so its file records none
        tail += b', "rank_tol": ' + _spell(np.array([[rank_tol]]))[1:-1]
    _write_table(path, b'{"matrix": ', k.values, tail + b"}")


# ---------------------------------------------------------------------------
# commands


def _bool_str(x: bool) -> str:
    return "true" if x else "false"


def cmd_analyze(args) -> int:
    fs = parse_frame_file(args.path)
    spec = frames.frame_spectrum(fs, args.rank_tol)
    print(
        f"N={fs.n_vectors} M={fs.n_points} rank={spec.rank} "
        f"B1={_fmt_human(spec.lower)} B2={_fmt_human(spec.upper)} "
        f"frame={_bool_str(spec.is_frame)} "
        f"parseval={_bool_str(spec.is_parseval)}"
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
    spec = frames.frame_spectrum(fs, args.rank_tol)
    coefficients = gp.kl_coefficients(fs, phat)
    ex2, ey2 = gp.theoretical_variances(fs.grid, phat, coefficients)
    report = gp.sandwich_check(spec.lower, spec.upper, ex2, ey2)
    empirical = gp.empirical_variance(*gp.sample_kl(coefficients, args.samples, args.seed))
    print(
        f"a={_fmt_human(spec.lower)} b={_fmt_human(spec.upper)} "
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


def _samples(raw: str) -> int:
    # refused before any file is read: the empirical variance needs two
    value = int(raw)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {raw}")
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
        "--samples": dict(
            type=_samples, default=200_000, help="Monte-Carlo sample count, at least 2"
        ),
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
    except OSError as exc:  # an unreadable input or an unwritable --out
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
