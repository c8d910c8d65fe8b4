#!/usr/bin/env python3
"""Time the CLI's per-call costs that are not numerics, for each twin.

For each size n, on the numpy twin (``numpy``) and on each compiled variant
that loaded (``avx512f``, ``avx2``, ``baseline``), it
times ``write_kernel_file`` of an n x n kernel to a temporary file and
``parse_frame_file`` of a written n x n frame (n vectors on n points), and
prints the median milliseconds per call over ``--repeats`` calls, with the
parse's nanoseconds per number read (the frame's n^2 + 2n literals).  It
also prints the cost of building the argument parser, and of the one parse
of a command's argv that ``cli.main`` makes with it, over 10 x ``--repeats``
calls.  It exits 1 unless every
backend writes the same bytes, the per-element spelling (17 significant
digits, -0.0 kept), and reads back the same arrays bit for bit.  ``--json
PATH`` also writes the medians and quartiles, with the environment, as JSON.

    PYTHONPATH=src python3 benchmarks/bench_cli.py [--sizes 8,16,32,64,128] [--repeats 20] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import json
import platform
import statistics
import subprocess
import tempfile
import time

import numpy as np

from framekit import _kernels, cli, frames, jacobi_backend, rkhs


def quartiles(times):
    """Median and quartiles of a list of timings."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return {"median": median, "q1": q1, "q3": q3}


def timed_ms(fn, repeats):
    """Median and quartiles of the milliseconds per call over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return quartiles(times)


def spell(x):
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def per_element(a):
    return "[" + ", ".join("[" + ", ".join(spell(x) for x in row) + "]" for row in a) + "]"


def environment():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "jacobi_backend": jacobi_backend(),
        "backends": ["numpy", *_kernels.VARIANTS],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


#: one argv of each command, as perfbench's frame-cli and kl-sampling pass them
PARSE_ARGV = [
    ["analyze", "frame.json"],
    ["kernel", "frame.json", "--out", "kernel.json"],
    ["canonical", "frame.json", "--out", "tight.json"],
    ["verify", "frame.json"],
    ["gp-sim", "model.json", "--samples", "200000", "--seed", "1"],
    ["hilbert", "--sizes", "4,5,6,7,8,9,10,11,12,13,14,15,16"],
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64,128")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--json", default=None, help="also write the results to this file")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    build = cli._build_parser.__wrapped__  # the construction itself, not the cached parser
    parser_ms = timed_ms(build, args.repeats)
    print(f"_build_parser: {parser_ms['median']:.3f} ms per call")
    parse_ms = {}
    for argv in PARSE_ARGV:  # the parse main makes, on the cached parser
        parse_ms[argv[0]] = timed_ms(lambda: cli._parse(argv), 10 * args.repeats)
        print(f"parse {' '.join(argv)}: {parse_ms[argv[0]]['median'] * 1e3:.1f} us per call")
    rng = np.random.default_rng(0)
    print(f"{'n':>5} {'backend':>9} {'write_kernel':>12} {'parse_frame':>12} {'ns/number':>10} {'check':>6}")
    results, failed = [], False
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            grid = frames.Grid(points=np.arange(float(n)), weights=rng.uniform(0.5, 2.0, n))
            factor = rng.standard_normal((n, n))
            factor[0] = 0.0  # zeros in the table, so -0.0 can occur and must be spelt
            kernel = rkhs.KernelMatrix(grid=grid, factor=factor)
            fs = frames.FrameSystem(grid=grid, vectors=rng.standard_normal((n, n)))
            expected = '{"matrix": ' + per_element(kernel.values) + ', "kind": "rkhs", "rank_tol": 1e-10}\n'
            for name, backend in {"numpy": _kernels.PYTHON, **_kernels.VARIANTS}.items():
                _kernels.ACTIVE = backend
                kernel_path = os.path.join(tmp, f"kernel-{n}-{name}.json")
                frame_path = os.path.join(tmp, f"frame-{n}-{name}.json")
                write = timed_ms(lambda: cli.write_kernel_file(kernel_path, kernel, "rkhs", 1e-10), args.repeats)
                cli.write_frame_file(frame_path, fs)
                parse = timed_ms(lambda: cli.parse_frame_file(frame_path), args.repeats)
                per_number = {k: v * 1e6 / (n * n + 2 * n) for k, v in parse.items()}
                with open(kernel_path, encoding="utf-8") as fh:
                    same = fh.read() == expected
                back = cli.parse_frame_file(frame_path)
                same &= back.vectors.tobytes() == fs.vectors.tobytes()
                same &= back.grid.weights.tobytes() == fs.grid.weights.tobytes()
                failed |= not same
                results.append(
                    {"n": n, "backend": name, "write_kernel_ms": write, "parse_frame_ms": parse,
                     "parse_frame_ns_per_number": per_number, "same": same}
                )
                print(
                    f"{n:>5} {name:>9} {write['median']:>10.3f}ms {parse['median']:>10.3f}ms "
                    f"{per_number['median']:>10.1f} {'same' if same else 'DIFFERS':>6}"
                )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment(), "repeats": args.repeats, "build_parser_ms": parser_ms,
                 "parse_argv_ms": parse_ms, "sizes": results, "same": not failed},
                fh,
                indent=1,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
