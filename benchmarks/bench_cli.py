#!/usr/bin/env python3
"""Time the CLI's per-call costs that are not numerics.

Prints the milliseconds per call (best of ``--repeats``) of building the
argument parser, of ``write_kernel_file`` of an n x n kernel to a temporary
file, and of ``parse_frame_file`` on a written n x n frame (n vectors on n
points).  For each size it also reads the kernel file back and checks that
its table is the per-element spelling (17 significant digits, -0.0 kept),
byte for byte.

    PYTHONPATH=src python3 benchmarks/bench_cli.py [--sizes 8,16,32,64,128] [--repeats 20]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import tempfile
import time

import numpy as np

from framekit import cli, frames, rkhs


def best_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def spell(x):
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def per_element(a):
    return "[" + ", ".join("[" + ", ".join(spell(x) for x in row) + "]" for row in a) + "]"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64,128")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    build = cli._build_parser.__wrapped__  # the construction itself, not the cached parser
    print(f"_build_parser: {best_ms(build, args.repeats):.3f} ms per call")
    rng = np.random.default_rng(0)
    print(f"{'n':>5} {'write_kernel':>12} {'parse_frame':>12} {'text':>6}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            grid = frames.Grid(points=np.arange(float(n)), weights=rng.uniform(0.5, 2.0, n))
            factor = rng.standard_normal((n, n))
            factor[0] = 0.0  # zeros in the table take the branch of _fmt_row that looks for -0.0
            kernel = rkhs.KernelMatrix(grid=grid, factor=factor)
            kernel_path = os.path.join(tmp, f"kernel-{n}.json")
            t_write = best_ms(lambda: cli.write_kernel_file(kernel_path, kernel, "rkhs", 1e-10), args.repeats)
            with open(kernel_path, encoding="utf-8") as fh:
                text = fh.read()
            same = text == '{"matrix": ' + per_element(kernel.values) + ', "kind": "rkhs", "rank_tol": 1e-10}\n'
            failed |= not same
            path = os.path.join(tmp, f"frame-{n}.json")
            cli.write_frame_file(path, frames.FrameSystem(grid=grid, vectors=rng.standard_normal((n, n))))
            t_parse = best_ms(lambda: cli.parse_frame_file(path), args.repeats)
            print(f"{n:>5} {t_write:>10.3f}ms {t_parse:>10.3f}ms {'same' if same else 'DIFFERS':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
