#!/usr/bin/env python3
"""Time the CLI's per-call costs that are not numerics.

Prints the milliseconds per call (best of ``--repeats``) of building the
argument parser, of ``dump_json`` on an n x n float64 kernel, and of
``parse_frame_file`` on a written n x n frame (n vectors on n points).  For
each size it also checks that the written kernel text is the per-element
``_fmt`` spelling (17 significant digits, -0.0 kept), byte for byte.

    PYTHONPATH=src python3 benchmarks/bench_cli.py [--sizes 8,16,32,64,128] [--repeats 20]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import tempfile
import time

import numpy as np

from framekit import cli, frames


def best_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def per_element(a):
    return "[" + ", ".join("[" + ", ".join(cli._fmt(x) for x in row) + "]" for row in a) + "]\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64,128")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    build = cli._build_parser.__wrapped__  # the construction itself, not the cached parser
    print(f"_build_parser: {best_ms(build, args.repeats):.3f} ms per call")
    rng = np.random.default_rng(0)
    print(f"{'n':>5} {'dump_json':>12} {'parse_frame':>12} {'text':>6}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            kernel = rng.standard_normal((n, n))
            kernel[0, -1] = -0.0
            same = cli.dump_json(kernel) == per_element(kernel)
            failed |= not same
            path = os.path.join(tmp, f"frame-{n}.json")
            grid = frames.Grid(points=np.arange(float(n)), weights=rng.uniform(0.5, 2.0, n))
            cli.write_frame_file(path, frames.FrameSystem(grid=grid, vectors=rng.standard_normal((n, n))))
            t_dump = best_ms(lambda: cli.dump_json(kernel), args.repeats)
            t_parse = best_ms(lambda: cli.parse_frame_file(path), args.repeats)
            print(f"{n:>5} {t_dump:>10.3f}ms {t_parse:>10.3f}ms {'same' if same else 'DIFFERS':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
