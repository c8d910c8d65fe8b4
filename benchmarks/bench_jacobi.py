#!/usr/bin/env python3
"""Benchmark the C Jacobi twin against the pure-numpy twin.

Both backends run the same sweeps on the same matrices; outputs must agree
bit-for-bit, so the table also reports the max absolute difference over the
whole of ``a`` and ``v`` and both sweep counts.  The C
twin is built at the first import of framekit wherever ``cc`` works.

    PYTHONPATH=src python3 benchmarks/bench_jacobi.py [--sizes 8,16,32,64,96] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import time

import numpy as np

from framekit._kernels import BACKENDS
from framekit.spectral import _MAX_SWEEPS, _SWEEP_TOL_FACTOR


def run_backend(backend, base, repeats):
    n = base.shape[0]
    fro = float(np.sqrt(np.sum(base * base)))
    best = float("inf")
    result = None
    for _ in range(repeats):
        a = np.array(base, order="C")
        v = np.eye(n, order="C")
        start = time.perf_counter()
        sweeps = backend.jacobi_sweeps(a, v, fro, _MAX_SWEEPS, _SWEEP_TOL_FACTOR)
        best = min(best, time.perf_counter() - start)
        result = (a, v, sweeps)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64,96")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    if "compiled" not in BACKENDS:
        print("C twin not loaded (no working cc, or the cache is not writable); nothing to compare")
        return

    rng = np.random.default_rng(0)
    print(f"{'n':>5} {'python':>12} {'compiled':>12} {'speedup':>9} {'max diff':>10} {'sweeps':>7}")
    for n in sizes:
        a = rng.standard_normal((n, n))
        base = 0.5 * (a + a.T)
        t_py, r_py = run_backend(BACKENDS["python"], base, args.repeats)
        t_cy, r_cy = run_backend(BACKENDS["compiled"], base, args.repeats)
        diff = max(
            float(np.max(np.abs(r_py[0] - r_cy[0]))),
            float(np.max(np.abs(r_py[1] - r_cy[1]))),
        )
        print(
            f"{n:>5} {t_py * 1e3:>10.2f}ms {t_cy * 1e3:>10.2f}ms "
            f"{t_py / t_cy:>8.1f}x {diff:>10.1e} {r_py[2]:>3}/{r_cy[2]:<3}"
        )


if __name__ == "__main__":
    main()
