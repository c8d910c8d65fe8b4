#!/usr/bin/env python3
"""Time the one-sided Jacobi twins against LAPACK's SVD, and check their bits.

For each k x L shape, random rows go through the C twin and the numpy twin
of ``jacobi_rows`` as ``spectral.row_svd`` calls it; the squared norms,
rotated rows, rotations and sweep counts must agree bit for bit, and the
script exits 1 if they do not.  ``numpy.linalg.svd`` of the same rows, on
one BLAS thread, is the yardstick.  The C twin and LAPACK report the best of
``--repeats`` runs, the numpy twin one run.  The C twin is built at the
first import of framekit wherever ``cc`` works.

    PYTHONPATH=src python3 benchmarks/bench_jacobi.py [--shapes 64x64,128x128] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import sys
import time

import numpy as np

from framekit._kernels import BACKENDS
from framekit.spectral import _MAX_SWEEPS, _ORTHOGONAL_TOL


def best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_twin(backend, base):
    a = np.array(base, order="C")
    squares, v, sweeps = backend.jacobi_rows(a, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    return squares.tobytes(), a.tobytes(), v.tobytes(), sweeps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shapes", default="64x64,128x128,256x256,100x200,120x300")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    shapes = [tuple(int(x) for x in s.split("x")) for s in args.shapes.split(",")]

    if "compiled" not in BACKENDS:
        print("C twin not loaded (no working cc, or the cache is not writable); nothing to compare")
        return 0

    rng = np.random.default_rng(0)
    print(f"{'k x L':>9} {'compiled':>11} {'numpy twin':>12} {'LAPACK svd':>11} {'sweeps':>7} bits")
    agree = True
    for k, n in shapes:
        base = rng.standard_normal((k, n))
        t_c, r_c = best_of(lambda: run_twin(BACKENDS["compiled"], base), args.repeats)
        t_py, r_py = best_of(lambda: run_twin(BACKENDS["python"], base), 1)
        t_svd, _ = best_of(lambda: np.linalg.svd(base, full_matrices=False), args.repeats)
        same = r_c == r_py
        agree = agree and same
        print(
            f"{f'{k}x{n}':>9} {t_c * 1e3:>9.1f}ms {t_py * 1e3:>10.0f}ms {t_svd * 1e3:>9.2f}ms "
            f"{r_c[3]:>7} {'same' if same else 'DIFFER'}"
        )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
