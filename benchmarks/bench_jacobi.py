#!/usr/bin/env python3
"""Time the one-sided Jacobi twins against LAPACK's SVD, and check their bits.

For each k x L shape, random rows go through every twin of ``jacobi_rows``
that loaded, as ``spectral.row_svd`` calls it: the C twin once per vector
ISA it was built for that this CPU runs (``avx512f``, which runs AVX2's
Jacobi, ``avx2`` and ``baseline``; the widest is the one framekit runs) and
the numpy twin (``numpy``).  The squared norms, rotated rows, rotations and
sweep counts must agree bit for bit, and the script exits 1 if they do
not.  ``numpy.linalg.svd`` of the same rows, on one BLAS thread, is the
yardstick.  It prints the median milliseconds per call over ``--repeats``
calls for each C variant and LAPACK, and over one call for the numpy twin,
which is slow.  The C twin is built at the first import of framekit wherever
``cc`` works.  ``--json PATH`` also writes the medians and quartiles per
shape and twin, with the environment, as JSON.

    PYTHONPATH=src python3 benchmarks/bench_jacobi.py [--shapes 64x64,128x128] [--repeats 5] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import json
import time

import numpy as np
from bench_cli import environment, quartiles

from framekit._kernels import PYTHON, VARIANTS
from framekit.spectral import _MAX_SWEEPS, _ORTHOGONAL_TOL


def timed(fn, repeats):
    """(median and quartiles of the milliseconds per call over ``repeats``
    calls, the last call's result)."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return quartiles(times), result


def run_twin(backend, base):
    a = np.array(base, order="C")
    squares, v, sweeps = backend.jacobi_rows(a, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    return squares.tobytes(), a.tobytes(), v.tobytes(), sweeps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shapes", default="64x64,128x128,256x256,100x200,120x300")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", default=None, help="also write the results to this file")
    args = parser.parse_args()
    shapes = [tuple(int(x) for x in s.split("x")) for s in args.shapes.split(",")]
    twins = {**VARIANTS, "numpy": PYTHON}
    repeats = {name: 1 if name == "numpy" else args.repeats for name in twins}

    rng = np.random.default_rng(0)
    columns = [*twins, "lapack svd"]
    print(f"{'k x L':>9} " + " ".join(f"{name:>12}" for name in columns) + f" {'sweeps':>7} bits")
    results, agree = [], True
    for k, n in shapes:
        base = rng.standard_normal((k, n))
        ms, bits = {}, {}
        for name, backend in twins.items():
            ms[name], bits[name] = timed(lambda: run_twin(backend, base), repeats[name])
        ms["lapack svd"], _ = timed(lambda: np.linalg.svd(base, full_matrices=False), args.repeats)
        same = len(set(bits.values())) == 1
        agree = agree and same
        sweeps = bits["numpy"][3]
        results.append({"shape": f"{k}x{n}", "ms": ms, "sweeps": sweeps, "same": same})
        print(
            f"{f'{k}x{n}':>9} " + " ".join(f"{ms[name]['median']:>10.2f}ms" for name in columns)
            + f" {sweeps:>7} {'same' if same else 'DIFFER'}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment(), "repeats": repeats, "shapes": results, "same": agree},
                fh,
                indent=1,
            )
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
