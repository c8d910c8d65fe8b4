#!/usr/bin/env python3
"""Time the one-sided Jacobi twins against LAPACK's SVD, and check their bits.

For each k x L shape, random rows go through every twin of ``jacobi_rows``
that loaded, as ``spectral.row_svd`` calls it, on rows padded with +0.0 to
a multiple of the 8 lanes of the dot products: the C twin once per vector
ISA it was built for that this CPU runs (``avx512f``, ``avx2`` and
``baseline``, one body compiled for each, with avx512f under AVX2's flags;
the widest is the one framekit runs) and the numpy twin (``numpy``).  A
shape whose L is not a multiple of 8 pays for the padding: 40 x 50 rotates
rows of 56.  The squared norms, rotated rows, rotations and sweep counts
must agree bit for bit, and the script exits 1 if they do not.
``numpy.linalg.svd`` of the same unpadded rows, on one BLAS thread, is the
yardstick.  It prints the median milliseconds per call over ``--repeats``
calls for each C variant and LAPACK, and over one call for the numpy twin,
which is slow.  The calls of a shape run in rounds of one call of each of
them that has calls left, in an order reversed every other round, so a
burst of load from elsewhere falls on all of them alike.  The C twin is
built at the first import of framekit wherever ``cc`` works.  ``--json
PATH`` also writes the medians and quartiles per shape and twin, with the
environment, as JSON.

    PYTHONPATH=src python3 benchmarks/bench_jacobi.py [--shapes 64x64,128x128] [--repeats 5] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import functools
import json
import time

import numpy as np
from bench_cli import environment, quartiles

from framekit._kernels import PYTHON, VARIANTS
from framekit.spectral import _MAX_SWEEPS, _ORTHOGONAL_TOL, padded_rows


def interleaved(calls, repeats):
    """(median and quartiles of the milliseconds per call of each of the
    named ``calls``, each one's last result): ``repeats[name]`` calls of
    each, in rounds of one call of every name with calls left, the order
    reversed every other round."""
    times, results = {name: [] for name in calls}, {}
    for turn in range(max(repeats.values())):
        for name in list(calls) if turn % 2 == 0 else reversed(calls):
            if len(times[name]) < repeats[name]:
                start = time.perf_counter()
                results[name] = calls[name]()
                times[name].append((time.perf_counter() - start) * 1e3)
    return {name: quartiles(t) for name, t in times.items()}, results


def run_twin(backend, base):
    a = padded_rows(base)
    squares, v, sweeps = backend.jacobi_rows(a, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    return squares.tobytes(), a.tobytes(), v.tobytes(), sweeps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # 30x60 and 40x50 are the random frames of perfbench's frame-cli and the
    # kl-sampling models
    parser.add_argument("--shapes", default="30x60,40x50,64x64,128x128,256x256,100x200,120x300")
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
        calls = {name: functools.partial(run_twin, backend, base) for name, backend in twins.items()}
        calls["lapack svd"] = functools.partial(np.linalg.svd, base, full_matrices=False)
        ms, bits = interleaved(calls, {**repeats, "lapack svd": args.repeats})
        del bits["lapack svd"]
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
