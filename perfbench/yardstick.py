#!/usr/bin/env python3
"""Yardstick, not a metric: LAPACK ``eigh`` against ``sym_eig`` on the workloads' matrices.

    python3 perfbench/yardstick.py [--seed 1]

For each frame in the benchmark's workloads, times framekit's cyclic-Jacobi
``sym_eig`` and single-threaded ``numpy.linalg.eigh`` on the same Gramian
(N x N) and frame operator (M x M), and prints the best of five runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

import run


def best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import inputs

    fk, _ = run.import_framekit()
    frames = inputs.frame_cli_inputs(args.seed)[:6]
    models = inputs.kl_inputs(args.seed)
    matrices = []
    for f in frames:
        b = f.vectors * np.sqrt(f.weights)
        matrices.append((f"{f.name} Gramian", b @ b.T))
        matrices.append((f"{f.name} frame operator", b.T @ b))
    for m in models[:1]:
        b = m.vectors * np.sqrt(m.masses)
        matrices.append(("kl model Gramian", b @ b.T))
    print(f"jacobi_backend={fk.jacobi_backend()} numpy={np.__version__}")
    print(f"{'matrix':40} {'n':>4} {'sym_eig ms':>11} {'eigh ms':>9} {'ratio':>8}")
    for label, a in matrices:
        sym = fk.SymMatrix(a)
        t_jacobi = best_of(lambda: fk.sym_eig(sym))
        t_eigh = best_of(lambda: np.linalg.eigh(a))
        print(f"{label:40} {a.shape[0]:>4} {t_jacobi * 1e3:>11.2f} {t_eigh * 1e3:>9.3f} {t_jacobi / t_eigh:>8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
