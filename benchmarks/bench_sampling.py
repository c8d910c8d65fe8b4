#!/usr/bin/env python3
"""Time the stages of KL sampling and sample_kl on one and on all workers.

Prints the milliseconds (best of ``--repeats``) that each stage takes over
``--samples`` x ``--vectors``, run block by block into one reused scratch as
a sample_kl worker runs it, on one thread, for each twin that loaded
(``python``, ``compiled``): the Philox words split into u1 and the angle
words (``philox_split``), numpy's log in place on u1, the fused radius and
angle kernel (``polar_normals``) and the KL contraction (``kl_contract``);
then the whole ``sample_kl`` with one worker and with one worker per usable
CPU.  It prints the minor page faults per block of each twin's draw loop in
this thread and of ``sample_kl`` on one worker, once warm.  It checks that
both twins, and one and all workers, give the same sample bytes, and exits 1
if they do not.

    PYTHONPATH=src python3 benchmarks/bench_sampling.py [--samples 200000] [--vectors 50] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import contextlib
import resource
from time import perf_counter

import numpy as np

from framekit import _kernels, gp
from framekit.frames import FrameSystem, Grid

STAGES = ("philox split", "log", "polar kernel", "contraction")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def random_coefficients(n, atoms, seed):
    """KL coefficients of n random vectors and a random profile on random atoms."""
    r = np.random.default_rng(seed)
    grid = Grid(
        points=np.sort(r.uniform(-3.0, 3.0, atoms)) + 7.0 * np.arange(atoms),
        weights=r.uniform(0.2, 1.5, atoms),
    )
    fs = FrameSystem(grid=grid, vectors=r.standard_normal((n, atoms)))
    phat = gp.ComplexVector(re=r.standard_normal(atoms), im=r.standard_normal(atoms))
    return gp.kl_coefficients(fs, phat)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--vectors", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    s, n, seed = args.samples, args.vectors, args.seed

    coeffs = random_coefficients(n, 40, seed)
    firsts = range(0, s, gp._SAMPLE_BLOCK)
    pairs, rows = (n + 1) // 2, min(gp._SAMPLE_BLOCK, s)
    u1, k = np.empty((rows, pairs)), np.empty((rows, pairs), dtype=np.uint64)
    normals = np.empty((rows, n))
    out_re, out_im = np.empty(s), np.empty(s)

    def stages(backend):
        """Seconds of each stage over all blocks, in sample_kl's order."""
        spent = [0.0] * len(STAGES)
        for first in firsts:
            stop = min(first + gp._SAMPLE_BLOCK, s)
            u, w, x = u1[: stop - first], k[: stop - first], normals[: stop - first]
            t0 = perf_counter()
            backend.philox_split(seed, first, u, w)
            t1 = perf_counter()
            np.log(u, out=u)
            t2 = perf_counter()
            backend.polar_normals(u, w, x)
            t3 = perf_counter()
            backend.kl_contract(x, coeffs.re, coeffs.im, out_re[first:stop], out_im[first:stop])
            t4 = perf_counter()
            for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                spent[i] += dt
        return spent

    worker_count, active = gp._worker_count, _kernels.ACTIVE
    cpus = worker_count()

    @contextlib.contextmanager
    def running(backend, workers=1):
        gp._worker_count, _kernels.ACTIVE = (lambda: workers), backend
        try:
            yield
        finally:
            gp._worker_count, _kernels.ACTIVE = worker_count, active

    def sample(workers, backend=active):
        with running(backend, workers):
            return gp.sample_kl(coeffs, s, seed)

    def best_ms(fn):
        best = float("inf")
        for _ in range(args.repeats):
            start = perf_counter()
            fn()
            best = min(best, perf_counter() - start)
        return best * 1e3

    def faults_per_block(fn):
        fn()  # warm: the scratch and the allocator's pools are in place
        before = minor_faults()
        fn()
        return (minor_faults() - before) / len(firsts)

    rows_out, faults = [], []
    for name, backend in _kernels.BACKENDS.items():
        best = [min(col) for col in zip(*(stages(backend) for _ in range(args.repeats)))]
        rows_out += [(f"{stage}, {name}", 1e3 * t) for stage, t in zip(STAGES, best)]
        faults.append((f"draw loop, {name}", faults_per_block(lambda b=backend: stages(b))))
    rows_out += [
        ("sample_kl, 1 worker", best_ms(lambda: sample(1))),
        (f"sample_kl, {cpus} workers", best_ms(lambda: sample(cpus))),
    ]
    faults.append((f"sample_kl 1 worker, {active.name}", faults_per_block(lambda: sample(1))))

    print(f"{s} samples x {n} vectors in blocks of {gp._SAMPLE_BLOCK}, BLAS pinned to 1 thread")
    for name, ms in rows_out:
        print(f"{name:>28} {ms:>10.2f} ms")
    print("minor page faults per block, warm:")
    for name, per_block in faults:
        print(f"{name:>28} {per_block:>10.1f}")
    runs = [(f"{name}, 1 worker", sample(1, b)) for name, b in _kernels.BACKENDS.items()]
    runs.append((f"{active.name}, {cpus} workers", sample(cpus)))
    first = runs[0][1]
    same = all(
        re.tobytes() == first[0].tobytes() and im.tobytes() == first[1].tobytes()
        for _, (re, im) in runs
    )
    print(f"{'; '.join(name for name, _ in runs)}: {'same bytes' if same else 'DIFFERENT BYTES'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
