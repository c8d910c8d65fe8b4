#!/usr/bin/env python3
"""Time the layers of KL sampling and sample_kl on one and on all workers.

Prints the milliseconds (best of ``--repeats``) that each layer takes over
``--samples`` x ``--vectors``, run block by block as sample_kl runs it, on
one thread: the Philox words, and on each twin that loaded (``python``,
``compiled``) the whole Box-Muller transform, its angle kernel
(``polar_normals``) and the KL contraction (``kl_contract``); and
the whole ``sample_kl`` with one worker and with one worker per usable CPU.
It checks that both worker counts, and both twins, give the same sample
bytes, and exits 1 if they do not.

    PYTHONPATH=src python3 benchmarks/bench_sampling.py [--samples 200000] [--vectors 50] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import contextlib
import time

import numpy as np

from framekit import _kernels, gp, rng


def best_ms(fn, repeats, setup=lambda: None):
    best = float("inf")
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def random_model(n, atoms, seed):
    r = np.random.default_rng(seed)
    measure = gp.AtomicMeasure(
        locations=np.sort(r.uniform(-3.0, 3.0, atoms)) + 7.0 * np.arange(atoms),
        masses=r.uniform(0.2, 1.5, atoms),
    )
    model = gp.GaussianModel.from_frame(
        gp.SigmaFrame(measure=measure, vectors=r.standard_normal((n, atoms)))
    )
    phat = gp.ComplexVector(re=r.standard_normal(atoms), im=r.standard_normal(atoms))
    return model, phat


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--vectors", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    s, n, seed = args.samples, args.vectors, args.seed

    model, phat = random_model(n, 40, seed)
    coeffs = gp.kl_coefficients(model, phat)
    pairs, blocks = rng._stream_layout(n)
    span = 4 * blocks
    firsts = range(0, s, gp._SAMPLE_BLOCK)

    def block_words(first):
        stop = min(first + gp._SAMPLE_BLOCK, s)
        return rng.philox_words(seed, first * blocks, (stop - first) * span).reshape(-1, span)

    # per block: the shifted words, the radius and the normals, made once
    inputs = []
    for first in firsts:
        words = block_words(first)
        normals = rng._box_muller(words.copy(), pairs, n)
        np.right_shift(words, np.uint64(11), out=words)
        radius = np.sqrt(-2.0 * np.log((words[:, :pairs] + np.uint64(1)) * 2.0**-53))
        inputs.append((words, radius, normals))
    out_re, out_im = np.empty(s), np.empty(s)

    def angle(backend):
        for words, radius, _ in inputs:
            backend.polar_normals(words[:, pairs : 2 * pairs], radius, n)

    def contract(backend):
        for first, (_, _, normals) in zip(firsts, inputs):
            stop = first + len(normals)
            backend.kl_contract(normals, coeffs.re, coeffs.im, out_re[first:stop], out_im[first:stop])

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
            return gp.sample_kl(model, phat, s, seed)

    def philox(_):
        for first in firsts:
            block_words(first)  # dropped at once, as sample_kl drops each block

    def box_muller(backend, raw):
        with running(backend):
            for words in raw:
                rng._box_muller(words, pairs, n)

    rows = [("philox words", best_ms(philox, args.repeats))]
    for name, backend in _kernels.BACKENDS.items():
        rows += [
            (
                f"box-muller, {name}",
                best_ms(
                    lambda raw: box_muller(backend, raw),
                    args.repeats,
                    lambda: [block_words(f) for f in firsts],
                ),
            ),
            (f"angle kernel, {name}", best_ms(lambda _: angle(backend), args.repeats)),
            (f"contraction, {name}", best_ms(lambda _: contract(backend), args.repeats)),
        ]
    rows += [
        ("sample_kl, 1 worker", best_ms(lambda _: sample(1), args.repeats)),
        (f"sample_kl, {cpus} workers", best_ms(lambda _: sample(cpus), args.repeats)),
    ]
    print(f"{s} samples x {n} vectors in blocks of {gp._SAMPLE_BLOCK}, BLAS pinned to 1 thread")
    for name, ms in rows:
        print(f"{name:>28} {ms:>10.2f} ms")
    runs = [(f"{name}, 1 worker", sample(1, b)) for name, b in _kernels.BACKENDS.items()]
    runs.append((f"{active.name}, {cpus} workers", sample(cpus)))
    first = runs[0][1]
    same = all(
        ks.samples_re.tobytes() == first.samples_re.tobytes()
        and ks.samples_im.tobytes() == first.samples_im.tobytes()
        for _, ks in runs
    )
    print(f"{'; '.join(name for name, _ in runs)}: {'same bytes' if same else 'DIFFERENT BYTES'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
