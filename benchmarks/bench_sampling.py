#!/usr/bin/env python3
"""Time the layers of KL sampling and sample_kl on one and on all workers.

Prints the milliseconds per call (best of ``--repeats``) of the Philox words,
of the Box-Muller transform of those words, of the two sample products
(normals @ c.re and normals @ c.im), and of the whole ``sample_kl`` with one
worker and with one worker per usable CPU, all at ``--samples`` x
``--vectors``.  The layers run once over the whole sample set; sample_kl runs
them block by block.  It also checks that both worker counts give the same
sample bytes.

    PYTHONPATH=src python3 benchmarks/bench_sampling.py [--samples 200000] [--vectors 50] [--repeats 5]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import time

import numpy as np

from framekit import gp, rng


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
    words = rng.philox_words(seed, 0, s * span).reshape(s, span)
    normals = rng._box_muller(words.copy(), pairs, n)
    worker_count = gp._worker_count
    cpus = worker_count()

    def sample(workers):
        gp._worker_count = lambda: workers
        try:
            return gp.sample_kl(model, phat, s, seed)
        finally:
            gp._worker_count = worker_count

    rows = [
        ("philox words", best_ms(lambda _: rng.philox_words(seed, 0, s * span), args.repeats)),
        ("box-muller", best_ms(lambda w: rng._box_muller(w, pairs, n), args.repeats, words.copy)),
        ("two gemvs", best_ms(lambda _: (normals @ coeffs.re, normals @ coeffs.im), args.repeats)),
        ("sample_kl, 1 worker", best_ms(lambda _: sample(1), args.repeats)),
        (f"sample_kl, {cpus} workers", best_ms(lambda _: sample(cpus), args.repeats)),
    ]
    print(f"{s} samples x {n} vectors, block {gp._SAMPLE_BLOCK}, BLAS pinned to 1 thread")
    for name, ms in rows:
        print(f"{name:>24} {ms:>10.2f} ms")
    one, many = sample(1), sample(cpus)
    same = (
        one.samples_re.tobytes() == many.samples_re.tobytes()
        and one.samples_im.tobytes() == many.samples_im.tobytes()
    )
    print(f"1 and {cpus} workers: {'same bytes' if same else 'DIFFERENT BYTES'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
