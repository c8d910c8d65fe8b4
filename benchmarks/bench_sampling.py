#!/usr/bin/env python3
"""Time the stages of KL sampling and sample_kl on one and on all workers.

It prints the sampling variant the compiled backend selected (the widest
vector ISA this CPU runs), then, for the numpy twin (``python``) and for
every variant of the compiled kernels this CPU runs (``compiled/avx512f``,
``compiled/avx2``, ``compiled/baseline``), the milliseconds (median over
``--repeats``) that each stage takes over ``--samples`` x ``--vectors``, run
block by block into one scratch of the backend's ``sampler``, made once, on
one thread, as a sample_kl worker runs them.  The numpy twin has one stage,
its scratch's whole ``contract`` (Philox, log, the reference radius and
angle and the KL contraction).  A compiled variant has three, run through
its scratch's ``split`` and ``fuse``: the Philox words split into u1 and the
angle words (the variant's ``philox_split``; ``compiled/avx2`` runs the
baseline's), numpy's log in place on u1, and the radius and angle fused
with the KL contraction (the variant's ``polar_contract``), its vectors
checked before the clock starts.  Then it prints the whole ``sample_kl``
with one worker and with one worker per usable CPU, the per-block call
overhead (``sample_kl`` on one worker minus the sum of the active
backend's stages, per block: the checks, the thread pool and the Python
between the kernels), and the minor page faults per block, once warm, of
each draw loop in this thread and of ``sample_kl`` on one worker.  It
checks that every twin and variant, and one and all workers, give the same
sample bytes, and exits 1 if they do not.  ``--json PATH`` also writes the
medians and quartiles, with the environment, as JSON.

    PYTHONPATH=src python3 benchmarks/bench_sampling.py [--samples 200000] [--vectors 50] [--repeats 5] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import contextlib
import json
import resource
from time import perf_counter

import numpy as np
from bench_cli import environment, quartiles, timed_ms

from framekit import _kernels, gp
from framekit._kernels import LANES
from framekit.frames import FrameSystem, Grid

#: the stages of a compiled variant; the numpy twin's one stage is "contract"
STAGES = ("philox split", "log", "fused polar + contraction")


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
    parser.add_argument("--json", default=None, help="also write the results to this file")
    args = parser.parse_args()
    s, n, seed = args.samples, args.vectors, args.seed

    coeffs = random_coefficients(n, 40, seed)
    firsts = range(0, s, gp._SAMPLE_BLOCK)
    rows = min(gp._SAMPLE_BLOCK, s)
    out_re, out_im = np.empty(s), np.empty(s)
    twins = {"python": _kernels.PYTHON}
    twins.update((f"compiled/{name}", backend) for name, backend in _kernels.VARIANTS.items())

    def stages(backend):
        """Milliseconds of each stage over all blocks, in sample_kl's order."""
        spent = {}
        scratch = backend.sampler(rows, n)
        for first in firsts:
            stop = min(first + gp._SAMPLE_BLOCK, s)
            block = (stop - first, coeffs.re, coeffs.im, out_re[first:stop], out_im[first:stop])
            if backend is _kernels.PYTHON:
                t0 = perf_counter()
                scratch.contract(seed, first, *block)
                times = {"contract": perf_counter() - t0}
            else:
                tiles = -(-block[0] // LANES)
                u1 = scratch.u1[:tiles]
                fused = scratch.fuse(*block)
                t0 = perf_counter()
                scratch.split(seed, first, tiles)
                t1 = perf_counter()
                np.log(u1, out=u1)
                t2 = perf_counter()
                fused()
                t3 = perf_counter()
                times = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)))
            for stage, dt in times.items():
                spent[stage] = spent.get(stage, 0.0) + dt * 1e3
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

    def faults_per_block(fn):
        fn()  # warm: the scratch and the allocator's pools are in place
        before = minor_faults()
        fn()
        return (minor_faults() - before) / len(firsts)

    stage_ms, faults = {}, {}
    for name, backend in twins.items():
        passes = [stages(backend) for _ in range(args.repeats)]
        stage_ms[name] = {stage: quartiles([p[stage] for p in passes]) for stage in passes[0]}
        faults[f"draw loop, {name}"] = faults_per_block(lambda b=backend: stages(b))
    sample_ms = {
        "1 worker": timed_ms(lambda: sample(1), args.repeats),
        f"{cpus} workers": timed_ms(lambda: sample(cpus), args.repeats),
    }
    faults[f"sample_kl 1 worker, {active.name}/{active.variant}"] = faults_per_block(
        lambda: sample(1)
    )
    own = "python" if active is _kernels.PYTHON else f"compiled/{active.variant}"
    stage_sum = sum(q["median"] for q in stage_ms[own].values())
    overhead_us = (sample_ms["1 worker"]["median"] - stage_sum) * 1e3 / len(firsts)

    print(f"sampling variant: {active.variant} (of {', '.join(_kernels.VARIANTS) or 'none'})")
    print(f"{s} samples x {n} vectors in blocks of {gp._SAMPLE_BLOCK}, BLAS pinned to 1 thread")
    print("median ms over all blocks:")
    for name, row in stage_ms.items():
        for stage, q in row.items():
            print(f"{stage + ', ' + name:>45} {q['median']:>10.2f} ms")
    for workers, q in sample_ms.items():
        print(f"{'sample_kl, ' + workers:>45} {q['median']:>10.2f} ms")
    print(f"{'call overhead per block, ' + own:>45} {overhead_us:>10.1f} us")
    print("minor page faults per block, warm:")
    for name, per_block in faults.items():
        print(f"{name:>45} {per_block:>10.1f}")
    runs = [(f"{name}, 1 worker", sample(1, b)) for name, b in twins.items()]
    runs.append((f"{active.name}/{active.variant}, {cpus} workers", sample(cpus)))
    first = runs[0][1]
    same = all(
        re.tobytes() == first[0].tobytes() and im.tobytes() == first[1].tobytes()
        for _, (re, im) in runs
    )
    print(f"{'; '.join(name for name, _ in runs)}: {'same bytes' if same else 'DIFFERENT BYTES'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": {**environment(), "sampling_variant": active.variant},
                 "samples": s, "vectors": n, "block": gp._SAMPLE_BLOCK, "repeats": args.repeats,
                 "stages_ms": stage_ms, "sample_kl_ms": sample_ms,
                 "call_overhead_us_per_block": overhead_us,
                 "minor_faults_per_block": faults, "same": same},
                fh,
                indent=1,
            )
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
