#!/usr/bin/env python3
"""Time the identity suite against the one spectrum it reads, for each twin.

For each frame of perfbench's ``frame-cli`` workload (seed ``--seed``) and
one random N x M frame (``--large``, Gaussian vectors, weights in [0.5, 2)),
on the numpy twin (``numpy``) and on the widest compiled variant that
loaded, it times ``rkhs.identity_suite`` and ``frames.frame_spectrum`` and
prints the median milliseconds per call over ``--repeats`` calls
(``--large-repeats`` on the large frame), with the suite's cost beyond its
spectrum.  It also prints the tracemalloc peak of one call of each, as a
multiple of Phi's bytes (8 N M).  It exits 1 unless every twin gives every
frame the same suite rows, bit for bit.  ``--json PATH`` also writes the
medians and quartiles, the peaks and the sums over the ``frame-cli``
frames, with the environment, as JSON.

    PYTHONPATH=src python3 benchmarks/bench_verify.py [--seed 31337] [--large 50x20000] [--repeats 200] [--large-repeats 7] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # perfbench/inputs.py
from bench_cli import environment, timed_ms
from framekit import DEFAULT_RANK_TOL, FrameSystem, Grid, _kernels, frames, rkhs


def peak_bytes(fn):
    """The tracemalloc peak of one call of ``fn``, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def suite_bits(rows):
    """The suite's rows as text that differs wherever one bit does."""
    return {name: [row.residual.hex(), row.tolerance.hex(), row.holds] for name, row in rows.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=31337)
    parser.add_argument("--large", default="50x20000", help="N x M of the random frame")
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--large-repeats", type=int, default=7)
    parser.add_argument("--json", default=None, help="also write the results to this file")
    args = parser.parse_args()
    n, m = (int(x) for x in args.large.split("x"))
    cases = [(f, args.repeats) for f in inputs.frame_cli_inputs(args.seed)]
    large = inputs.random_frame(f"random-{n}x{m}", n, m, np.random.default_rng([args.seed, 99]))
    cases.append((large, args.large_repeats))
    twins = {"numpy": _kernels.PYTHON}
    if _kernels.VARIANTS:
        twins[next(iter(_kernels.VARIANTS))] = _kernels.ACTIVE
    active = _kernels.ACTIVE

    results, rows, failed = [], {}, False
    print(f"{'frame':>20} {'twin':>8} {'suite ms':>9} {'spectrum':>9} {'beyond':>9} "
          f"{'suite peak':>10} {'spec peak':>9}")
    for f, repeats in cases:
        fs = FrameSystem(grid=Grid(f.points, f.weights), vectors=f.vectors)
        phi_bytes = fs.vectors.nbytes
        for twin, backend in twins.items():
            _kernels.ACTIVE = backend
            suite = timed_ms(lambda: rkhs.identity_suite(fs, DEFAULT_RANK_TOL), repeats)
            spectrum = timed_ms(lambda: frames.frame_spectrum(fs, DEFAULT_RANK_TOL), repeats)
            suite_peak = peak_bytes(lambda: rkhs.identity_suite(fs, DEFAULT_RANK_TOL)) / phi_bytes
            spectrum_peak = peak_bytes(lambda: frames.frame_spectrum(fs, DEFAULT_RANK_TOL)) / phi_bytes
            bits = suite_bits(rkhs.identity_suite(fs, DEFAULT_RANK_TOL))
            failed |= rows.setdefault(f.name, bits) != bits
            beyond = suite["median"] - spectrum["median"]
            results.append(
                {"frame": f.name, "shape": list(fs.vectors.shape), "twin": twin,
                 "repeats": repeats, "identity_suite_ms": suite, "frame_spectrum_ms": spectrum,
                 "beyond_spectrum_ms": beyond, "suite_peak_x_phi": suite_peak,
                 "spectrum_peak_x_phi": spectrum_peak}
            )
            print(f"{f.name:>20} {twin:>8} {suite['median']:>9.3f} {spectrum['median']:>9.3f} "
                  f"{beyond:>9.3f} {suite_peak:>9.2f}x {spectrum_peak:>8.2f}x")
    _kernels.ACTIVE = active
    sums = {}
    for twin in twins:
        small = [r for r in results if r["twin"] == twin and r["frame"] != large.name]
        sums[twin] = {key: sum(r[key]["median"] for r in small)
                      for key in ("identity_suite_ms", "frame_spectrum_ms")}
        print(f"{twin}: summed over the {len(small)} frame-cli frames, identity_suite "
              f"{sums[twin]['identity_suite_ms']:.3f} ms, frame_spectrum "
              f"{sums[twin]['frame_spectrum_ms']:.3f} ms")
    print("suite rows: " + ("DIFFER between twins" if failed else "same on every twin"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment(), "seed": args.seed, "large": [n, m],
                 "results": results, "frame_cli_sums_ms": sums, "rows": rows, "same": not failed},
                fh,
                indent=1,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
