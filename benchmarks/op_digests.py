#!/usr/bin/env python3
"""Digest the output of every perfbench operation on each twin.

For each workload of ``perfbench/run.py`` and each of ``--seeds``, it
builds the workload's operations with that script's ``build_ops``, its
inputs written to a temporary directory, with ``gp-sim``'s sample count
set to ``--samples``.  It runs every operation in-process with
``run_op``, on the numpy twin (``numpy``) and on each compiled variant
that loaded, and takes the SHA-256 of its exit code, stdout and stderr,
with the temporary directory replaced by a fixed token, and of the bytes
of the file it writes, if any.  It exits 1 unless every twin gives every
operation the same digest.  ``--json PATH`` also writes the digests of
each operation per twin, the environment and ``"same"``.

A change that should move no output byte is checked by running the script
on the framekit of each of two checkouts and comparing the two files'
``"digests"``: they are equal when no byte moved.  framekit is imported
from ``PYTHONPATH``; BLAS is pinned to one thread, as in the other scripts.

    PYTHONPATH=src python3 benchmarks/op_digests.py [--seeds 31337,9101] [--samples 20000] [--json PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads BLAS

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import framekit
import run  # perfbench/run.py
from bench_cli import environment
from framekit import _kernels, cli

#: stands for the temporary directory in what an operation prints
TOKEN = "<work>"


def digest(op, outcome, work):
    """SHA-256 of one operation's exit code, stdout, stderr and written bytes."""
    _, rc, stdout, stderr = outcome
    written = None
    if op.out is not None and os.path.exists(op.out):
        written = hashlib.sha256(Path(op.out).read_bytes()).hexdigest()
    record = [str(rc), stdout, stderr, written]
    text = json.dumps([x.replace(str(work), TOKEN) if isinstance(x, str) else x for x in record])
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="31337,9101,9102,9103")
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--json", default=None, help="also write the digests to this file")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    twins, active = {"numpy": _kernels.PYTHON, **_kernels.VARIANTS}, _kernels.ACTIVE
    digests, failed = {}, False
    for workload in run.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                ops, _ = run.build_ops(workload, seed, work)
                for name, twin in twins.items():
                    _kernels.ACTIVE = twin
                    for op in ops:
                        argv = list(op.argv)
                        if op.kind == "gp-sim":
                            argv[argv.index("--samples") + 1] = str(args.samples)
                        if op.out is not None and os.path.exists(op.out):
                            os.remove(op.out)
                        key = f"{workload} seed={seed} {op.label}"
                        digests.setdefault(key, {})[name] = digest(op, run.run_op(cli, argv), work)
            keys = [k for k in digests if k.startswith(f"{workload} seed={seed} ")]
            differ = [k for k in keys if len(set(digests[k].values())) > 1]
            failed |= bool(differ)
            combined = hashlib.sha256("".join(digests[k]["numpy"] for k in keys).encode())
            print(
                f"{workload} seed={seed}: {len(keys)} ops on {', '.join(twins)}: "
                f"{combined.hexdigest()[:16]} {'DIFFERS on ' + str(len(differ)) if differ else 'same'}"
            )
            for k in differ:
                print(f"  {k}: {digests[k]}")
    _kernels.ACTIVE = active  # the environment names the twin framekit runs
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": {**environment(), "framekit": framekit.__file__},
                 "seeds": seeds, "samples": args.samples, "digests": digests, "same": not failed},
                fh,
                indent=1,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
