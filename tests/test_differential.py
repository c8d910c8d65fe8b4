"""Every CLI output under every twin and every ISA variant, byte for byte.

``analyze``, ``kernel`` (with and without ``--naive``, both writing their
tables), ``canonical --out``, ``verify``, ``hilbert`` and ``gp-sim`` run on a
few small seeded frames: rank-deficient, with duplicated vectors, scaled by
2**900 and by 2**-900, with weights spread over 1e-8 .. 1e8, and one with
more vectors than points.  Each backend runs them in a process of its own:
the numpy twin, and the compiled twin once for each vector ISA it was built
for that this CPU runs, with the commands in turn and ``_kernels.ACTIVE``
set before the first.  Every exit code, stdout, stderr and written file must
be byte-identical across all of them.  The numpy Jacobi twin is slow (about
8 s at 256 x 256), so the frames keep min(N, M) <= 30.

Every process pins BLAS to one thread (``OPENBLAS_NUM_THREADS=1``).  The
BLAS-thread axis is not run here: at 2 threads the kernel files and the
canonical tight frames still change with the thread count, because their
products go to BLAS, whose order of summation follows the threads.  It waits
for the fixed-order contraction of every written number (ROADMAP item 2).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framekit import _kernels

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: run with a backend ("numpy" or a compiled variant) and the argv lists of
#: the commands, as JSON, in the folder their files go to; prints each
#: command's [exit code, stdout, stderr], as JSON
RUN_COMMANDS = """
import contextlib, io, json, sys
from framekit import _kernels, cli
_kernels.ACTIVE = _kernels.VARIANTS[sys.argv[1]] if sys.argv[1] != "numpy" else _kernels.PYTHON
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def frames():
    """name: (points, weights, vectors) of the seeded frames."""
    r = np.random.default_rng(29)

    def grid(m):
        return np.sort(r.uniform(-2.0, 2.0, m)), r.uniform(0.5, 1.5, m)

    dense = r.standard_normal((5, 16))
    duplicated = r.standard_normal((4, 12))
    spread_points, _ = grid(24)
    return {
        "rank-deficient": (*grid(20), r.standard_normal((7, 3)) @ r.standard_normal((3, 20))),
        "duplicated": (*grid(12), np.vstack([duplicated, duplicated[::-1]])),
        "scaled-up": (*grid(16), np.ldexp(dense, 900)),
        "scaled-down": (*grid(16), np.ldexp(dense, -900)),
        "spread-weights": (spread_points, np.logspace(-8, 8, 24), r.standard_normal((6, 24))),
        "more-vectors": (*grid(10), r.standard_normal((30, 10))),
    }


def model():
    """A gp-sim model: 12 vectors on 9 atoms of spread masses, and a phat."""
    r = np.random.default_rng(30)
    return {
        "atoms": [{"u": u, "mass": m} for u, m in zip(np.linspace(-3.0, 3.0, 9).tolist(),
                                                      np.logspace(-2, 2, 9).tolist())],
        "frame": r.standard_normal((12, 9)).tolist(),
        "phat": {"re": r.standard_normal(9).tolist(), "im": r.standard_normal(9).tolist()},
    }


def commands(folder):
    """The argv of every command, reading the inputs written into ``folder``;
    the files they write are named relative to the working folder."""
    argvs = []
    for name, (points, weights, vectors) in frames().items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps({
            "grid": {"points": points.tolist(), "weights": weights.tolist()},
            "vectors": vectors.tolist(),
        }))
        argvs += [
            ["analyze", str(path)],
            ["kernel", str(path), "--out", f"{name}-kernel.json"],
            ["kernel", str(path), "--naive", "--out", f"{name}-naive.json"],
            ["canonical", str(path), "--out", f"{name}-tight.json"],
            ["verify", str(path)],
        ]
    (folder / "model.json").write_text(json.dumps(model()))
    return argvs + [
        ["hilbert", "--sizes", "3,8,17,30"],
        ["gp-sim", str(folder / "model.json"), "--samples", "4001", "--seed", "3"],
    ]


TWINS = ["numpy", *_kernels.VARIANTS]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """backend: (the argv lists, each command's [exit code, stdout, stderr],
    {file name: bytes} of the files written)."""
    inputs = tmp_path_factory.mktemp("inputs")
    argvs = commands(inputs)
    procs = {}
    for backend in TWINS:
        cwd = tmp_path_factory.mktemp(backend)
        procs[backend] = cwd, subprocess.Popen(
            [sys.executable, "-c", RUN_COMMANDS, backend, json.dumps(argvs)],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        )
    results = {}
    for backend, (cwd, proc) in procs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        results[backend] = argvs, json.loads(stdout), files
    return results


def test_the_commands_do_their_work(outputs):
    # the comparison below means something only if the commands succeed and
    # write their files; the numpy twin's run is the reference.  The naive
    # kernel of the frame scaled by 2**900 overflows and is refused
    argvs, results, files = outputs["numpy"]
    failed = [" ".join(argv[:1] + argv[2:]) for argv, (code, _, _) in zip(argvs, results) if code]
    assert failed == ["kernel --naive --out scaled-up-naive.json"]
    written = {argv[-1] for argv, (code, _, _) in zip(argvs, results) if "--out" in argv and not code}
    assert set(files) == written and len(written) == 3 * len(frames()) - 1


@pytest.mark.skipif(not _kernels.VARIANTS, reason="C twin not loaded")
@pytest.mark.parametrize("variant", list(_kernels.VARIANTS))
def test_every_variant_matches_the_numpy_twin(outputs, variant):
    argvs, expected, expected_files = outputs["numpy"]
    _, results, files = outputs[variant]
    for argv, want, got in zip(argvs, expected, results):
        assert got == want, " ".join(argv)
    assert files.keys() == expected_files.keys()
    for name, data in files.items():
        assert data == expected_files[name], name
