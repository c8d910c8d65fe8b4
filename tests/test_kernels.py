"""The two Jacobi twins and the build cache of the C twin.

``_kernels._select(cc, cache)`` is what the package runs at import with the
``cc`` on PATH and its own ``__pycache__/``; here it gets a fake compiler and
a temporary cache instead.
"""

import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import framekit
from framekit import SymMatrix, sym_eig
from framekit import _kernels
from framekit._kernels import BACKENDS
from framekit.spectral import _MAX_SWEEPS, _SWEEP_TOL_FACTOR

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler")


def symmetric(n, seed, kind, k):
    """2**k times a symmetric n x n matrix: dense, with exact zeros, or with
    each eigenvalue repeated three times."""
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, n))
    if kind == "zeros":
        x[r.random((n, n)) < 0.5] = 0.0
    elif kind == "repeated":
        q, _ = np.linalg.qr(x)
        x = q @ np.diag(np.repeat(r.standard_normal(n), 3)[:n]) @ q.T
    return np.ldexp(SymMatrix(x).entries, k)


def run(backend, base):
    a = np.array(base, order="C")
    v = np.eye(a.shape[0], order="C")
    fro = float(np.sqrt(np.sum(a * a)))
    before = backend.off_norm(a)
    sweeps = backend.jacobi_sweeps(a, v, fro, _MAX_SWEEPS, _SWEEP_TOL_FACTOR)
    return a.tobytes(), v.tobytes(), sweeps, before, backend.off_norm(a)


def fake_compiler(tmp_path, body):
    script = tmp_path / "fake-cc"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["dense", "zeros", "repeated"]),
    k=st.integers(min_value=-200, max_value=200),
)
@example(n=1, seed=0, kind="dense", k=0)
@example(n=12, seed=1, kind="repeated", k=0)
@example(n=12, seed=1, kind="zeros", k=-200)
def test_twins_agree_bit_for_bit(n, seed, kind, k):
    # a, v, the sweep count and the off-diagonal norm before and after
    base = symmetric(n, seed, kind, k)
    assert run(BACKENDS["compiled"], base) == run(BACKENDS["python"], base)


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
def test_wrong_arrays_raise():
    # the typed pointers and the shape checks stop what C would misread
    a = symmetric(4, 0, "dense", 0)
    frozen = a.copy()
    frozen.setflags(write=False)
    for bad_a, bad_v, error in [
        (a.astype(np.float32), np.eye(4), ctypes.ArgumentError),
        (frozen, np.eye(4), ctypes.ArgumentError),
        (a, np.eye(4)[::-1], ctypes.ArgumentError),
        (a[:3], np.eye(3), ValueError),
        (a, np.eye(3), ValueError),
    ]:
        with pytest.raises(error):
            BACKENDS["compiled"].jacobi_sweeps(bad_a, bad_v, 1.0, _MAX_SWEEPS, _SWEEP_TOL_FACTOR)
    with pytest.raises(ValueError):
        BACKENDS["compiled"].off_norm(a[:3])
    with pytest.raises(ctypes.ArgumentError):
        BACKENDS["compiled"].off_norm(np.asfortranarray(a))
    assert BACKENDS["compiled"].off_norm(frozen) == BACKENDS["python"].off_norm(frozen)


def test_cache_name_follows_source_and_flags():
    name = _kernels._library_name(b"int f;", _kernels._FLAGS)
    assert name == _kernels._library_name(b"int f;", _kernels._FLAGS)
    assert name != _kernels._library_name(b"int g;", _kernels._FLAGS)
    assert name != _kernels._library_name(b"int f;", _kernels._FLAGS[1:])
    assert name != _kernels._library_name(b"int f;", (*_kernels._FLAGS, "-g"))


@needs_cc
def test_second_build_does_not_run_the_compiler(tmp_path):
    log = tmp_path / "runs"
    cc = fake_compiler(tmp_path, f'echo run >> "{log}"\nexec "{CC}" "$@"')
    cache = tmp_path / "cache"
    for _ in range(2):
        backends, active = _kernels._select(cc, cache)
        assert active.name == "compiled" and set(backends) == {"python", "compiled"}
    assert log.read_text() == "run\n"
    assert [p.name for p in cache.iterdir()] == [
        _kernels._library_name(_kernels._SOURCE.read_bytes(), _kernels._FLAGS)
    ]
    base = symmetric(9, 3, "dense", 0)
    assert run(active, base) == run(BACKENDS["python"], base)


@pytest.mark.parametrize("failure", ["compiler fails", "no compiler", "cache not writable"])
def test_failed_build_keeps_the_numpy_twin(tmp_path, monkeypatch, failure):
    a = SymMatrix(symmetric(12, 5, "dense", 0))
    expected = sym_eig(a)
    cc = fake_compiler(tmp_path, "echo error >&2\nexit 1")
    cache = tmp_path / "cache"
    if failure == "no compiler":
        cc = str(tmp_path / "missing-cc")
    elif failure == "cache not writable":
        cc = CC or cc
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    backends, active = _kernels._select(cc, cache)
    assert active is _kernels.PYTHON and list(backends) == ["python"]
    if cache.is_dir():
        assert list(cache.iterdir()) == []  # no partial library left behind
    monkeypatch.setattr(_kernels, "ACTIVE", active)
    assert framekit.jacobi_backend() == "python"
    got = sym_eig(a)
    assert np.array_equal(got.eigenvalues, expected.eigenvalues)
    assert np.array_equal(got.eigenvectors, expected.eigenvectors)
    assert got.sweeps == expected.sweeps


@needs_cc
def test_concurrent_first_builds(tmp_path):
    # three processes build into one empty cache at once; each loads a whole
    # library and one file remains
    cache = tmp_path / "cache"
    code = (
        "import sys; from framekit import _kernels; "
        "from pathlib import Path; "
        "print(_kernels._select(sys.argv[1], Path(sys.argv[2]))[1].name)"
    )
    src = str(Path(framekit.__file__).parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, CC, str(cache)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        for _ in range(3)
    ]
    outputs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outputs == ["compiled"] * 3
    assert len(list(cache.iterdir())) == 1
