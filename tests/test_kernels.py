"""The Jacobi and sampling twins and the build cache of the C library.

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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import framekit
from framekit import SymMatrix, gp, rng, sym_eig
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


def sample(backend, words, count):
    """Bytes of the normals of ``words`` and of their KL contraction, with
    ``backend`` as the active kernel."""
    pairs, _ = rng._stream_layout(count)
    with mock.patch.object(_kernels, "ACTIVE", backend):
        normals = rng._box_muller(words.copy(), pairs, count)
    rows = normals.reshape(-1, count)
    c = np.linspace(-1.5, 2.0, count)
    out_re, out_im = np.empty(len(rows)), np.empty(len(rows))
    backend.kl_contract(rows, c, -c[::-1].copy(), out_re, out_im)
    return normals.tobytes(), out_re.tobytes(), out_im.tobytes()


def kl_model(n, seed):
    r = np.random.default_rng(seed)
    measure = gp.AtomicMeasure(locations=np.arange(6.0), masses=r.uniform(0.5, 1.5, 6))
    frame = gp.SigmaFrame(measure=measure, vectors=r.standard_normal((n, 6)))
    phat = gp.ComplexVector(re=r.standard_normal(6), im=r.standard_normal(6))
    return gp.GaussianModel.from_frame(frame), phat


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


#: Philox words at the octant edges of the angle: (j 2**61) >> 11 = j 2**50,
#: a quadrant edge (t = -1) for odd j and a quadrant centre (t = 0) for even j
EDGE_WORDS = [0, *(j * 2**61 + d for j in range(1, 8) for d in (-1, 0, 1)), 2**64 - 1]


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
@settings(max_examples=60, deadline=None, database=None)
@given(
    count=st.integers(min_value=1, max_value=23),
    rows=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_sampling_twins_agree_bit_for_bit(count, rows, data):
    # rows == 0 is the 1-D layout of seeded_normals; an odd count drops the
    # last sine; the normals and their contraction are compared
    pairs, blocks = rng._stream_layout(count)
    shape = ((rows,) if rows else ()) + (4 * blocks,)
    size = int(np.prod(shape))
    words = data.draw(
        st.lists(
            st.sampled_from(EDGE_WORDS) | st.integers(0, 2**64 - 1),
            min_size=size,
            max_size=size,
        )
    )
    words = np.array(words, dtype=np.uint64).reshape(shape)
    assert sample(BACKENDS["compiled"], words, count) == sample(BACKENDS["python"], words, count)


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
@pytest.mark.parametrize("count", [2 * len(EDGE_WORDS), 2 * len(EDGE_WORDS) - 1])
@pytest.mark.parametrize("rows", [0, 3])
def test_sampling_twins_agree_on_edge_words(count, rows):
    # every edge word as an angle word and as a radius word, in both layouts
    pairs, blocks = rng._stream_layout(count)
    span = 4 * blocks
    line = np.resize(np.array(EDGE_WORDS, dtype=np.uint64), span)
    words = np.stack([np.roll(line, i) for i in range(max(rows, 1))])
    words = words.reshape(((rows,) if rows else ()) + (span,))
    assert sample(BACKENDS["compiled"], words, count) == sample(BACKENDS["python"], words, count)


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
@settings(max_examples=60, deadline=None, database=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
        elements=st.floats(-1e6, 1e6),
    ),
    data=st.data(),
)
def test_contraction_twins_agree_bit_for_bit(x, data):
    # signed zeros and cancellation included; the sums run in index order
    n = x.shape[1]
    coef = hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6))
    c_re, c_im = data.draw(coef), data.draw(coef)
    got = {}
    for name, backend in BACKENDS.items():
        out_re, out_im = np.empty(len(x)), np.empty(len(x))
        backend.kl_contract(x, c_re, c_im, out_re, out_im)
        got[name] = out_re.tobytes(), out_im.tobytes()
    assert got["compiled"] == got["python"]


def test_contraction_is_the_index_order_sum():
    # the first term alone, then one rounded add per term
    x = np.array([[1.0, 1e16, -1e16, 1.0], [-0.0, -0.0, 3.0, 0.5]])
    c = np.array([1.0, 1.0, 1.0, 1.0])
    for backend in BACKENDS.values():
        out_re, out_im = np.empty(2), np.empty(2)
        backend.kl_contract(x, c, -c, out_re, out_im)
        assert out_re.tolist() == [1.0, 3.5] and out_im.tolist() == [-1.0, -3.5]
        backend.kl_contract(x[:, :1].copy(), c[:1], -c[:1], out_re, out_im)
        assert np.signbit(out_re).tolist() == [False, True]


def test_angle_within_two_ulp_of_the_radius():
    # against radius * (cos, sin)(2 pi k 2**-53) in 120-bit arithmetic
    mpmath = pytest.importorskip("mpmath")
    words = rng.philox_words(17, 0, 2000)
    words[: len(EDGE_WORDS)] = EDGE_WORDS
    words[1000 : 1000 + len(EDGE_WORDS)] = EDGE_WORDS
    k = (words[1000:] >> np.uint64(11)).reshape(1, -1)
    radius = np.sqrt(-2.0 * np.log(((words[:1000] >> np.uint64(11)) + 1) * 2.0**-53))
    radius = radius.reshape(1, -1)
    with mpmath.workprec(120):
        turns = [2 * mpmath.pi * int(w) / mpmath.mpf(2) ** 53 for w in k[0]]
        exact = [(r * mpmath.cos(a), r * mpmath.sin(a)) for r, a in zip(radius[0], turns)]
    ulp = np.spacing(radius[0])
    for backend in BACKENDS.values():
        out = backend.polar_normals(k, radius, 2000)[0]
        worst = max(
            float(abs(mpmath.mpf(out[2 * j + i]) - exact[j][i])) / ulp[j]
            for j in range(1000)
            for i in (0, 1)
            if radius[0, j] > 0.0
        )
        assert worst <= 2.0, (backend.name, worst)


def test_coefficients_are_the_nearest_taylor_doubles():
    mpmath = pytest.importorskip("mpmath")
    from framekit._kernels import _sampling_py

    with mpmath.workprec(200):
        x = mpmath.pi / 4
        taylor = [(-1) ** (p // 2) * x**p / mpmath.factorial(p) for p in range(19)]
        assert _sampling_py.SIN_COEF == tuple(float(v) for v in taylor[1::2])
        assert _sampling_py.COS_COEF == tuple(float(v) for v in taylor[0::2])


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


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C twin not loaded")
def test_wrong_sampling_arrays_raise():
    words = np.arange(4 * 8, dtype=np.uint64).reshape(4, 8)
    radius = np.ones((4, 3))
    polar = BACKENDS["compiled"].polar_normals
    assert polar(words[:, 3:6], radius, 5).shape == (4, 5)
    for k, r, count, error in [
        (words[:, 3:6].astype(np.int64), radius, 6, ctypes.ArgumentError),
        (words[:, 3:6], np.ones((4, 6))[:, ::2], 6, ctypes.ArgumentError),
        (words[:, 3:5], radius, 6, ValueError),
        (words[:, 3:6], radius, 4, ValueError),
        (words[:, 0:6:2], radius, 6, ValueError),
    ]:
        with pytest.raises(error):
            polar(k, r, count)
    x, c = np.ones((4, 3)), np.ones(3)
    frozen = np.zeros(4)
    frozen.setflags(write=False)
    contract = BACKENDS["compiled"].kl_contract
    for args, error in [
        ((np.asfortranarray(np.ones((4, 3))), c, c, np.zeros(4), np.zeros(4)), ctypes.ArgumentError),
        ((x, c, c, frozen, np.zeros(4)), ctypes.ArgumentError),
        ((x, np.ones(2), c, np.zeros(4), np.zeros(4)), ValueError),
        ((x, c, c, np.zeros(3), np.zeros(4)), ValueError),
        ((np.ones((4, 0)), c[:0], c[:0], np.zeros(4), np.zeros(4)), ValueError),
    ]:
        with pytest.raises(error):
            contract(*args)


def test_cache_name_follows_source_and_flags():
    sources = [b"int f;", b"int h;"]
    name = _kernels._library_name(sources, _kernels._FLAGS)
    assert name == _kernels._library_name(list(sources), _kernels._FLAGS)
    assert name != _kernels._library_name([b"int g;", b"int h;"], _kernels._FLAGS)
    assert name != _kernels._library_name([b"int f;", b"int g;"], _kernels._FLAGS)
    assert name != _kernels._library_name(sources, _kernels._FLAGS[1:])
    assert name != _kernels._library_name(sources, (*_kernels._FLAGS, "-g"))


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
        _kernels._library_name([p.read_bytes() for p in _kernels._SOURCES], _kernels._FLAGS)
    ]
    base = symmetric(9, 3, "dense", 0)
    assert run(active, base) == run(BACKENDS["python"], base)
    words = rng.philox_words(3, 0, 4 * 13 * 7).reshape(7, 52)
    assert sample(active, words, 25) == sample(BACKENDS["python"], words, 25)


@pytest.mark.parametrize("failure", ["compiler fails", "no compiler", "cache not writable"])
def test_failed_build_keeps_the_numpy_twin(tmp_path, monkeypatch, failure):
    a = SymMatrix(symmetric(12, 5, "dense", 0))
    expected = sym_eig(a)
    model, phat = kl_model(9, 3)
    expected_kl = gp.sample_kl(model, phat, gp._SAMPLE_BLOCK + 5, 11)
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
    got_kl = gp.sample_kl(model, phat, gp._SAMPLE_BLOCK + 5, 11)
    assert got_kl.samples_re.tobytes() == expected_kl.samples_re.tobytes()
    assert got_kl.samples_im.tobytes() == expected_kl.samples_im.tobytes()


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
