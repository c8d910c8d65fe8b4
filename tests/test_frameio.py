"""The frame-file twins: the "%.17g" row writer and the frame-layout scanner.

The Python twin's spelling and the JSON walk of ``framekit.cli`` are the
reference.  The compiled writer must spell every double byte for byte as
the Python twin does, and ``parse_frame_file`` must give bit-identical
arrays or the identical ``SchemaError`` text under both backends, whatever
the file holds.  The compiled scanner must also accept every file that
framekit and perfbench write, or the fast path would silently stop running.
"""

import json
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import frameio_corpus
from framekit import _kernels, cli, frames, rng
from framekit._kernels import PYTHON, VARIANTS
from framekit.errors import FramekitError

pytestmark = pytest.mark.skipif(not VARIANTS, reason="C twin not loaded")
#: the compiled twin: every variant shares its frame-file kernels
COMPILED = next(iter(VARIANTS.values()), None)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spelt(backend, table):
    return b"".join(backend.spell_rows(np.asarray(table, dtype=float)))


def doubles(words):
    return np.array(words, dtype=np.uint64).view(np.float64)


def read(backend, path, data):
    """What ``parse_frame_file`` makes of ``data`` under ``backend``: the
    arrays' bytes, or the refusal's type and text."""
    path.write_bytes(data)
    saved = _kernels.ACTIVE
    _kernels.ACTIVE = backend
    try:
        fs = cli.parse_frame_file(str(path))
    except FramekitError as exc:
        return type(exc).__name__, str(exc)
    finally:
        _kernels.ACTIVE = saved
    return fs.grid.points.tobytes(), fs.grid.weights.tobytes(), fs.vectors.tobytes()


def assert_read_alike(path, data):
    assert read(COMPILED, path, data) == read(PYTHON, path, data), data


# ---------------------------------------------------------------------------
# writer


@settings(max_examples=200, deadline=None, database=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_writer_twins_agree_on_bit_patterns(words):
    table = doubles(words).reshape(1, -1)
    assert spelt(COMPILED, table) == spelt(PYTHON, table)


def _ties(count):
    # n + j/16 with 14 or 15 integer digits has 18 significant digits ending
    # in 5, exactly: a tie at 17 digits, broken to even
    r = random.Random(5)
    return [(r.randrange(10**13, 5 * 10**14) + r.randrange(1, 16, 2) / 16) for _ in range(count)]


EDGE_VALUES = {
    "zeros-subnormals-extremes": [
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
    ],
    "powers-of-ten": [float(f"1e{k}") for k in range(-30, 41)],
    "powers-of-two": [2.0**k for k in range(-1074, 1024)],
    "next-to-powers-of-ten": [
        v for k in range(-30, 41) for v in np.nextafter(float(f"1e{k}"), [0.0, np.inf]).tolist()
    ],
    "17-digit-ties": _ties(2000),
    "integers": [float(n) for n in range(-1000, 1000)] + [2.0**53 + 2 * k for k in range(100)],
}


@pytest.mark.parametrize("name", list(EDGE_VALUES))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_writer_twins_agree_on_edge_values(name, sign):
    table = sign * np.array(EDGE_VALUES[name]).reshape(-1, 1)
    assert spelt(COMPILED, table) == spelt(PYTHON, table)
    # the reference is "%.17g" itself
    text = spelt(PYTHON, table).decode()
    assert text == ", ".join("[" + frameio_corpus.python_spelling(x) + "]" for x in table[:, 0])


@pytest.mark.parametrize("shape", [(300, 50), (1, 12000), (3, 0), (0, 4)])
def test_writer_chunks_hold_whole_rows(shape):
    # 300 x 50 spans several 256 KiB chunks; one 12000-wide row is larger
    # than a chunk and gets a buffer of its own
    table = np.random.default_rng(0).standard_normal(shape) * 1e5
    chunks = list(COMPILED.spell_rows(table))
    assert b"".join(chunks) == spelt(PYTHON, table)
    assert all(c.endswith(b"]") for c in chunks)
    assert len(chunks) == {(300, 50): 2, (1, 12000): 1, (3, 0): 1, (0, 4): 0}[shape]


# ---------------------------------------------------------------------------
# reader


def test_corpus_reads_alike(tmp_path):
    # truncations, flips, deletions and awkward insertions into frame files
    path = tmp_path / "f.json"
    for data in frameio_corpus.corpus(mutants=20):
        assert_read_alike(path, data)


AWKWARD = [
    "-0", "-0.0", "0e0", "-0e-0", "1e400", "-1e400", "1e-400", "true", "false", "null",
    "9007199254740993", "-9007199254740995", "18446744073709551617", "1" * 63, "1" * 64,
    "123456789012345678901234567890", "1.5E+3", "NaN", "-Infinity", '"1"', "[1]", "01",
]


@st.composite
def frame_files(draw):
    """Bytes of a frame file as json.dumps writes it, in three layouts, then
    perhaps broken: an awkward literal in place of a number, a byte flipped,
    the file truncated, or whitespace added."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
    positive = st.floats(1e-300, 1e300) | st.integers(1, 2**70)
    points = draw(st.lists(number, min_size=m, max_size=m, unique=True))
    weights = draw(st.lists(positive | number, min_size=m, max_size=m))
    vectors = draw(st.lists(st.lists(number, min_size=m, max_size=m), min_size=n, max_size=n))
    payload = {"grid": {"points": points, "weights": weights}, "vectors": vectors}
    text = draw(
        st.sampled_from(
            [
                json.dumps(payload),
                json.dumps(payload, separators=(",", ":")),
                json.dumps(payload, indent=1),
            ]
        )
    )
    data = text.encode()
    how = draw(st.sampled_from(["none", "literal", "flip", "truncate", "whitespace"]))
    i = draw(st.integers(0, len(data) - 1))
    if how == "literal":
        spots = [k for k in range(1, len(data)) if data[k - 1 : k] in (b"[", b" ", b",")
                 and data[k : k + 1] in b"-0123456789"]
        k = spots[i % len(spots)]
        end = k + 1
        while end < len(data) and data[end : end + 1] not in (b",", b"]"):
            end += 1
        data = data[:k] + draw(st.sampled_from(AWKWARD)).encode() + data[end:]
    elif how == "flip":
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    elif how == "truncate":
        data = data[:i]
    elif how == "whitespace":
        data = data[:i] + draw(st.sampled_from([b" ", b"\t\n", b"\r\n  "])) + data[i:]
    return data


@settings(max_examples=300, deadline=None, database=None)
@given(data=frame_files())
def test_frame_files_read_alike(data, tmp_path_factory):
    assert_read_alike(tmp_path_factory.mktemp("f") / "f.json", data)


@pytest.mark.parametrize(
    "case",
    [
        b"\xef\xbb\xbf" + json.dumps({"grid": {"points": [1], "weights": [1]}, "vectors": [[1]]}).encode(),
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 2], [3, \xe9]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 2], [3, 4]]} \xff',
        b'{"grid": {"weights": [1, 1], "points": [1, 2]}, "vectors": [[1, 2]]}',
        b'{"vectors": [[1, 2]], "grid": {"points": [1, 2], "weights": [1, 1]}}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 2]], "grid": 0}',
        b'{"grid": {"points": [1, 1], "weights": [1, 1]}, "vectors": [[1, 2]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, -0]}, "vectors": [[1, 2]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1, 1]}, "vectors": [[1, 2]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 2, 3]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 1e400]]}',
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 1' + b"0" * 5000 + b"]]}",
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 1' + b"0" * 400 + b"]]}",
        b'{"grid": {"points": [1, 2], "weights": [1, 1]}, "vectors": [[1, 1' + b"0" * 300 + b"]]}",
    ],
    ids=[
        "bom", "latin1", "trailing-ff", "weights-first", "vectors-first", "repeated-key",
        "repeated-point", "zero-weight", "weights-count", "columns", "overflow",
        "digit-limit", "int-past-double", "int-fits-double",
    ],
)
def test_refusals_come_from_the_walk(tmp_path, case):
    assert_read_alike(tmp_path / "f.json", case)


@pytest.mark.parametrize(
    "literal, value",
    [("-0", 0.0), ("-0.0", -0.0), ("-0e0", -0.0), ("9007199254740993", 2.0**53),
     ("9007199254740995", 2.0**53 + 4), ("1e-400", 0.0), ("-1e-400", -0.0)],
)
def test_scanner_reads_as_json_does(literal, value):
    data = b'{"grid": {"points": [%s], "weights": [1]}, "vectors": [[1]]}' % literal.encode()
    points, _, _ = COMPILED.scan_frame(data)
    assert points.tobytes() == np.array([value]).tobytes()
    assert points.tobytes() == np.asarray(json.loads(data)["grid"]["points"], dtype=float).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    a=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_scanner_accepts_what_framekit_writes(a, tmp_path_factory):
    points = np.arange(a.shape[1], dtype=float) * 0.5 - 1.0
    weights = np.abs(a[-1]) if np.all(a[-1] != 0) else np.ones(a.shape[1])
    fs = frames.FrameSystem(grid=frames.Grid(points=points, weights=weights), vectors=a)
    path = tmp_path_factory.mktemp("a") / "f.json"
    cli.write_frame_file(str(path), fs)
    arrays = COMPILED.scan_frame(path.read_bytes())
    assert arrays is not None
    for got, sent in zip(arrays, (fs.grid.points, fs.grid.weights, fs.vectors)):
        assert got.tobytes() == sent.tobytes()


@pytest.mark.parametrize("seed", [1, 7, 2024, 31337])
def test_scanner_accepts_what_perfbench_writes(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    inputs = pytest.importorskip("inputs")
    for f in inputs.frame_cli_inputs(seed):
        path = tmp_path / f"{f.name}.json"
        inputs.write_frame(str(path), f)
        data = path.read_bytes()
        assert COMPILED.scan_frame(data) is not None, f.name
        assert_read_alike(path, data)


def test_reading_a_large_frame_needs_no_more_memory_than_the_walk(tmp_path):
    # the weighted 50 x 3000 frame: 3.3 MB of text, 1.2 MB of vectors
    n, m = 50, 3000
    grid = frames.Grid(points=np.arange(m, dtype=float),
                       weights=1.0 + np.abs(rng.seeded_normals(7, 1, m)))
    fs = frames.FrameSystem(grid=grid, vectors=rng.seeded_normals(7, 0, n * m).reshape(n, m))
    path = tmp_path / "large.json"
    cli.write_frame_file(str(path), fs)
    peaks = {}
    for name, backend in (("python", PYTHON), ("compiled", COMPILED)):
        saved = _kernels.ACTIVE
        _kernels.ACTIVE = backend
        tracemalloc.start()
        try:
            back = cli.parse_frame_file(str(path))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _kernels.ACTIVE = saved
        assert back.vectors.tobytes() == fs.vectors.tobytes()
    # the bytes, the scanned arrays and the copies Grid and FrameSystem keep
    assert peaks["compiled"] <= path.stat().st_size + 3 * fs.vectors.nbytes
    assert peaks["compiled"] <= peaks["python"]
