"""Backend selection for the compiled kernels: one-sided Jacobi, sampling
and frame-file I/O.

Each kernel ships twice: plain C (``_hestenes.c``, ``_sampling.c``,
``_frameio.c``), loaded through ``ctypes``, and a Python twin
(``_hestenes_py.py``, ``_sampling_py.py``, ``_frameio_py.py``).  Both produce
bit-identical output for the same input, so the choice only affects speed.
The frame-file reader is the one exception in form, not in result: the
Python twin declines every file and the C scanner declines every file
outside the one frame layout, and the JSON walk in ``framekit.cli`` reads
what they decline.  Nothing is built at install time: the first import
compiles the C sources with ``cc`` into one library in this package's
``__pycache__/``, under a name keyed by a hash of the sources and the flags,
and later imports load that file.  Without a compiler, when the build fails
or when the directory is not writable, the Python twins run.  ``ACTIVE`` is
the backend ``spectral.row_svd``, ``rng.NormalScratch``, the fixed-order
sums of ``gp`` and the file reader and writers of ``cli`` run; ``BACKENDS``
lists every one that loaded, for the parity tests and the benchmarks.

The C library holds its sampling kernels, Philox's ``philox_split`` and the
one kernel that draws normals, the fused ``polar_contract``, once per
vector ISA: AVX-512 (F and DQ), AVX2 and the x86-64 baseline where the
compiler targets x86-64, the baseline alone elsewhere.  Both take the
Box-Muller operands tile-major, u1 and the angle words as (tiles, pairs, 8)
arrays whose lane i of tile t is stream first + 8t + i: the AVX-512
variant runs a tile's 8 streams in the 8 lanes of its vectors, the others
loop over the lanes, and the AVX2 variant runs the baseline's scalar
Philox.  ``bind`` checks a scratch once and passes the kernels its
addresses from then on; each call checks only its own vectors, before
either kernel runs.  The library names the variants this CPU runs, the
compiled backend takes the widest, once per process, and ``VARIANTS``
holds a compiled backend for each (widest first; empty when the numpy twin
runs) for the parity tests and the benchmarks.  The variants give the same
bits, so samples do not depend on which one runs.  The normals themselves
are defined by the numpy twin: ``rng.seeded_normals`` computes them with
``_sampling_py`` alone, in rows, and every variant's ``philox_split``
matches its words and every variant's ``polar_contract`` sums its normals
bit for bit.
"""

from __future__ import annotations

import ctypes
import os
import platform
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _frameio_py, _hestenes_py, _sampling_py

_SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("_hestenes.c", "_sampling.c", "_frameio.c")
)
# -ffp-contract=off keeps the C twins bit-identical to the numpy twins (no FMA
# re-rounding inside rotations or sums); -fno-math-errno lets sqrt compile to the
# correctly rounded instruction alone, so the library needs no libm
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


class Backend(NamedTuple):
    """One twin: ``variant``, the vector ISA its ``philox_split`` and
    ``polar_contract`` were built for ("numpy" for the numpy twin);
    ``jacobi_rows(a, max_sweeps, tol)``, one-sided Jacobi on the
    rows of ``a``, returning (squared row norms, rotations, sweeps);
    ``philox_split(seed, first, u1, k)``, which writes the Box-Muller operands
    u1 and angle words k of Philox streams first.. into tile-major (tiles,
    pairs, 8) arrays, every lane of every tile; ``polar_contract(ln_u1, k,
    c_re, c_im, out_re, out_im)``, the ``kl_contract`` of the normals that the
    radius and angle of Box-Muller give from the tile-major ln u1 and k,
    count = len(c_re) of them a stream, for the first rows = len(out_re)
    streams, into the (rows,) ``out_re`` and ``out_im``, the normals never
    written out; ``bind(u1, k)``, the (split, fuse) of a tile-major scratch,
    checked once: ``split(seed, first, tiles)`` runs ``philox_split`` into
    its first tiles, and ``fuse(rows, c_re, c_im, out_re, out_im)`` checks
    the vectors (float64, C-contiguous, the outputs writeable and of rows
    entries; ValueError otherwise) and returns the call that runs
    ``polar_contract`` on the scratch; and
    ``kl_contract(x, c_re, c_im, out_re, out_im)``, the fixed-order sums of
    ``sample_kl``, ``kl_coefficients`` and ``fourier_at_atoms``;
    ``spell_rows(table)``, the rows of a 2-D float table as ASCII bytes
    "[v, v], [v, v]", each value spelt as ``"%.17g"`` does and negative zero
    as "-0.0", yielded in chunks of whole rows; and ``scan_frame(data)``, the
    (points, weights, vectors) arrays of the bytes of a frame file in the
    frame layout, or None to leave the file to the JSON walk."""

    name: str
    variant: str
    jacobi_rows: Callable
    philox_split: Callable
    polar_contract: Callable
    bind: Callable
    kl_contract: Callable
    spell_rows: Callable
    scan_frame: Callable


def _whole(bind):
    """(philox_split, polar_contract) on whole tile-major arrays, through
    the ``bind`` of a backend."""

    def philox_split(seed, first, u1, k):
        split, _ = bind(u1, k)
        split(seed, first, len(u1))

    def polar_contract(ln_u1, k, c_re, c_im, out_re, out_im):
        _, fuse = bind(ln_u1, k)
        fuse(len(out_re), c_re, c_im, out_re, out_im)()

    return philox_split, polar_contract


PYTHON = Backend(
    "python",
    "numpy",
    _hestenes_py.jacobi_rows,
    *_whole(_sampling_py.bind),
    _sampling_py.bind,
    _sampling_py.kl_contract,
    _frameio_py.spell_rows,
    _frameio_py.scan_frame,
)

#: bytes a compiled ``spell_rows`` call fills at most, unless one row needs more
_SPELL_CHUNK = 1 << 18


def _library_name(sources, flags) -> str:
    """Cache file name for the ``sources`` (bytes each) built with ``flags``
    on this machine."""
    key = zlib.crc32(b"\0".join([*sources, " ".join(flags).encode(), platform.machine().encode()]))
    return f"_kernels-{key:08x}.so"


def _build(cc: str, cache: Path) -> Path:
    """Path of the C library in ``cache``, compiled there by ``cc`` unless present.

    The compiler writes a file private to this process, which ``os.replace``
    then moves into place, so concurrent first imports never load a partial
    library.  A new build then removes the libraries of earlier sources or
    flags from ``cache``; another process's partial ``*.tmp`` files stay.
    """
    library = cache / _library_name([p.read_bytes() for p in _SOURCES], _FLAGS)
    if not library.exists():
        import subprocess

        cache.mkdir(exist_ok=True)
        partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(
                [cc, *_FLAGS, "-o", str(partial), *map(str, _SOURCES)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(partial, library)
            for stale in cache.glob("_kernels-*.so"):
                if stale != library:
                    try:
                        stale.unlink()
                    except OSError:
                        pass
        except subprocess.SubprocessError as exc:
            raise OSError(f"{cc} could not build {library.name}") from exc
        finally:
            partial.unlink(missing_ok=True)
    return library


def _load(library: Path) -> list[Backend]:
    """A compiled backend for each sampling variant that this CPU runs,
    widest first."""
    lib = ctypes.CDLL(str(library))
    # typed pointers make a wrong dtype, rank, layout or a read-only array
    # raise instead of handing C the wrong memory
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    out_vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    lib.jacobi_rows.argtypes = [
        matrix, matrix, out_vector, ctypes.c_long, ctypes.c_long, ctypes.c_int, ctypes.c_double
    ]
    lib.jacobi_rows.restype = ctypes.c_int

    def jacobi_rows(a, max_sweeps, tol):
        k, n = _hestenes_py.check_rows_args(a)
        v, norms = np.eye(k), np.empty(k)
        sweeps = lib.jacobi_rows(a, v, norms, k, n, max_sweeps, tol)
        return norms, v, sweeps

    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    rows_in = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    lib.kl_contract.argtypes = [
        rows_in, vector, vector, out_vector, out_vector, ctypes.c_long, ctypes.c_long
    ]
    lib.kl_contract.restype = None

    def kl_contract(x, c_re, c_im, out_re, out_im):
        rows, n = _sampling_py.check_contract_args(x.shape, c_re, c_im, out_re, out_im)
        lib.kl_contract(x, c_re, c_im, out_re, out_im, rows, n)

    lib.spell_rows.argtypes = [
        rows_in, ctypes.c_long, ctypes.c_long, ctypes.c_char_p, ctypes.c_long,
        ctypes.POINTER(ctypes.c_long),
    ]
    lib.spell_rows.restype = ctypes.c_long
    shape_type = ctypes.c_long * 4
    lib.frame_shape.argtypes = [ctypes.c_char_p, ctypes.c_long, shape_type]
    lib.frame_shape.restype = ctypes.c_int
    lib.frame_read.argtypes = [
        ctypes.c_char_p, ctypes.c_long, shape_type, out_vector, out_vector, matrix
    ]
    lib.frame_read.restype = ctypes.c_int

    def spell_rows(table):
        table = np.ascontiguousarray(table, dtype=np.float64)
        rows, cols = _frameio_py.check_table(table)
        # 24 bytes a value at most, ", " after it, and "[", "]" and ", " a row
        row_bytes = 26 * cols + 4
        size = max(row_bytes, min(_SPELL_CHUNK, rows * row_bytes))
        buffer = ctypes.create_string_buffer(size)
        row = ctypes.c_long(0)
        while row.value < rows:
            n = lib.spell_rows(table, rows, cols, buffer, size, ctypes.byref(row))
            yield ctypes.string_at(buffer, n)

    def scan_frame(data):
        shape = shape_type()
        if lib.frame_shape(data, len(data), shape) != 0:
            return None
        points, weights = np.empty(shape[0]), np.empty(shape[1])
        vectors = np.empty((shape[2], shape[3]))
        if lib.frame_read(data, len(data), shape, points, weights, vectors) != 0:
            return None
        return points, weights, vectors

    lib.sampling_variants.argtypes = []
    lib.sampling_variants.restype = ctypes.c_char_p
    # the sampling kernels take bare addresses, which bind checks once for
    # the scratch and fuse for each call's vectors, as typed pointers would
    addresses, sizes = [ctypes.c_void_p] * 6, [ctypes.c_long] * 3

    def variant(name):
        # a variant without a Philox of its own runs the baseline's
        philox = getattr(lib, f"philox_split_{name}", lib.philox_split)
        philox.argtypes = [ctypes.c_uint64, ctypes.c_uint64, *addresses[:2], *sizes[:2]]
        philox.restype = None
        fused = getattr(lib, f"polar_contract_{name}")
        fused.argtypes = [*addresses, *sizes]
        fused.restype = None

        def bind(u1, k):
            held, pairs = _sampling_py.check_tiles(u1, k)
            # each call holds the arrays whose addresses it passes, so that
            # they outlive them
            scratch = (u1, k, u1.ctypes.data, k.ctypes.data)

            def split(seed, first, tiles):
                _sampling_py.check_split_args(seed, first, tiles, held)
                philox(seed, first, *scratch[2:], tiles, pairs)

            def fuse(rows, c_re, c_im, out_re, out_im):
                count, at = _sampling_py.check_fuse_args(
                    pairs, held, rows, c_re, c_im, out_re, out_im
                )

                def run(vectors=(c_re, c_im, out_re, out_im)):
                    fused(*scratch[2:], *at, rows, pairs, count)

                return run

            return split, fuse

        return Backend(
            "compiled", name, jacobi_rows, *_whole(bind), bind, kl_contract, spell_rows,
            scan_frame,
        )

    return [variant(name) for name in lib.sampling_variants().decode().split()]


def _select(cc: str, cache: Path) -> tuple[dict, dict, Backend]:
    """(every backend that loads, a compiled backend for each sampling
    variant this CPU runs, the backend to run): the C twin built by
    ``cc`` into ``cache``, with its widest variant, when that works, the
    numpy twin otherwise."""
    try:
        variants = _load(_build(cc, cache))
    except OSError:
        return {"python": PYTHON}, {}, PYTHON
    widest = variants[0]
    return {"python": PYTHON, "compiled": widest}, {v.variant: v for v in variants}, widest


BACKENDS, VARIANTS, ACTIVE = _select("cc", Path(__file__).with_name("__pycache__"))
