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

Each backend's ``sampler(rows, count)`` is a scratch allocated once for
blocks of up to ``rows`` normal streams of ``count`` normals, whose
``contract`` draws a block and sums it into KL samples.  The numpy twin's
runs the row-major reference of ``_sampling_py`` itself.  The compiled twin's
holds the Box-Muller operands tile-major, a layout no other module knows: u1
and the angle words are (tiles, pairs, LANES) arrays whose lane i of tile t
is stream first + LANES t + i, passed to the kernels by the addresses taken
when the scratch is made.  The C library holds its Jacobi kernel,
``jacobi_rows``, and its sampling kernels, Philox's ``philox_split`` and the
one kernel that draws normals, the fused ``polar_contract``, once per vector
ISA: AVX-512 (F and DQ, sampling only), AVX2 and the x86-64 baseline where
the compiler targets x86-64, the baseline alone elsewhere.  The AVX-512
variant runs a tile's 8 streams in the 8 lanes of its vectors, the others
loop over the lanes, and the AVX2 variant runs the baseline's scalar
Philox.  Jacobi sums each of its dot products in 8 lanes, lane l taking the
terms j = l (mod 8) in index order, and combines them as
((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)): in two 4-wide vectors a
sum on AVX2 and as 8 scalars on the baseline; the AVX-512 variant, which has
no Jacobi of its own, runs the next variant's (AVX2's).  The library names
the variants this CPU runs, the compiled backend takes the widest, once per
process, for its Jacobi and its sampling alike, and ``VARIANTS`` holds a
compiled backend for each (widest first; empty when the numpy twin runs) for
the parity tests and the benchmarks.  A library that lacks a kernel the
loader looks up is not loaded, and the numpy twin runs.  The variants give
the same bits, so neither spectra nor samples depend on which one runs.  The
numpy twin defines both: ``_hestenes_py`` the order of the Jacobi sums,
which every variant matches bit for bit, and ``rng.seeded_normals``, with
``_sampling_py`` alone, the normals, whose words every variant's Philox
matches and which every variant's fused kernel sums bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
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


#: streams a tile of the compiled twin's Box-Muller operands holds, one a lane
LANES = 8


class Backend(NamedTuple):
    """One twin, a field an entry:

    - ``name``: "compiled" or "python".
    - ``variant``: the vector ISA its sampling kernels were built for, and
      its Jacobi too unless the library has none for it; "numpy" for the
      numpy twin.
    - ``jacobi_rows(a, max_sweeps, tol)``: one-sided Jacobi on the rows of
      ``a``, returning (squared row norms, rotations, sweeps); a compiled
      variant's is a partial whose argument is its C ``jacobi_rows_<isa>``.
    - ``sampler(rows, count)``: a scratch for blocks of up to ``rows``
      streams of ``count`` normals; its ``contract(seed, first, rows, c_re,
      c_im, out_re, out_im)`` writes the ``kl_contract`` of streams first..
      of ``seed`` into ``out_re`` and ``out_im``, never writing the normals
      out; before any kernel runs it refuses with ValueError vectors that
      are not C-contiguous float64 of ``count`` or ``rows`` entries (the
      outputs writeable), a block of no streams or of more than the scratch
      holds, and a seed or first stream outside [0, 2**64).
    - ``kl_contract(x, c_re, c_im, out_re, out_im)``: the fixed-order sums of
      ``sample_kl``, ``kl_coefficients`` and ``fourier_at_atoms``.
    - ``spell_rows(table)``: the rows of a 2-D float table as ASCII bytes
      "[v, v], [v, v]", each value spelt as ``"%.17g"`` does and negative
      zero as "-0.0", yielded in chunks of whole rows.
    - ``scan_frame(data)``: the (points, weights, vectors) arrays of the
      bytes of a frame file in the frame layout, or None to leave the file
      to the JSON walk.
    """

    name: str
    variant: str
    jacobi_rows: Callable
    sampler: Callable
    kl_contract: Callable
    spell_rows: Callable
    scan_frame: Callable


PYTHON = Backend(
    "python",
    "numpy",
    _hestenes_py.jacobi_rows,
    _sampling_py.Sampler,
    _sampling_py.kl_contract,
    _frameio_py.spell_rows,
    _frameio_py.scan_frame,
)


class _TileSampler:
    """The compiled twin's scratch for blocks of up to ``rows`` streams of
    ``count`` normals: ``u1`` (then ln u1) and the angle words ``k`` as
    tile-major (tiles, pairs, LANES) arrays, allocated once and passed to
    ``philox``, a variant's ``philox_split``, and ``fused``, its
    ``polar_contract``, by address.  A block whose rows are not a multiple
    of LANES pads its last tile: its spare lanes are drawn (the streams that
    follow the block) but no sum of them is written."""

    def __init__(self, philox, fused, rows, count):
        pairs = (count + 1) // 2
        tiles = -(-rows // LANES)
        self.rows, self.count, self._pairs = rows, count, pairs
        self._philox, self._fused = philox, fused
        self.u1 = np.empty((tiles, pairs, LANES))
        self.k = np.empty((tiles, pairs, LANES), dtype=np.uint64)
        self._at = self.u1.ctypes.data, self.k.ctypes.data

    def split(self, seed, first, tiles):
        """Streams first..first + LANES tiles - 1 of ``seed`` into the first
        ``tiles`` tiles, every lane; ValueError, before Philox runs, for a
        seed or first stream outside [0, 2**64) or tiles the scratch lacks."""
        _sampling_py.check_seed(seed, first)
        if not 1 <= tiles <= len(self.u1):
            raise ValueError(f"{tiles} tiles for a scratch of {len(self.u1)}")
        self._philox(seed, first, *self._at, tiles, self._pairs)

    def fuse(self, rows, c_re, c_im, out_re, out_im):
        """The call that runs the fused kernel on the tiles of ``rows``
        streams into ``out_re`` and ``out_im``, its vectors checked now."""
        at = _sampling_py.check_block_args(
            self.rows, self.count, rows, c_re, c_im, out_re, out_im
        )

        # the call holds the vectors whose addresses it passes, so that they
        # outlive them
        def run(vectors=(c_re, c_im, out_re, out_im)):
            self._fused(*self._at, *at, rows, self._pairs, self.count)

        return run

    def contract(self, seed, first, rows, c_re, c_im, out_re, out_im):
        """Philox, ln in place on u1 and the fused kernel on a block."""
        fused = self.fuse(rows, c_re, c_im, out_re, out_im)
        tiles = -(-rows // LANES)
        self.split(seed, first, tiles)
        u1 = self.u1[:tiles]
        np.log(u1, out=u1)
        fused()


def _jacobi_rows(jacobi, a, max_sweeps, tol):
    """A variant's ``jacobi_rows`` C function, ``jacobi``, on ``a``:
    (squared row norms, rotations, sweeps)."""
    k, n = _hestenes_py.check_rows_args(a)
    v, norms = np.eye(k), np.empty(k)
    sweeps = jacobi(a, v, norms, k, n, max_sweeps, tol)
    return norms, v, sweeps


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
    """A compiled backend for each variant that this CPU runs,
    widest first."""
    lib = ctypes.CDLL(str(library))
    # typed pointers make a wrong dtype, rank, layout or a read-only array
    # raise instead of handing C the wrong memory
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    out_vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
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
    # the sampling kernels take bare addresses, which the scratch holds
    # and checks for each call's vectors, as typed pointers would
    addresses, sizes = [ctypes.c_void_p] * 6, [ctypes.c_long] * 3

    names = lib.sampling_variants().decode().split()

    def variant(name):
        # a variant without a Jacobi of its own (avx512f) runs the next
        # narrower one's; jacobi_rows_baseline is built everywhere
        isa = next(
            (isa for isa in names[names.index(name) :] if hasattr(lib, f"jacobi_rows_{isa}")),
            "baseline",
        )
        jacobi = getattr(lib, f"jacobi_rows_{isa}")
        jacobi.argtypes = [
            matrix, matrix, out_vector, ctypes.c_long, ctypes.c_long, ctypes.c_int,
            ctypes.c_double,
        ]
        jacobi.restype = ctypes.c_int
        # a variant without a Philox of its own runs the baseline's
        philox = getattr(lib, f"philox_split_{name}", lib.philox_split)
        philox.argtypes = [ctypes.c_uint64, ctypes.c_uint64, *addresses[:2], *sizes[:2]]
        philox.restype = None
        fused = getattr(lib, f"polar_contract_{name}")
        fused.argtypes = [*addresses, *sizes]
        fused.restype = None

        return Backend(
            "compiled", name, functools.partial(_jacobi_rows, jacobi),
            functools.partial(_TileSampler, philox, fused),
            kl_contract, spell_rows, scan_frame,
        )

    return [variant(name) for name in names]


def _select(cc: str, cache: Path) -> tuple[dict, dict, Backend]:
    """(every backend that loads, a compiled backend for each variant this
    CPU runs, the backend to run): the C twin built by
    ``cc`` into ``cache``, with its widest variant, when that works, the
    numpy twin otherwise."""
    try:
        variants = _load(_build(cc, cache))
    # a library that lacks a kernel counts as one that did not build
    except (OSError, AttributeError):
        return {"python": PYTHON}, {}, PYTHON
    widest = variants[0]
    return {"python": PYTHON, "compiled": widest}, {v.variant: v for v in variants}, widest


BACKENDS, VARIANTS, ACTIVE = _select("cc", Path(__file__).with_name("__pycache__"))
