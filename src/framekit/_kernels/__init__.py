"""Backend selection for the compiled kernels: one-sided Jacobi, sampling
and frame-file I/O.

Each kernel ships twice: plain C (``_hestenes.c``, ``_sampling.c``,
``_frameio.c``), loaded through ``ctypes``, and a Python twin
(``_hestenes_py.py``, ``_sampling_py.py``, ``_frameio_py.py``).  Both produce
bit-identical output for the same input, so the choice only affects speed.
The frame-file reader is the one exception in form, not in result: the
Python twin declines every file and the C scanner declines every file
outside the one frame layout, and the JSON walk in ``framekit.cli`` reads
what they decline.  The scanner reads a file in one walk, each number in
file order into one array of the file's commas + 1 doubles
(``frame_numbers``): exactly the numbers of a file in the frame layout,
and for a declined file at most 8 bytes a comma and one double more, which
the walk leaves untouched past the numbers it read.  It converts a literal
of at most 19 significant digits with a decimal exponent in [-27, 27]
exactly itself and hands every other literal to ``strtod_l`` in the C
locale, so each value is the double ``float()`` gives.  Nothing is built
at install time: the first import compiles the C sources with ``cc`` into
one library in this package's ``__pycache__/``, under a name keyed by a
hash of the sources and the flags, and later imports load that file.

The library builds its Jacobi and sampling kernels once per vector ISA:
AVX-512 (F and DQ), AVX2 and the baseline where the compiler targets
x86-64, the baseline alone elsewhere.  The Jacobi kernel is one body for
every ISA, on rows padded to whole groups of its 8 lanes as
``spectral.padded_svd`` states; ``jacobi_rows`` refuses other rows with
ValueError.  Every variant v that its ``variants()`` names for
this CPU, widest first, exports the same kernel set: ``jacobi_rows_<v>``,
``philox_split_<v>`` and ``polar_contract_<v>``.  ``VARIANTS`` holds a
compiled backend for each, and ``ACTIVE``, the backend the package runs,
is the widest.  Without a compiler, when the build fails, when the
directory is not writable or when the library lacks a kernel,
``VARIANTS`` is empty and ``ACTIVE`` is ``PYTHON``, the numpy twin.  The
numpy twin defines the bits, which every variant matches: ``_hestenes_py``
the order of the Jacobi sums, ``_sampling_py`` the normals.

Each backend's ``sampler(rows, count)`` is a scratch allocated once for
blocks of normal streams, whose ``contract`` draws a block and sums it into
KL samples.  The numpy twin's runs the row-major reference of
``_sampling_py``.  The compiled twin's holds the Box-Muller operands
tile-major, a layout no other module knows: u1 and the angle words are
(tiles, pairs, LANES) arrays whose lane i of tile t is stream
first + LANES t + i, passed to the kernels by address.
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

    - ``variant``: "numpy" for the numpy twin, else the vector ISA v whose
      kernel set the compiled twin runs.
    - ``jacobi_rows(a, max_sweeps, tol)``: one-sided Jacobi on the rows of
      ``a``, whose length is a multiple of 8, returning (squared row norms,
      rotations, sweeps); a variant's is a partial of its C
      ``jacobi_rows_<v>``.
    - ``sampler(rows, count)``: a scratch for blocks of up to ``rows``
      streams of ``count`` normals; its ``contract(seed, first, rows, c_re,
      c_im, out_re, out_im)`` writes the ``kl_contract`` of streams first..
      of ``seed`` into ``out_re`` and ``out_im``; before any kernel runs it
      refuses with ValueError vectors that are not C-contiguous float64 of
      ``count`` or ``rows`` entries (the outputs writeable), a block of no
      streams or of more than the scratch holds, and a seed or first stream
      outside [0, 2**64).  A variant's is a partial of its C
      ``philox_split_<v>`` and ``polar_contract_<v>``.
    - ``kl_contract(x, c, out)``: out[j, i] = x[i] . c[j] in index order for
      x (rows, n), c (k, n) and out (k, rows): the fixed-order sums of
      ``kl_coefficients``, ``fourier_at_atoms`` and the numpy ``sampler``.
    - ``spell_rows(table)``: the rows of a 2-D float table as ASCII bytes
      "[v, v], [v, v]", each value spelt as ``"%.17g"`` does and negative
      zero as "-0.0", yielded in chunks of whole rows.
    - ``scan_frame(data)``: the (points, weights, vectors) arrays of the
      bytes of a frame file in the frame layout, each number the double
      json reads, or None to leave the file to the JSON walk; the compiled
      twin's are views of one array of exactly their numbers.
    """

    variant: str
    jacobi_rows: Callable
    sampler: Callable
    kl_contract: Callable
    spell_rows: Callable
    scan_frame: Callable


PYTHON = Backend(
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
    tile-major (tiles, pairs, LANES) arrays, allocated once and passed by
    address to ``philox`` and ``fused``, a variant's ``philox_split_<v>``
    and ``polar_contract_<v>``.  A block whose rows are not a multiple
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
        """The fused kernel on the tiles of ``rows`` streams into ``out_re``
        and ``out_im``; ValueError, before it runs, for vectors
        ``check_block_args`` refuses."""
        at = _sampling_py.check_block_args(
            self.rows, self.count, rows, c_re, c_im, out_re, out_im
        )
        self._fused(*self._at, *at, rows, self._pairs, self.count)

    def contract(self, seed, first, rows, c_re, c_im, out_re, out_im):
        """``split``, ln in place on u1 and the fused kernel on a block, every
        argument checked before Philox runs."""
        at = _sampling_py.check_block_args(
            self.rows, self.count, rows, c_re, c_im, out_re, out_im
        )
        tiles = -(-rows // LANES)
        self.split(seed, first, tiles)
        u1 = self.u1[:tiles]
        np.log(u1, out=u1)
        self._fused(*self._at, *at, rows, self._pairs, self.count)


def _jacobi_rows(jacobi, a, max_sweeps, tol):
    """A variant's C ``jacobi_rows_<v>``, ``jacobi``, on ``a``:
    (squared row norms, rotations, sweeps)."""
    k, n = _hestenes_py.check_rows_args(a)
    at = _sampling_py.array_address(a, (k, n), writeable=True)
    v, norms = np.eye(k), np.empty(k)
    sweeps = jacobi(at, v.ctypes.data, norms.ctypes.data, k, n, max_sweeps, tol)
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
    # every kernel takes bare addresses: of arrays its wrapper allocates or
    # makes contiguous float64 itself, or of arrays array_address has
    # checked, so a wrong dtype, shape, layout or a read-only output raises
    # ValueError before C runs
    addresses, sizes = [ctypes.c_void_p] * 6, [ctypes.c_long] * 3
    lib.kl_contract.argtypes = [*addresses[:3], *sizes]
    lib.kl_contract.restype = None

    def kl_contract(x, c, out):
        lib.kl_contract(*_sampling_py.check_contract_args(x, c, out))

    lib.spell_rows.argtypes = [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
        ctypes.POINTER(ctypes.c_long),
    ]
    lib.spell_rows.restype = ctypes.c_long
    shape_type = ctypes.c_long * 4
    lib.frame_numbers.argtypes = [ctypes.c_char_p, ctypes.c_long]
    lib.frame_numbers.restype = ctypes.c_long
    lib.frame_read.argtypes = [
        ctypes.c_char_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long, shape_type
    ]
    lib.frame_read.restype = ctypes.c_int

    def spell_rows(table):
        table = np.ascontiguousarray(table, dtype=np.float64)
        rows, cols = _frameio_py.check_table(table)
        # 24 bytes a value at most, ", " after it, and "[", "]" and ", " a row
        row_bytes = 26 * cols + 4
        size = max(row_bytes, min(_SPELL_CHUNK, rows * row_bytes))
        buffer = np.empty(size, dtype=np.uint8)  # not zero-filled: each call writes its bytes
        at, out = table.ctypes.data, buffer.ctypes.data
        row = ctypes.c_long(0)
        while row.value < rows:
            n = lib.spell_rows(at, rows, cols, out, size, ctypes.byref(row))
            yield ctypes.string_at(out, n)

    def scan_frame(data):
        flat, shape = np.empty(lib.frame_numbers(data, len(data))), shape_type()
        if lib.frame_read(data, len(data), flat.ctypes.data, flat.size, shape) != 0:
            return None
        n_points, n_weights, rows, width = shape
        vectors_at = n_points + n_weights
        return flat[:n_points], flat[n_points:vectors_at], flat[vectors_at:].reshape(rows, width)

    lib.variants.argtypes = []
    lib.variants.restype = ctypes.c_char_p

    def variant(name):
        jacobi = getattr(lib, f"jacobi_rows_{name}")
        jacobi.argtypes = [*addresses[:3], *sizes[:2], ctypes.c_int, ctypes.c_double]
        jacobi.restype = ctypes.c_int
        philox = getattr(lib, f"philox_split_{name}")
        philox.argtypes = [ctypes.c_uint64, ctypes.c_uint64, *addresses[:2], *sizes[:2]]
        philox.restype = None
        fused = getattr(lib, f"polar_contract_{name}")
        fused.argtypes = [*addresses, *sizes]
        fused.restype = None

        return Backend(
            name, functools.partial(_jacobi_rows, jacobi),
            functools.partial(_TileSampler, philox, fused),
            kl_contract, spell_rows, scan_frame,
        )

    return [variant(name) for name in lib.variants().decode().split()]


def _select(cc: str, cache: Path) -> tuple[dict, Backend]:
    """(a compiled backend for each variant this CPU runs, widest first, the
    backend to run): the C twin built by ``cc`` into ``cache``, with its
    widest variant, when that works, the numpy twin otherwise."""
    try:
        variants = _load(_build(cc, cache))
    # a library that lacks a kernel counts as one that did not build
    except (OSError, AttributeError):
        return {}, PYTHON
    return {v.variant: v for v in variants}, variants[0]


VARIANTS, ACTIVE = _select("cc", Path(__file__).with_name("__pycache__"))
