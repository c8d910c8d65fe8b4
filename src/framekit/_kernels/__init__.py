"""Backend selection for the compiled kernels: one-sided Jacobi and sampling.

Each kernel ships twice: plain C (``_hestenes.c``, ``_sampling.c``), loaded
through ``ctypes``, and a pure-numpy twin (``_hestenes_py.py``,
``_sampling_py.py``).  Both produce bit-identical output for the same input,
so the choice only affects speed.  Nothing is built at install time: the
first import compiles the C sources with ``cc`` into one library in this
package's ``__pycache__/``, under a name keyed by a hash of the sources and
the flags, and later imports load that file.  Without a compiler, when the
build fails or when the directory is not writable, the numpy twins run.
``ACTIVE`` is the backend ``spectral.row_svd``, ``rng``'s normals and the
fixed-order sums of ``gp`` run; ``BACKENDS`` lists every one that loaded,
for the parity tests and the benchmarks.
"""

from __future__ import annotations

import ctypes
import os
import platform
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _hestenes_py, _sampling_py

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_hestenes.c", "_sampling.c"))
# -ffp-contract=off keeps the C twins bit-identical to the numpy twins (no FMA
# re-rounding inside rotations or sums); -fno-math-errno lets sqrt compile to the
# correctly rounded instruction alone, so the library needs no libm
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


class Backend(NamedTuple):
    """One twin: ``jacobi_rows(a, max_sweeps, tol)``, one-sided Jacobi on the
    rows of ``a``, returning (squared row norms, rotations, sweeps);
    ``philox_split(seed, first, u1, k)``, which writes the Box-Muller operands
    u1 and angle words k of Philox streams first.. into (rows, pairs) arrays;
    ``polar_normals(ln_u1, k, out)``, radius and angle of Box-Muller from ln
    u1 and k, written into the (rows, count) ``out``; and
    ``kl_contract(x, c_re, c_im, out_re, out_im)``, the fixed-order sums of
    ``sample_kl``, ``kl_coefficients`` and ``fourier_at_atoms``."""

    name: str
    jacobi_rows: Callable
    philox_split: Callable
    polar_normals: Callable
    kl_contract: Callable


PYTHON = Backend(
    "python",
    _hestenes_py.jacobi_rows,
    _sampling_py.philox_split,
    _sampling_py.polar_normals,
    _sampling_py.kl_contract,
)


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


def _load(library: Path) -> Backend:
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
    words_in = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS")
    words_out = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    lib.philox_split.argtypes = [
        ctypes.c_uint64, ctypes.c_uint64, matrix, words_out, ctypes.c_long, ctypes.c_long
    ]
    lib.philox_split.restype = None
    lib.polar_normals.argtypes = [
        rows_in, words_in, matrix, ctypes.c_long, ctypes.c_long, ctypes.c_long
    ]
    lib.polar_normals.restype = None
    lib.kl_contract.argtypes = [
        rows_in, vector, vector, out_vector, out_vector, ctypes.c_long, ctypes.c_long
    ]
    lib.kl_contract.restype = None

    def philox_split(seed, first, u1, k):
        rows, pairs = _sampling_py.check_philox_args(seed, first, u1, k)
        lib.philox_split(seed, first, u1, k, rows, pairs)

    def polar_normals(ln_u1, k, out):
        rows, pairs, count = _sampling_py.check_polar_args(ln_u1, k, out)
        lib.polar_normals(ln_u1, k, out, rows, pairs, count)

    def kl_contract(x, c_re, c_im, out_re, out_im):
        rows, n = _sampling_py.check_contract_args(x, c_re, c_im, out_re, out_im)
        lib.kl_contract(x, c_re, c_im, out_re, out_im, rows, n)

    return Backend("compiled", jacobi_rows, philox_split, polar_normals, kl_contract)


def _select(cc: str, cache: Path) -> tuple[dict, Backend]:
    """(every backend that loads, the one to run): the C twin built by ``cc``
    into ``cache`` when that works, the numpy twin otherwise."""
    try:
        compiled = _load(_build(cc, cache))
    except OSError:
        return {"python": PYTHON}, PYTHON
    return {"python": PYTHON, "compiled": compiled}, compiled


BACKENDS, ACTIVE = _select("cc", Path(__file__).with_name("__pycache__"))
