"""Backend selection for the compiled kernels: Jacobi rotations and sampling.

Each kernel ships twice: plain C (``_jacobi.c``, ``_sampling.c``), loaded
through ``ctypes``, and a pure-numpy twin (``_jacobi_py.py``,
``_sampling_py.py``).  Both produce bit-identical output for the same input,
so the choice only affects speed.  Nothing is built at install time: the
first import compiles the C sources with ``cc`` into one library in this
package's ``__pycache__/``, under a name keyed by a hash of the sources and
the flags, and later imports load that file.  Without a compiler, when the
build fails or when the directory is not writable, the numpy twins run.
``ACTIVE`` is the backend ``sym_eig``, the Box-Muller transform and
``sample_kl`` run; ``BACKENDS`` lists every one that loaded, for the parity
tests and the benchmarks.
"""

from __future__ import annotations

import ctypes
import os
import platform
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _jacobi_py, _sampling_py

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_jacobi.c", "_sampling.c"))
# -ffp-contract=off keeps the C twins bit-identical to the numpy twins (no FMA
# re-rounding inside rotations or sums); -fno-math-errno lets sqrt compile to the
# correctly rounded instruction alone, so the library needs no libm
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


class Backend(NamedTuple):
    """One twin: ``jacobi_sweeps(a, v, fro_norm, max_sweeps, tol_factor)``;
    ``off_norm(a)``, the off-diagonal norm in the order both twins test
    convergence; ``polar_normals(k, radius, count)``, the angle half of
    Box-Muller; and ``kl_contract(x, c_re, c_im, out_re, out_im)``, the
    fixed-order sample sums of ``sample_kl``."""

    name: str
    jacobi_sweeps: Callable
    off_norm: Callable
    polar_normals: Callable
    kl_contract: Callable


PYTHON = Backend(
    "python",
    _jacobi_py.jacobi_sweeps,
    _jacobi_py.off_norm,
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
    library.
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
    lib.jacobi_sweeps.argtypes = [
        matrix, matrix, ctypes.c_long, ctypes.c_double, ctypes.c_int, ctypes.c_double
    ]
    lib.jacobi_sweeps.restype = ctypes.c_int
    lib.off_norm.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"), ctypes.c_long
    ]
    lib.off_norm.restype = ctypes.c_double

    def jacobi_sweeps(a, v, fro_norm, max_sweeps, tol_factor):
        n = _square(a)
        if v.shape != a.shape:
            raise ValueError(f"eigenvector array {v.shape} for a {a.shape} matrix")
        return lib.jacobi_sweeps(a, v, n, fro_norm, max_sweeps, tol_factor)

    def off_norm(a):
        return lib.off_norm(a, _square(a))

    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    out_vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    # the angle words are a column range of the Philox words: rows may be
    # strided, elements must be adjacent (checked below)
    lib.polar_normals.argtypes = [
        np.ctypeslib.ndpointer(np.uint64, ndim=2), ctypes.c_long,
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),
        matrix, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.polar_normals.restype = None
    lib.kl_contract.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),
        vector, vector, out_vector, out_vector, ctypes.c_long, ctypes.c_long,
    ]
    lib.kl_contract.restype = None

    def polar_normals(k, radius, count):
        rows, pairs = _sampling_py.check_polar_args(k, radius, count)
        if k.strides[1] != k.itemsize or k.strides[0] % k.itemsize:
            raise ValueError(f"angle words with strides {k.strides}")
        out = np.empty((rows, count))
        lib.polar_normals(k, k.strides[0] // k.itemsize, radius, out, rows, pairs, count)
        return out

    def kl_contract(x, c_re, c_im, out_re, out_im):
        rows, n = _sampling_py.check_contract_args(x, c_re, c_im, out_re, out_im)
        lib.kl_contract(x, c_re, c_im, out_re, out_im, rows, n)

    return Backend("compiled", jacobi_sweeps, off_norm, polar_normals, kl_contract)


def _square(a) -> int:
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return n


def _select(cc: str, cache: Path) -> tuple[dict, Backend]:
    """(every backend that loads, the one to run): the C twin built by ``cc``
    into ``cache`` when that works, the numpy twin otherwise."""
    try:
        compiled = _load(_build(cc, cache))
    except OSError:
        return {"python": PYTHON}, PYTHON
    return {"python": PYTHON, "compiled": compiled}, compiled


BACKENDS, ACTIVE = _select("cc", Path(__file__).with_name("__pycache__"))
