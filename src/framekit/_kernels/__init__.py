"""Backend selection for the Jacobi rotation kernel.

The kernel ships twice: ``_jacobi.c``, plain C loaded through ``ctypes``,
and ``_jacobi_py.py``, a pure-numpy twin.  Both produce bit-identical output
for the same input, so the choice only affects speed.  Nothing is built at
install time: the first import compiles the C twin with ``cc`` into this
package's ``__pycache__/``, under a name keyed by a hash of the source and
the flags, and later imports load that file.  Without a compiler, when the
build fails or when the directory is not writable, the numpy twin runs.
``ACTIVE`` is the backend ``sym_eig`` runs; ``BACKENDS`` lists every one
that loaded, for the parity test and ``benchmarks/bench_jacobi.py``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _jacobi_py

_SOURCE = Path(__file__).with_name("_jacobi.c")
# -ffp-contract=off keeps the C twin bit-identical to the numpy twin (no FMA
# re-rounding inside rotations); -fno-math-errno lets sqrt compile to the
# correctly rounded instruction alone, so the library needs no libm
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


class Backend(NamedTuple):
    """One twin: ``jacobi_sweeps(a, v, fro_norm, max_sweeps, tol_factor)``
    and ``off_norm(a)``, the off-diagonal norm in the order both twins test
    convergence."""

    name: str
    jacobi_sweeps: Callable
    off_norm: Callable


PYTHON = Backend("python", _jacobi_py.jacobi_sweeps, _jacobi_py.off_norm)


def _library_name(source: bytes, flags) -> str:
    """Cache file name for ``source`` built with ``flags`` on this machine."""
    key = zlib.crc32(b"\0".join([source, " ".join(flags).encode(), platform.machine().encode()]))
    return f"_jacobi-{key:08x}.so"


def _build(cc: str, cache: Path) -> Path:
    """Path of the C twin in ``cache``, compiled there by ``cc`` unless present.

    The compiler writes a file private to this process, which ``os.replace``
    then moves into place, so concurrent first imports never load a partial
    library.
    """
    library = cache / _library_name(_SOURCE.read_bytes(), _FLAGS)
    if not library.exists():
        import subprocess

        cache.mkdir(exist_ok=True)
        partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(
                [cc, *_FLAGS, "-o", str(partial), str(_SOURCE)],
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

    return Backend("compiled", jacobi_sweeps, off_norm)


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
