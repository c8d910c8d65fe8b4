"""Backend selection for the Jacobi rotation kernel.

The compiled Cython kernel is used when it imports; the pure-numpy twin is
the fallback.  Both produce bit-identical output for the same input, so the
choice only affects speed.  ``BACKENDS`` lists every kernel that imports, for
the parity test and ``benchmarks/bench_jacobi.py``.
"""

from . import _jacobi_py

BACKENDS = {"python": _jacobi_py.jacobi_sweeps}

try:
    from . import _jacobi_cy

    BACKENDS["compiled"] = _jacobi_cy.jacobi_sweeps
except ImportError:
    pass


ACTIVE_BACKEND = "compiled" if "compiled" in BACKENDS else "python"
jacobi_sweeps = BACKENDS[ACTIVE_BACKEND]
# off-diagonal norm off_norm(a, n) in the order both kernels test convergence
off_norm = _jacobi_py._off_norm
