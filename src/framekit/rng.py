"""Seeded, reproducible normal streams.

Uniform 64-bit words come from Philox-4x64-10 (Salmon et al., SC 2011), a
counter-based generator with a published, fixed bit stream: the words are
defined by the algorithm, not by a library version.  It runs in the active
kernel of ``_kernels``: a C twin, or the numpy twin, which calls
``np.random.Philox`` and is the reference the C twin is tested against word
for word.  The stream is keyed by the 64-bit seed, which must lie in
[0, 2**64): a seed outside that range is an InvalidArgument, never reduced
modulo 2**64.  Logical stream k of a batch owns the counter blocks
[k*b, (k+1)*b) for a fixed per-stream block count b, so streams can be
generated independently, in any order, or all at once.  A batch of streams
first.. runs one 256-bit counter up from the full product c = first*b, as
``np.random.Philox(key=[seed, 0], counter=[c mod 2**64, c >> 64, 0, 0])``
emits it.

Words become normals by the Box-Muller transform.  For a pair of words
(w1, w2), in exact integer arithmetic unless marked:

    u1 = ((w1 >> 11) + 1) * 2**-53                  in (0, 1]
    radius = sqrt(ln u1 * -2)                       (numpy's log)
    k = w2 >> 11, so u2 = k * 2**-53                in [0, 1)
    q = (k + 2**50) >> 51                           quadrant, 0..4
    t = (k - q * 2**51) * 2**-50                    in [-1, 1)

so that 2 pi u2 = q pi/2 + t pi/4 exactly.  With v = t*t and every
multiply and add rounded on its own (no fused multiply-add), innermost
term first:

    s = t * (S0 + v*(S1 + ... + v*S8))              ~ sin(pi t/4)
    c = C0 + v*(C1 + ... + v*C9)                    ~ cos(pi t/4)

where S_j and C_j are the doubles nearest to the Taylor coefficients
(-1)**j (pi/4)**(2j+1) / (2j+1)! and (-1)**j (pi/4)**(2j) / (2j)!.  The
quadrant rotates them: with m = q mod 4 and (a, b) = (1, 0), (0, -1),
(-1, 0), (0, 1) for m = 0, 1, 2, 3,

    z0 = radius * (a*c + b*s)                       ~ radius cos(2 pi u2)
    z1 = radius * (a*s - b*c)                       ~ radius sin(2 pi u2)

within 2 units in the last place of the radius (checked against 120-bit
arithmetic in the tests).  Stream k of length
``count`` uses pairs = ceil(count/2) words for u1 followed by pairs words
for u2 (so b = ceil(pairs/2)), yielding z0[0], z1[0], z0[1], z1[1], ...
truncated to ``count``.  The Philox words, u1, the radius, the angle and the
products run in the active kernel of ``_kernels`` (the C twin, or its numpy
twin where no compiler is found), which give the same bits; ln runs between
them, in place on u1.  The C twin's radius, angle and KL sums are built for
several vector ISAs and run on the widest the CPU has; every variant gives
the same bits, so the normals and samples do not depend on which one runs.

So the normals are defined by the algorithm, except for ln: it is numpy's
ufunc, whose last bit can differ from the C library's (with numpy 2.4.6 on
x86-64, np.log and math.log disagree on 693 of the first 200,000 u1 of seed
1) and may change with the numpy version or the CPU's SIMD path.  sqrt is
correctly rounded everywhere.  The normals reproduce bit for bit for a
fixed numpy build and machine.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidArgument(f"seed must lie in [0, 2**64), got {seed}")
    return seed


class NormalScratch:
    """Buffers for blocks of up to ``rows`` streams of ``count`` normals,
    allocated once and reused by every ``fill`` or ``contract``.

    ``fill`` writes the normals out; ``contract`` sums them into KL samples
    in the kernel, so only ``fill`` allocates the (rows, count) normals.
    One object serves one thread at a time: ``sample_kl`` gives each worker
    its own.
    """

    def __init__(self, rows: int, count: int):
        pairs = (count + 1) // 2
        self._u1 = np.empty((rows, pairs))
        self._k = np.empty((rows, pairs), dtype=np.uint64)
        self._count = count
        self._out = None

    def _operands(self, seed: int, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """ln u1 and the angle words of streams first..stop-1, as views of
        the scratch."""
        rows = stop - first
        if not 0 < rows <= len(self._u1):
            raise InvalidArgument(f"{rows} streams for a scratch of {len(self._u1)}")
        if first < 0 or stop > 1 << 64:
            raise InvalidArgument(f"streams {first}..{stop - 1} outside [0, 2**64)")
        u1, k = self._u1[:rows], self._k[:rows]
        _kernels.ACTIVE.philox_split(_check_seed(seed), first, u1, k)
        np.log(u1, out=u1)
        return u1, k

    def fill(self, seed: int, first: int, stop: int) -> np.ndarray:
        """Streams first..stop-1 as the rows of a view of the scratch, valid
        until the next ``fill``; row i equals seeded_normals(seed, first + i, count)."""
        u1, k = self._operands(seed, first, stop)
        if self._out is None:
            self._out = np.empty((len(self._u1), self._count))
        out = self._out[: len(u1)]
        _kernels.ACTIVE.polar_normals(u1, k, out)
        return out

    def contract(self, seed: int, first: int, stop: int, c_re, c_im, out_re, out_im) -> None:
        """out_re[i] and out_im[i] = the index-order sums over n of
        B[i, n] c_re[n] and B[i, n] c_im[n], as ``kl_contract`` forms them,
        where B[i] = seeded_normals(seed, first + i, count) and count =
        len(c_re); the normals are never written out."""
        u1, k = self._operands(seed, first, stop)
        _kernels.ACTIVE.polar_contract(u1, k, c_re, c_im, out_re, out_im)


def seeded_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` standard normals from logical stream ``stream``."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    return NormalScratch(1, count).fill(seed, stream, stream + 1)[0]


def seeded_normal_rows(seed: int, first: int, stop: int, count: int) -> np.ndarray:
    """Streams first..stop-1; row i equals seeded_normals(seed, first + i, count)."""
    if not 0 <= first < stop or count < 1:
        raise InvalidArgument("need 0 <= first < stop and count >= 1")
    return NormalScratch(stop - first, count).fill(seed, first, stop)

