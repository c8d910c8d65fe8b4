"""Seeded, reproducible normal streams.

Uniform 64-bit words come from Philox-4x64-10 (Salmon et al., SC 2011), a
counter-based generator with a published, fixed bit stream: the words are
defined by the algorithm, not by a library version.  ``seeded_normals``
draws them with ``np.random.Philox``, the reference the C twin of
``_kernels`` is tested against word for word.  The stream is keyed by the
64-bit seed, which must lie in [0, 2**64): a seed outside that range is an
InvalidArgument, never reduced modulo 2**64.  Logical stream k of a batch
owns the counter blocks [k*b, (k+1)*b) for a fixed per-stream block count
b, so streams can be generated independently, in any order, or all at
once.  A batch of streams
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
truncated to ``count``.

``seeded_normals`` and ``seeded_normal_rows`` are the definition of a
stream: they run every step in numpy (``_sampling_py``: its Philox split,
ln in place on u1, then its radius and angle).  ``gp.sample_kl`` takes the
same steps block by block in the ``sampler`` of the active backend of
``_kernels``, whose ``contract`` sums the normals into KL samples; a
compiled variant v runs its ``philox_split_<v>`` and ``polar_contract_<v>``
and never writes the normals out.  Every variant and both twins give the
defined words and the sums of the defined normals bit for bit, so the
samples do not depend on which one runs.

So the normals are defined by the algorithm, except for ln: it is numpy's
ufunc, whose last bit can differ from the C library's (with numpy 2.4.6 on
x86-64, np.log and math.log disagree on 693 of the first 200,000 u1 of seed
1) and may change with the numpy version or the CPU's SIMD path.  sqrt is
correctly rounded everywhere.  The normals reproduce bit for bit for a
fixed numpy build and machine.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _sampling_py
from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidArgument(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _check_streams(seed: int, first: int, stop: int) -> int:
    """The seed of a batch of streams first..stop-1, all in [0, 2**64)."""
    if first < 0 or stop > 1 << 64:
        raise InvalidArgument(f"streams {first}..{stop - 1} outside [0, 2**64)")
    return _check_seed(seed)


def seeded_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` standard normals from logical stream ``stream``."""
    return seeded_normal_rows(seed, stream, stream + 1, count)[0]


def seeded_normal_rows(seed: int, first: int, stop: int, count: int) -> np.ndarray:
    """Streams first..stop-1 of ``count`` normals each, as the rows of an
    array, computed by the numpy reference kernels."""
    if not first < stop or count < 1:
        raise InvalidArgument("need 0 <= first < stop and count >= 1")
    seed = _check_streams(seed, first, stop)
    return _sampling_py.Sampler(stop - first, count).draw(seed, first, stop - first)
