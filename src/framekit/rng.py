"""Seeded, reproducible normal streams.

Uniform 64-bit words come from Philox-4x64-10, a counter-based generator
with a published, fixed bit stream (numpy supplies the implementation; the
words are defined by the algorithm, not the numpy version).  The stream is
keyed by the 64-bit seed, which must lie in [0, 2**64): a seed outside that
range is an InvalidArgument, never reduced modulo 2**64.  Logical stream k
of a batch owns the counter blocks [k*b, (k+1)*b) for a fixed per-stream
block count b, so streams can be generated independently, in any order, or
all at once.

Words become normals by the exact Box-Muller transform:

    u1 = ((word >> 11) + 1) * 2**-53   in (0, 1]
    u2 = (word >> 11) * 2**-53         in [0, 1)
    z0 = sqrt(-2 ln u1) cos(2 pi u2)
    z1 = sqrt(-2 ln u1) sin(2 pi u2)

Stream k of length ``count`` uses pairs = ceil(count/2) words for u1
followed by pairs words for u2, yielding z0[0], z1[0], z0[1], z1[1], ...
truncated to ``count``.

The normals, unlike the words, are not defined by the algorithm alone:
ln, cos and sin are numpy's ufuncs, whose last bit can differ from the C
library's (with numpy 2.4.6 on x86-64, np.log and math.log disagree on 693
of the first 200,000 u1 of seed 1) and may change with the numpy version
or the CPU's SIMD path.  The normals reproduce bit for bit for a fixed
numpy build and machine.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1
_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four words per counter increment


def philox_words(seed: int, block_offset: int, count: int) -> np.ndarray:
    """Raw uint64 words starting at the given counter block."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidArgument(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([int(block_offset) & _MASK64, 0, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(count)


def _stream_layout(count: int) -> tuple[int, int]:
    pairs = (count + 1) // 2
    blocks = -(-2 * pairs // _WORDS_PER_BLOCK)
    return pairs, blocks


def _box_muller(words: np.ndarray, pairs: int, count: int) -> np.ndarray:
    # In place where it keeps the bits: ``words`` is overwritten, radius
    # and angle are one buffer each, and cos/sin go through one contiguous
    # buffer before their products land in the strided halves of ``out``.
    np.right_shift(words, np.uint64(11), out=words)
    u1 = words[..., :pairs]
    np.add(u1, np.uint64(1), out=u1)
    radius = np.multiply(u1, 2.0**-53)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    angle = np.multiply(words[..., pairs : 2 * pairs], 2.0**-53)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    out = np.empty(words.shape[:-1] + (2 * pairs,))
    trig = np.cos(angle)
    np.multiply(radius, trig, out=out[..., 0::2])
    np.sin(angle, out=trig)
    np.multiply(radius, trig, out=out[..., 1::2])
    return out[..., :count]


def seeded_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` standard normals from logical stream ``stream``."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    pairs, blocks = _stream_layout(count)
    words = philox_words(seed, stream * blocks, _WORDS_PER_BLOCK * blocks)
    return _box_muller(words, pairs, count)


def seeded_normal_rows(seed: int, first: int, stop: int, count: int) -> np.ndarray:
    """Streams first..stop-1; row i equals seeded_normals(seed, first + i, count)."""
    if not 0 <= first < stop or count < 1:
        raise InvalidArgument("need 0 <= first < stop and count >= 1")
    pairs, blocks = _stream_layout(count)
    span = _WORDS_PER_BLOCK * blocks
    words = philox_words(seed, first * blocks, (stop - first) * span)
    return _box_muller(words.reshape(stop - first, span), pairs, count)


def seeded_normal_matrix(seed: int, n_streams: int, count: int) -> np.ndarray:
    """All streams 0..n_streams-1 at once; row k equals seeded_normals(seed, k, count)."""
    if n_streams < 1 or count < 1:
        raise InvalidArgument("n_streams and count must be >= 1")
    return seeded_normal_rows(seed, 0, n_streams, count)
