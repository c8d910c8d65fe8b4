"""The one-sided Jacobi and sampling twins and the build cache of the C library.

``_kernels._select(cc, cache)`` is what the package runs at import with the
``cc`` on PATH and its own ``__pycache__/``; here it gets a fake compiler and
a temporary cache instead.
"""

import ctypes
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import framekit
from framekit import FrameSystem, Grid, gp, rng, row_svd
from framekit import _kernels
from framekit._kernels import LANES, PYTHON, VARIANTS, _hestenes_py, _sampling_py
from framekit.spectral import _MAX_SWEEPS, _ORTHOGONAL_TOL
from oracles import CANARY, TWINS, from_tiles, fused_normals, to_tiles

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler")


def factor(k, n, seed, kind, e):
    """2**e times k rows of length n: dense, with exact zeros and zero rows,
    with zeros of both signs and a row of -0.0, with each singular value
    repeated three times, or each row listed twice."""
    r = np.random.default_rng(seed)
    x = r.standard_normal((k, n))
    if kind == "zeros":
        x[r.random((k, n)) < 0.5] = 0.0
        x[r.random(k) < 0.3] = 0.0
    elif kind == "signed zeros":
        zero = r.random((k, n)) < 0.5
        x[zero] = np.copysign(0.0, x[zero])
        x[r.integers(k)] = -0.0
    elif kind == "repeated":
        m = min(k, n)
        left, _ = np.linalg.qr(r.standard_normal((k, m)))
        right, _ = np.linalg.qr(r.standard_normal((n, m)))
        x = (left * np.repeat(r.standard_normal(k), 3)[:m]) @ right.T
    elif kind == "duplicated":
        x = np.repeat(x[: (k + 1) // 2], 2, axis=0)[:k]
    return np.ldexp(x, e)


KINDS = ["dense", "zeros", "signed zeros", "repeated", "duplicated"]


def run(backend, base):
    a = np.array(base, order="C")
    squares, v, sweeps = backend.jacobi_rows(a, _MAX_SWEEPS, _ORTHOGONAL_TOL)
    return squares.tobytes(), a.tobytes(), v.tobytes(), sweeps


def operands(words, count):
    """ln u1 and the angle words of ``words`` (per row: the u1 words, then
    the angle words), with numpy's log, as ``rng`` forms them."""
    rows = words.reshape(-1, words.shape[-1])
    pairs = (count + 1) // 2
    ln_u1 = np.log(((rows[:, :pairs] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53)
    return ln_u1, rows[:, pairs : 2 * pairs] >> np.uint64(11)


def coefficients(count):
    c_re = np.linspace(-1.5, 2.0, count)
    return c_re, -c_re[::-1].copy()


def sample(variant, words, count):
    """Bytes of the normals that the compiled backend ``variant``'s fused
    kernel draws from ``words`` in its scratch, read back by
    ``fused_normals``, and of its KL contraction of them."""
    ln_u1, k = operands(words, count)
    scratch = variant.sampler(len(k), count)
    scratch.u1[...], scratch.k[...] = to_tiles(ln_u1, -1.0), to_tiles(k)
    out = np.empty(len(k)), np.empty(len(k))
    scratch.fuse(len(k), *coefficients(count), *out)
    return fused_normals(variant, ln_u1, k, count).tobytes(), *(o.tobytes() for o in out)


def reference(words, count):
    """The bytes ``sample`` must give, by the numpy reference kernels: the
    normals of ``polar_normals`` and their ``kl_contract``."""
    ln_u1, k = operands(words, count)
    normals = np.empty((len(k), count))
    _sampling_py.polar_normals(ln_u1, k, normals)
    out = np.empty(len(k)), np.empty(len(k))
    _sampling_py.kl_contract(normals, *coefficients(count), *out)
    return normals.tobytes(), *(o.tobytes() for o in out)


def split(variant, seed, first, rows, pairs):
    """Bytes of u1 and of the angle words of streams first..first + rows - 1
    that the compiled backend ``variant``'s Philox writes into the tiles of
    its scratch that hold them."""
    scratch = variant.sampler(rows, 2 * pairs)
    scratch.split(seed, first, -(-rows // LANES))
    return from_tiles(scratch.u1, rows).tobytes(), from_tiles(scratch.k, rows).tobytes()


def numpy_split(seed, first, rows, pairs):
    """The bytes ``split`` must give, by the numpy reference's Philox."""
    u1, k = np.empty((rows, pairs)), np.empty((rows, pairs), dtype=np.uint64)
    _sampling_py.philox_split(seed, first, u1, k)
    return u1.tobytes(), k.tobytes()


def random_coefficients(n, seed):
    r = np.random.default_rng(seed)
    atoms = Grid(points=np.arange(6.0), weights=r.uniform(0.5, 1.5, 6))
    fs = FrameSystem(grid=atoms, vectors=r.standard_normal((n, 6)))
    phat = gp.ComplexVector(re=r.standard_normal(6), im=r.standard_normal(6))
    return gp.kl_coefficients(fs, phat)


def fake_compiler(tmp_path, body):
    script = tmp_path / "fake-cc"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(0o755)
    return str(script)


def every_tail(test):
    """``test`` with an example at each row length 1..17: rows shorter than
    the 8 lanes of the dot products and every length of their ragged tail,
    each kind of rows and the scales 2**-200, 1 and 2**200 in turn."""
    for n in range(1, 18):
        test = example(k=1 + n % 6, n=n, seed=n, kind=KINDS[n % 5], e=(-200, 0, 200)[n % 3])(test)
    return test


@pytest.mark.skipif(not VARIANTS, reason="C twin not loaded")
@settings(max_examples=60, deadline=None, database=None)
@given(
    k=st.integers(min_value=1, max_value=20),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(KINDS),
    e=st.integers(min_value=-200, max_value=200),
)
@every_tail
@example(k=1, n=1, seed=0, kind="dense", e=0)
@example(k=12, n=15, seed=1, kind="repeated", e=0)
@example(k=12, n=12, seed=1, kind="zeros", e=-200)
@example(k=20, n=26, seed=2, kind="duplicated", e=200)
@example(k=9, n=17, seed=3, kind="signed zeros", e=0)
def test_twins_agree_bit_for_bit(k, n, seed, kind, e):
    # squared norms, rotated rows, rotations and the sweep count, of every
    # variant against the numpy twin
    base = factor(k, n, seed, kind, e)
    expected = run(PYTHON, base)
    for name, variant in VARIANTS.items():
        assert run(variant, base) == expected, name


def test_lane_sums_follow_the_lane_order():
    # the numpy twin's sums against the order written out term by term, on
    # rows that end in every lane, with signed zeros and terms that cancel
    r = np.random.default_rng(4)
    for n in range(1, 26):
        products = r.standard_normal((3, n)) * 2.0 ** r.integers(-60, 60, (3, n))
        products[1, ::3] = -0.0
        products[2] = -0.0
        table, view = _hestenes_py.lane_table(3, n)
        view[...] = products
        for row, got in zip(products, _hestenes_py.lane_sums(table)):
            lanes = [0.0] * 8
            for j, term in enumerate(row.tolist()):
                lanes[j % 8] = lanes[j % 8] + term
            l0, l1, l2, l3, l4, l5, l6, l7 = lanes
            want = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, row)


#: Philox words at the octant edges of the angle: (j 2**61) >> 11 = j 2**50,
#: a quadrant edge (t = -1) for odd j and a quadrant centre (t = 0) for even j
EDGE_WORDS = [0, *(j * 2**61 + d for j in range(1, 8) for d in (-1, 0, 1)), 2**64 - 1]


@settings(max_examples=60, deadline=None, database=None)
@given(
    count=st.integers(min_value=1, max_value=23),
    rows=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_sampling_twins_agree_bit_for_bit(count, rows, data):
    # rows == 0 is one stream as a 1-D array; an odd count drops the last
    # sine; the normals and their contraction are compared with the reference
    shape = ((rows,) if rows else ()) + (count + count % 2,)
    size = int(np.prod(shape))
    words = data.draw(
        st.lists(
            st.sampled_from(EDGE_WORDS) | st.integers(0, 2**64 - 1),
            min_size=size,
            max_size=size,
        )
    )
    words = np.array(words, dtype=np.uint64).reshape(shape)
    expected = reference(words, count)
    for variant in VARIANTS.values():
        assert sample(variant, words, count) == expected, variant.variant


@pytest.mark.parametrize("count", [2 * len(EDGE_WORDS), 2 * len(EDGE_WORDS) - 1])
@pytest.mark.parametrize("rows", [0, 3])
def test_sampling_twins_agree_on_edge_words(count, rows):
    # every edge word as an angle word and as a radius word, in both layouts
    span = count + count % 2
    line = np.resize(np.array(EDGE_WORDS, dtype=np.uint64), span)
    words = np.stack([np.roll(line, i) for i in range(max(rows, 1))])
    words = words.reshape(((rows,) if rows else ()) + (span,))
    expected = reference(words, count)
    for variant in VARIANTS.values():
        assert sample(variant, words, count) == expected, variant.variant


#: normals a row in the variant tests: one and two, odd counts, which drop
#: a stream's last sine, and even ones, up to rows of 129 pairs
VARIANT_COUNTS = [1, 2, 7, 49, 50, 65, 129, 257]


@pytest.mark.parametrize("variant", list(VARIANTS))
@settings(max_examples=40, deadline=None, database=None)
@given(
    rows=st.integers(min_value=1, max_value=27),
    count=st.sampled_from(VARIANT_COUNTS),
    seed=st.integers(0, 2**32 - 1),
    edge_share=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_every_variant_matches_the_numpy_twin(variant, rows, count, seed, edge_share):
    # each ISA variant this CPU runs, not only the widest, which the other
    # parity tests see; row counts that leave spare lanes in the last tile
    # of 8 streams; random words with a share of edge words in random places
    r = np.random.default_rng(seed)
    words = r.integers(0, 2**64, size=(rows, count + count % 2), dtype=np.uint64)
    edge = r.random(words.shape) < edge_share
    words[edge] = r.choice(np.array(EDGE_WORDS, dtype=np.uint64), int(edge.sum()))
    assert sample(VARIANTS[variant], words, count) == reference(words, count)


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("rows, count", [(9, 10_001), (17, 257), (8, 129), (1, 64), (3, 65)])
def test_every_variant_fuses_any_count(variant, rows, count):
    # long rows and short ones, full tiles and padded ones: each tile's sums
    # run over all its pairs in the lanes
    words = philox_words(23, rows * (count + count % 2)).reshape(rows, -1)
    assert sample(VARIANTS[variant], words, count) == reference(words, count)


def philox_words(seed, count):
    """The first ``count`` words of numpy's Philox keyed by ``seed``."""
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).random_raw(count)


def philox_reference(seed, first, rows, pairs):
    """u1 and angle words of streams first.. from numpy's Philox, one word
    at a time in Python ints: block b = ceil(pairs/2) words per stream, the
    counter starting at c = first * b, split into its low and high words."""
    blocks = (pairs + 1) // 2
    c = first * blocks
    counter = np.array([c % 2**64, c >> 64, 0, 0], dtype=np.uint64)
    philox = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=counter)
    words = philox.random_raw(rows * 4 * blocks).reshape(rows, 4 * blocks).tolist()
    u1 = [[((w >> 11) + 1) * 2.0**-53 for w in row[:pairs]] for row in words]
    k = [[w >> 11 for w in row[pairs : 2 * pairs]] for row in words]
    return np.array(u1).tobytes(), np.array(k, dtype=np.uint64).tobytes()


#: first streams whose counter's low word passes 2**64 within a batch of up
#: to four streams: first * b = (b - 1) 2**64 + 2**64 - d b, so the last
#: block of the batch's stream d - 1 and every later block carry into
#: counter word 1
CARRY_FIRSTS = [2**64 - d for d in range(1, 5)]


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    first=st.sampled_from(CARRY_FIRSTS) | st.integers(0, 2**64 - 1),
    rows=st.integers(min_value=1, max_value=4),
    count=st.sampled_from([1, 7, 51]) | st.integers(1, 60),
)
@example(seed=0, first=0, rows=1, count=1)
@example(seed=2**64 - 1, first=2**64 - 1, rows=1, count=51)
@example(seed=2**64 - 1, first=2**64 - 2, rows=4, count=7)
@example(seed=0, first=2**64 - 1, rows=3, count=1)
def test_philox_twins_match_numpy_word_for_word(seed, first, rows, count):
    pairs = (count + 1) // 2
    expected = philox_reference(seed, first, rows, pairs)
    assert numpy_split(seed, first, rows, pairs) == expected
    for variant in VARIANTS.values():
        assert split(variant, seed, first, rows, pairs) == expected, variant.variant


def carry_first(blocks):
    """A first stream whose counter blocks c + 1, c + 2, ... (c = first *
    blocks) pass 2**64 at block index g = 1, 3 or 7 mod 8, so that the low
    counter word wraps inside the group of 8 counters that the AVX-512
    Philox draws at once, one a stream of a tile, between lanes 0 and 1 of
    its first tile rather than at the group's start: first solves first *
    blocks = 2**64 - (g + 1) mod 2**64 with g + 1 = max(2, 2**t), where 2**t
    is the largest power of two dividing blocks."""
    t = (blocks & -blocks).bit_length() - 1
    d, odd, bits = max(2, 2**t), blocks >> t, 64 - t
    return ((2**64 - d) >> t) * pow(odd, -1, 2**bits) % 2**bits


@pytest.mark.parametrize("variant", list(VARIANTS))
@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    rows=st.integers(min_value=1, max_value=27),
    pairs=st.integers(min_value=1, max_value=300),
    first=st.none() | st.integers(0, 2**64 - 1),
)
@example(seed=0, rows=1, pairs=1, first=0)
@example(seed=2**64 - 1, rows=27, pairs=300, first=None)
@example(seed=0, rows=9, pairs=299, first=None)
@example(seed=2**64 - 1, rows=2, pairs=25, first=2**64 - 1)
def test_every_variant_philox_matches_numpy_word_for_word(variant, seed, rows, pairs, first):
    # each variant this CPU runs: every lane of the tiles that hold rows
    # streams, the spare ones included, which draw the streams that follow;
    # odd and even pairs, odd block counts, which leave the AVX-512 variant
    # a partial group of blocks, and (first None) a counter that passes
    # 2**64 between the lanes of a group
    if first is None:
        first = carry_first((pairs + 1) // 2)
    drawn = LANES * -(-rows // LANES)
    expected = philox_reference(seed, first, drawn, pairs)
    assert split(VARIANTS[variant], seed, first, drawn, pairs) == expected


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 8, 12, 13, 48, 150])
def test_carry_first_passes_the_low_word_inside_a_group(blocks):
    c = carry_first(blocks) * blocks
    g = (-(c + 1)) % 2**64
    assert c < 2**64 * blocks and g % 8 in (1, 3, 7) and g < max(2, blocks)
    # block 0 of the first tile: lane 0 below the wrap, lane 1 past it
    assert (c + 1) >> 64 < (c + 1 + blocks) >> 64


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_streams_past_the_low_counter_word_stay_distinct(twin):
    # stream 2**63 of 6 normals has b = 2 blocks and starts at counter
    # 2**63 * 2 = 2**64, that is [0, 1, 0, 0], not stream 0's [0, 0, 0, 0]
    assert rng.seeded_normals(3, 2**63, 6).tobytes() != rng.seeded_normals(3, 0, 6).tobytes()
    counter = np.array([0, 1, 0, 0], dtype=np.uint64)
    philox = np.random.Philox(key=np.array([3, 0], dtype=np.uint64), counter=counter)
    words = philox.random_raw(8) >> np.uint64(11)
    u1 = ((words[:3] + np.uint64(1)) * 2.0**-53).tobytes()
    for backend in TWINS[twin]:
        if backend is PYTHON:
            got = numpy_split(3, 2**63, 1, 3)
        else:
            got = split(backend, 3, 2**63, 1, 3)
        assert got == (u1, words[3:6].tobytes()), backend.variant


@pytest.mark.skipif(not VARIANTS, reason="C twin not loaded")
@settings(max_examples=60, deadline=None, database=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
        elements=st.floats(-1e6, 1e6),
    ),
    data=st.data(),
)
def test_contraction_twins_agree_bit_for_bit(x, data):
    # signed zeros and cancellation included; the sums run in index order
    n = x.shape[1]
    coef = hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6))
    c_re, c_im = data.draw(coef), data.draw(coef)
    got = {}
    for backend in [PYTHON, *VARIANTS.values()]:
        out_re, out_im = np.empty(len(x)), np.empty(len(x))
        backend.kl_contract(x, c_re, c_im, out_re, out_im)
        got[backend.variant] = out_re.tobytes(), out_im.tobytes()
    assert len(set(got.values())) == 1, got


def test_contraction_is_the_index_order_sum():
    # the first term alone, then one rounded add per term
    x = np.array([[1.0, 1e16, -1e16, 1.0], [-0.0, -0.0, 3.0, 0.5]])
    c = np.array([1.0, 1.0, 1.0, 1.0])
    for backend in [PYTHON, *VARIANTS.values()]:
        out_re, out_im = np.empty(2), np.empty(2)
        backend.kl_contract(x, c, -c, out_re, out_im)
        assert out_re.tolist() == [1.0, 3.5] and out_im.tolist() == [-1.0, -3.5]
        backend.kl_contract(x[:, :1].copy(), c[:1], -c[:1], out_re, out_im)
        assert np.signbit(out_re).tolist() == [False, True]


def test_angle_within_two_ulp_of_the_radius():
    # against radius * (cos, sin)(2 pi k 2**-53) in 120-bit arithmetic
    mpmath = pytest.importorskip("mpmath")
    words = philox_words(17, 2000)
    words[: len(EDGE_WORDS)] = EDGE_WORDS
    words[1000 : 1000 + len(EDGE_WORDS)] = EDGE_WORDS
    k = (words[1000:] >> np.uint64(11)).reshape(1, -1)
    ln_u1 = np.log(((words[:1000] >> np.uint64(11)) + 1) * 2.0**-53).reshape(1, -1)
    radius = np.sqrt(-2.0 * ln_u1)
    with mpmath.workprec(120):
        turns = [2 * mpmath.pi * int(w) / mpmath.mpf(2) ** 53 for w in k[0]]
        exact = [(r * mpmath.cos(a), r * mpmath.sin(a)) for r, a in zip(radius[0], turns)]
    ulp = np.spacing(radius[0])
    normals = np.empty((1, 2000))
    _sampling_py.polar_normals(ln_u1, k, normals)
    drawn = {"numpy": normals[0]}
    drawn.update((name, fused_normals(v, ln_u1, k, 2000)[0]) for name, v in VARIANTS.items())
    for name, out in drawn.items():
        worst = max(
            float(abs(mpmath.mpf(out[2 * j + i]) - exact[j][i])) / ulp[j]
            for j in range(1000)
            for i in (0, 1)
            if radius[0, j] > 0.0
        )
        assert worst <= 2.0, (name, worst)


def test_coefficients_are_the_nearest_taylor_doubles():
    mpmath = pytest.importorskip("mpmath")
    from framekit._kernels import _sampling_py

    with mpmath.workprec(200):
        x = mpmath.pi / 4
        taylor = [(-1) ** (p // 2) * x**p / mpmath.factorial(p) for p in range(19)]
        assert _sampling_py.SIN_COEF == tuple(float(v) for v in taylor[1::2])
        assert _sampling_py.COS_COEF == tuple(float(v) for v in taylor[0::2])


@pytest.mark.skipif(not VARIANTS, reason="C twin not loaded")
def test_wrong_arrays_raise():
    # the address and shape checks stop what C would misread, before it runs
    a = factor(4, 6, 0, "dense", 0)
    frozen = a.copy()
    frozen.setflags(write=False)
    for bad, error in [
        (a.astype(np.float32), ValueError),
        (frozen, ValueError),
        (a[::-1], ValueError),
        (np.asfortranarray(a), ValueError),
        (a[0], ValueError),
        (a[:0], ValueError),
        (a[:, :0], ValueError),
    ]:
        for variant in VARIANTS.values():
            with pytest.raises(error):
                variant.jacobi_rows(bad, _MAX_SWEEPS, _ORTHOGONAL_TOL)


def test_wrong_sampling_arrays_raise():
    # the checks of a scratch stop what C would misread, as typed pointers
    # did, and in every twin alike: a wrong dtype, layout, length or
    # writeability of a vector, a block the scratch cannot hold, and a seed
    # or first stream outside [0, 2**64), which a C uint64 would wrap, all
    # before any kernel writes a word
    c5, c6 = np.ones(5), np.ones(6)
    out = np.full(9, CANARY), np.full(9, CANARY)
    frozen = np.full(9, CANARY)
    frozen.setflags(write=False)
    refused = [
        (1, 0, 9, np.ones(12)[::2], c6, *out),
        (1, 0, 9, c6, c6.astype(np.float32), *out),
        (1, 0, 9, [1.0] * 6, c6, *out),
        (1, 0, 9, c6, c6, frozen, out[1]),
        (1, 0, 9, c6, c6, out[0], np.empty(18)[::2]),
        (1, 0, 9, c6, c6, out[0].astype(np.float32), out[1]),
        (1, 0, 9, c5, c5, *out),
        (1, 0, 9, np.ones(7), np.ones(7), *out),
        (1, 0, 9, c6, c5, *out),
        (1, 0, 9, c6, c6, out[0], np.empty(8)),
        (1, 0, 17, c6, c6, np.empty(17), np.empty(17)),
        (1, 0, 0, c6, c6, out[0][:0], out[1][:0]),
        (2**64, 0, 9, c6, c6, *out),
        (-1, 0, 9, c6, c6, *out),
        (1, -1, 9, c6, c6, *out),
        (1, 2**64, 9, c6, c6, *out),
    ]
    for backend in [_kernels.PYTHON, *VARIANTS.values()]:
        scratch = backend.sampler(9, 6)
        scratch.u1[...] = CANARY
        held = scratch.u1.tobytes() + scratch.k.tobytes()
        for args in refused:
            with pytest.raises(ValueError):
                scratch.contract(*args)
            assert scratch.u1.tobytes() + scratch.k.tobytes() == held, backend.variant
            assert out[0].tobytes() == out[1].tobytes() == np.full(9, CANARY).tobytes()
    for variant in VARIANTS.values():
        # radius sqrt(2) and angle 0: each pair adds sqrt(2) and 0
        r = math.sqrt(2.0)
        for c in (c5, c6):
            scratch = variant.sampler(9, len(c))
            scratch.u1[...], scratch.k[...] = -1.0, 0
            scratch.fuse(9, c, c, *out)
            assert out[0].tolist() == out[1].tolist() == [r + r + r] * 9
        scratch.u1[...] = CANARY
        for args in [(2**64, 0, 2), (-1, 0, 2), (1, -1, 2), (1, 2**64, 2), (1, 0, 0), (1, 0, 3)]:
            with pytest.raises(ValueError):
                scratch.split(*args)
            assert scratch.u1.tobytes() == np.full_like(scratch.u1, CANARY).tobytes()
            assert not scratch.k.any()


@pytest.mark.parametrize("backend", ["numpy", *VARIANTS])
def test_scratch_refuses_wrong_vectors_before_any_kernel(backend):
    # the scratch allocates its own arrays once and checks each call's
    # coefficients and outputs: float64, C-contiguous, of stop - first
    # entries and writeable for the outputs; a refusal leaves the scratch
    # and the outputs as they were, so neither Philox nor the fused kernel ran
    scratch = VARIANTS.get(backend, PYTHON).sampler(20, 6)
    scratch.u1[...] = CANARY
    held = scratch.u1.tobytes() + scratch.k.tobytes()
    c = np.linspace(-1.0, 1.0, 6)
    out = np.full(13, CANARY), np.full(13, CANARY)
    frozen = np.full(13, CANARY)
    frozen.setflags(write=False)
    for args in [
        (c.astype(np.float32), c, *out),
        (np.repeat(c, 2)[::2], c, *out),
        (c[:5], c, *out),
        (c, c[:4], *out),
        (c, c, out[0].astype(np.float32), out[1]),
        (c, c, frozen, out[1]),
        (c, c, np.full(26, CANARY)[::2], out[1]),
        (c, c, out[0][:12], out[1]),
        (c, c, out[0], np.full(14, CANARY)),
    ]:
        with pytest.raises(ValueError):
            scratch.contract(1, 5, 13, *args)
        assert scratch.u1.tobytes() + scratch.k.tobytes() == held
        assert out[0].tobytes() == out[1].tobytes() == np.full(13, CANARY).tobytes()
    scratch.contract(1, 5, 13, c, c, *out)
    assert out[0].tobytes() == out[1].tobytes() != np.full(13, CANARY).tobytes()


def test_a_backend_has_one_sampling_entry():
    # the scratch layout is each twin's own, behind sampler alone
    assert _kernels.Backend._fields == (
        "variant", "jacobi_rows", "sampler", "kl_contract", "spell_rows", "scan_frame"
    )
    assert not hasattr(_kernels, "_whole")
    for gone in ("LANES", "check_tiles", "to_rows", "philox_split_tiles",
                 "polar_contract_tiles", "bind"):
        assert not hasattr(_sampling_py, gone), gone


@pytest.mark.skipif(not VARIANTS, reason="C twin not loaded")
def test_wrong_contraction_arrays_raise():
    x, c = np.ones((4, 3)), np.ones(3)
    frozen = np.zeros(4)
    frozen.setflags(write=False)
    contract = next(iter(VARIANTS.values())).kl_contract
    for args, error in [
        ((np.asfortranarray(np.ones((4, 3))), c, c, np.zeros(4), np.zeros(4)), ValueError),
        ((x, c, c, frozen, np.zeros(4)), ValueError),
        ((x, np.ones(2), c, np.zeros(4), np.zeros(4)), ValueError),
        ((x, c, c, np.zeros(3), np.zeros(4)), ValueError),
        ((np.ones((4, 0)), c[:0], c[:0], np.zeros(4), np.zeros(4)), ValueError),
    ]:
        with pytest.raises(error):
            contract(*args)


def test_cache_name_follows_source_and_flags():
    sources = [b"int f;", b"int h;"]
    name = _kernels._library_name(sources, _kernels._FLAGS)
    assert name == _kernels._library_name(list(sources), _kernels._FLAGS)
    assert name != _kernels._library_name([b"int g;", b"int h;"], _kernels._FLAGS)
    assert name != _kernels._library_name([b"int f;", b"int g;"], _kernels._FLAGS)
    assert name != _kernels._library_name(sources, _kernels._FLAGS[1:])
    assert name != _kernels._library_name(sources, (*_kernels._FLAGS, "-g"))


@needs_cc
def test_second_build_does_not_run_the_compiler(tmp_path):
    log = tmp_path / "runs"
    cc = fake_compiler(tmp_path, f'echo run >> "{log}"\nexec "{CC}" "$@"')
    cache = tmp_path / "cache"
    for _ in range(2):
        variants, active = _kernels._select(cc, cache)
        assert list(variants) == list(VARIANTS) and active is variants[list(VARIANTS)[0]]
    assert log.read_text() == "run\n"
    assert [p.name for p in cache.iterdir()] == [
        _kernels._library_name([p.read_bytes() for p in _kernels._SOURCES], _kernels._FLAGS)
    ]
    base = factor(9, 11, 3, "dense", 0)
    assert run(active, base) == run(PYTHON, base)
    words = philox_words(3, 4 * 13 * 7).reshape(7, 52)
    assert sample(active, words, 25) == reference(words, 25)
    assert split(active, 3, 5, 7, 13) == numpy_split(3, 5, 7, 13)


@needs_cc
def test_a_new_build_removes_stale_libraries(tmp_path):
    # a library of other sources goes; another process's partial build stays
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "_kernels-00000000.so"
    partial = cache / "_kernels-00000000.so.12345.tmp"
    stale.write_bytes(b"old")
    partial.write_bytes(b"partial")
    _, active = _kernels._select(CC, cache)
    assert active is not PYTHON
    library = _kernels._library_name([p.read_bytes() for p in _kernels._SOURCES], _kernels._FLAGS)
    assert sorted(p.name for p in cache.iterdir()) == sorted([library, partial.name])


@pytest.mark.parametrize("failure", ["compiler fails", "no compiler", "cache not writable"])
def test_failed_build_keeps_the_numpy_twin(tmp_path, monkeypatch, failure):
    a = factor(12, 15, 5, "dense", 0)
    expected = row_svd(a)
    coefficients = random_coefficients(9, 3)
    expected_kl = gp.sample_kl(coefficients, gp._SAMPLE_BLOCK + 5, 11)
    cc = fake_compiler(tmp_path, "echo error >&2\nexit 1")
    cache = tmp_path / "cache"
    if failure == "no compiler":
        cc = str(tmp_path / "missing-cc")
    elif failure == "cache not writable":
        cc = CC or cc
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    variants, active = _kernels._select(cc, cache)
    assert active is PYTHON and variants == {}
    if cache.is_dir():
        assert list(cache.iterdir()) == []  # no partial library left behind
    monkeypatch.setattr(_kernels, "ACTIVE", active)
    assert framekit.jacobi_backend() == "python"
    got = row_svd(a)
    assert np.array_equal(got.squares, expected.squares)
    assert np.array_equal(got.rows, expected.rows)
    assert np.array_equal(got.left, expected.left)
    assert got.sweeps == expected.sweeps
    got_kl = gp.sample_kl(coefficients, gp._SAMPLE_BLOCK + 5, 11)
    assert got_kl[0].tobytes() == expected_kl[0].tobytes()
    assert got_kl[1].tobytes() == expected_kl[1].tobytes()


@needs_cc
def test_a_library_without_a_kernel_keeps_the_numpy_twin(tmp_path):
    # a build that lacks a kernel the loader looks up, here every Jacobi,
    # loads as no library rather than failing the import
    cc = fake_compiler(
        tmp_path,
        'for arg; do shift; case "$arg" in *_hestenes.c) ;; *) set -- "$@" "$arg" ;; esac; done\n'
        f'exec "{CC}" "$@"',
    )
    variants, active = _kernels._select(cc, tmp_path / "cache")
    assert active is PYTHON and variants == {}


@needs_cc
def test_concurrent_first_builds(tmp_path):
    # three processes build into one empty cache at once; each loads a whole
    # library and one file remains
    cache = tmp_path / "cache"
    code = (
        "import sys; from framekit import _kernels; "
        "from pathlib import Path; "
        "print(_kernels._select(sys.argv[1], Path(sys.argv[2]))[1].variant)"
    )
    src = str(Path(framekit.__file__).parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, CC, str(cache)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        for _ in range(3)
    ]
    outputs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert _kernels.ACTIVE is not PYTHON and outputs == [_kernels.ACTIVE.variant] * 3
    assert len(list(cache.iterdir())) == 1


def cpu_flags():
    """The flags /proc/cpuinfo lists for the first CPU."""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@needs_cc
@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.machine() != "x86_64",
    reason="reads the flags of Linux on x86-64",
)
def test_the_widest_variant_the_cpu_allows_runs():
    # a build or a dispatch that fell back to a narrower variant would keep
    # the bits and lose the speed without a sign
    flags = cpu_flags()
    if {"avx2", "avx512f", "avx512dq"} <= flags:
        widest = "avx512f"
    else:
        widest = "avx2" if "avx2" in flags else "baseline"
    assert list(VARIANTS)[0] == widest
    assert _kernels.ACTIVE is VARIANTS[widest]


@needs_cc
def test_c_sources_compile_without_warnings(tmp_path):
    proc = subprocess.run(
        [CC, *_kernels._FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "lib.so"),
         *map(str, _kernels._SOURCES)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def build_without_dispatch(tmp_path):
    """The library built into ``tmp_path`` from the sources with the ISA
    dispatch guard's definition taken out, as where the compiler does not
    target x86-64, with warnings as errors."""
    guard = "#define ISA_DISPATCH 1\n"
    sources = []
    for path in _kernels._SOURCES:
        text = path.read_text()
        if path.name in ("_sampling.c", "_hestenes.c"):
            assert text.count(guard) == 1
            text = text.replace(guard, "")
        sources.append(tmp_path / path.name)
        sources[-1].write_text(text)
    library = tmp_path / "plain.so"
    proc = subprocess.run(
        [CC, *_kernels._FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(library),
         *map(str, sources)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return library


#: the kernel set that each variant v exports, as <kernel>_<v>
KERNEL_SET = ("jacobi_rows", "philox_split", "polar_contract")
#: the variants the sources build where the compiler targets x86-64
ISAS = ("avx512f", "avx2", "baseline")


@needs_cc
def test_every_variant_exports_its_kernel_set(tmp_path):
    # the loader binds <kernel>_<v> for each variant v that the library
    # names, with no search and no default; no kernel of the set is exported
    # without a variant's name, and the build without the ISA dispatch
    # exports the baseline's set alone
    library = _kernels._build(CC, Path(_kernels.__file__).with_name("__pycache__"))
    lib = ctypes.CDLL(str(library))
    lib.variants.restype = ctypes.c_char_p
    names = lib.variants().decode().split()
    assert names == list(VARIANTS) and names[-1] == "baseline"
    for name in names:
        for kernel in KERNEL_SET:
            assert hasattr(lib, f"{kernel}_{name}"), (kernel, name)
    for name, variant in VARIANTS.items():
        bound = [variant.jacobi_rows.args[0], *variant.sampler.args]
        assert [f.__name__ for f in bound] == [f"{kernel}_{name}" for kernel in KERNEL_SET]
    plain = ctypes.CDLL(str(build_without_dispatch(tmp_path)))
    for dll in (lib, plain):
        assert not any(hasattr(dll, kernel) for kernel in KERNEL_SET)
    exported = {f"{k}_{v}" for k in KERNEL_SET for v in ISAS if hasattr(plain, f"{k}_{v}")}
    assert exported == {f"{kernel}_baseline" for kernel in KERNEL_SET}


@needs_cc
def test_sources_build_without_the_isa_dispatch(tmp_path):
    # where the compiler does not target x86-64 the dispatch guard is false;
    # the same sources must still build without warnings, and run the
    # baseline variant alone, with the numpy twin's bits
    variants = _kernels._load(build_without_dispatch(tmp_path))
    assert [v.variant for v in variants] == ["baseline"]
    words = philox_words(5, 9 * 52).reshape(9, 52)
    assert sample(variants[0], words, 51) == reference(words, 51)
    base = factor(9, 21, 6, "dense", 0)
    assert run(variants[0], base) == run(PYTHON, base)


#: run under the sanitizers with the path of a library built from
#: _sampling.c, a folder and cases "ROWSxPAIRSxCOUNT": every variant's
#: polar_contract on tile-major inputs read from the folder into heap
#: buffers of exactly their size, and outputs of exactly ROWS entries,
#: written back; and cases "philox-SEEDxFIRSTxTILESxPAIRS": every variant's
#: philox_split into heap buffers of exactly TILES tiles, u1 then k written
#: to the folder; no numpy
SANITIZED_SAMPLING = """
import ctypes, sys
lib = ctypes.CDLL(sys.argv[1])
lib.variants.restype = ctypes.c_char_p
names = lib.variants().decode().split()
real, word, size = ctypes.c_double, ctypes.c_uint64, ctypes.c_long
for case in sys.argv[3:]:
    if case.startswith("philox-"):
        seed, first, tiles, pairs = map(int, case[len("philox-"):].split("x"))
        for name in names:
            split = getattr(lib, "philox_split_" + name)
            split.argtypes = [word, word, ctypes.POINTER(real), ctypes.POINTER(word), size, size]
            u1, k = (real * (tiles * pairs * 8))(), (word * (tiles * pairs * 8))()
            split(seed, first, u1, k, tiles, pairs)
            with open(f"{sys.argv[2]}/{case}-{name}", "wb") as fh:
                fh.write(bytes(u1) + bytes(k))
        continue
    rows, pairs, count = map(int, case.split("x"))
    def read(name, kind):
        with open(f"{sys.argv[2]}/{case}-{name}", "rb") as fh:
            data = fh.read()
        return (kind * (len(data) // 8)).from_buffer_copy(data)
    ln_u1, k, c_re, c_im = read("ln", real), read("k", word), read("re", real), read("im", real)
    for name in names:
        fused = getattr(lib, "polar_contract_" + name)
        fused.argtypes = [ctypes.POINTER(real), ctypes.POINTER(word)] + [ctypes.POINTER(real)] * 4 + [size] * 3
        out_re, out_im = (real * rows)(), (real * rows)()
        fused(ln_u1, k, c_re, c_im, out_re, out_im, rows, pairs, count)
        with open(f"{sys.argv[2]}/{case}-{name}", "wb") as fh:
            fh.write(bytes(out_re) + bytes(out_im))
print(" ".join(names))
"""


def sanitized_library(tmp_path, source):
    """``source`` built with ASan and UBSan into ``tmp_path``, and the libasan
    to preload into an interpreter that loads it; skips without libasan."""
    libasan = subprocess.run(
        [CC, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("no libasan for this compiler")
    library = tmp_path / (Path(source).stem + "-sanitized.so")
    subprocess.run(
        [CC, "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-ffp-contract=off", "-fPIC", "-shared", "-o",
         str(library), str(source)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    return library, libasan


@needs_cc
def test_sampling_under_address_and_undefined_sanitizers(tmp_path):
    # the fused kernel of every variant, on rows that pad their last tile,
    # whose spare lanes it must not write, and long rows; and every
    # variant's philox_split, on odd block counts, which leave the AVX-512
    # variant a partial group of blocks, a carry into counter word 1
    # between the lanes, and the streams of a last tile past 2**64
    library, libasan = sanitized_library(tmp_path, Path(_kernels.__file__).with_name("_sampling.c"))
    cases, expected = [], {}
    for seed, first, tiles, pairs in [
        (2**64 - 1, 0, 4, 300), (0, 7, 2, 1025), (5, carry_first(13), 1, 25), (1, 3, 1, 513),
        (0, 2**64 - 1, 1, 1),
    ]:
        case = f"philox-{seed}x{first}x{tiles}x{pairs}"
        cases.append(case)
        rows = philox_reference(seed, first, LANES * tiles, pairs)
        expected[case] = b"".join(
            to_tiles(np.frombuffer(b, dtype=t).reshape(-1, pairs)).tobytes()
            for b, t in zip(rows, (np.float64, np.uint64))
        )
    for rows, count in [(9, 10_001), (17, 257), (13, 49), (3, 50), (1, 1)]:
        pairs = (count + 1) // 2
        case = f"{rows}x{pairs}x{count}"
        words = philox_words(rows, rows * 2 * pairs).reshape(rows, -1)
        ln_u1, k = operands(words, count)
        c_re, c_im = coefficients(count)
        for name, array in (("ln", to_tiles(ln_u1, -1.0)), ("k", to_tiles(k)), ("re", c_re),
                            ("im", c_im)):
            (tmp_path / f"{case}-{name}").write_bytes(array.tobytes())
        _, re, im = reference(words, count)
        cases.append(case)
        expected[case] = re + im
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_SAMPLING, str(library), str(tmp_path), *cases],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
             "PYTHONMALLOC": "malloc"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = proc.stdout.split()
    assert names == list(VARIANTS) or (not VARIANTS and names)
    for case in cases:
        for name in names:
            assert (tmp_path / f"{case}-{name}").read_bytes() == expected[case], (case, name)


#: run under the sanitizers with the path of a library built from
#: _hestenes.c, a folder, the variants to run, separated by commas, the
#: sweep limit, the tolerance and cases "KxN": every
#: variant's jacobi_rows on the k x n rows read from the folder, each array
#: in a heap buffer of exactly its size from malloc, so that a tail load past
#: the end of the last row reads a redzone; the squared norms, the rotated
#: rows, the rotations and the sweep count (8 bytes) written to the folder;
#: no numpy
SANITIZED_JACOBI = """
import ctypes, sys
lib, libc = ctypes.CDLL(sys.argv[1]), ctypes.CDLL(None)
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
real = ctypes.c_double
for case in sys.argv[6:]:
    k, n = map(int, case.split("x"))
    with open(f"{sys.argv[2]}/{case}-a", "rb") as fh:
        rows = fh.read()
    eye = bytes((real * (k * k))(*[float(i % (k + 1) == 0) for i in range(k * k)]))
    for name in sys.argv[3].split(","):
        jacobi = getattr(lib, "jacobi_rows_" + name)
        jacobi.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 2 + [ctypes.c_int, real]
        a, v, norms = (libc.malloc(8 * size) for size in (k * n, k * k, k))
        ctypes.memmove(a, rows, len(rows))
        ctypes.memmove(v, eye, len(eye))
        sweeps = jacobi(a, v, norms, k, n, int(sys.argv[4]), float(sys.argv[5]))
        with open(f"{sys.argv[2]}/{case}-{name}", "wb") as fh:
            fh.write(ctypes.string_at(norms, 8 * k) + ctypes.string_at(a, 8 * k * n)
                     + ctypes.string_at(v, 8 * k * k) + sweeps.to_bytes(8, "little"))
        for buffer in (a, v, norms):
            libc.free(buffer)
"""


@needs_cc
def test_jacobi_under_address_and_undefined_sanitizers(tmp_path):
    # every variant's jacobi_rows on rows shorter than the 8 lanes, of a
    # whole number of lanes and with every short tail, one row alone among
    # them; the masked 4-wide tail loads must stay inside each row
    library, libasan = sanitized_library(tmp_path, Path(_kernels.__file__).with_name("_hestenes.c"))
    names = list(VARIANTS) or ["baseline"]
    cases, expected = [], {}
    for k, n in [(1, 1), (3, 1), (1, 7), (4, 7), (3, 8), (5, 9), (1, 15), (2, 15), (6, 17),
                 (1, 63), (7, 63)]:
        case = f"{k}x{n}"
        base = factor(k, n, n, KINDS[k % 5], 0)
        (tmp_path / f"{case}-a").write_bytes(base.tobytes())
        squares, rows, v, sweeps = run(PYTHON, base)
        cases.append(case)
        expected[case] = squares + rows + v + sweeps.to_bytes(8, "little")
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_JACOBI, str(library), str(tmp_path), ",".join(names),
         str(_MAX_SWEEPS), repr(_ORTHOGONAL_TOL), *cases],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
             "PYTHONMALLOC": "malloc"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for case in cases:
        for name in names:
            assert (tmp_path / f"{case}-{name}").read_bytes() == expected[case], (case, name)
