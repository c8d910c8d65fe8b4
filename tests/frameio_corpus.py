"""Frame files and number literals for the scanner's parity, differential
and sanitizer tests, and the sanitizer run itself.

``corpus()`` is a fixed list of byte strings: small frame files in the
layouts framekit and perfbench write, variants of their structure that the
scanner must decline, and mutants of all of them (every truncation, byte
flips, deletions, and insertions of awkward tokens: ``-0``, ``1e400``,
bools, integers past 2**53, bytes that are not UTF-8, a BOM).
``BOUNDARY_LITERALS`` are the literals at the edges of the scanner's exact
conversion, each of which must read as ``json`` reads it.

Run as a script with the path of a library built from ``_frameio.c``, it
hands every input, in a heap buffer of exactly its length, to
``frame_numbers`` and then to ``frame_read`` with an output of exactly that
many doubles; reads every accepted input again with one double fewer, which
must decline without writing past the output; hands every truncation of
the accepted inputs to ``frame_read`` with the whole file's count, so that
the walk meets a literal ending at the last byte; reads each boundary
literal from a frame file of its own; and spells rows of awkward doubles
with ``spell_rows`` into a buffer of exactly the size the calls are given,
so that a sanitizer sees any access out of bounds:

    python tests/frameio_corpus.py LIBRARY

It imports neither numpy nor framekit, and exits 1 if a row's spelling
differs from Python's ``"%.17g"``, a boundary literal reads otherwise than
``float(json.loads(literal))`` (declining only what is not finite), an
input is accepted with one double fewer than it holds, or no input was
accepted.
"""

import ctypes
import json
import math
import random
import struct
import sys
from fractions import Fraction

#: inserted at random offsets of the frame files
TOKENS = [
    b" ", b"\t", b"\n", b"\r", b"\x0b", b",", b":", b"[", b"]", b"{", b"}", b'"', b"\\",
    b"-0", b"-0.0", b"0", b"-", b"+", b".", b"e", b"E", b"e+", b"01", b"1.", b".5",
    b"1e400", b"-1e400", b"1e-400", b"NaN", b"Infinity", b"-Infinity", b"true", b"false",
    b"null", b"9007199254740993", b"-9007199254740993", b"18446744073709551617",
    b"123456789012345678901234567890", b"1" * 70, b"0." + b"0" * 70 + b"1",
    b"\xff", b"\xe9", b"\xc3\xa9", b"\xef\xbb\xbf", b"\x00",
]


def near_halfway(m, j, digits, side):
    """The literal of ``digits`` significant digits nearest below (``side``
    -1) or above (+1) t = m 2^j, for m odd of 54 bits, which lies halfway
    between two neighbouring doubles; t itself when that many digits spell
    it.  Rounding's hardest cases: just above t only the remainder of an
    exact division can tell the literal from t."""
    t = Fraction(m) * Fraction(2) ** j
    k = len(str(t.numerator)) - len(str(t.denominator))
    if Fraction(10) ** k > t:
        k -= 1  # 10^k <= t < 10^(k+1)
    scaled = t * Fraction(10) ** (digits - 1 - k)
    return f"{math.floor(scaled) if side < 0 else math.ceil(scaled)}e{k + 1 - digits}"


#: At the edges of the exact conversion, which takes at most 19 significant
#: digits w and a decimal exponent q in [-27, 27] of the value w 10^q: 19
#: and 20 digits (20 can wrap a 64-bit word to 0), q of -28, -27, 27 and 28,
#: leading zeros (which do not count), exact halfway cases and 19 digits
#: just above or below one, e/E/e+/e- and 60-digit exponents, which must not
#: overflow the walk's count.
BOUNDARY_LITERALS = [
    "0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0.0000000000000000000000000", "0e" + "9" * 60,
    "9999999999999999999", "-9999999999999999999", "10000000000000000000",
    "9223372036854775807", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "36893488147419103232", "12345678901234567891",
    "1e-27", "1e-28", "1e27", "1e28", "-1E+27", "1E-0027", "1e+0028",
    "9999999999999999999e27", "9999999999999999999e-27", "9999999999999999999e28",
    "9999999999999999999e-28", "99999999999999999999e27", "99999999999999999999e-27",
    "1234567890123456789e-27", "123456789012345678.9e-28", "1.234567890123456789e27",
    "0.000000000000000000000000001", "0.0000000000000000000000000001",
    "0.000000000000000000001234567890123456789", "0.0000000000000000000012345678901234567891",
    "0.0025000000000000001", "0.00250000000000000001", "0.10000000000000001",
    "9007199254740993", "-9007199254740993", "9007199254740995", "9007199254740992.5",
    "4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
    "18014398509481986", "18014398509481990", "9007199254740993e0", "9007199254740993e-0",
    near_halfway(2**53 + 1, 0, 19, 1), near_halfway(2**54 - 1, 11, 19, -1),
    near_halfway(2**53 + 3, -3, 19, 1), near_halfway(2**54 - 3, -60, 19, -1),
    "9863913363796477001e-3", "9852128141651333126e-4", "9105820155410051758e-6",
    "9730488828944589997e-8", "8246600032485857454e-26",
    "1.7976931348623157e308", "2.2250738585072014e-308", "5e-324", "1e23", "8.98846567431158e307",
    "1e" + "0" * 59 + "5", "1e-" + "0" * 59 + "5", "1e" + "9" * 60, "1e-" + "9" * 60,
    "-1e-" + "9" * 59, "1.5E+3", "2.5e-3", "-2.5e+00", "1E5", "1e-5",
]


def literal_frame(literals):
    """A frame file whose points are ``literals``."""
    points = ", ".join(literals)
    return ('{"grid": {"points": [%s], "weights": [1]}, "vectors": [[1]]}' % points).encode()


def _payload():
    return {
        "grid": {"points": [0, 0.5, 1.25, -3], "weights": [1.5, 2, 0.75, 1e-3]},
        "vectors": [[1, -0.0, 2.5e-3, 7], [-1e10, 3, 0.1, -0], [4, 5, 6, 9007199254740993]],
    }


def _frame_texts():
    """Frame files the scanner accepts, then structures it must decline."""
    p = _payload()
    grid, vectors = p["grid"], p["vectors"]
    written = (
        '{"grid": {"points": [0, 0.5, 1.25, -3], "weights": [1.5, 2, 0.75, '
        '0.001]}, "vectors": [[1, -0.0, 0.0025000000000000001, 7], [-10000000000, 3, '
        '0.10000000000000001, 0], [4, 5, 6, 9007199254740992]]}\n'
    )
    accepted = [
        written,
        json.dumps(p),
        json.dumps(p, separators=(",", ":")),
        json.dumps(p, indent=2),
        json.dumps(p, indent="\t").replace("\n", "\r\n"),
        ' \n{"grid":{"points":[1],"weights":[2]},"vectors":[[3]]}\t\r\n ',
        '{"grid": {"points": [1E5, -0e-0, 2e+2], "weights": [1, 1, 1]}, "vectors": [[-0, 0, 0.0]]}',
    ]
    declined = [
        json.dumps({"grid": {"weights": grid["weights"], "points": grid["points"]}, "vectors": vectors}),
        json.dumps({"vectors": vectors, "grid": grid}),
        json.dumps({**p, "note": "x"}),
        json.dumps({"grid": {**grid, "extra": 1}, "vectors": vectors}),
        json.dumps(p)[:-1] + ', "grid": ' + json.dumps(grid) + "}",
        json.dumps(p).replace('"grid"', '"gr\\u0069d"'),
        "\ufeff" + json.dumps(p),
        json.dumps({"grid": {"points": [], "weights": []}, "vectors": [[]]}),
        json.dumps({"grid": grid, "vectors": []}),
        json.dumps({"grid": grid, "vectors": [[1, 2, 3, 4], [1, 2]]}),
        json.dumps({"grid": grid, "vectors": [[1, 2, 3, 4], [1, 2, 3, 4, 5]]}),
        json.dumps({"grid": grid, "vectors": [[True, 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [[None, 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [[float("nan"), 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [[10**400, 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [["1", 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [[[1], 2, 3, 4]]}),
        json.dumps({"grid": grid, "vectors": [1, 2, 3, 4]}),
        json.dumps([p]),
        json.dumps(p) + " []",
    ]
    return [t.encode("utf-8") for t in accepted + declined]


def corpus(seed=0, mutants=60):
    """The fixed inputs: each frame text, every truncation of it, and
    ``mutants`` each of flipped, deleted and inserted bytes."""
    rng = random.Random(seed)
    out = []
    for base in _frame_texts():
        out.append(base)
        out.extend(base[:i] for i in range(len(base)))
        for _ in range(mutants):
            i = rng.randrange(len(base))
            out.append(base[:i] + bytes([rng.randrange(256)]) + base[i + 1 :])
            out.append(base[:i] + base[i + 1 :])
            out.append(base[:i] + rng.choice(TOKENS) + base[i:])
    return out


def awkward_doubles(seed=0, count=20000):
    """Signed zeros, subnormals, the extremes, powers of ten and two,
    neighbours of powers of ten and random bit patterns (NaN and inf too)."""
    rng = random.Random(seed)
    values = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]
    values += [float(f"1e{k}") for k in range(-40, 50)]
    values += [2.0**k for k in range(-1074, 1024, 7)]
    for k in range(-20, 45):
        bits = struct.unpack("<q", struct.pack("<d", float(f"1e{k}")))[0]
        values += [struct.unpack("<d", struct.pack("<q", bits + d))[0] for d in (-1, 1)]
    values += [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(count)]
    return values


def python_spelling(x):
    return "-0.0" if x == 0.0 and struct.pack("<d", x)[7] & 0x80 else "%.17g" % x


def main(library):
    lib = ctypes.CDLL(library)
    libc = ctypes.CDLL(None)
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = [ctypes.c_size_t]
    libc.free.argtypes = [ctypes.c_void_p]
    shape_type = ctypes.c_long * 4
    lib.frame_numbers.argtypes = [ctypes.c_void_p, ctypes.c_long]
    lib.frame_numbers.restype = ctypes.c_long
    lib.frame_read.argtypes = [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long, shape_type
    ]
    lib.spell_rows.argtypes = [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
        ctypes.POINTER(ctypes.c_long),
    ]
    lib.spell_rows.restype = ctypes.c_long

    def scan(data, cap=None):
        """(the points frame_read reads from data in a heap buffer of exactly
        its length into an output of exactly cap doubles, or None when it
        declines; cap), cap being frame_numbers' count unless one is given."""
        buffer = libc.malloc(max(len(data), 1))
        ctypes.memmove(buffer, data, len(data))
        if cap is None:
            cap = lib.frame_numbers(buffer, len(data))
        out, shape, points = libc.malloc(8 * cap), shape_type(), None
        if lib.frame_read(buffer, len(data), out, cap, shape) == 0:
            points = struct.unpack(f"<{shape[0]}d", ctypes.string_at(out, 8 * shape[0]))
        libc.free(out)
        libc.free(buffer)
        return points, cap

    inputs = corpus()
    accepted = overfilled = 0
    for data in inputs:
        points, cap = scan(data)
        if points is not None:
            accepted += 1
            overfilled += scan(data, cap - 1)[0] is not None
    # the walk cut short inside a literal, a token or whitespace
    for base in _frame_texts():
        points, cap = scan(base)
        if points is not None:
            for i in range(len(base)):
                scan(base[:i], cap)

    misread = 0
    for literal in BOUNDARY_LITERALS:
        expected = float(json.loads(literal))
        got = scan(literal_frame([literal]))[0]
        if got is None:
            misread += expected - expected == 0  # declines only what is not finite
        else:
            misread += struct.pack("<d", got[0]) != struct.pack("<d", expected)

    # rows of 9 awkward doubles, spelt into a buffer that holds three rows by
    # the writer's bound, so each call fills it as far as the bound lets it
    values = awkward_doubles()
    cols = 9
    rows = len(values) // cols
    table = (ctypes.c_double * (rows * cols))(*values[: rows * cols])
    size = 3 * (26 * cols + 4)
    out = libc.malloc(size)
    done, chunks = ctypes.c_long(0), []
    while done.value < rows:
        n = lib.spell_rows(table, rows, cols, out, size, ctypes.byref(done))
        chunks.append(ctypes.string_at(out, n).decode())
    libc.free(out)
    got = "".join(chunks)[1:-1].split("], [")
    expected = [", ".join(map(python_spelling, values[i * cols : (i + 1) * cols])) for i in range(rows)]
    wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
    print(f"{len(inputs)} inputs, {accepted} accepted, {overfilled} overfilled; "
          f"{len(BOUNDARY_LITERALS)} boundary literals, {misread} misread; {rows} rows, "
          f"{wrong} spelt wrong")
    return 1 if wrong or misread or overfilled or not accepted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
