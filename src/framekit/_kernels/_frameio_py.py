"""Frame-file I/O in Python: the float-row spelling and a scanner that
declines every file.

Twin of ``_frameio.c`` and its reference.  ``spell_rows`` spells each double
with ``"%.17g"``, which reads back bit for bit, and negative zero as
``"-0.0"``.  ``scan_frame`` returns None for every file, so the JSON walk in
``framekit.cli`` reads it; the walk is what the C scanner's arrays must equal.
Keep the two files in sync.
"""

import numpy as np


def check_table(table):
    """(rows, cols) of a 2-D ``spell_rows`` table; ValueError otherwise."""
    if table.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {table.shape}")
    return table.shape


def spell_row(row) -> str:
    """The values of one row, spelt and joined by ", "."""
    values = row.tolist()
    texts = ["%.17g" % x for x in values]
    if 0.0 in values:  # -0.0 == 0.0, so only a row holding a zero can hold -0.0
        for i in np.flatnonzero((row == 0) & np.signbit(row)).tolist():
            texts[i] = "-0.0"
    return ", ".join(texts)


def spell_rows(table):
    """The rows of ``table`` as ASCII bytes, "[v, v], [v, v]" with ", " before
    every row but the first, in chunks of whole rows."""
    check_table(table)
    for i, row in enumerate(table):
        yield (("[" if i == 0 else ", [") + spell_row(row) + "]").encode("ascii")


def scan_frame(data: bytes):
    """None: every frame file goes to the JSON walk."""
    return None
