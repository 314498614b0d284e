"""The one CSV writer behind every file cdlab writes.

The files are byte for byte what csv.writer writes in its default dialect:
fields joined by ',', rows ended by '\\r\\n', minimal quoting, floats by
repr.  The body is not written row by row, though.  It comes in blocks of
rows (a table row of the heatmap, a whole small report), and each block is
formatted by one '%' call on a template repeated once per row.
"""

import csv
import io
from functools import lru_cache
from itertools import chain, repeat

import numpy as np


def write_csv(path, header, blocks, footer=()):
    """Write the header row, each block of rows, then the footer lines
    verbatim.

    A block is a tuple with one entry per column, each either
    - a float array or a range: the column's values in the block's rows,
      written by '%r' or '%d' with no per-value test;
    - a list, a tuple or another array: the column's values, written as
      csv writes them;
    - anything else: one value, written as csv writes it in every row.
    Blocks are formatted and written one at a time, so a large table is
    streamed with O(block) text in memory.  (csv writes a row that is a
    single empty field as '""'; every cdlab file has two or more columns,
    so that case is not reproduced.)
    """
    templates = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_field, header)) + "\r\n")
        for block in blocks:
            specs, columns = zip(*map(_column, block))
            lengths = {len(c) for c in columns if not isinstance(c, repeat)}
            if len(lengths) != 1:
                raise ValueError(f"block columns have lengths {sorted(lengths)}")
            key = (specs, lengths.pop())
            if key not in templates:
                templates[key] = (",".join(specs) + "\r\n") * key[1]
            fh.write(templates[key] % tuple(chain.from_iterable(zip(*columns))))
        fh.writelines(footer)
    return path


def _column(col):
    """(conversion, values) of one block entry for the row template."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return "%r", col.tolist()
        col = col.tolist()
    if isinstance(col, range):
        return "%d", col
    if isinstance(col, (list, tuple)):
        return "%s", [_field(v) for v in col]
    return "%s", repeat(_field(col))


def _field(value):
    """value as csv writes it in a row of two or more fields."""
    if value is None:
        return ""
    if isinstance(value, float):
        # float subclasses too: '%r' of np.float64(0.5) is 'np.float64(0.5)'
        return float.__repr__(value)
    return _quote(str(value))


@lru_cache(maxsize=1024)
def _quote(text):
    """text with csv's minimal quoting, taken from csv itself."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, None))
    return buf.getvalue()[:-len(",\r\n")]
