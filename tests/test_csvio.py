"""The block CSV writer against csv.writer's default dialect, byte for byte."""

import csv

import numpy as np
import pytest

from cdlab._csvio import write_csv

FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e16, 1e-5, 5e-324,
          0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308, 123456789.0]
STRINGS = ["plain", "poly:1,0,2", 'say "hi"', "", "a\nb", "cr\r", " padded ", "semi;colon"]


def csv_bytes(tmp_path, header, rows, footer=()):
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)
        fh.writelines(footer)
    return path.read_bytes()


def block_bytes(tmp_path, header, blocks, footer=()):
    return write_csv(tmp_path / "blocks.csv", header, blocks, footer).read_bytes()


def test_float_int_and_range_columns_match_csv(tmp_path):
    x = np.array(FLOATS)
    idx = np.arange(len(x), dtype=np.int64) - 3
    big = np.array([2**63 - 1, 0, 7] * 5, dtype=np.uint64)[:len(x)]
    rows = list(zip(idx.tolist(), range(len(x)), x.tolist(), (-x).tolist(), big.tolist()))
    block = (idx, range(len(x)), x, -x, big)
    assert (block_bytes(tmp_path, list("abcde"), [block])
            == csv_bytes(tmp_path, list("abcde"), rows))


def test_numpy_scalars_are_written_as_csv_writes_them(tmp_path):
    # '%r' % np.float64(0.5) is 'np.float64(0.5)' under numpy 2; csv writes 0.5
    values = [np.float64(0.5), np.float64(-0.0), np.float64(5e-324), np.int64(-7),
              np.float32(0.1), np.uint8(200), np.bool_(True), 3, 2.5, True, None,
              1 + 2j, np.float64("nan")]
    rows = [(v, w) for v, w in zip(values, reversed(values))]
    got = block_bytes(tmp_path, ["v", "w"], [(values, values[::-1])])
    assert got == csv_bytes(tmp_path, ["v", "w"], rows)
    assert b"np." not in got


def test_scalar_columns_repeat_in_every_row(tmp_path):
    re = np.array(FLOATS)
    blocks, rows = [], []
    for i, (s, v) in enumerate(zip(STRINGS, [np.float64(0.25), np.int64(9), 4, 1e16] * 2)):
        blocks.append((i, range(len(re)), re, v, s))
        rows += [(i, j, x, v, s) for j, x in enumerate(re.tolist())]
    header = ["i", "j", "re", "k", "symbol"]
    assert block_bytes(tmp_path, header, blocks) == csv_bytes(tmp_path, header, rows)


def test_strings_are_quoted_as_csv_quotes_them(tmp_path):
    header = ["name, with comma", 'q"uote', "k"]
    rows = [(s, t, len(s)) for s in STRINGS for t in STRINGS]
    block = ([r[0] for r in rows], tuple(r[1] for r in rows), [r[2] for r in rows])
    assert block_bytes(tmp_path, header, [block]) == csv_bytes(tmp_path, header, rows)


def test_other_arrays_write_their_tolist_values(tmp_path):
    cols = (np.array([0.1, 1e-5, -0.0], dtype=np.float32),
            np.array([True, False, True]),
            np.array([1 + 2j, -0.5j, np.nan]),
            np.array(["a,b", "", 'x"y']),
            np.array([1, -2, 3], dtype=np.int8))
    rows = list(zip(*(c.tolist() for c in cols)))
    header = list("abcde")
    assert block_bytes(tmp_path, header, [cols]) == csv_bytes(tmp_path, header, rows)


def test_blocks_of_any_length_and_footer(tmp_path):
    rng = np.random.default_rng(5)
    sizes = [3, 0, 1, 7, 3]
    blocks = [(a, rng.standard_normal(n), rng.integers(-9, 9, n)) for a, n in enumerate(sizes)]
    rows = [(a, x, j) for a, x, js in blocks for x, j in zip(x.tolist(), js.tolist())]
    footer = ("# fitted_slope,-1.0\n", "# fit_residual,0.001\n")
    header = ["a", "x", "j"]
    assert (block_bytes(tmp_path, header, blocks, footer)
            == csv_bytes(tmp_path, header, rows, footer))


def test_no_blocks_writes_the_header_only(tmp_path):
    assert block_bytes(tmp_path, ["a", "b"], []) == b"a,b\r\n"


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="lengths"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [(np.zeros(3), range(4))])

