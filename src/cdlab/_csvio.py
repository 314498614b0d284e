"""The one CSV writer behind every file cdlab writes."""

import csv


def write_csv(path, header, rows, footer=()):
    """Write the header and rows in csv's default dialect, then the footer
    lines verbatim.

    csv writes Python floats with repr, so every number round-trips exactly.
    rows may be any iterable, so a large table can be streamed.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)
        fh.writelines(footer)
    return path
