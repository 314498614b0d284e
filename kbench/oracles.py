"""Expected values for the benchmark workloads, computed apart from cdlab.

Everything here uses numpy and closed forms only, so a fault in cdlab cannot
hide itself by also changing the reference.  The report readers and row
checks live here too: a row is an operation, and it fails when it is missing,
when the sweep exited non-zero, or when it disagrees with its oracle.
"""

import csv
import math

import numpy as np

# Scratch runs agreed with cdlab to 1e-16 .. 7e-14; these tolerances leave
# two to three orders of magnitude of room without letting a wrong formula pass.
REL_TOL = 1e-10
MASS_TOL = 1e-12
SLOPE_RANGE = (-1.1, -0.9)


# ---------------------------------------------------------------------------
# closed forms

def szego_interval_x2(n):
    """(1/n) tr(J_n^2) for the Legendre Jacobi matrix J_n.

    The diagonal of J_n is zero and its off-diagonal entries are
    j / sqrt(4 j^2 - 1), so the trace is 2 sum_{j<n} j^2 / (4 j^2 - 1).
    """
    j = np.arange(1, n, dtype=float)
    return float(2.0 * np.sum(j * j / (4.0 * j * j - 1.0)) / n)


def szego_interval_x2_nodes(n):
    """Mean of x^2 over the n Gauss-Legendre nodes (the eigenvalues of J_n)."""
    x, _ = np.polynomial.legendre.leggauss(n)
    return float(np.mean(x * x))


def circle_quarter_arcs(m):
    """Node indices of the default offdiag regions on m roots of unity.

    A = [0, pi/2) and B = [pi, 3pi/2), computed in integers: node a sits at
    angle 2 pi a / m.
    """
    a = np.arange(m)
    return a[4 * a < m], a[(2 * a >= m) & (4 * a < 3 * m)]


def _region_toeplitz(idx, n, m):
    """T_A[i, j] = (1/m) sum_{a in A} w^{a (j - i)} with w = exp(2 pi i / m)."""
    powers = (idx[:, None] * np.arange(n)[None, :]) % m
    v = np.exp(2j * np.pi * powers / m)
    return v.conj().T @ v / m


def offdiag_circle_mass(n, m):
    """(1/n) tr(T_A T_B) for the quarter arcs A, B on m roots of unity."""
    ia, ib = circle_quarter_arcs(m)
    t_a = _region_toeplitz(ia, n, m)
    t_b = _region_toeplitz(ib, n, m)
    return float(np.real(np.sum(t_a * t_b.T)) / n)


def bm_circle(n, k):
    """log(sup B_n(z, z)) / k on the circle, where B_n(z, z) = n exactly."""
    return math.log(n) / k


# ---------------------------------------------------------------------------
# report reading

def parse_report(text):
    """Rows keyed by k and the footer of a cdlab report CSV.

    Returns (rows, footer): rows maps k to a dict of floats for the columns
    n_k, quantity, limit, gap, seconds; footer maps each "# key,value" line's
    key to its float value.  Malformed lines are skipped, so a damaged row
    reads as missing.
    """
    lines = text.splitlines()
    footer = {}
    for line in lines:
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition(",")
            try:
                footer[key] = float(val)
            except ValueError:
                pass
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = {}
    for rec in csv.DictReader(body):
        try:
            k = int(rec["k"])
            rows[k] = {key: float(rec[key])
                       for key in ("n_k", "quantity", "limit", "gap", "seconds")}
        except (KeyError, TypeError, ValueError):
            continue
    return rows, footer


def read_report(path):
    try:
        with open(path) as fh:
            return parse_report(fh.read())
    except OSError:
        return {}, {}


def _close(actual, expected, rel=REL_TOL):
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


def _row_shape_ok(row, k):
    return (row["n_k"] == k
            and _close(row["gap"], abs(row["quantity"] - row["limit"]), 1e-15)
            and row["seconds"] >= 0.0)


# ---------------------------------------------------------------------------
# per-workload checks
#
# Each takes (rows, footer, ks, node_count, side): node_count(k) is the node
# count m of the sweep's measure, side(k) the (heatmap, density) paths
# written for k.  Each returns (ok_by_k, errors).

def check_szego_interval(rows, footer, ks, node_count, side):
    ok, errors = {}, []
    for k in ks:
        row = rows.get(k)
        good = row is not None and _row_shape_ok(row, k)
        if good:
            q = row["quantity"]
            good = (_close(q, szego_interval_x2(k))
                    and _close(q, szego_interval_x2_nodes(k))
                    and _close(row["limit"], 0.5, 1e-13))
        if not good:
            errors.append(f"szego k={k}: {row}")
        ok[k] = good
    return ok, errors


def check_offdiag_circle(rows, footer, ks, node_count, side):
    ok, errors = {}, []
    for k in ks:
        row = rows.get(k)
        good = row is not None and _row_shape_ok(row, k)
        if good:
            good = (_close(row["quantity"], offdiag_circle_mass(k, node_count(k)))
                    and row["limit"] == 0.0)
        if not good:
            errors.append(f"offdiag k={k}: {row}")
        ok[k] = good
    slope = footer.get("fitted_slope")
    if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        errors.append(f"offdiag fitted_slope {slope} outside {SLOPE_RANGE}")
        ok = dict.fromkeys(ok, False)
    return ok, errors


def check_bm_circle(rows, footer, ks, node_count, side):
    ok, errors = {}, []
    for k in ks:
        row = rows.get(k)
        good = (row is not None and _row_shape_ok(row, k)
                and _close(row["quantity"], bm_circle(k, k)))
        if not good:
            errors.append(f"bm k={k}: {row}")
        ok[k] = good
    return ok, errors


def _heatmap_diag_abs2(path, m):
    """abs2 column of the (a, a) rows; None unless the file has m*m rows."""
    diag = []
    count = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["a", "b", "re", "im", "abs2"]:
            return None
        for rec in reader:
            count += 1
            if rec[0] == rec[1]:
                diag.append(float(rec[4]))
    return np.asarray(diag) if count == m * m and len(diag) == m else None


def _density_total(path, m):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["re", "im", "weight", "density"]:
            return None
        dens = [float(rec[3]) for rec in reader]
    return math.fsum(dens) if len(dens) == m else None


def check_heatmap_circle(rows, footer, ks, node_count, side):
    ok, errors = {}, []
    for k in ks:
        row = rows.get(k)
        good = (row is not None and _row_shape_ok(row, k)
                and _close(row["quantity"], 1.0, MASS_TOL)
                and _close(row["limit"], 1.0, MASS_TOL))
        if good:
            m = node_count(k)
            hm_path, dens_path = side(k)
            try:
                diag = _heatmap_diag_abs2(hm_path, m)
                total = _density_total(dens_path, m)
            except (OSError, ValueError, IndexError):
                diag, total = None, None
            good = (diag is not None and total is not None
                    and bool(np.all(np.abs(diag - k * k) <= MASS_TOL * k * k))
                    and abs(total - 1.0) <= MASS_TOL)
        if not good:
            errors.append(f"heatmap k={k}: {row}")
        ok[k] = good
    return ok, errors
