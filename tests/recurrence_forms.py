"""Dense forms of what a basis keeps of its recurrence, for the tests: its
Hessenberg matrix H = T(z) in the polynomial basis and back, and its
weighted rows in the CMV basis."""

import numpy as np


def hessenberg(bs):
    """H = T(z), (n, n), formed from the recurrence the basis keeps.  On
    the "three_term" and "hessenberg" routes coef holds H on and above its
    diagonal in band storage, (w, n), column j = H[j+1-w : j+1, j], and
    h_sub the norms below it.  A Szego H is c_j s_j on and above its
    diagonal, with s_j the coordinates of phi_j^* in phi_0..phi_j: s_0 =
    e_0 and s_{j+1} = (rho_j s_j, -conj(c_j)).
    """
    n, c = bs.dimension, bs.coef
    h = np.zeros((n, n), dtype=c.dtype)
    if bs.route != "szego":
        w = c.shape[0]
        for j in range(n):
            lo = max(j + 1 - w, 0)
            h[lo : j + 1, j] = c[lo - j - 1 :, j]
    else:
        # row by row: H[i, j] = c_j s_j[i] for j >= i, where s_j[i] is
        # s_i[i] = -conj(c_{i-1}) (1 for i = 0) times rho_i, ..., rho_{j-1}
        chain = np.empty(n, dtype=np.complex128)
        chain[1:] = bs.h_sub
        for i in range(n):
            chain[i] = -np.conj(c[i - 1]) if i else 1.0
            np.multiply(c[i:n], np.multiply.accumulate(chain[i:]), out=h[i, i:])
    np.fill_diagonal(h[1:], bs.h_sub)
    return h


def full_band(h):
    """The coef of the "hessenberg" route that holds the (n, n) H on and
    above its diagonal: band storage of width n, column j = H[:j+1, j] in
    its last j + 1 rows."""
    n = h.shape[0]
    band = np.zeros_like(h)
    for j in range(n):
        band[n - 1 - j :, j] = h[: j + 1, j]
    return band


def cmv_rows(bs):
    """The weighted rows of the CMV basis on the basis's own nodes, from
    its node values Q: chi_{2k} = z^-k phi_{2k}^* = z^k conj(phi_{2k}) and
    chi_{2k-1} = z^(1-k) phi_{2k-1} on |z| = 1."""
    q, z = bs.node_values, bs.nodes
    rows = np.empty_like(q)
    for j in range(q.shape[1]):
        k = (j + 1) // 2
        rows[:, j] = z ** k * np.conj(q[:, j]) if j % 2 == 0 else z ** (1 - k) * q[:, j]
    return rows
