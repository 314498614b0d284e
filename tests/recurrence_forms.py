"""Dense forms of what a basis keeps as O(n) numbers, for the tests: its
Hessenberg matrix H = T(z) in the polynomial basis, and its weighted rows
in the CMV basis."""

import numpy as np


def hessenberg(bs):
    """H = T(z), (n, n): kept whole on the "hessenberg" route (full
    Arnoldi), formed from the O(n) recurrence on the others.  A Szego H is
    c_j s_j on and above its diagonal, with s_j the coordinates of
    phi_j^* in phi_0..phi_j: s_0 = e_0 and s_{j+1} = (rho_j s_j, -conj(c_j)).
    """
    if bs.h_full is not None:
        return bs.h_full
    n = bs.dimension
    if bs.route == "three_term":
        h = np.zeros((n, n))
        np.fill_diagonal(h, bs.h_band[1])
        np.fill_diagonal(h[:, 1:], bs.h_band[0, 1:])
    else:
        # row by row: H[i, j] = c_j s_j[i] for j >= i, where s_j[i] is
        # s_i[i] = -conj(c_{i-1}) (1 for i = 0) times rho_i, ..., rho_{j-1}
        c = bs.szego_c
        h = np.zeros((n, n), dtype=np.complex128)
        chain = np.empty(n, dtype=np.complex128)
        chain[1:] = bs.h_sub
        for i in range(n):
            chain[i] = -np.conj(c[i - 1]) if i else 1.0
            np.multiply(c[i:n], np.multiply.accumulate(chain[i:]), out=h[i, i:])
    np.fill_diagonal(h[1:], bs.h_sub)
    return h


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
