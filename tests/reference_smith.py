"""The Smith reduction as it was before its inner loops were vectorised,
kept verbatim as the reference the test suite compares the library's
kernel against: the pivot rule and every row and column operation are
the same, so U, D, V and both inverses must agree entry for entry."""

from typing import NamedTuple

import numpy as np

from capstar.intlinalg import _certify, as_matrix, identity


class Reference(NamedTuple):
    """The five dense factors, under the names `SmithDecomposition`
    exports them by."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray


def _min_pivot(w: np.ndarray, t: int):
    """Smallest |entry| in the trailing block, ties broken by (row, col)."""
    m, n = w.shape
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = w[i, j]
            if v != 0:
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2]


def smith_normal_form(a) -> Reference:
    """Exact Smith normal form over the integers.

    Deterministic minimal-absolute-value pivoting with lexicographic
    tie-break.  All five returned matrices are object-dtype arrays of
    Python ints; the identity U @ A @ V == D is certified exactly at
    every size before returning.
    """
    a = as_matrix(a)
    m, n = a.shape
    w = a.copy()
    u = identity(m)
    u_inv = identity(m)
    v = identity(n)
    v_inv = identity(n)

    def swap_rows(i, j):
        if i != j:
            w[[i, j], :] = w[[j, i], :]
            u[[i, j], :] = u[[j, i], :]
            u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def swap_cols(i, j):
        if i != j:
            w[:, [i, j]] = w[:, [j, i]]
            v[:, [i, j]] = v[:, [j, i]]
            v_inv[[i, j], :] = v_inv[[j, i], :]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        if q:
            w[dst, :] += q * w[src, :]
            u[dst, :] += q * u[src, :]
            u_inv[:, src] -= q * u_inv[:, dst]

    def add_col(src, dst, q):
        if q:
            w[:, dst] += q * w[:, src]
            v[:, dst] += q * v[:, src]
            v_inv[src, :] -= q * v_inv[dst, :]

    def negate_row(i):
        w[i, :] = -w[i, :]
        u[i, :] = -u[i, :]
        u_inv[:, i] = -u_inv[:, i]

    t = 0
    bound = min(m, n)
    while t < bound:
        pos = _min_pivot(w, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            if w[t, t] < 0:
                negate_row(t)
            # clear column t with Euclidean steps
            moved = False
            for i in range(t + 1, m):
                if w[i, t] != 0:
                    add_row(t, i, -(w[i, t] // w[t, t]))
            for i in range(t + 1, m):
                if w[i, t] != 0:
                    # nonzero remainder is strictly smaller: promote it
                    swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, n):
                if w[t, j] != 0:
                    add_col(t, j, -(w[t, j] // w[t, t]))
            dirty = False
            for j in range(t + 1, n):
                if w[t, j] != 0:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # row and column are clear; enforce divisibility on the block
            p = w[t, t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if w[i, j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1

    _certify(u, a, v, w)
    return Reference(U=u, D=w, V=v, u_inv=u_inv, v_inv=v_inv)
