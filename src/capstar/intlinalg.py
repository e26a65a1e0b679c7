"""Exact integer matrix algebra: Smith normal form, kernels, solving.

Matrices are numpy arrays of dtype=object holding Python ints, so all
arithmetic is arbitrary precision.  Everything here is deterministic:
the Smith reduction always picks the minimal-absolute-value pivot with
a lexicographic (row, column) tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

__all__ = [
    "SmithDecomposition",
    "as_matrix",
    "zeros",
    "identity",
    "matmul",
    "smith_normal_form",
    "kernel_basis",
    "solve_integer",
    "lattice_contains",
    "lattices_equal",
]


def as_matrix(rows, shape=None) -> np.ndarray:
    """Build an object-dtype integer matrix from nested sequences.

    `shape` is required when `rows` is empty in one dimension.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == object and rows.ndim == 2:
        return rows
    rows = [[int(x) for x in r] for r in rows]
    if not rows:
        if shape is None:
            shape = (0, 0)
        return np.zeros(shape, dtype=object)
    a = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, r in enumerate(rows):
        if len(r) != a.shape[1]:
            raise ValueError("ragged matrix rows")
        for j, x in enumerate(r):
            a[i, j] = x
    return a


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=object)


def identity(n: int) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return a.dot(b)


@dataclass(frozen=True, eq=False)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    `u_inv` and `v_inv` are the exact inverses, tracked during the
    reduction (never computed by inversion after the fact).
    """

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(self.D.shape)) if self.D[i, i] != 0)

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(int(self.D[i, i]) for i in range(min(self.D.shape)) if self.D[i, i] != 0)


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


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _certify(u: np.ndarray, a: np.ndarray, v: np.ndarray, d: np.ndarray) -> None:
    """Exact check of U @ A @ V == D by three matrix-vector products:
    every entry of U A V - D is below B/2 in absolute value, so each
    entry of (U A V - D) r, r = (1, B, B^2, ...), is a balanced base-B
    numeral whose digits are one row of U A V - D, zero only when they all are."""
    m, n = a.shape
    b = 2 * (m * n * _max_abs(u) * _max_abs(a) * _max_abs(v) + _max_abs(d)) + 1
    r = np.array(list(accumulate(repeat(b, n), mul, initial=1))[:n], dtype=object)
    if not np.array_equal(matmul(u, matmul(a, matmul(v, r))), matmul(d, r)):
        raise AssertionError("smith reduction lost the factorization")


def smith_normal_form(a) -> SmithDecomposition:
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
    return SmithDecomposition(U=u, D=w, V=v, u_inv=u_inv, v_inv=v_inv)


def kernel_basis(a) -> np.ndarray:
    """Columns form a basis of the integer kernel lattice of `a`."""
    snf = smith_normal_form(a)
    return snf.V[:, snf.rank:]


def solve_integer(a, b):
    """One integer solution x of a @ x = b, or None when there is none.

    `b` may be a vector (shape (m,)) or a matrix of stacked right-hand
    sides; the solution comes back in the matching shape.
    """
    a = as_matrix(a)
    vec = False
    b = np.asarray(b, dtype=object)
    if b.ndim == 1:
        vec = True
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length mismatch")
    snf = smith_normal_form(a)
    c = matmul(snf.U, b)
    r = snf.rank
    y = zeros(a.shape[1], b.shape[1])
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            if i < r:
                d = snf.D[i, i]
                if c[i, j] % d != 0:
                    return None
                y[i, j] = c[i, j] // d
            elif c[i, j] != 0:
                return None
    x = matmul(snf.V, y)
    return x[:, 0] if vec else x


def lattice_contains(gens, vectors) -> bool:
    """True when every column of `vectors` lies in the lattice spanned
    by the columns of `gens`."""
    gens = as_matrix(gens)
    vectors = np.asarray(vectors, dtype=object)
    if vectors.ndim == 1:
        vectors = vectors.reshape(-1, 1)
    if vectors.shape[1] == 0:
        return True
    return solve_integer(gens, vectors) is not None


def lattices_equal(gens_a, gens_b) -> bool:
    """Column lattices agree as subgroups of the ambient Z^n."""
    gens_a = as_matrix(gens_a)
    gens_b = as_matrix(gens_b)
    if gens_a.shape[0] != gens_b.shape[0]:
        raise ValueError("ambient rank mismatch")
    return lattice_contains(gens_a, gens_b) and lattice_contains(gens_b, gens_a)
