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

from .errors import ValidationError

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


def _exact(a: np.ndarray) -> np.ndarray:
    """`a` as an object array of Python ints; any integer or bool dtype."""
    if a.dtype == object:
        return a
    if a.dtype.kind == "b":
        a = a.astype(np.int8)
    if a.dtype.kind not in "iu":
        raise ValidationError(f"matrix entries must be integers, not {a.dtype}")
    return a.astype(object)


def _entry(x) -> int:
    if not isinstance(x, (int, np.integer, np.bool_)):
        raise ValidationError(f"matrix entry {x!r} is not an integer")
    return int(x)


def as_matrix(rows, shape=None) -> np.ndarray:
    """Build an object-dtype integer matrix from nested sequences.

    `shape` is required when `rows` is empty in one dimension.  Entries
    must be ints, bools or numpy integers: a float, even 1.0, a Fraction
    or a string raises ValidationError rather than being truncated.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return _exact(rows)
    rows = [[_entry(x) for x in r] for r in rows]
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
    """Exact a @ b in Python ints, whatever the operands' integer dtype.

    Each column of the product reads only the columns of `a` that its
    column of `b` meets, so the cost is O(rows(a) * nnz(b)).  A vector
    `b`, dense with huge entries in `_certify`, is instead dotted with the
    nonzeros of each row of `a`: one sum per entry, with no partial sums
    of huge integers kept alive across rows."""
    a, b = _exact(a), _exact(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if b.ndim == 1:
        out = np.zeros(a.shape[0], dtype=object)
        for i in range(a.shape[0]):
            nz = np.flatnonzero(a[i])
            if nz.size:
                out[i] = a[i, nz].dot(b[nz])
        return out
    out = zeros(a.shape[0], b.shape[1])
    for j in range(b.shape[1]):
        nz = np.flatnonzero(b[:, j])
        if nz.size:
            out[:, j] = a[:, nz].dot(b[nz, j])
    return out


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


# Rows read per vectorised step of the pivot and divisibility searches;
# a search stops at the first band that holds a hit.
_BAND = 4


def _first_hit(block: np.ndarray, test):
    """(row, col) of the first entry of `block`, in row-major order, for
    which `test` holds, or None; read a band of rows at a time."""
    n = block.shape[1]
    for r in range(0, block.shape[0], _BAND):
        hits = np.flatnonzero(test(block[r:r + _BAND]))
        if hits.size:
            i, j = divmod(int(hits[0]), n)
            return r + i, j
    return None


def _min_pivot(w: np.ndarray, t: int):
    """Smallest |entry| in the trailing block, ties broken by (row, col).

    No nonzero entry is smaller than a unit, so the first ±1 in row-major
    order is the answer; only a block without one needs the least |entry|
    first, and then its first occurrence."""
    block = w[t:, t:]
    pos = _first_hit(block, lambda band: (band == 1) | (band == -1))
    if pos is None:
        nonzero = block[block != 0]
        if not nonzero.size:
            return None
        least = np.abs(nonzero).min()
        pos = _first_hit(block, lambda band: (band == least) | (band == -least))
    return t + pos[0], t + pos[1]


def _max_abs(a: np.ndarray) -> int:
    # two reductions rather than a dense |a| the size of a
    return int(max(a.max(), -a.min())) if a.size else 0


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

    def negate_row(i):
        w[i, :] = -w[i, :]
        u[i, :] = -u[i, :]
        u_inv[:, i] = -u_inv[:, i]

    def clear_column(t):
        # row i += q_i * row t for every row i below t that meets column t;
        # each step changes row i alone, so one outer product does them all
        rows = t + 1 + np.flatnonzero(w[t + 1:, t])
        if rows.size:
            q = -(w[rows, t] // w[t, t])
            cols = np.flatnonzero(w[t])
            w[np.ix_(rows, cols)] += np.outer(q, w[t, cols])
            cols = np.flatnonzero(u[t])
            u[np.ix_(rows, cols)] += np.outer(q, u[t, cols])
            u_inv[:, t] -= u_inv[:, rows].dot(q)

    def clear_row(t):
        # the transpose: column j += q_j * column t for every j right of t
        cols = t + 1 + np.flatnonzero(w[t, t + 1:])
        if cols.size:
            q = -(w[t, cols] // w[t, t])
            rows = np.flatnonzero(w[:, t])
            w[np.ix_(rows, cols)] += np.outer(w[rows, t], q)
            rows = np.flatnonzero(v[:, t])
            v[np.ix_(rows, cols)] += np.outer(v[rows, t], q)
            v_inv[t, :] -= q.dot(v_inv[cols, :])

    def first_nonzero(vec):
        nz = np.flatnonzero(vec)
        return int(nz[0]) if nz.size else None

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
            clear_column(t)
            i = first_nonzero(w[t + 1:, t])
            if i is not None:
                # nonzero remainder is strictly smaller: promote it
                swap_rows(t, t + 1 + i)
                continue
            clear_row(t)
            j = first_nonzero(w[t, t + 1:])
            if j is not None:
                swap_cols(t, t + 1 + j)
                continue
            # row and column are clear; every entry of the block must be
            # divisible by the pivot, which a unit pivot divides already
            p = w[t, t]
            offender = None if p == 1 else _first_hit(w[t + 1:, t + 1:], lambda band: band % p)
            if offender is None:
                break
            i = t + 1 + offender[0]
            w[t, :] += w[i, :]
            u[t, :] += u[i, :]
            u_inv[:, i] -= u_inv[:, t]
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
