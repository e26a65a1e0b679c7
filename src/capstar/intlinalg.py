"""Exact integer matrix algebra: Smith normal form, kernels, solving.

Matrices are numpy arrays of dtype=object holding Python ints, so all
arithmetic is arbitrary precision.  Everything here is deterministic:
the Smith reduction always picks the minimal-absolute-value pivot with
a lexicographic (row, column) tie-break.

The reduction itself works on sparse rows and columns (dicts of the
nonzeros), so its cost follows the nonzeros of the boundary matrices;
its inputs and its five outputs are still dense object arrays, and the
exact U @ A @ V == D certificate runs on every call at every size.
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


def _integral(b) -> np.ndarray:
    """A right-hand side (a vector or stacked columns) as an object array
    of Python ints; an object array's entries are checked one by one."""
    if isinstance(b, np.ndarray) and b.dtype != object:
        return _exact(b)
    b = np.asarray(b, dtype=object)
    return np.array([_entry(x) for x in b.flat], dtype=object).reshape(b.shape)


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
    `b` is instead dotted with the nonzeros of each row of `a`."""
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


def _nonzeros(x: np.ndarray) -> tuple[list, list, list]:
    """Rows, columns and entries of the nonzeros of `x`, in row-major order."""
    # one vectorised comparison, then nonzero on bools: on an object array
    # this is over twice as fast as nonzero itself
    rows, cols = np.nonzero(x != 0)
    return rows.tolist(), cols.tolist(), x[rows, cols].tolist()


def _lines(nonzeros: tuple[list, list, list], count: int, by_column: bool = False) -> list[dict]:
    """The `count` rows, or columns, of a matrix given by its nonzeros, as
    dicts {column: entry}, or {row: entry}."""
    rows, cols, entries = nonzeros
    if by_column:
        rows, cols = cols, rows
    out = [{} for _ in range(count)]
    for i, j, e in zip(rows, cols, entries):
        out[i][j] = e
    return out


def _dense(lines: list[dict], shape: tuple[int, int], by_column: bool = False) -> np.ndarray:
    """The object matrix of `shape` whose rows, or columns, are `lines`."""
    rows, cols, entries = [], [], []
    for i, line in enumerate(lines):
        rows += repeat(i, len(line))
        cols += line
        entries += line.values()
    if by_column:
        rows, cols = cols, rows
    out = zeros(*shape)
    out[rows, cols] = np.array(entries, dtype=object)
    return out


def _axpy(dst: dict, q: int, src: dict) -> None:
    """dst += q * src on sparse lines, for q != 0."""
    for k, e in src.items():
        s = dst.get(k, 0) + q * e
        if s:
            dst[k] = s
        else:
            del dst[k]


def _certify(u: np.ndarray, a: np.ndarray, v: np.ndarray, d: np.ndarray) -> None:
    """Exact check of U @ A @ V == D by three matrix-vector products:
    every entry of U A V - D is below B/2 in absolute value, so each
    entry of (U A V - D) r, r = (1, B, B^2, ...), is a balanced base-B
    numeral whose digits are one row of U A V - D, zero only when they
    all are.  Each operand's nonzeros are read once; the products run
    over them in Python ints."""
    m, n = a.shape
    su, sa, sv, sd = [(x.shape[0], *_nonzeros(x)) for x in (u, a, v, d)]
    bu, ba, bv, bd = [max(map(abs, x[3]), default=0) for x in (su, sa, sv, sd)]
    b = 2 * (m * n * bu * ba * bv + bd) + 1

    def times(x, vec):
        count, rows, cols, entries = x
        out = [0] * count
        for i, j, e in zip(rows, cols, entries):
            out[i] += e * vec[j]
        return out

    r = list(accumulate(repeat(b, n), mul, initial=1))[:n]
    if times(su, times(sa, times(sv, r))) != times(sd, r):
        raise AssertionError("smith reduction lost the factorization")


def smith_normal_form(a) -> SmithDecomposition:
    """Exact Smith normal form over the integers.

    Deterministic minimal-absolute-value pivoting with lexicographic
    tie-break.  The reduction runs on sparse lines: the working matrix
    as row dicts with a column -> rows index, U and v_inv as row dicts,
    u_inv and V as column dicts.  All five returned matrices are
    object-dtype arrays of Python ints; the identity U @ A @ V == D is
    certified exactly at every size before returning.
    """
    a = as_matrix(a)
    m, n = a.shape
    rows, cols, entries = _nonzeros(a)
    nonzeros = rows, cols, [_entry(e) for e in entries]  # object arrays pass as_matrix unread
    w = _lines(nonzeros, m)
    if any(type(e) is not int for e in entries):
        a = _dense(w, (m, n))  # certify the checked ints: numpy integers would overflow
    w_cols = [set(col) for col in _lines(nonzeros, n, by_column=True)]
    eye_m, eye_n = _nonzeros(identity(m)), _nonzeros(identity(n))
    u, u_inv = _lines(eye_m, m), _lines(eye_m, m, by_column=True)
    v, v_inv = _lines(eye_n, n, by_column=True), _lines(eye_n, n)

    def put(i, j, s):
        # w[i, j] = s, keeping the column index
        row = w[i]
        if s:
            if j not in row:
                w_cols[j].add(i)
            row[j] = s
        elif j in row:
            del row[j]
            w_cols[j].discard(i)

    def add_row(dst, q, src):
        # row dst of w += q * row src
        row = w[dst]
        for j, e in w[src].items():
            put(dst, j, row.get(j, 0) + q * e)

    def swap_rows(i, j):
        if i != j:
            for c in w[i].keys() ^ w[j].keys():
                w_cols[c] ^= {i, j}
            w[i], w[j] = w[j], w[i]
            u[i], u[j] = u[j], u[i]
            u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def swap_cols(i, j):
        if i != j:
            for r in w_cols[i] | w_cols[j]:
                row = w[r]
                ei, ej = row.pop(i, 0), row.pop(j, 0)
                if ej:
                    row[i] = ej
                if ei:
                    row[j] = ei
            w_cols[i], w_cols[j] = w_cols[j], w_cols[i]
            v[i], v[j] = v[j], v[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def negate_row(i):
        for line in (w[i], u[i], u_inv[i]):
            for k in line:
                line[k] = -line[k]

    def clear_column(t):
        # row i += q_i * row t for every row i below t that meets column t
        p = w[t][t]
        for i in [i for i in w_cols[t] if i > t]:
            q = -(w[i][t] // p)
            if q:
                add_row(i, q, t)
                _axpy(u[i], q, u[t])
                _axpy(u_inv[t], -q, u_inv[i])

    def clear_row(t):
        # the transpose: column j += q_j * column t for every j right of t;
        # column t of w is clear below t, so only row t changes
        row, p = w[t], w[t][t]
        for j in [j for j in row if j > t]:
            q = -(row[j] // p)
            if q:
                put(t, j, row[j] + q * p)
                _axpy(v[j], q, v[t])
                _axpy(v_inv[t], -q, v_inv[j])

    def pivot(t):
        # the least |entry| of the trailing block, first in row-major
        # order; no nonzero is below a unit, so the first unit wins
        for i in range(t, m):
            units = [j for j, e in w[i].items() if e == 1 or e == -1]
            if units:
                return i, min(units)
        least = min((abs(e) for i in range(t, m) for e in w[i].values()), default=0)
        for i in range(t, m):
            hits = [j for j, e in w[i].items() if abs(e) == least]
            if hits:
                return i, min(hits)
        return None

    t = 0
    bound = min(m, n)
    while t < bound:
        pos = pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            if w[t][t] < 0:
                negate_row(t)
            clear_column(t)
            below = [i for i in w_cols[t] if i > t]
            if below:
                # nonzero remainder is strictly smaller: promote it
                swap_rows(t, min(below))
                continue
            clear_row(t)
            right = [j for j in w[t] if j > t]
            if right:
                swap_cols(t, min(right))
                continue
            # row and column are clear; every entry of the block must be
            # divisible by the pivot, which a unit pivot divides already
            p = w[t][t]
            if p == 1:
                break
            rows = (i for i in range(t + 1, m) if any(e % p for e in w[i].values()))
            offender = next(rows, None)
            if offender is None:
                break
            add_row(t, 1, offender)
            _axpy(u[t], 1, u[offender])
            _axpy(u_inv[offender], -1, u_inv[t])
        t += 1

    d = _dense(w, (m, n))
    u, v = _dense(u, (m, m)), _dense(v, (n, n), by_column=True)
    _certify(u, a, v, d)
    return SmithDecomposition(
        U=u, D=d, V=v, u_inv=_dense(u_inv, (m, m), by_column=True), v_inv=_dense(v_inv, (n, n))
    )


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
    b = _integral(b)
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
    vectors = _integral(vectors)
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
