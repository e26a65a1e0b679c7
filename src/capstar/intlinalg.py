"""Exact integer matrix algebra: Smith normal form, kernels, solving.

Entries are Python ints, so all arithmetic is arbitrary precision.
Everything here is deterministic: the Smith reduction always picks the
minimal-absolute-value pivot with a lexicographic (row, column)
tie-break.

Matrices are kept as `SparseMatrix`: dicts of the nonzeros by row, with
the column view built on demand.  Products, the Smith reduction and its
five factors all live there, so their cost follows the nonzeros of the
boundary matrices.  Every pivot takes the same step: the rows below
it, then its own row, go to their remainders by the pivot.  A unit
leaves none, so boundary matrices, which nearly always pivot on a
unit, take one pass per pivot.  The exact U @ (A @ V) == D
certificate runs on the nonzeros on every call at every size.  The
public functions take a SparseMatrix or nested sequences, and read a
numpy array or scalar they are handed through `sys.modules`.  numpy is
loaded only by the dense remainder: `SparseMatrix.toarray` and the
`U/D/V/u_inv/v_inv` properties of a `SmithDecomposition`.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import NamedTuple

from .errors import ValidationError
from .records import Record

__all__ = [
    "SparseMatrix",
    "SmithDecomposition",
    "sparse_identity",
    "smith_normal_form",
    "kernel_basis",
    "solve_integer",
    "lattice_contains",
    "lattices_equal",
]


def _is_array(a) -> bool:
    """Whether `a` is a numpy array; without numpy loaded, none is."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(a, np.ndarray)


def _exact(a):
    """The numpy array `a` as an object array of Python ints: any integer
    or bool dtype, or an object array whose entries `_entry` reads; an
    object array that holds only Python ints is `a` itself."""
    if a.dtype == object:
        if all(type(x) is int for x in a.flat):
            return a
        out = a.copy()
        out.flat = [_entry(x) for x in a.flat]
        return out
    if a.dtype.kind == "b":
        a = a.astype("int8")
    if a.dtype.kind not in "iu":
        raise ValidationError(f"entries must be integers, not {a.dtype}")
    return a.astype(object)


def _entry(x) -> int:
    if not isinstance(x, int):
        np = sys.modules.get("numpy")
        if np is None or not isinstance(x, (np.integer, np.bool_)):
            raise ValidationError(f"entry {x!r} is not an integer")
    return int(x)


def _vector(v) -> list:
    """A vector as a list of Python ints: a numpy array of any integer
    dtype and shape, read flat, or a sequence, each entry checked once."""
    if _is_array(v):
        return _exact(v).ravel().tolist()
    return [_entry(x) for x in v]


def _axpy(dst: dict, q: int, src: dict) -> None:
    """dst += q * src on sparse lines, for q != 0."""
    for k, e in src.items():
        s = dst.get(k, 0) + q * e
        if s:
            dst[k] = s
        else:
            del dst[k]


def _times(row: dict, rows) -> dict:
    """The sparse row `row` times the matrix whose rows are `rows`."""
    out = {}
    for k, e in row.items():
        for j, x in rows[k].items():
            out[j] = out.get(j, 0) + e * x
    return {j: x for j, x in out.items() if x}


def _transposed(lines, count: int) -> tuple:
    """The `count` columns of the matrix whose rows are `lines`; or its
    rows, given its columns."""
    out = tuple({} for _ in range(count))
    for i, line in enumerate(lines):
        for j, e in line.items():
            out[j][i] = e
    return out


class SparseMatrix(Record):
    """An exact integer matrix kept as its nonzeros: `rows[i]` maps the
    columns of row i to its entries, `cols[j]` the rows of column j,
    with Python int entries and no stored zeros.  One or both views are
    kept as dicts, the other built on first use; `T` swaps them.  A
    matrix is never edited: `rows` and `cols` are read-only mappings and
    this module only reads the dicts, so matrices may share them, and
    whoever builds one from dicts hands them over.  Built with neither
    view, it is the zero matrix of its shape."""

    __slots__ = ("shape", "_rows", "_cols", "_checked")
    _fields = ("shape",)

    def __init__(self, shape, _rows=None, _cols=None, _checked=False):
        if _rows is None and _cols is None:
            _rows = tuple({} for _ in range(shape[0]))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_rows", _rows)
        object.__setattr__(self, "_cols", _cols)
        object.__setattr__(self, "_checked", _checked)

    def __reduce__(self):
        # copy and pickle would otherwise set the slots through __setattr__
        return SparseMatrix, (self.shape, self._rows, self._cols, self._checked)

    @classmethod
    def of(cls, a, shape=None) -> "SparseMatrix":
        """`a` itself once it is checked, or the matrix of a 2-d numpy
        array or of nested sequences (`shape` sizes an empty one) read
        once; either way each entry is checked to be an integer, and a
        SparseMatrix's lines to fit its shape."""
        if isinstance(a, SparseMatrix):
            a.check()
            return a
        if _is_array(a) and a.ndim == 2:
            a = _exact(a)
            rows = tuple({} for _ in range(a.shape[0]))
            r, c = (a != 0).nonzero()
            for i, j, e in zip(r.tolist(), c.tolist(), a[r, c].tolist()):
                rows[i][j] = e
            return cls(a.shape, rows, _checked=True)
        try:
            rows = [[_entry(x) for x in r] for r in a]
        except TypeError:  # a vector or a scalar: no rows to read
            raise ValidationError(f"{a!r:.80} is not a matrix given as rows") from None
        if not rows:
            return cls(tuple(shape or (0, 0)), _checked=True)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("ragged matrix rows")
        return cls((len(rows), len(rows[0])),
                   tuple({j: x for j, x in enumerate(r) if x} for r in rows), _checked=True)

    def check(self) -> None:
        """Raise ValidationError unless the shape is two sizes and the kept
        view (the rows, when both are kept) is a tuple of one line per row
        (column) with int indices inside the shape and nonzero Python int
        entries, the other view, if kept, its transpose; one pass over the
        nonzeros, on the first call only."""
        if self._checked:
            return
        shape = self.shape
        if type(shape) is not tuple or len(shape) != 2 or any(
                type(k) is not int or k < 0 for k in shape):
            raise ValidationError(f"shape {shape!r} is not two sizes")
        lines, (count, width) = ((self._rows, shape) if self._rows is not None
                                 else (self._cols, shape[::-1]))
        if type(lines) is not tuple or len(lines) != count:
            raise ValidationError(f"the shape asks for a tuple of {count} lines")
        for line in lines:
            if not isinstance(line, (dict, MappingProxyType)):
                raise ValidationError(f"line {line!r} is not a dict")
            for k, e in line.items():
                if type(k) is not int or not 0 <= k < width:
                    raise ValidationError(f"index {k!r} is not an int inside the shape")
                if type(e) is not int or not e:
                    raise ValidationError(f"entry {e!r} is not a nonzero integer")
        if self._cols is not None and self._cols is not lines and (
                _transposed(lines, width) != self._cols):
            raise ValidationError("the row and column views disagree")
        object.__setattr__(self, "_checked", True)

    @property
    def _row_dicts(self) -> tuple:
        if self._rows is None:
            object.__setattr__(self, "_rows", _transposed(self._cols, self.shape[0]))
        return self._rows

    @property
    def _col_dicts(self) -> tuple:
        if self._cols is None:
            object.__setattr__(self, "_cols", _transposed(self._rows, self.shape[1]))
        return self._cols

    @property
    def rows(self) -> tuple:
        """The rows, as read-only mappings."""
        return tuple(map(MappingProxyType, self._row_dicts))

    @property
    def cols(self) -> tuple:
        """The columns, as read-only mappings."""
        return tuple(map(MappingProxyType, self._col_dicts))

    @property
    def T(self) -> "SparseMatrix":
        return SparseMatrix(self.shape[::-1], self._cols, self._rows, self._checked)

    def __getitem__(self, index) -> "SparseMatrix":
        """The rows at `index`, a slice or a list of row numbers."""
        lines = self._row_dicts
        rows = lines[index] if isinstance(index, slice) else tuple(lines[i] for i in index)
        return SparseMatrix((len(rows), self.shape[1]), rows, _checked=self._checked)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """Row i of the product combines the rows of `other` that row i
        of `self` meets, so the cost follows the nonzeros."""
        if self.shape[1] != other.shape[0]:
            raise ValidationError(f"shape mismatch {self.shape} @ {other.shape}")
        rows = other._row_dicts
        return SparseMatrix((self.shape[0], other.shape[1]),
                            tuple(_times(row, rows) for row in self._row_dicts),
                            _checked=self._checked and other._checked)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.shape == other.shape and self._row_dicts == other._row_dicts

    def any(self) -> bool:
        return any(self._rows if self._rows is not None else self._cols)

    def scaled(self, c: int) -> "SparseMatrix":
        if c == 1:
            return self
        return SparseMatrix(self.shape, tuple(
            {j: c * e for j, e in row.items()} if c else {} for row in self._row_dicts))

    def apply(self, vec) -> list:
        """self @ vec for a list of Python ints, reading only the columns
        that its nonzeros meet."""
        out = [0] * self.shape[0]
        cols = self._col_dicts
        for j, x in enumerate(vec):
            if x:
                for i, e in cols[j].items():
                    out[i] += x * e
        return out

    def toarray(self):
        """The dense object matrix (a numpy array)."""
        import numpy as np

        out = np.zeros(self.shape, dtype=object)
        for i, row in enumerate(self._row_dicts):
            for j, e in row.items():
                out[i, j] = e
        return out


def sparse_identity(n: int) -> SparseMatrix:
    """The n x n identity; the Smith reduction starts its factors here."""
    return SparseMatrix((n, n), tuple({i: 1} for i in range(n)))


def _hstack(*blocks: SparseMatrix) -> SparseMatrix:
    """The blocks, which have the same number of rows, side by side."""
    cols = tuple(col for m in blocks for col in m._col_dicts)
    return SparseMatrix((blocks[0].shape[0], len(cols)), _cols=cols)


class Factors(NamedTuple):
    """The five matrices of a Smith decomposition, kept sparse."""

    U: SparseMatrix
    D: SparseMatrix
    V: SparseMatrix
    u_inv: SparseMatrix
    v_inv: SparseMatrix


class SmithDecomposition(Record):
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    `u_inv` and `v_inv` are the exact inverses, tracked during the
    reduction (never computed by inversion after the fact).  The factors
    are kept sparse in `sparse`; `U`, `D`, `V`, `u_inv` and `v_inv` are
    their dense object arrays, built on each request.
    """

    _fields = ("sparse",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    U = property(lambda self: self.sparse.U.toarray())
    D = property(lambda self: self.sparse.D.toarray())
    V = property(lambda self: self.sparse.V.toarray())
    u_inv = property(lambda self: self.sparse.u_inv.toarray())
    v_inv = property(lambda self: self.sparse.v_inv.toarray())

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.sparse.D._row_dicts) if i in row)


def _certify(u, a, v, d) -> None:
    """Exact check of U @ A @ V == D: A V is formed first, a column at a
    time from the columns of A that each column of V meets, then U times
    it, a row at a time; each product on the nonzeros.  The operands are
    sparse, as the reduction made them, or anything `SparseMatrix.of`
    reads."""
    u, a, v, d = (m if isinstance(m, SparseMatrix) else SparseMatrix.of(m) for m in (u, a, v, d))
    if u @ (v.T @ a.T).T != d:
        raise AssertionError("smith reduction lost the factorization")


def smith_normal_form(a) -> SmithDecomposition:
    """Exact Smith normal form over the integers, of a SparseMatrix or
    anything `SparseMatrix.of` reads.

    Deterministic minimal-absolute-value pivoting with lexicographic
    tie-break.  The reduction runs on sparse lines: the working matrix
    as row dicts with a column -> rows index, U and v_inv as row dicts,
    u_inv and V as column dicts; these become the sparse factors.  Every
    pivot, unit or not, takes one step: each row below it is written once
    through `add_row`, then its own row once, each entry to its remainder
    by the pivot; a nonzero remainder is promoted and the step repeats.
    A unit leaves no remainder.  Another pivot then runs the
    divisibility fix-up, which adds an offending row through `add_row`
    and repeats the step.  The identity U @ (A @ V) == D is certified
    exactly at every size before returning.
    """
    a = SparseMatrix.of(a)
    m, n = a.shape
    w = [dict(row) for row in a._row_dicts]
    w_cols = [set(col) for col in a._col_dicts]
    u, u_inv, v, v_inv = (list(sparse_identity(k)._row_dicts) for k in (m, m, n, n))

    def add_row(dst, q, src):
        # row dst of w += q * row src, keeping the column index; U and
        # u_inv follow, so every row operation on w is this one
        row = w[dst]
        for j, e in w[src].items():
            s = row.get(j, 0) + q * e
            if s:
                if j not in row:
                    w_cols[j].add(dst)
                row[j] = s
            else:
                del row[j]
                w_cols[j].discard(dst)
        _axpy(u[dst], q, u[src])
        _axpy(u_inv[src], -q, u_inv[dst])

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
                for line in (w[t], u[t], u_inv[t]):
                    for k in line:
                        line[k] = -line[k]
            p = w[t][t]
            # take each row below to its remainder in column t; rows above
            # t hold only their diagonal, so column t is clear once it
            # holds the pivot alone
            for i in [i for i in w_cols[t] if i > t]:
                q = -(w[i][t] // p)
                if q:
                    add_row(i, q, t)
            if len(w_cols[t]) > 1:
                # a nonzero remainder is strictly smaller: promote it
                swap_rows(t, min(i for i in w_cols[t] if i > t))
                continue
            # the transpose on row t: column j += q * column t changes
            # only row t of w, as column t is clear.  Row t goes into a
            # new dict, since one emptied in place keeps its capacity
            row, rest = w[t], {t: p}
            w[t] = rest
            for j, e in row.items():
                if j != t:
                    q, r = divmod(e, p)
                    if q:
                        _axpy(v[j], -q, v[t])
                        _axpy(v_inv[t], q, v_inv[j])
                    if r:
                        rest[j] = r
                    else:
                        w_cols[j].discard(t)
            if len(rest) > 1:
                swap_cols(t, min(j for j in rest if j > t))
                continue
            if p == 1:
                break  # a unit divides every entry
            # row and column are clear; every entry of the block must be
            # divisible by the pivot
            rows = (i for i in range(t + 1, m) if any(e % p for e in w[i].values()))
            offender = next(rows, None)
            if offender is None:
                break
            add_row(t, 1, offender)
        t += 1

    f = Factors(
        U=SparseMatrix((m, m), tuple(u)), D=SparseMatrix((m, n), tuple(w)),
        V=SparseMatrix((n, n), _cols=tuple(v)), u_inv=SparseMatrix((m, m), _cols=tuple(u_inv)),
        v_inv=SparseMatrix((n, n), tuple(v_inv)),
    )
    _certify(f.U, a, f.V, f.D)
    return SmithDecomposition(f)


def kernel_basis(a) -> SparseMatrix:
    """Columns form a basis of the integer kernel lattice of `a`."""
    snf = smith_normal_form(a)
    return snf.sparse.V.T[snf.rank:].T


def solve_integer(snf: SmithDecomposition, b) -> SparseMatrix | None:
    """One integer solution x of a @ x = b, where `snf` decomposes `a`,
    or None when there is none; the columns of `b`, a SparseMatrix or
    anything `SparseMatrix.of` reads, are the right-hand sides."""
    b = SparseMatrix.of(b)
    f, r = snf.sparse, snf.rank
    if b.shape[0] != f.D.shape[0]:
        raise ValidationError("right-hand side length mismatch")
    c = (f.U @ b)._row_dicts
    if any(c[r:]):
        return None
    y = []
    for i, row in enumerate(c[:r]):
        d = f.D._row_dicts[i][i]
        if any(e % d for e in row.values()):
            return None
        y.append({j: e // d for j, e in row.items()})
    return f.V.T[:r].T @ SparseMatrix((r, b.shape[1]), tuple(y))


def lattice_contains(gens, vectors) -> bool:
    """True when every column of `vectors` lies in the lattice spanned
    by the columns of `gens`."""
    vectors = SparseMatrix.of(vectors)
    return not vectors.shape[1] or solve_integer(smith_normal_form(gens), vectors) is not None


def lattices_equal(gens_a, gens_b) -> bool:
    """Column lattices agree as subgroups of the ambient Z^n."""
    gens_a, gens_b = SparseMatrix.of(gens_a), SparseMatrix.of(gens_b)
    if gens_a.shape[0] != gens_b.shape[0]:
        raise ValidationError("ambient rank mismatch")
    return lattice_contains(gens_a, gens_b) and lattice_contains(gens_b, gens_a)
