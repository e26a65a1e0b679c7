"""Exact integer matrix algebra: Smith normal form, kernels, solving.

Entries are Python ints, so all arithmetic is arbitrary precision.
Everything here is deterministic: the Smith reduction always picks the
minimal-absolute-value pivot with a lexicographic (row, column)
tie-break.

Matrices are kept as `SparseMatrix`: dicts of the nonzeros by row, with
the column view built on demand.  Products and the Smith reduction live
there, so their cost follows the nonzeros of the boundary matrices.
The reduction itself is `elimination.eliminate`: every pivot takes the
same step, and a unit pivot, which boundary matrices nearly always
have, leaves a record instead of updating factors: its multipliers (L)
and its row as eliminated (E); the block left at the first pivot that
is not a unit is the residue, reduced with factors of its own size.
`smith_normal_form` has the residue start at the first pivot, so the
same loop tracks U, D, V, u_inv and v_inv of the whole matrix, and
certifies U @ (A @ V) == D, with A @ V formed by rows and U's rows
checked by `_is_product`, U @ u_inv == I, V @ v_inv == I and that D is
a Smith form exactly, on every call at every size: a unimodular
factorisation with exactly those inverses.  `kernel_basis` reads the
kernel off the record, as `homology` reads its generators.  The public
functions take a SparseMatrix or nested sequences.  Input is read by
protocol, never by type: an array is anything with `tolist()`, read
through it, and a scalar that is not an int gives its value by
`item()`, as numpy's integer and bool scalars do.  numpy is loaded only
by the dense remainder: `SparseMatrix.toarray` and the
`U/D/V/u_inv/v_inv` properties of a `SmithDecomposition`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .errors import InternalCheckError, ValidationError
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


def _entry(x) -> int:
    """An integer from outside the program, as a Python int: an int or a
    bool as it is; a scalar that is neither, such as a numpy integer or
    bool, by the int its `item()` gives.  An array, even of one entry, is
    not an entry."""
    if isinstance(x, int):
        return int(x)
    try:
        iter(x)
    except TypeError:  # a scalar
        value = x.item() if hasattr(x, "item") else None
        if isinstance(value, int):
            return int(value)
    raise ValidationError(f"entry {x!r} is not an integer")


def _vector(v) -> list:
    """A vector as a list of Python ints, each entry checked once: a
    sequence, or an array read through its `tolist()`."""
    try:
        entries = iter(v.tolist() if hasattr(v, "tolist") else v)
    except TypeError:  # a scalar: no entries to read
        raise ValidationError(f"{v!r:.80} is not a vector") from None
    return [x if type(x) is int else _entry(x) for x in entries]


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
        """`a` itself once it is checked, or the matrix of nested sequences,
        or of an array read through its `tolist()`, read once; either way
        each entry is checked to be an integer, and a SparseMatrix's lines
        to fit its shape.  A matrix with no rows takes a 2-d array's own
        shape, or else `shape`."""
        if isinstance(a, SparseMatrix):
            a.check()
            return a
        try:
            rows = [[x if type(x) is int else _entry(x) for x in r]
                    for r in (a.tolist() if hasattr(a, "tolist") else a)]
        except TypeError:  # a vector or a scalar: no rows to read
            raise ValidationError(f"{a!r:.80} is not a matrix given as rows") from None
        if not rows:
            size = getattr(a, "shape", ())
            return cls(tuple(size if len(size) == 2 else shape or (0, 0)), _checked=True)
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

    `u_inv` and `v_inv` are the exact inverses, tracked with U and V by
    the reduction loop (never computed by inversion after the fact).
    The factors are kept sparse in `sparse`; `U`, `D`, `V`, `u_inv` and
    `v_inv` are their dense object arrays, built on each request.
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


def _is_product(row: dict, rows, want: dict) -> bool:
    """Whether row @ rows == want, for sparse lines; the difference is
    formed and tested in place, without a dict of the product."""
    out = {j: -e for j, e in want.items()}
    get = out.get
    for k, e in row.items():
        for j, x in rows[k].items():
            out[j] = get(j, 0) + e * x
    return not any(out.values())


def _vanishes(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Whether a @ b == 0, a row at a time in one loop: faster than `_is_product` per row."""
    rows = b._row_dicts
    for row in a._row_dicts:
        out = {}
        get = out.get
        for k, e in row.items():
            for j, x in rows[k].items():
                out[j] = get(j, 0) + e * x
        if any(out.values()):
            return False
    return True


def _certify(u, a, v, d, u_inv=None, v_inv=None) -> None:
    """Exact check of U @ A @ V == D, of U @ u_inv == I and V @ v_inv == I
    where the inverses are given, and that D is a Smith form: once the
    shapes fit, A V is formed by rows, and `_is_product` checks each row
    of U against its row of D, and of U and V against the identity's, on
    the nonzeros.  With the inverses this is a unimodular factorisation
    with exactly those inverses.  The operands are sparse, as the
    reduction made them, or anything `SparseMatrix.of` reads."""
    u, a, v, d = (m if isinstance(m, SparseMatrix) else SparseMatrix.of(m) for m in (u, a, v, d))
    m, n = a.shape
    inverses = [(f, f_inv) for f, f_inv in ((u, u_inv), (v, v_inv)) if f_inv is not None]
    if (u.shape, v.shape, d.shape) != ((m, m), (n, n), (m, n)) or any(
            f_inv.shape != f.shape for f, f_inv in inverses):
        raise InternalCheckError("smith reduction lost the factorization")
    av = tuple(_times(row, v._row_dicts) for row in a._row_dicts)
    products = [(u, av, d._row_dicts)] + [
        (f, f_inv._row_dicts, [{i: 1} for i in range(f.shape[0])]) for f, f_inv in inverses]
    if not all(_is_product(row, rows, want) for f, rows, wants in products
               for row, want in zip(f._row_dicts, wants)):
        raise InternalCheckError("smith reduction lost the factorization")
    # D is diagonal, positive, each entry dividing the next, zeros last
    last = 1
    for i, row in enumerate(d._row_dicts):
        e = row.get(i, 0)
        if len(row) != (e != 0) or e < 0 or (e % last if last else e):
            raise InternalCheckError("smith reduction did not reach a Smith form")
        last = e


def smith_normal_form(a) -> SmithDecomposition:
    """Exact Smith normal form over the integers, of a SparseMatrix or
    anything `SparseMatrix.of` reads: the factors that the reduction loop
    tracks with `elimination.eliminate`'s `whole`.  U @ (A @ V) == D,
    U @ u_inv == I, V @ v_inv == I and that D is a Smith form are
    certified exactly at every size before returning."""
    from . import elimination  # it builds on this module

    a = SparseMatrix.of(a)
    snf = elimination.eliminate(a, whole=True).residue
    f = snf.sparse
    _certify(f.U, a, f.V, f.D, f.u_inv, f.v_inv)
    return snf


def kernel_basis(a) -> SparseMatrix:
    """Columns form a basis of the integer kernel lattice of `a`, read
    from the elimination record as `homology` reads its generators, and
    certified as they are."""
    from . import elimination  # it builds on this module

    a = SparseMatrix.of(a)
    rec = elimination.eliminate(a)
    elimination._certify_elimination(rec, a)
    kernel = rec.kernel(sparse_identity(a.shape[1] - rec.rank))
    elimination._certify_kernel(a, kernel)
    return kernel


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
