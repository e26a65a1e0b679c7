"""The Smith reduction's elimination core and its record.

`eliminate` runs the one reduction loop (the pivot rule and the step of
`intlinalg`'s Smith normal form) and returns an `Elimination`, the
record of what it did, in the row and column labels of the matrix A it
reduced:

  * the row and column permutations, `rows` and `cols`;
  * L, one column per unit pivot: the pivot's sign and minus each
    multiplier with which its row was added to another (`add_row`);
  * E, each unit pivot's row as eliminated at its step;
  * at the first pivot that is not a unit, the residue: the trailing
    block and its own Smith decomposition, residue-sized, from the same
    loop, which tracks factors only from there on.

Boundary matrices pivot almost only on units, so the record is far
smaller than the five factors: on the benchmark's matrices the residue
is absent or a single row.  `intlinalg.smith_normal_form` has the
residue start at the first pivot (`whole`), so that the loop tracks the
five factors of all of A; `chains.homology` reads from the record only
what it uses: the generators (`kernel`, their columns of u_inv put on
the residue columns and back-substituted through E in one pass), the
kernel coordinates of the incoming differential (`kernel_coordinates`,
a row selection of it), the coordinate rows past the rank (`left_rows`
and `u_rows`, from L) and the generators' columns of u_inv
(`u_inv_columns`, selections of the residue rows).  Each reader is
certified by its caller: `_certify_elimination` (A == L W, with the
residue's own certificate), `_certify_kernel` and `_certify_left_rows`;
`chains` says why these imply the groups.  Nothing here loads numpy.
"""

from __future__ import annotations

from . import intlinalg as la
from .errors import InternalCheckError
from .records import Record


def _positions(labels) -> list:
    """The position of each label, for a permutation of range(len(labels))."""
    pos = [0] * len(labels)
    for p, x in enumerate(labels):
        pos[x] = p
    return pos


def _triangular_inverse(lines, labels, tail) -> list:
    """G^-1 X by lines, for G triangular with a unit diagonal: its line
    t < r0 = len(lines) is `lines[t]`, keyed by label (position p holds
    `labels[p]`), with the unit at labels[t] and every other entry at a
    later position, and its lines from r0 on are the identity's.  X is
    zero before r0 and `tail` from there.  With E's rows this is back
    substitution (rows of G^-1 X); with L's columns and X = [0; I],
    forward substitution read backwards (columns of L^-1).  Each line
    combines the lines already solved that it meets, so the cost
    follows the nonzeros."""
    r0, pos = len(lines), _positions(labels)
    out = [None] * r0 + list(tail)
    for t in range(r0 - 1, -1, -1):
        line, acc = lines[t], {}
        for x, e in line.items():
            p = pos[x]
            if p != t:
                for k, z in out[p].items():
                    acc[k] = acc.get(k, 0) - e * z
        s = line[labels[t]]
        out[t] = {k: s * z for k, z in acc.items() if z}
    return out


class Elimination(Record):
    """The record of a Smith reduction of an m x n matrix A, in A's own
    row and column labels, which `chains.homology` reads directly.

    The reduction takes unit pivots for as long as the trailing block has
    a ±1 (`pivot` takes every unit before any other entry).  `rows` and
    `cols` give the row and column of A at each position once those r0
    pivots are taken, the pivots first.  `L[t]` is column t of L: the
    sign of pivot t at rows[t], and minus each multiplier with which its
    row was added to a row below, at that row.  `E[t]` is pivot row t as
    eliminated at its step, with its 1 at cols[t] and every other entry
    in a column of a later position.  So P A = L W with W the pivot rows
    E over the residue rows: in the block of the positions from r0 on,
    `block`, whatever the unit pivots left.  `block` and `residue`, its
    own Smith decomposition (residue-sized factors, from the same loop),
    are None when that block is zero.  Then, with C = [E; 0 I]^-1 in
    positions:

      U = diag(I, U_B) L^-1 P      u_inv = P^T L diag(I, u_inv_B)
      V = Q C diag(I, V_B)         v_inv = diag(I, v_inv_B) [E; 0 I] Q^T

    so u_inv's first r0 columns are L and v_inv's first r0 rows are E.
    These are the factors the loop tracks with `eliminate`'s `whole`;
    the readers below form the parts of them that `homology` uses.
    """

    _fields = ("shape", "rows", "cols", "L", "E", "block", "residue")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def rank(self) -> int:
        return len(self.E) + (self.residue.rank if self.residue else 0)

    def invariant_factors(self) -> tuple[int, ...]:
        tail = self.residue.invariant_factors() if self.residue else ()
        return (1,) * len(self.E) + tail

    def kernel(self, x: la.SparseMatrix) -> la.SparseMatrix:
        """V[:, r:] @ x, by rows (a basis of the kernel of A for x the
        identity): x on the residue columns, through V_B's rows past B's
        rank where there is a residue, and E's back substitution above."""
        n, cols, tail = self.shape[1], self.cols, x._row_dicts
        if self.residue is not None:
            rb = self.residue.rank
            tail = [la._times({k - rb: e for k, e in row.items() if k >= rb}, tail)
                    for row in self.residue.sparse.V._row_dicts]
        rows = [None] * n
        for c, row in zip(cols, _triangular_inverse(self.E, cols, tail)):
            rows[c] = row
        return la.SparseMatrix((n, x.shape[1]), tuple(rows))

    def kernel_coordinate_rows(self) -> list:
        """The rows of v_inv[r:], keyed by column: coordinate selections
        of the residue columns, through v_inv_B where there is a residue."""
        r0, cols = len(self.E), self.cols
        if self.residue is None:
            return [{c: 1} for c in cols[r0:]]
        return [{cols[r0 + k]: e for k, e in row.items()}
                for row in self.residue.sparse.v_inv._row_dicts[self.residue.rank:]]

    def kernel_coordinates(self, b: la.SparseMatrix) -> la.SparseMatrix:
        """v_inv[r:] @ b: without a residue, the rows of `b` at the
        residue columns, shared with `b`."""
        if self.residue is None:
            return b[self.cols[len(self.E):]]
        rows = b._row_dicts
        return la.SparseMatrix((self.shape[1] - self.rank, b.shape[1]), tuple(
            la._times(y, rows) for y in self.kernel_coordinate_rows()))

    def left_rows(self) -> list:
        """Rows r0.. of L^-1 P, keyed by row of A: the identity on the
        residue rows, and each row times A is that residue row (zero
        without a residue)."""
        r0, rows = len(self.E), self.rows
        ys = [{x: 1} for x in rows[r0:]]
        identity = [{k: 1} for k in range(len(ys))]
        for x, col in zip(rows[:r0], _triangular_inverse(self.L, rows, identity)):
            for k, z in col.items():
                ys[k][x] = z
        return ys

    def u_rows(self, keep, left_rows) -> list:
        """The rows `keep` (positions from r0 on) of U, from `left_rows`."""
        r0 = len(self.E)
        if self.residue is None:
            return [left_rows[i - r0] for i in keep]
        ub = self.residue.sparse.U._row_dicts
        return [la._times(ub[i - r0], left_rows) for i in keep]

    def u_inv_columns(self, keep) -> la.SparseMatrix:
        """The columns `keep` (positions from r0 on) of u_inv, keyed by
        row of A: coordinate selections of the residue rows, through
        u_inv_B where there is a residue."""
        r0, rows = len(self.E), self.rows
        if self.residue is None:
            cols = [{rows[i]: 1} for i in keep]
        else:
            b = self.residue.sparse.u_inv._col_dicts
            cols = [{rows[r0 + k]: e for k, e in b[i - r0].items()} for i in keep]
        return la.SparseMatrix((self.shape[0], len(cols)), _cols=tuple(cols))


def eliminate(a, *, whole: bool = False) -> Elimination:
    """The record of the Smith reduction of a SparseMatrix or anything
    `SparseMatrix.of` reads.

    Deterministic minimal-absolute-value pivoting with lexicographic
    tie-break.  The reduction runs on sparse lines: the working matrix
    as row dicts with a column -> rows index.  Every pivot, unit or not,
    takes one step: each row below it is written once through `add_row`,
    then its own row once, each entry to its remainder by the pivot; a
    nonzero remainder is promoted and the step repeats.  A unit leaves
    no remainder: its multipliers go into L and its row, as eliminated,
    into E.  At the first pivot that is not a unit, the trailing block
    is the residue, and from there the same step updates the residue's
    own factors (U and u_inv through `add_row`, V and v_inv through the
    row step) and runs the divisibility fix-up, which adds an offending
    row through `add_row` and repeats the step.  With `whole` the
    residue is all of A from the start, so its factors are A's (the
    identities and a zero D for a zero matrix).  Nothing here certifies
    the record: `smith_normal_form` certifies those factors, and
    `homology` what it reads (`_certify_elimination`, `_certify_kernel`,
    `_certify_left_rows`).
    """
    a = la.SparseMatrix.of(a)
    m, n = a.shape
    w = [dict(row) for row in a._row_dicts]
    w_cols = [set(col) for col in a._col_dicts]
    # rows and columns keep their labels; a swap trades the labels of
    # two positions, and only the residue's factors follow positions
    row_of, col_of, pos_r, pos_c = list(range(m)), list(range(n)), list(range(m)), list(range(n))
    L, E = [], []
    rows = cols = block = u = u_inv = v = v_inv = None  # set where the residue starts

    def add_row(dst, q, src):
        # row dst of w += q * row src, keeping the column index; the
        # residue's U and u_inv follow, so every row operation is this one
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
        if u is not None:
            d, s = pos_r[dst], pos_r[src]
            la._axpy(u[d], q, u[s])
            la._axpy(u_inv[s], -q, u_inv[d])

    def swap_rows(i, j):
        x, y = row_of[i], row_of[j]
        row_of[i], row_of[j], pos_r[x], pos_r[y] = y, x, j, i
        if u is not None:
            u[i], u[j], u_inv[i], u_inv[j] = u[j], u[i], u_inv[j], u_inv[i]

    def swap_cols(i, j):
        x, y = col_of[i], col_of[j]
        col_of[i], col_of[j], pos_c[x], pos_c[y] = y, x, j, i
        if v is not None:
            v[i], v[j], v_inv[i], v_inv[j] = v[j], v[i], v_inv[j], v_inv[i]

    def pivot(t):
        # the least |entry| of the trailing block, first in row-major
        # order of positions; no nonzero is below a unit, so the first
        # unit wins
        for i in range(t, m):
            units = [j for j, e in w[row_of[i]].items() if e == 1 or e == -1]
            if units:
                return i, min(map(pos_c.__getitem__, units))
        least = min((abs(e) for i in range(t, m) for e in w[row_of[i]].values()), default=0)
        for i in range(t, m):
            hits = [j for j, e in w[row_of[i]].items() if abs(e) == least]
            if hits:
                return i, min(map(pos_c.__getitem__, hits))
        return None

    t, bound = 0, min(m, n)
    while True:
        pos = pivot(t) if t < bound else None
        if u is None and (whole or pos and abs(w[row_of[pos[0]]][col_of[pos[1]]]) != 1):
            # the residue: the trailing block, reduced from here on with
            # factors of its own size, which start at the identity
            rows, cols = tuple(row_of), tuple(col_of)
            block = la.SparseMatrix((m - t, n - t), tuple(
                {pos_c[j] - t: e for j, e in w[x].items()} for x in rows[t:]))
            u, u_inv = ([None] * t + list(la.sparse_identity(m - t)._row_dicts) for _ in "uu")
            v, v_inv = ([None] * t + list(la.sparse_identity(n - t)._row_dicts) for _ in "vv")
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            x, c = row_of[t], col_of[t]
            sign = 1
            if w[x][c] < 0:
                sign = -1
                for line in (w[x], u[t], u_inv[t]) if u is not None else (w[x],):
                    for k in line:
                        line[k] = -line[k]
            p = w[x][c]
            # take each row below to its remainder in column c; rows above
            # hold only their pivot, so column c is clear once it holds
            # the pivot alone
            column = {x: sign}
            for i in [i for i in w_cols[c] if i != x]:
                q = -(w[i][c] // p)
                if q:
                    add_row(i, q, x)
                    column[i] = -q
            if len(w_cols[c]) > 1:
                # a nonzero remainder is strictly smaller: promote it
                swap_rows(t, min(pos_r[i] for i in w_cols[c] if i != x))
                continue
            # the transpose on row x: column j += q * column c changes
            # only row x of w, as column c is clear.  Row x goes into a
            # new dict, since one emptied in place keeps its capacity
            row, rest = w[x], {c: p}
            w[x] = rest
            for j, e in row.items():
                if j != c:
                    q, r = divmod(e, p)
                    if q and v is not None:
                        k = pos_c[j]
                        la._axpy(v[k], -q, v[t])
                        la._axpy(v_inv[t], q, v_inv[k])
                    if r:
                        rest[j] = r
                    else:
                        w_cols[j].discard(x)
            if len(rest) > 1:
                swap_cols(t, min(pos_c[j] for j in rest if j != c))
                continue
            if p == 1:
                break  # a unit divides every entry
            # row and column are clear; every entry of the block must be
            # divisible by the pivot
            rows_left = (i for i in row_of[t + 1:] if any(e % p for e in w[i].values()))
            offender = next(rows_left, None)
            if offender is None:
                break
            add_row(x, 1, offender)
        if u is None:
            L.append(column)
            E.append(row)
        t += 1

    if u is None:
        return Elimination((m, n), tuple(row_of), tuple(col_of), tuple(L), tuple(E), None, None)
    r0 = len(E)
    residue = la.Factors(
        U=la.SparseMatrix((m - r0, m - r0), tuple(u[r0:])),
        D=la.SparseMatrix((m - r0, n - r0), tuple(
            {pos_c[j] - r0: e for j, e in w[x].items()} for x in row_of[r0:])),
        V=la.SparseMatrix((n - r0, n - r0), _cols=tuple(v[r0:])),
        u_inv=la.SparseMatrix((m - r0, m - r0), _cols=tuple(u_inv[r0:])),
        v_inv=la.SparseMatrix((n - r0, n - r0), tuple(v_inv[r0:])),
    )
    return Elimination((m, n), rows, cols, tuple(L), tuple(E), block, la.SmithDecomposition(residue))


def _certify_elimination(rec: Elimination, a: la.SparseMatrix) -> None:
    """Exact check that `rec` records a reduction of `a`: `rows` and
    `cols` are permutations, L has a column for each line of E and the
    block fills the positions from r0 on, L is lower and E upper
    triangular in them with the pivots ±1 and 1, P A == L W on every row
    with the residue rows as W's last block, and the residue has its own
    certificate.  With E's unit pivots this fixes the rank and shows
    that the pivot columns of A are independent.  L is kept by columns,
    so L W is taken off A a column at a time, not by `_is_product`."""
    (m, n), r0, rows, cols = rec.shape, len(rec.E), rec.rows, rec.cols
    block = rec.block.shape if rec.residue else (m - r0, n - r0)
    if (a.shape, len(rec.L), block, sorted(rows), sorted(cols)) != (
            (m, n), r0, (m - r0, n - r0), [*range(m)], [*range(n)]):
        raise InternalCheckError("elimination record does not fit the matrix")
    pos_r, pos_c = _positions(rows), _positions(cols)
    # A - L W, a column of L at a time, formed in place
    rest = [dict(row) for row in a._row_dicts]
    for t, (column, line) in enumerate(zip(rec.L, rec.E)):
        if column.get(rows[t]) not in (1, -1) or line.get(cols[t]) != 1 or min(
                map(pos_r.__getitem__, column)) < t or min(map(pos_c.__getitem__, line)) < t:
            raise InternalCheckError("elimination record is not triangular")
        for x, c in column.items():
            row = rest[x]
            get = row.get
            for j, e in line.items():
                row[j] = get(j, 0) - c * e
    if rec.residue is not None:
        f = rec.residue.sparse
        la._certify(f.U, rec.block, f.V, f.D, f.u_inv, f.v_inv)
        for x, line in zip(rows[r0:], rec.block._row_dicts):
            row = rest[x]
            for k, e in line.items():
                row[cols[r0 + k]] = row.get(cols[r0 + k], 0) - e
    if any(any(row.values()) for row in rest):
        raise InternalCheckError("elimination record does not reproduce the matrix")


def _certify_kernel(a: la.SparseMatrix, kernel: la.SparseMatrix) -> None:
    """Exact check of a @ k == 0 for every column k of `kernel`."""
    if not la._vanishes(a, kernel):
        raise InternalCheckError("a kernel column is not in the kernel")


def _certify_left_rows(rec: Elimination, left_rows, a: la.SparseMatrix) -> None:
    """Exact check that each row y of `left_rows` times `a` is its
    residue row (zero without a residue)."""
    r0, cols, rows = len(rec.E), rec.cols, a._row_dicts
    block = rec.block._row_dicts if rec.residue is not None else ()
    for i, y in enumerate(left_rows):
        want = {cols[r0 + k]: e for k, e in block[i].items()} if block else {}
        if not la._is_product(y, rows, want):
            raise InternalCheckError("a coordinate row does not reproduce its residue row")
